"""Network interface and shared statistics.

A network's single job is: given a message handed over at the current
simulated time (after the sender has already paid its software
overhead), decide when the message is delivered at the receiver, folding
in wire (serialization) time, propagation latency, and contention.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from heapq import heappush
from typing import Callable, Optional

from repro.core.config import MachineConfig
from repro.net.message import Message
from repro.obs import Observability
from repro.sim.engine import Simulator


class NetworkStats:
    """Traffic and contention totals of one network.  They are kept
    only in the ``net.*`` registry metrics (docs/observability.md):
    :meth:`record` writes those children and the properties read
    them back."""

    def __init__(self, registry) -> None:
        # Bound children, not Metric objects: record() runs once per
        # message.  Every net.* metric is label-free.
        def child(name):
            return registry.get(name).labels()

        self._messages = child("net.messages_total")
        self._wire_bytes = child("net.wire_bytes_total")
        self._data_bytes = child("net.data_bytes_total")
        self._wire_cycles = child("net.wire_cycles_total")
        self._contention = child("net.contention_cycles_total")
        self._wire_hist = child("net.wire_cycles")
        self._collisions = child("net.collisions_total")

    def record(self, message: Message, wire: float, waited: float) -> None:
        # Counter children are plain .value cells; skip the inc()
        # call per field on this once-per-message path.
        self._messages.value += 1
        self._wire_bytes.value += message.size_bytes
        self._data_bytes.value += message.data_bytes
        self._wire_cycles.value += wire
        self._contention.value += waited
        self._wire_hist.observe(wire)

    @property
    def messages(self) -> int:
        return self._messages.value

    @property
    def bytes_sent(self) -> int:
        return self._wire_bytes.value

    @property
    def data_bytes_sent(self) -> int:
        return self._data_bytes.value

    @property
    def contention_cycles(self) -> float:
        # The counter starts as int 0; an idle network reports 0.0.
        return float(self._contention.value)

    @property
    def collisions(self) -> int:
        return self._collisions.value


class Network(ABC):
    """Base class for the three contention models.

    Fault injection hook: when an injector is attached (see
    :meth:`attach_faults`), every transmission first gets a verdict —
    drop, duplicate, or extra delay.  Whether a *dropped* frame still
    consumes the medium is model-specific
    (:attr:`DROP_CONSUMES_WIRE`): on Ethernet and the ATM crossbar the
    frame was physically transmitted and lost afterwards, so it
    occupies the wire/ports as usual; the ideal model drops for free.
    """

    #: A dropped frame still pays wire time and contention (the loss
    #: happens after transmission).  IdealNetwork overrides this.
    DROP_CONSUMES_WIRE = True

    def __init__(self, sim: Simulator, config: MachineConfig,
                 obs=None) -> None:
        if obs is None:
            obs = Observability()
        self.sim = sim
        self.config = config
        self.obs = obs
        self.stats = NetworkStats(obs.registry)
        self.latency_cycles = config.us_to_cycles(config.network.latency_us)
        # Wire-time constants pre-fetched: wire_cycles runs once per
        # transmission; the inlined expression keeps the exact
        # operation order of MachineConfig.wire_cycles.
        self._wire_bps = config.network.bandwidth_bps
        self._cycles_per_second = config.cycles_per_second
        self._deliver: Optional[Callable[[Message], None]] = None
        self.faults = None
        self._tracer = obs.tracer

    def attach(self, deliver: Callable[[Message], None]) -> None:
        """Register the machine-level delivery callback."""
        self._deliver = deliver

    def attach_faults(self, injector) -> None:
        """Route every transmission through a fault injector."""
        self.faults = injector

    def wire_cycles(self, message: Message) -> float:
        return (message.size_bytes * 8.0 / self._wire_bps
                * self._cycles_per_second)

    def transmit(self, message: Message) -> float:
        """Accept a message now; schedule delivery.  Returns the
        scheduled delivery time (useful for tests)."""
        if self._deliver is None:
            raise RuntimeError("network not attached to a machine")
        if not (0 <= message.dst < self.config.nprocs):
            raise ValueError(f"destination {message.dst} out of range")
        if self.faults is None:
            delivery_time = self._schedule(message)
            # Simulator.schedule inlined (one call per transmission):
            # identical ``now + delay`` float arithmetic and sequence
            # numbering, including the zero-delay ready-bucket branch
            # for the corner where a tiny wire time rounds away
            # against a large current time.
            sim = self.sim
            now = sim.now
            delay = delivery_time - now
            sim._seq = seq = sim._seq + 1
            if delay == 0.0:
                sim._ready.append((seq, self._deliver, (message,)))
            else:
                heappush(sim._queue,
                         (now + delay, seq, self._deliver, (message,)))
            return delivery_time
        return self._transmit_with_faults(message)

    def _transmit_with_faults(self, message: Message) -> float:
        decision = self.faults.decide(message)
        if (decision is not None and decision.drop
                and not self.DROP_CONSUMES_WIRE):
            # Free drop: the model never sees the frame.
            return self.sim.now
        delivery_time = self._schedule(message)
        if decision is None:
            self.sim.schedule(delivery_time - self.sim.now,
                              self._deliver, message)
            return delivery_time
        if decision.drop:
            # Wire time and contention were paid; delivery never
            # happens.  The injector already counted the drop.
            return delivery_time
        delivery_time += decision.extra_delay
        self.sim.schedule(delivery_time - self.sim.now,
                          self._deliver, message)
        if decision.duplicate:
            # The duplicate appears one latency later, without
            # consuming the medium again (modelled as a switch-side
            # replication, not a second send).
            gap = self.latency_cycles or 1.0
            self.sim.schedule(delivery_time + gap - self.sim.now,
                              self._deliver, message)
        return delivery_time

    @abstractmethod
    def _schedule(self, message: Message) -> float:
        """Model-specific: pick the delivery time and record stats."""
