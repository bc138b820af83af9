"""Broadcast Ethernet model.

The whole machine shares one medium: transmissions serialize globally.
With ``collisions`` enabled, a sender that finds the medium busy pays a
binary-exponential-backoff penalty that grows with the number of other
stations currently queued — the paper's observation that identical
processors hitting a barrier together create severe contention (8-way
Jacobi waits >3 ms per barrier for the wire) falls out of this model.
"""

from __future__ import annotations

from repro.core.config import MachineConfig
from repro.core.rng import substream
from repro.net.base import Network
from repro.net.message import Message
from repro.sim.engine import Simulator


class EthernetNetwork(Network):
    """Single shared medium with optional CSMA/CD backoff penalties.

    With fault injection attached, a dropped frame still occupies the
    medium for its full wire time — on a broadcast Ethernet the bits
    were sent and corrupted/lost, so everyone else still waited.
    """

    MAX_CONTENDERS = 16  # backoff window stops growing past this

    def __init__(self, sim: Simulator, config: MachineConfig,
                 obs=None) -> None:
        super().__init__(sim, config, obs)
        self.collisions = config.network.collisions
        self.slot_cycles = config.us_to_cycles(
            config.network.backoff_slot_us)
        self._free_at = 0.0
        self._queued = 0
        self._rng = substream(config.seed, "ethernet")
        registry = self.obs.registry
        self._collision_count = registry.get(
            "net.collisions_total").labels()
        self._backoff_cycles = registry.get(
            "net.backoff_cycles_total").labels()

    def _schedule(self, message: Message) -> float:
        now = self.sim.now
        wire = self.wire_cycles(message)
        start = max(now, self._free_at)
        waited = start - now
        if self.collisions and start > now:
            # The medium was busy: model a CSMA/CD collision episode
            # with a backoff window that grows linearly in the number
            # of stations currently contending (a light-tailed stand-in
            # for truncated binary exponential backoff).  The sender
            # holds a contender slot until its modelled transmission
            # ends, so the window tracks *live* contention instead of
            # ratcheting up across unrelated episodes within a burst.
            self._queued += 1
            window = min(self._queued, self.MAX_CONTENDERS)
            backoff = self._rng.uniform(0.0, window) * self.slot_cycles
            start += backoff
            waited += backoff
            self._collision_count.value += 1
            self._backoff_cycles.value += backoff
            end = start + wire
            self.sim.schedule(end - now, self._release_slot)
        else:
            backoff = 0.0
            end = start + wire
        self._free_at = end
        self.stats.record(message, wire, waited)
        tracer = self._tracer
        if tracer is not None and tracer.sink.enabled:
            tracer.emit("net.xmit", msg=message.msg_id,
                        src=message.src, dst=message.dst,
                        kind=message.kind.value, wire=wire,
                        waited=waited, backoff=backoff)
        return end + self.latency_cycles

    def _release_slot(self) -> None:
        self._queued -= 1
