"""Measuring each ``repro`` layer from outside the program.

Two instruments, both installed by patching attributes of the
imported ``repro`` modules and restored afterwards (nothing under
``src/`` changes):

- :class:`SpanRecorder` wraps each layer's boundary functions
  (:data:`SPAN_TARGETS`) and records one span per call — name, start,
  end, parent — in memory.  A generator function gets one span per
  resumption, so simulated waiting is never charged to a layer.  A
  layer's *self time* is its spans' time minus the time of their child
  spans; whatever no span covers inside ``Simulator.run_until`` is the
  kernel's (``sim``) own time.
- :func:`count_calls` tallies Python function calls (generator
  resumptions included) during ``run_until`` by the ``repro`` package
  whose file the code lives in, under ``sys.setprofile``.  For a given
  Python minor version the tally is exact and host-independent.
"""

from __future__ import annotations

import importlib
import inspect
import json
import operator
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

#: One layer per ``repro`` package.  ``faults``, ``net/transport``,
#: ``lab``, ``trace``, ``analysis`` and ``mem/checkpoint`` are left
#: unmeasured: fault-free runs bypass the first two, and the rest are
#: not on the simulation path.
LAYERS = ("sim", "net", "mem", "protocols", "sync", "core", "obs",
          "apps", "serve")

_PROTOCOL_METHODS = (
    "handle", "ensure_valid", "fetch_pending", "resolve_pages",
    "on_release", "flush", "push_updates", "grant_payload",
    "apply_grant", "pre_barrier", "barrier_arrive_payload",
    "master_combine", "apply_depart", "validate_all", "collect_garbage",
    "seal_interval", "seal_from_app", "seal_in_handler",
    "incorporate_records", "store_diffs", "due_notices", "apply_pending",
    "invalidate_page", "lazy_miss", "record_write")

#: Layer -> ``module:qualname`` of the functions that mark its
#: boundary.  A method target also covers every subclass override.
SPAN_TARGETS: Dict[str, Tuple[str, ...]] = {
    "sim": ("repro.sim.engine:Simulator.run_until",),
    "net": ("repro.net.base:Network.transmit",
            # Kernel-dispatched callback of the bus model.
            "repro.net.ethernet:EthernetNetwork._release_slot"),
    "mem": ("repro.mem.pages:PageCopy.make_twin",
            "repro.mem.pages:PageCopy.twin_dirty_ranges",
            "repro.mem.diffs:Diff.from_ranges",
            "repro.mem.diffs:Diff.apply",
            "repro.mem.wire:encode_diff",
            "repro.mem.wire:decode_diff",
            "repro.mem.timestamps:VectorClock.merged",
            "repro.mem.timestamps:VectorClock.dominates",
            "repro.mem.intervals:IntervalLog.records_after"),
    "protocols": tuple(f"repro.protocols.base:BaseProtocol.{name}"
                       for name in _PROTOCOL_METHODS),
    "sync": ("repro.sync.locks:LockManager.acquire",
             "repro.sync.locks:LockManager.release",
             "repro.sync.locks:LockManager.handle",
             "repro.sync.barriers:BarrierManager.barrier",
             "repro.sync.barriers:BarrierManager.handle"),
    "core": tuple(f"repro.core.api:DsmApi.{name}" for name in (
        "read_region", "write_region", "read", "write", "touch",
        "acquire", "release", "barrier", "compute"))
    + tuple(f"repro.core.node:Node.{name}" for name in (
        "deliver", "app_send", "handler_send", "request_from_app",
        "compute", "app_charge", "stall", "observe_peer_vc")),
    "obs": ("repro.obs.registry:_HistogramChild.observe",
            "repro.obs.registry:_CounterChild.inc",
            "repro.obs:NodeInstruments.record_send"),
    "apps": tuple(f"repro.apps.{module}:{cls}.worker" for module, cls in (
        ("jacobi", "Jacobi"), ("cholesky", "Cholesky"),
        ("water", "Water"), ("tsp", "Tsp"),
        ("base", "EventDrivenApplication"))),
    "serve": ("repro.serve.workload:generate_requests",
              "repro.serve.workload:node_schedules",
              "repro.serve.workload:write_counts"),
}

ROOT = "Simulator.run_until"


class Patcher:
    """Replaces attributes and puts the originals back, in reverse."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]
                            if isinstance(owner, type)
                            else getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def resolve(target: str) -> List[Tuple[object, str, Callable, str]]:
    """``(owner, attribute, function, span name)`` for every place
    ``target`` must be wrapped: the method and its overrides, or the
    module function and every ``repro`` module that imported it."""
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    if "." not in qualname:
        function = getattr(module, qualname)
        return [(mod, qualname, function, qualname)
                for name, mod in sorted(sys.modules.items())
                if name.startswith("repro") and mod is not None
                and getattr(mod, qualname, None) is function]
    cls_name, attr = qualname.split(".")
    base = getattr(module, cls_name)
    sites = []
    for cls in dict.fromkeys(_subclasses(base)):
        raw = cls.__dict__.get(attr)
        if raw is None:
            continue
        function = raw.__func__ if isinstance(raw, staticmethod) else raw
        sites.append((cls, attr, function, f"{cls.__name__}.{attr}"))
    return sites


def import_layers() -> None:
    """Import every module a target or a subclass lives in, so
    :func:`resolve` sees all overrides."""
    for name in ("repro.protocols.registry", "repro.apps.registry",
                 "repro.net.atm", "repro.net.ethernet"):
        importlib.import_module(name)
    for targets in SPAN_TARGETS.values():
        for target in targets:
            importlib.import_module(target.split(":")[0])


class SpanRecorder:
    """In-memory spans at the layer boundaries of one traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []      # span-name table
        self.layer_of: List[str] = []   # span-name id -> layer
        self.codes: list = []           # span-name id -> wrapped code
        self.calls: List[int] = []      # span-name id -> invocations
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]              # open spans, innermost last

    # -- recording -------------------------------------------------------

    def install(self, patcher: Patcher) -> None:
        import_layers()
        for layer, targets in SPAN_TARGETS.items():
            for target in targets:
                for owner, attr, function, name in resolve(target):
                    nid = len(self.names)
                    self.names.append(name)
                    self.layer_of.append(layer)
                    self.codes.append(function.__code__)
                    self.calls.append(0)
                    wrapper = self._wrap(function, nid)
                    if isinstance(owner.__dict__.get(attr), staticmethod):
                        wrapper = staticmethod(wrapper)
                    patcher.replace(owner, attr, wrapper)

    def _wrap(self, function: Callable, nid: int) -> Callable:
        clock = time.perf_counter_ns
        name_ids, parents = self.name_ids, self.parents
        starts, ends = self.starts, self.ends
        calls = self.calls
        stack = self._stack
        push, pop = stack.append, stack.pop

        def open_span() -> int:
            index = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0)
            push(index)
            return index

        def close_span(index: int) -> None:
            ends[index] = clock()
            pop()

        if inspect.isgeneratorfunction(function):
            def drive(generator):
                value = error = None
                while True:
                    index = open_span()
                    try:
                        if error is None:
                            item = generator.send(value)
                        else:
                            item = generator.throw(error)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        close_span(index)
                    error = None
                    try:
                        value = yield item
                    except GeneratorExit:
                        generator.close()
                        raise
                    except BaseException as exc:
                        error, value = exc, None

            def wrapper(*args, **kwargs):
                calls[nid] += 1
                return drive(function(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                calls[nid] += 1
                index = open_span()
                try:
                    return function(*args, **kwargs)
                finally:
                    close_span(index)

        return wrapper

    # -- analysis --------------------------------------------------------

    def analyse(self) -> dict:
        """Self time per layer under the root span, inclusive time per
        span name, and spans under the root per wrapped code object.

        The layer self times sum to the root span by construction (a
        span's time is its self time plus its children's), so that sum
        checks nothing; :func:`coverage_errors` is the check."""
        root = self.name_ids.index(self.names.index(ROOT))
        count = len(self.name_ids)
        durations = array("q", map(operator.sub, self.ends, self.starts))
        child_time = array("q", [0]) * count
        inside = bytearray(count)
        inside[root] = 1
        for index in range(root + 1, count):
            parent = self.parents[index]
            if parent >= 0 and inside[parent]:
                inside[index] = 1
                child_time[parent] += durations[index]
        layer_self = dict.fromkeys(LAYERS, 0)
        inclusive = [0] * len(self.names)
        spans_inside: Dict[object, int] = {}
        for index in range(count):
            nid = self.name_ids[index]
            inclusive[nid] += durations[index]
            if inside[index]:
                layer_self[self.layer_of[nid]] += (durations[index]
                                                   - child_time[index])
                code = self.codes[nid]
                spans_inside[code] = spans_inside.get(code, 0) + 1
        return {
            "root_ns": durations[root],
            "layer_self_ns": layer_self,
            "spans": count,
            "spans_inside": spans_inside,
            "calls": self._by_name(self.calls),
            "inclusive_ns": self._by_name(inclusive),
        }

    def coverage_errors(self, spans_inside: Dict[object, int],
                        profiled: Dict[object, int]) -> List[str]:
        """Compare the spans under the root with an independent count:
        the calls (generator resumptions included) that
        :func:`count_calls` saw the interpreter make to the same code
        during ``run_until``.  A call that bypassed the wrappers, or a
        function wrapped twice, makes them differ."""
        name_of: Dict[object, str] = {}
        for name, code in zip(self.names, self.codes):
            name_of.setdefault(code, name)
        errors = []
        for code, name in name_of.items():
            spans, calls = spans_inside.get(code, 0), profiled.get(code, 0)
            if name != ROOT and spans != calls:
                errors.append(f"{name}: {spans} spans, "
                              f"{calls} profiled calls")
        return errors

    def _by_name(self, values) -> Dict[str, int]:
        """Sum per span name: a module function imported into several
        modules has one name but a wrapper in each."""
        out: Dict[str, int] = {}
        for name, value in zip(self.names, values):
            out[name] = out.get(name, 0) + value
        return out

    def write_chrome_trace(self, path: Path, limit: int) -> int:
        """Write the first ``limit`` spans (start order) as Chrome
        trace JSON; times are host microseconds from the first span.
        Returns the number of spans written."""
        from repro.obs import validate_chrome_trace

        shown = min(limit, len(self.name_ids))
        origin = self.starts[0] if shown else 0
        events = [{"ph": "M", "pid": 1, "name": "process_name",
                   "args": {"name": "perfbench host"}}]
        for index in range(shown):
            nid = self.name_ids[index]
            events.append({
                "ph": "X", "pid": 1, "tid": 1, "name": self.names[nid],
                "cat": self.layer_of[nid],
                "ts": (self.starts[index] - origin) / 1000.0,
                "dur": (self.ends[index] - self.starts[index]) / 1000.0,
                "args": {"span": index, "parent": self.parents[index]}})
        trace = {"traceEvents": events, "displayTimeUnit": "ns"}
        problems = validate_chrome_trace(trace)
        if problems:
            raise ValueError(f"invalid Chrome trace: {problems[:3]}")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(trace))
        return shown


def _layer_of_file(filename: str) -> str:
    parts = Path(filename).parts
    if "repro" not in parts:
        return ""
    rest = parts[len(parts) - parts[::-1].index("repro"):]
    layer = rest[0] if len(rest) > 1 else ""
    return layer if layer in LAYERS else ""


def count_calls(run: Callable[[], object]
                ) -> Tuple[object, Dict[str, int], Dict[object, int]]:
    """Run ``run()`` and tally Python calls made while the simulator
    dispatches (inside ``run_until``): by ``repro`` layer, and by code
    object."""
    from repro.sim.engine import Simulator

    by_code: Dict[object, int] = {}
    get = by_code.get

    def profile(frame, event, _arg) -> None:
        if event == "call":
            code = frame.f_code
            by_code[code] = get(code, 0) + 1

    original = Simulator.run_until

    def counted_run_until(self, *args, **kwargs):
        sys.setprofile(profile)
        try:
            return original(self, *args, **kwargs)
        finally:
            sys.setprofile(None)

    with Patcher() as patcher:
        patcher.replace(Simulator, "run_until", counted_run_until)
        result = run()
    counts: Dict[str, int] = dict.fromkeys(LAYERS, 0)
    counts[""] = 0
    for code, calls in by_code.items():
        counts[_layer_of_file(code.co_filename)] += calls
    counts.pop("")
    return result, counts, by_code
