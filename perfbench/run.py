#!/usr/bin/env python3
"""Benchmark for the DSM simulator: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload cholesky-lh --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures the per-layer metrics from a traced run and two
call-counting passes (see README.md in this directory).  Every
simulation is checked by its app's oracle and by a determinism digest;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero
when any check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters timed from start to first dispatched event.
SETUP_PROBES = 7
#: Nominal duration of one reference loop (:func:`_reference_loop`):
#: its median on a 2-vCPU x86-64 VM under CPython 3.11.  ``setup_s``
#: is the set-up's length in reference loops times this, i.e. seconds
#: at that machine's speed.
REFERENCE_LOOP_S = 265e-6
#: Timed repetitions of the main simulation, at least.
MIN_REPS = 3
#: Spans written to the Chrome trace artifact (a prefix of the run).
TRACE_SPAN_LIMIT = 50_000
#: Seed held out while the benchmark was built; a later claim of a
#: gain must also hold on it.
HELD_OUT_SEED = 7919


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, metavar="T0",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- provenance -----------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    """Run git on this checkout only (no search above it, no user or
    system config); None when there is no repository or no git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args, workload, load_at_start) -> dict:
    from repro.lab.spec import code_version

    rev = _git("rev-parse", "HEAD")
    dirty = (None if rev is None else
             bool(_git("status", "--porcelain", "--untracked-files=no")))
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "git_rev": rev,
        "git_dirty": dirty,
        "src_sha256": code_version(),
        "workload": args.workload,
        "params": workload.describe(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "held_out_seed": HELD_OUT_SEED,
    }


# -- host time -------------------------------------------------------------


#: The speed probe's period, in host seconds.
PROBE_INTERVAL_S = 0.02


def _reference_loop() -> None:
    """A fixed pure-Python workload (well under a millisecond) whose
    duration tracks the machine's current speed.  It uses no ``repro`` code, so a change to
    the simulator cannot move it."""
    table: Dict[int, int] = {}
    for i in range(2000):
        table[i & 63] = table.get(i & 63, 0) + i * 3 // 7


class SpeedProbe:
    """Host time normalized by the machine's speed while it elapses.

    On a shared host the interpreter's speed drifts by tens of percent
    within seconds, so wall time from separate runs is hard to compare.
    While active, a ``SIGALRM`` handler times :func:`_reference_loop`
    every :data:`PROBE_INTERVAL_S`.  Each slice of wall time between two
    probes is divided by the loop time at the slice's end, giving
    ``units``: the run's length in reference loops.  ``probe_s`` is the
    handler's own time, which callers subtract from the wall time.
    ``started`` is the clock reading on entry and ``first_loop_s`` the
    first loop time, read on entry."""

    def __init__(self) -> None:
        self.units = self.probe_s = 0.0
        self.started = self.first_loop_s = 0.0
        self._last = self._loop_s = 0.0
        self._busy = False

    def _tick(self, _signum=None, _frame=None) -> None:
        if self._busy:         # the timer fired again inside the handler
            return
        self._busy = True
        start = time.perf_counter()
        _reference_loop()
        end = time.perf_counter()
        self._loop_s = end - start
        self.units += (start - self._last) / self._loop_s
        self.probe_s += self._loop_s
        self._last = end
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self.units = self.probe_s = 0.0
        self.started = self._last = time.perf_counter()
        self._tick()           # a speed reading for a run under one period
        self.units = 0.0
        self.first_loop_s = self._loop_s
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.units += (time.perf_counter() - self._last) / self._loop_s


# -- set-up time ------------------------------------------------------------


def setup_probe(args) -> int:
    """Child mode: set the main simulation up under the speed probe and,
    at its first dispatched event, print the set-up's length in
    reference loops, counted from ``args.setup_probe`` (the parent's
    clock reading just before it started this process)."""
    probe = SpeedProbe()
    probe.__enter__()
    # The interpreter's start, before the probe ran, at the first
    # reading's speed (perf_counter is the system-wide monotonic clock
    # on Linux, so the parent's reading is comparable).
    head = (probe.started - args.setup_probe) / probe.first_loop_s
    sys.path.insert(0, str(SRC))
    from layers import Patcher
    from repro.lab.spec import execute_spec
    from repro.sim.engine import Simulator
    from workloads import WORKLOADS

    def first_dispatch(self, *_args, **_kwargs):
        probe.__exit__()
        sys.stdout.write(f"dispatch {head + probe.units!r}\n")
        sys.stdout.flush()
        os._exit(0)

    Patcher().replace(Simulator, "run_until", first_dispatch)
    execute_spec(WORKLOADS[args.workload].spec(args.seed))
    return 1  # the simulation never dispatched


def measure_setup(args) -> Tuple[List[float], List[float]]:
    """Set-up (process start to the first dispatched event: imports,
    Machine build, app.setup) once per fresh interpreter.  Returns
    reference loops and wall seconds per probe."""
    units, wall = [], []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        command = [sys.executable, str(HERE / "run.py"),
                   "--setup-probe", repr(started),
                   "--workload", args.workload, "--seed", str(args.seed)]
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              text=True, cwd=str(ROOT)) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            child.stdout.read()
            code = child.wait(timeout=60)
        if not line.startswith("dispatch ") or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        units.append(float(line.split()[1]))
        wall.append(elapsed)
    return units, wall


# -- simulations -------------------------------------------------------------


class Bench:
    """Runs simulations of one workload and keeps the checks: oracle
    (``Application.finish``), determinism digest, completed requests."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digests: Dict[str, str] = {}
        self.last_host_s = self.last_host_ref = 0.0

    def simulate(self, spec, key: str):
        """One simulation through the public run path; ``key`` names
        the configuration whose digest every repetition must match."""
        from repro.lab.spec import execute_spec
        from workloads import digest, kv_missing

        self.attempted += 1
        requests = spec.app_params.get("requests", 0) \
            if spec.app == "kvstore" else 0
        self.attempted += requests
        try:
            result = execute_spec(spec)
        except Exception:  # any failure is counted, reported, survived
            self.failed += 1 + requests
            self.problems.append(f"{key}: {traceback.format_exc()}")
            return None
        missing = kv_missing(result, spec) if requests else 0
        if missing:
            self.failed += missing
            self.problems.append(f"{key}: {missing} requests missing")
        sha = digest(result)
        if self.digests.setdefault(key, sha) != sha:
            self.failed += 1
            self.problems.append(f"{key}: digest {sha[:12]} differs from "
                                 f"{self.digests[key][:12]}")
        return result

    def probed(self, spec):
        """One main simulation, started from a collected heap, with
        ``Simulator.run_until`` timed under the speed probe; sets
        ``last_host_s`` (wall, less the probe's own time) and
        ``last_host_ref``."""
        from layers import Patcher
        from repro.sim.engine import Simulator

        timed = Simulator.__dict__["run_until"]
        probe = SpeedProbe()

        def run_until(sim, *args, **kwargs):
            started = time.perf_counter()
            try:
                with probe:
                    return timed(sim, *args, **kwargs)
            finally:
                self.last_host_s = (time.perf_counter() - started
                                    - probe.probe_s)
                self.last_host_ref = probe.units

        gc.collect()
        with Patcher() as patcher:
            patcher.replace(Simulator, "run_until", run_until)
            return self.simulate(spec, "main")

    def timed_reps(self, spec, seconds: float, summarize):
        """Repeat the main simulation for ``seconds`` (at least
        MIN_REPS times).  Returns per-rep host seconds inside
        ``run_until``, the same in reference loops, and
        ``summarize(result)`` of the first repetition (None if a
        repetition failed).  No result outlives its repetition, so the
        peak memory is one simulation's, whatever the repetition count
        or the collector's timing."""
        host: List[float] = []
        ref: List[float] = []
        summary = None
        deadline = time.perf_counter() + seconds
        while len(host) < MIN_REPS or time.perf_counter() < deadline:
            result = self.probed(spec)
            if result is None:
                return host, ref, None
            host.append(self.last_host_s)
            ref.append(self.last_host_ref)
            if summary is None:
                summary = summarize(result)
            del result
        return host, ref, summary


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(args, bench: Bench,
               setup: Tuple[List[float], List[float]]) -> Dict[str, float]:
    """Timed repetitions and the kvstore capacity ladder."""
    from repro.analysis.serving import percentile
    from workloads import (KV_LADDER_REQUESTS, kv_since_arrival_us,
                           rung_passes, worker_finish_us)

    workload = bench.workload
    spec = workload.spec(args.seed)
    mhz = spec.config.cpu_mhz

    def exact(result) -> Dict[str, float]:
        """The simulated metrics, exact for the seed."""
        if workload.ladder:
            latencies = kv_since_arrival_us(result, mhz)
        else:
            latencies = worker_finish_us(result, mhz)
        return {
            "sim_ms": result.elapsed_cycles / mhz / 1000.0,
            "op_p50_us": percentile(latencies, 50),
            "op_p99_us": percentile(latencies, 99),
            "op_p999_us": percentile(latencies, 99.9),
            # Batch apps: jobs per simulated second.
            "capacity_per_s": _ratio(1e6 * mhz, result.elapsed_cycles),
            "samples": len(latencies),
        }

    host, host_ref, metrics = bench.timed_reps(spec, args.seconds, exact)
    if metrics is None:
        return {}
    if workload.ladder:
        metrics["capacity_per_s"] = 0.0
        for rate in workload.ladder:
            rung = workload.spec(args.seed, rate_rps=rate,
                                 requests=KV_LADDER_REQUESTS)
            result = bench.simulate(rung, f"rung-{rate:g}")
            if result is not None:
                ok, row = rung_passes(result, rung, mhz)
                print(f"  ladder {json.dumps(row)}")
                if ok:
                    metrics["capacity_per_s"] = max(
                        metrics["capacity_per_s"], rate)
    setup_ref, setup_wall = setup
    print(f"  samples: setup {len(setup_ref)}, host {len(host)}, "
          f"op latency {metrics.pop('samples')}")
    print(f"  setup (wall, not gated) {statistics.median(setup_wall):.6f} s,"
          f" probes {' '.join(f'{w:.3f}' for w in setup_wall)}")
    print(f"  host_s (wall, not gated) {statistics.median(host):.6f} s, "
          f"reps {' '.join(f'{h:.3f}' for h in host)}")
    print(f"  digest main {bench.digests['main']}")
    metrics.update({
        "setup_s": statistics.median(setup_ref) * REFERENCE_LOOP_S,
        "host_ref": statistics.median(host_ref),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return metrics


def per_layer(args, bench: Bench) -> Dict[str, float]:
    """MIN_REPS untraced runs (the overhead base), one traced run, and
    two call-counting passes — all of the same main simulation."""
    from layers import LAYERS, Patcher, SpanRecorder, count_calls
    from repro.analysis.serving import percentile
    from workloads import kv_since_arrival_us

    spec = bench.workload.spec(args.seed)
    mhz = spec.config.cpu_mhz
    host, host_ref, _ = bench.timed_reps(spec, 0.0, lambda result: None)
    if len(host) < MIN_REPS:
        return {}
    untraced = statistics.median(host)
    untraced_ref = statistics.median(host_ref)

    # The traced run also runs under the speed probe, so the overhead
    # ratio does not follow host drift; the probe's ~1% of time lands in
    # whichever spans it interrupts.
    recorder = SpanRecorder()
    with Patcher() as patcher:
        recorder.install(patcher)
        traced = bench.probed(spec)
    traced_ref = bench.last_host_ref
    overhead = traced_ref / untraced_ref
    counted, profiled = [], {}
    for _ in range(2):
        result, counts, profiled = count_calls(
            lambda: bench.simulate(spec, "main"))
        counted.append(counts)
    if traced is None or result is None:
        return {}
    if counted[0] != counted[1]:
        bench.failed += 1
        bench.problems.append(f"call counts differ between passes: "
                              f"{counted[0]} vs {counted[1]}")

    spans = recorder.analyse()
    uncovered = recorder.coverage_errors(spans["spans_inside"], profiled)
    if uncovered:
        bench.failed += 1
        bench.problems.append(f"span coverage: {uncovered}")
    artifact = HERE / "out" / f"{args.workload}-seed{args.seed}.trace.json"
    written = recorder.write_chrome_trace(artifact, TRACE_SPAN_LIMIT)
    traced_s = spans["root_ns"] / 1e9
    print(f"  traced run: {spans['spans']} spans, {written} written to "
          f"{artifact.relative_to(ROOT)}")
    print(f"  span coverage: {sum(spans['spans_inside'].values())} spans "
          f"inside run_until, {len(uncovered)} wrapped functions whose "
          f"span count differs from the profiled call count")
    print(f"  tracing overhead: traced {traced_ref:.0f} / untraced "
          f"{untraced_ref:.0f} reference loops = "
          f"{overhead:.2f}x (wall: traced {traced_s:.3f} s, untraced "
          f"{untraced:.3f} s, median of {len(host)})")

    reg = traced.registry
    calls, incl = spans["calls"], spans["inclusive_ns"]
    events = reg.total("sim.events_dispatched_total")
    created = reg.total("dsm.diffs_created_total")

    def n(*names: str) -> int:
        return sum(calls.get(name, 0) for name in names)

    def ns(*names: str) -> int:
        return sum(incl.get(name, 0) for name in names)

    def method(suffix: str) -> List[str]:
        return [name for name in calls if name.endswith("." + suffix)]

    layer_self = spans["layer_self_ns"]
    waits = (kv_since_arrival_us(traced, mhz, "started")
             if spec.app == "kvstore" else [])
    metrics = {
        "bench.trace_overhead": overhead,
        "sim.events": events,
        "sim.events_per_host_s": events / untraced,
        "sim.self_ns_per_event": _ratio(layer_self["sim"], events),
        "sim.queue_depth_peak": reg.total("sim.queue_depth_peak"),
        "net.transmit_calls": n("Network.transmit"),
        "net.transmit_ns": ns("Network.transmit"),
        "net.messages": reg.total("net.messages_total"),
        "net.wire_kb": reg.total("net.wire_bytes_total") / 1024.0,
        "net.contention_cycles": reg.total("net.contention_cycles_total"),
        "net.collisions": reg.total("net.collisions_total"),
        "mem.twin_calls": n("PageCopy.make_twin"),
        "mem.twin_ns": ns("PageCopy.make_twin"),
        "mem.diff_create_calls": n("Diff.from_ranges"),
        "mem.diff_create_ns": ns("Diff.from_ranges"),
        "mem.diff_apply_calls": n("Diff.apply"),
        "mem.diff_apply_ns": ns("Diff.apply"),
        "mem.rdif_encode_calls": n("encode_diff"),
        "mem.rdif_encode_ns": ns("encode_diff"),
        "mem.rdif_decode_ns": ns("decode_diff"),
        "mem.encodes_per_diff": _ratio(n("encode_diff"), created),
        "mem.diff_words": reg.total("dsm.diff_words_total"),
        "mem.vc_ops": n("VectorClock.merged", "VectorClock.dominates"),
        "mem.records_after_ns": ns("IntervalLog.records_after"),
        "protocols.incorporate_calls": n(*method("incorporate_records")),
        "protocols.incorporate_ns": ns(*method("incorporate_records")),
        "protocols.due_notices_calls": n(*method("due_notices")),
        "protocols.due_notices_ns": ns(*method("due_notices")),
        "protocols.lazy_miss_ns": ns(*method("lazy_miss")),
        "protocols.seal_ns": ns(*method("seal_interval")),
        "protocols.eager_flush_ns": ns(*method("flush")),
        "protocols.read_misses": reg.total("dsm.read_misses_total"),
        "protocols.miss_wait_cycles": reg.total("dsm.miss_wait_cycles"),
        "protocols.diffs_applied_per_created":
            _ratio(reg.total("dsm.diffs_applied_total"), created),
        "protocols.notices_received_per_created":
            _ratio(reg.total("dsm.write_notices_received_total"),
                   reg.total("dsm.write_notices_created_total")),
        "sync.lock_acquires": reg.total("sync.lock_acquires_total"),
        "sync.lock_local_frac":
            _ratio(reg.total("sync.lock_local_acquires_total"),
                   reg.total("sync.lock_acquires_total")),
        "sync.lock_wait_cycles": reg.total("sync.lock_wait_cycles"),
        "sync.barrier_wait_cycles": reg.total("sync.barrier_wait_cycles"),
        "sync.acquire_ns": ns("LockManager.acquire"),
        "sync.barrier_ns": ns("BarrierManager.barrier"),
        "core.deliver_ns": ns("Node.deliver"),
        "core.app_send_ns": ns("Node.app_send"),
        "core.api_region_ns": ns("DsmApi.read_region",
                                 "DsmApi.write_region"),
        "obs.observe_calls": n("_HistogramChild.observe"),
        "obs.observe_ns": ns("_HistogramChild.observe"),
        "obs.inc_calls": n("_CounterChild.inc"),
        "apps.self_ns_per_event": _ratio(layer_self["apps"], events),
        "serve.generate_s": ns("generate_requests") / 1e9,
        "serve.queue_wait_p99_us": percentile(waits, 99),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_frac"] = layer_self[layer] / spans["root_ns"]
        metrics[f"{layer}.calls_per_event"] = _ratio(counted[0][layer],
                                                      events)
    print(f"  digest main {bench.digests['main']}")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.setup_probe is not None:
        return setup_probe(args)
    load_at_start = os.getloadavg()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(
        provenance(args, workload, load_at_start), sort_keys=True))

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    bench = Bench(workload)
    if args.trace:
        metrics = per_layer(args, bench)
    else:
        metrics = end_to_end(args, bench, measure_setup(args))
    missing = [m["name"] for m in section if m["name"] not in metrics]
    if metrics and missing:
        bench.problems.append(f"metrics not measured: {missing}")
    for m in section:
        if m["name"] in metrics:
            print(f"  {m['name']:40s} {metrics[m['name']]:>20.6f} "
                  f"{m['unit']:8s} {m['better']} is better")
    for problem in bench.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = not bench.problems and bool(metrics)
    print(f"  failed_frac {bench.failed}/{bench.attempted} = "
          f"{_ratio(bench.failed, bench.attempted):.6f}")
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]}
                    for m in section if m["name"] in metrics}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
