"""Harness benchmark: serial vs parallel vs warm-cache resolution.

Runs the protocol x application grid (5 protocols x Jacobi/Water, 8
processors, ATM) three ways — serially in-process, fanned over a
process pool, and again from a warm cache — asserts all three are
byte-identical, and emits ``BENCH_lab.json`` recording wall times,
cache-hit counts, and the pool's one-time startup cost (measured
separately: each pool is warmed before its timed batch).

Methodology (docs/performance.md): serial and parallel rounds are
*interleaved* and the best of each is compared, so multi-second slow
epochs on a shared machine hit both strategies instead of whichever
ran second.  The worker count is the requested ``jobs`` clamped to
twice the CPUs actually available to this process
(``Lab.effective_jobs`` over ``available_cpus()`` — affinity mask and
cgroup quota, not the host's core count), so the pool neither loses
to serial by oversubscribing a small container nor serializes on a
quota-limited runner; CI gates ``parallel_speedup > 1.0``.
"""

import json
import time
from pathlib import Path

from benchmarks.conftest import SCALE, run_once
from repro.analysis.experiments import APP_PARAMS
from repro.core.config import MachineConfig, NetworkConfig
from repro.lab import Lab, RunSpec
from repro.protocols import PROTOCOL_NAMES

JOBS = 4
ROUNDS = 4
OUT = Path(__file__).resolve().parents[1] / "BENCH_lab.json"

#: Tiny spec executed (untimed) in each fresh pool before its timed
#: batch: later *serial* rounds run in a long-warm parent process, so
#: the workers get their lazy-initialization cold paths out of the
#: way too.  Pool spin-up cost is reported separately by design.
_WARMUP = RunSpec("jacobi", dict(n=16, iterations=1), protocol="lh",
                  config=MachineConfig(nprocs=2,
                                       network=NetworkConfig.atm()))


def _specs():
    return [RunSpec(app, APP_PARAMS[SCALE][app], protocol=protocol,
                    config=MachineConfig(nprocs=8,
                                         network=NetworkConfig.atm()))
            for app in ("jacobi", "water")
            for protocol in PROTOCOL_NAMES]


def _dumps(results):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in results]


def _serial_round(specs, cache_dir):
    # The serial lab writes its own disk cache so both strategies pay
    # identical serialization/cache costs (the speedup then isolates
    # the executor, not cache asymmetry).
    lab = Lab(cache_dir=cache_dir)
    started = time.perf_counter()
    results = lab.run_many(specs)
    return time.perf_counter() - started, results


def _parallel_round(specs, cache_dir):
    with Lab(jobs=JOBS, cache_dir=cache_dir) as lab:
        startup = lab.warm()
        lab.run_many([_WARMUP])
        warmup_executed = lab.stats()["executed"]
        effective = lab.effective_jobs
        started = time.perf_counter()
        results = lab.run_many(specs)
        wall = time.perf_counter() - started
        stats = lab.stats()
        stats["executed"] -= warmup_executed
    return wall, results, startup, effective, stats


def test_lab_parallel_and_warm_cache(benchmark, tmp_path):
    specs = _specs()

    serial_walls, parallel_walls, startups = [], [], []
    serial = parallel = None
    effective_jobs = None
    parallel_stats = None
    for i in range(ROUNDS):
        if i == 0:
            wall, serial = run_once(
                benchmark,
                lambda: _serial_round(specs, tmp_path / "serial-0"))
        else:
            wall, results = _serial_round(specs,
                                          tmp_path / f"serial-{i}")
            assert _dumps(results) == _dumps(serial)
        serial_walls.append(wall)

        cache = tmp_path / f"parallel-{i}"
        (wall, results, startup,
         effective_jobs, parallel_stats) = _parallel_round(specs, cache)
        if parallel is None:
            parallel = results
        else:
            assert _dumps(results) == _dumps(parallel)
        parallel_walls.append(wall)
        startups.append(startup)

    # Warm-cache pass over the last parallel round's cache directory.
    started = time.perf_counter()
    with Lab(jobs=JOBS, cache_dir=tmp_path / f"parallel-{ROUNDS - 1}") \
            as lab:
        warm = lab.run_many(specs)
        warm_stats = lab.stats()
    warm_wall = time.perf_counter() - started

    assert _dumps(parallel) == _dumps(serial)
    assert _dumps(warm) == _dumps(serial)
    assert warm_stats["executed"] == 0
    assert warm_stats["cache_hits_disk"] == len(specs)

    serial_wall = min(serial_walls)
    parallel_wall = min(parallel_walls)
    record = {
        "scale": SCALE,
        "runs": len(specs),
        "rounds": ROUNDS,
        "jobs": JOBS,
        "effective_jobs": effective_jobs,
        "serial_wall_seconds": round(serial_wall, 3),
        "parallel_wall_seconds": round(parallel_wall, 3),
        "parallel_speedup": round(serial_wall / parallel_wall, 3),
        "executor_startup_seconds": round(min(startups), 3),
        "parallel_executed": parallel_stats["executed"],
        "warm_wall_seconds": round(warm_wall, 3),
        "warm_cache_hits_disk": warm_stats["cache_hits_disk"],
        "warm_executed": warm_stats["executed"],
        "byte_identical": True,
    }
    OUT.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nBENCH_lab: serial {serial_wall:.1f}s, "
          f"jobs={JOBS} (effective {effective_jobs}) "
          f"{parallel_wall:.1f}s "
          f"({record['parallel_speedup']:.2f}x, "
          f"startup {record['executor_startup_seconds']:.2f}s), "
          f"warm {warm_wall:.2f}s with "
          f"{warm_stats['cache_hits_disk']:.0f} disk hits")
