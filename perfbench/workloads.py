"""The benchmark's workloads: what each one simulates and how its
simulated (exact) end-to-end metrics are derived.

Every workload runs at 16 simulated processors, the paper's table
configuration, through the public run path
(:func:`repro.lab.spec.execute_spec`) with the result cache and the
tracer off.  A workload has one *main* simulation, which is the one
repeated for host timing, traced, and counted; ``kvstore-li`` adds a
ladder of offered rates that is simulated once per process to find
the serving capacity.

The seed reaches the simulator only through the generated inputs:
``MachineConfig.seed`` (the kvstore request schedule) and the Water
app's ``seed`` (initial molecule positions).  Jacobi and Cholesky
inputs are seed-free, so their simulations are identical for every
seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

NPROCS = 16

#: kvstore: main offered rate (latency metrics) and its request count.
#: 80k requests leave 80 samples beyond p99.9 (nearest rank).  Across
#: 10 seeds the p99.9 spread (IQR/median) was 14% at 30k, 9% at 60k
#: and 5% at 80k requests.
KV_MAIN_RPS = 10_000.0
KV_MAIN_REQUESTS = 80_000
#: kvstore capacity ladder: offered rates, requests per rung, and the
#: p99 latency limit a rung must meet.  The limit sits 3x above the
#: unloaded p99 (~1 ms at 5k rps).  The ladder brackets the knee:
#: p99 is ~1.5-2.2 ms at 20k rps and 4.5-10 ms at 30k rps across
#: seeds.  There is deliberately no 25k rung: its p99 straddles the
#: limit from seed to seed, which would make capacity flip.
KV_LADDER_RPS = (5_000.0, 10_000.0, 15_000.0, 20_000.0, 30_000.0)
KV_LADDER_REQUESTS = 10_000
KV_P99_LIMIT_US = 3_000.0
#: A rung also needs achieved >= this share of its offered rate (no
#: growing backlog).  Offered is the schedule's realized arrival rate,
#: so Poisson sampling noise cannot fail a lightly loaded rung.
KV_MIN_ACHIEVED = 0.99


@dataclass(frozen=True)
class Workload:
    name: str
    app: str
    params: dict
    protocol: str
    network: str
    #: App parameter that takes the seed (Water positions), if any.
    seed_param: Optional[str] = None
    ladder: Tuple[float, ...] = field(default=())

    def spec(self, seed: int, **overrides):
        """The :class:`repro.lab.spec.RunSpec` of the main simulation
        (``overrides`` replace app parameters, e.g. a ladder rate)."""
        from repro.core.config import MachineConfig, NetworkConfig
        from repro.lab.spec import RunSpec

        params = dict(self.params)
        if self.seed_param is not None:
            # numpy's RandomState takes seeds below 2**32.
            params[self.seed_param] = seed % (2 ** 32)
        params.update(overrides)
        network = getattr(NetworkConfig, self.network)()
        config = MachineConfig(nprocs=NPROCS, network=network,
                               seed=seed)
        return RunSpec(self.app, params, protocol=self.protocol,
                       config=config)

    def describe(self, seed: int) -> dict:
        """Workload parameters for the provenance record."""
        spec = self.spec(seed)
        return {"app": self.app, "app_params": spec.app_params,
                "protocol": self.protocol, "network": self.network,
                "nprocs": NPROCS, "seed": seed,
                "seed_free": self.seed_param is None
                and not self.ladder}


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("jacobi-li", "jacobi", dict(n=512, iterations=4), "li",
             "atm"),
    Workload("cholesky-lh", "cholesky", dict(k=12, cycle_scale=100),
             "lh", "atm"),
    Workload("kvstore-li", "kvstore",
             dict(nkeys=256, value_words=32, shards=16,
                  requests=KV_MAIN_REQUESTS, rate_rps=KV_MAIN_RPS,
                  read_fraction=0.9, zipf_s=0.99, nclients=4_000_000),
             "li", "atm", ladder=KV_LADDER_RPS),
    Workload("water-ei", "water",
             dict(nmols=96, steps=2, cycles_per_pair=3700), "ei",
             "ethernet", seed_param="seed"),
)}


def digest(result) -> str:
    """sha256 of the canonical ``RunResult.to_dict()``."""
    blob = json.dumps(result.to_dict(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def kv_since_arrival_us(result, cpu_mhz: float,
                        until: str = "done") -> List[float]:
    """Sorted per-request simulated microseconds from the *scheduled*
    arrival to service start (``until="started"``, the queue wait) or to
    completion (``"done"``, the latency)."""
    from repro.analysis.serving import request_records
    column = {"started": 4, "done": 5}[until]
    return sorted((record[column] - record[3]) / cpu_mhz
                  for record in request_records(result.app_result))


def kv_missing(result, spec) -> int:
    """Requests scheduled but not completed."""
    from repro.analysis.serving import request_records
    done = len(request_records(result.app_result))
    return spec.app_params["requests"] - done


def rung_passes(result, spec, cpu_mhz: float) -> Tuple[bool, dict]:
    """Does one ladder rung meet the p99 limit without backlog?"""
    from repro.analysis.serving import percentile, request_records
    records = request_records(result.app_result)
    p99 = percentile(kv_since_arrival_us(result, cpu_mhz), 99)
    arrivals = sorted(rec[3] for rec in records)
    first, last_arrival = arrivals[0], arrivals[-1]
    last_done = max(rec[5] for rec in records)
    n = len(records)
    offered = (n - 1) / max(last_arrival - first, 1.0)
    achieved = (n - 1) / max(last_done - first, 1.0)
    ok = (p99 <= KV_P99_LIMIT_US
          and achieved >= KV_MIN_ACHIEVED * offered
          and n == spec.app_params["requests"])
    return ok, {"rate_rps": spec.app_params["rate_rps"], "p99_us": p99,
                "achieved_over_offered": achieved / offered, "ok": ok}


def worker_finish_us(result, cpu_mhz: float) -> List[float]:
    """Sorted simulated finish time of each worker's share of a batch
    job, in microseconds (the slowest one is the job's time)."""
    return sorted(m.finish_time / cpu_mhz for m in result.node_metrics)
