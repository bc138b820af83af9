"""Shared fixture matrix for the performance golden-parity suite.

The goldens under ``tests/perf/golden/`` are full canonical
:class:`repro.RunResult` dumps captured *before* the hot-path
optimizations (engine dispatch inlining, incremental run-merge,
pre-bound metric children) landed.  The optimized code must reproduce
every one of them byte for byte — same elapsed cycles, same
``sim.events_dispatched_total``, same interval/diff metrics, same
series ordering — which pins the optimizations to "faster, not
different".

Regenerate (only when an *intentional* behavior change lands) with::

    PYTHONPATH=src:. python -m tests.perf.regen
"""

import json
import os

from repro.core.config import MachineConfig, NetworkConfig
from repro.lab.spec import RunSpec, execute_spec
from repro.serve.workload import SERVE_APP_PARAMS

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: Small-scale app parameters (mirrors APP_PARAMS["small"], pinned here
#: so recalibrating the presets never silently rewrites the parity
#: matrix).
_PARAMS = {
    "jacobi": dict(n=48, iterations=3),
    "tsp": dict(ncities=8),
    "water": dict(nmols=20, steps=1),
}

PROTOCOLS = ("lh", "li", "lu", "ei", "eu")


def cases():
    """(name, RunSpec) for every golden case: the three most
    protocol-exercising apps under all five protocols on ATM, plus one
    Ethernet run (contention/backoff path), two larger jacobi/LI
    configurations (8 and 32 processors) and one kvstore serving run
    (request generator, pump and per-request records).
    ``tests/obs/test_tracer.py`` also reuses one case per app for its
    disabled-tracing call count."""
    out = []
    for app, params in _PARAMS.items():
        for protocol in PROTOCOLS:
            out.append((f"{app}_{protocol}_atm4",
                        RunSpec(app, params, protocol=protocol,
                                config=MachineConfig(
                                    nprocs=4,
                                    network=NetworkConfig.atm()))))
    out.append(("jacobi_lh_eth4",
                RunSpec("jacobi", _PARAMS["jacobi"], protocol="lh",
                        config=MachineConfig(
                            nprocs=4,
                            network=NetworkConfig.ethernet()))))
    out.append(("perfcore_jacobi_li_atm8",
                RunSpec("jacobi", dict(n=96, iterations=30),
                        protocol="li",
                        config=MachineConfig(
                            nprocs=8,
                            network=NetworkConfig.atm()))))
    # The same configuration run four times longer (iterations=120).
    out.append(("perfcore_jacobi_li_atm8_it120",
                RunSpec("jacobi", dict(n=96, iterations=120),
                        protocol="li",
                        config=MachineConfig(
                            nprocs=8,
                            network=NetworkConfig.atm()))))
    # The large-configuration case (32 processors): keeps the
    # scheduler/protocol fast paths honest at high nprocs.
    out.append(("perfcore_jacobi_li_atm32",
                RunSpec("jacobi", dict(n=128, iterations=40),
                        protocol="li",
                        config=MachineConfig(
                            nprocs=32,
                            network=NetworkConfig.atm()))))
    out.append(("kvstore_li_atm4",
                RunSpec("kvstore", dict(SERVE_APP_PARAMS["small"]),
                        protocol="li",
                        config=MachineConfig(
                            nprocs=4,
                            network=NetworkConfig.atm()))))
    return out


def canonical_dump(spec: RunSpec) -> str:
    """Canonical JSON of the run's full result (metrics registry
    included): the byte-identity unit of the parity gate."""
    result = execute_spec(spec)
    return json.dumps(result.to_dict(), sort_keys=True, indent=1)


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")
