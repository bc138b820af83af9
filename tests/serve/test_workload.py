"""The open-loop generator: validation, shape, and the determinism
property the lab cache and per-node multiplexing stand on."""

import itertools
import json
import os
import subprocess
import sys
from bisect import bisect_left
from dataclasses import dataclass, fields
from pathlib import Path

import pytest

from repro.core.rng import substream
from repro.serve.workload import (SERVE_APP_PARAMS, Request,
                                  generate_requests, node_schedules,
                                  validate_workload, write_counts,
                                  zipf_cdf)

GEN_ARGS = dict(nkeys=16, requests=200, rate_rps=50_000.0,
                read_fraction=0.8, zipf_s=0.99, nclients=1_000_000,
                arrival="poisson", seed=1993)


# -- validation ---------------------------------------------------------


@pytest.mark.parametrize("field,value,message", [
    ("rate_rps", 0.0, "arrival rate"),
    ("rate_rps", -5.0, "arrival rate"),
    ("rate_rps", float("inf"), "arrival rate"),
    ("read_fraction", -0.1, "read fraction"),
    ("read_fraction", 1.5, "read fraction"),
    ("zipf_s", -0.01, "Zipf exponent"),
    ("zipf_s", float("nan"), "Zipf exponent"),
    ("nkeys", 0, "at least one key"),
    ("requests", 0, "at least one request"),
    ("nclients", 0, "at least one client"),
    ("arrival", "bursty", "arrival mode"),
])
def test_validation_rejects_bad_parameters(field, value, message):
    args = dict(GEN_ARGS)
    args[field] = value
    with pytest.raises(ValueError, match=message):
        generate_requests(**args)


def test_validation_accepts_boundary_fractions():
    validate_workload(1.0, 0.0, 0.0)
    validate_workload(1.0, 1.0, 0.0)


# -- schedule shape -----------------------------------------------------


def test_schedule_is_sorted_and_in_domain():
    schedule = generate_requests(**GEN_ARGS)
    assert len(schedule) == GEN_ARGS["requests"]
    arrivals = [r.arrival_us for r in schedule]
    assert arrivals == sorted(arrivals)
    assert all(0 <= r.key < GEN_ARGS["nkeys"] for r in schedule)
    assert all(0 <= r.client < GEN_ARGS["nclients"] for r in schedule)
    assert all(r.op in ("get", "put") for r in schedule)
    assert [r.req_id for r in schedule] == list(range(len(schedule)))


def test_fixed_arrivals_are_evenly_spaced():
    args = dict(GEN_ARGS, arrival="fixed", requests=10,
                rate_rps=1_000_000.0)  # 1 request per microsecond
    schedule = generate_requests(**args)
    assert [r.arrival_us for r in schedule] == pytest.approx(
        list(range(10)))


def test_zipf_skews_toward_low_keys():
    cdf = zipf_cdf(4, 1.0)
    # Weights 1, 1/2, 1/3, 1/4 accumulated.
    assert cdf == pytest.approx([1.0, 1.5, 1.5 + 1 / 3, 25 / 12])
    skewed = generate_requests(**dict(GEN_ARGS, zipf_s=1.2,
                                      requests=2_000))
    hot = sum(1 for r in skewed if r.key == 0)
    cold = sum(1 for r in skewed if r.key == GEN_ARGS["nkeys"] - 1)
    assert hot > 5 * max(cold, 1)


def test_zipf_zero_is_roughly_uniform():
    schedule = generate_requests(**dict(GEN_ARGS, zipf_s=0.0,
                                        requests=4_000))
    counts = [0] * GEN_ARGS["nkeys"]
    for r in schedule:
        counts[r.key] += 1
    expected = len(schedule) / GEN_ARGS["nkeys"]
    assert min(counts) > expected * 0.5
    assert max(counts) < expected * 1.5


def test_read_fraction_controls_the_mix():
    all_reads = generate_requests(**dict(GEN_ARGS, read_fraction=1.0))
    assert all(r.op == "get" for r in all_reads)
    all_writes = generate_requests(**dict(GEN_ARGS,
                                          read_fraction=0.0))
    assert all(r.op == "put" for r in all_writes)


def test_node_schedules_partition_by_client():
    schedule = generate_requests(**GEN_ARGS)
    per_node = node_schedules(schedule, 4)
    assert sum(len(s) for s in per_node) == len(schedule)
    for node, stream in enumerate(per_node):
        assert all(r.client % 4 == node for r in stream)
        arrivals = [r.arrival_us for r in stream]
        assert arrivals == sorted(arrivals)


def test_write_counts_match_the_puts():
    schedule = generate_requests(**GEN_ARGS)
    counts = write_counts(schedule, GEN_ARGS["nkeys"])
    assert sum(counts) == sum(1 for r in schedule if r.op == "put")


# -- determinism (the property the lab cache stands on) -----------------

_CHILD = """
import json, sys
from repro.serve.workload import generate_requests
args = json.loads(sys.stdin.read())
schedule = generate_requests(**args)
print(json.dumps([r._asdict() for r in schedule], sort_keys=True))
"""


def _schedule_in_subprocess(args: dict, hashseed: str) -> str:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hashseed
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], input=json.dumps(args),
        capture_output=True, text=True, env=env, check=True)
    return proc.stdout.strip()


def test_same_seed_same_schedule_across_processes():
    local = json.dumps([r._asdict() for r in
                        generate_requests(**GEN_ARGS)],
                       sort_keys=True)
    assert _schedule_in_subprocess(GEN_ARGS, "0") == local
    assert _schedule_in_subprocess(GEN_ARGS, "1") == local


def test_different_seeds_differ():
    a = generate_requests(**GEN_ARGS)
    b = generate_requests(**dict(GEN_ARGS, seed=7))
    assert a != b


def test_dimensions_are_independent_substreams():
    # Changing the op mix must not move arrivals or key choices.
    a = generate_requests(**dict(GEN_ARGS, read_fraction=0.9))
    b = generate_requests(**dict(GEN_ARGS, read_fraction=0.1))
    assert [r.arrival_us for r in a] == [r.arrival_us for r in b]
    assert [r.key for r in a] == [r.key for r in b]


def test_scaled_params_generate():
    for scale, params in SERVE_APP_PARAMS.items():
        schedule = generate_requests(
            nkeys=params["nkeys"], requests=params["requests"],
            rate_rps=params["rate_rps"],
            read_fraction=params["read_fraction"],
            zipf_s=params["zipf_s"], nclients=params["nclients"],
            arrival="poisson", seed=1993)
        assert len(schedule) == params["requests"], scale


def test_request_is_frozen():
    request = Request(req_id=0, client=1, key=2, op="get",
                      arrival_us=3.0)
    with pytest.raises(Exception):
        request.key = 5


# -- equivalence with the scalar generator ------------------------------
#
# The column-at-a-time generator must reproduce, field for field and
# type for type, the schedule of one ``random.Random`` call per request
# per dimension.  The scalar loop below is that generator as it was
# written before the schedule was vectorized, kept verbatim as the
# oracle.


@dataclass(frozen=True)
class _ScalarRequest:
    req_id: int
    client: int
    key: int
    op: str
    arrival_us: float


def _scalar_generate_requests(nkeys, requests, rate_rps, read_fraction,
                              zipf_s, nclients, arrival, seed):
    arrivals_rng = substream(seed, "serve.arrivals")
    keys_rng = substream(seed, "serve.keys")
    ops_rng = substream(seed, "serve.ops")
    clients_rng = substream(seed, "serve.clients")
    cdf = zipf_cdf(nkeys, zipf_s)
    cdf_total = cdf[-1]
    mean_gap_us = 1e6 / rate_rps
    clock_us = 0.0
    out = []
    for req_id in range(requests):
        if arrival == "poisson":
            clock_us += arrivals_rng.expovariate(1.0 / mean_gap_us)
        else:
            clock_us = req_id * mean_gap_us
        key = bisect_left(cdf, keys_rng.random() * cdf_total)
        op = "get" if ops_rng.random() < read_fraction else "put"
        out.append(_ScalarRequest(req_id=req_id,
                                  client=clients_rng.randrange(nclients),
                                  key=key, op=op, arrival_us=clock_us))
    return out


def _assert_same_schedule(vectorized, scalar):
    assert len(vectorized) == len(scalar)
    names = [f.name for f in fields(_ScalarRequest)]
    assert list(Request._fields) == names
    for got, want in zip(vectorized, scalar):
        for name in names:
            a, b = getattr(got, name), getattr(want, name)
            assert type(a) is type(b) and a == b, (name, got, want)


#: Client counts around the rejection sampler's edges: one client
#: (k = 1, half the draws rejected), word boundaries (2**32, 2**32+1,
#: 2**64+1 take one, two and three words a draw), and the benchmark's
#: 4,000,000.
CLIENT_COUNTS = (1, 3, 2 ** 22, 4_000_000, 2 ** 32, 2 ** 32 + 1,
                 2 ** 40, 2 ** 64 + 1)


@pytest.mark.parametrize("nclients", CLIENT_COUNTS)
@pytest.mark.parametrize("seed", (1, 7919, 1993))
def test_vectorized_schedule_matches_scalar_loop(seed, nclients):
    for arrival, read_fraction, zipf_s, nkeys in itertools.product(
            ("poisson", "fixed"), (0.0, 0.9, 1.0), (0.0, 0.99),
            (1, 256)):
        args = dict(nkeys=nkeys, requests=150, rate_rps=40_000.0,
                    read_fraction=read_fraction, zipf_s=zipf_s,
                    nclients=nclients, arrival=arrival, seed=seed)
        _assert_same_schedule(generate_requests(**args),
                              _scalar_generate_requests(**args))


def test_first_arrivals_match_scalar_loop_across_seeds():
    # A 1-ulp error in a gap survives only while the clock is about
    # as small as the gap, so check the first arrivals of many seeds.
    for seed in range(3_000):
        args = dict(GEN_ARGS, requests=2, nclients=3, seed=seed)
        _assert_same_schedule(generate_requests(**args),
                              _scalar_generate_requests(**args))


def test_benchmark_sized_schedule_matches_scalar_loop():
    args = dict(nkeys=256, requests=80_000, rate_rps=10_000.0,
                read_fraction=0.9, zipf_s=0.99, nclients=4_000_000,
                arrival="poisson", seed=1)
    _assert_same_schedule(generate_requests(**args),
                          _scalar_generate_requests(**args))


def test_request_is_a_value():
    a = Request(req_id=0, client=1, key=2, op="get", arrival_us=3.0)
    assert a == Request(0, 1, 2, "get", 3.0)
    assert a != a._replace(op="put")
    assert hash(a) == hash(Request(0, 1, 2, "get", 3.0))
