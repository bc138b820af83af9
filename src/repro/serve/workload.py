"""Seeded open-loop load generator for the serving workload.

Produces a deterministic request schedule from four independent
substreams of the machine seed (:func:`repro.core.rng.substream`), so
the same ``(seed, parameters)`` pair yields byte-identical schedules
in every process — the lab's cache keys and the cross-process
determinism property test both depend on that.

Model:

- **key popularity** — Zipfian with exponent ``s`` over ``nkeys``
  keys (``s = 0`` degenerates to uniform).  Sampling is inverse-CDF
  via a sorted search, so one uniform draw per request.
- **arrivals** — open loop: request *i* arrives at a scheduled
  simulated time whether or not request *i-1* has finished.  Poisson
  (exponential inter-arrival, the memoryless default) or fixed-rate
  (exact ``1/rate`` spacing, for worst-case-free baselines).
- **clients** — ``nclients`` logical clients (millions are fine; a
  client is just an id) multiplexed onto the node processes by
  ``client mod nprocs``, which fixes each request's serving node.
- **read/write mix** — each request is a ``get`` with probability
  ``read_fraction``, else a ``put``.

The schedule is computed a column at a time with numpy, yet it is
exactly what one ``random.Random`` call per request per dimension
would draw (``random()``, ``expovariate()``, ``randrange()``): each
column decodes its substream's raw 32-bit word stream the way CPython
does.  docs/serving.md explains the decoding.
"""

from __future__ import annotations

import math
from itertools import accumulate, islice
from random import Random
from typing import Dict, List, NamedTuple, Sequence

import numpy as np

from repro.core.rng import substream

#: Supported inter-arrival processes.
ARRIVAL_MODES = ("poisson", "fixed")


class Request(NamedTuple):
    """One client request, scheduled before the simulation starts."""

    req_id: int       # global arrival order (ties broken by id)
    client: int       # logical client; client % nprocs = serving node
    key: int          # key index in [0, nkeys)
    op: str           # "get" | "put"
    arrival_us: float  # scheduled arrival, microseconds of sim time


def validate_workload(rate_rps: float, read_fraction: float,
                      zipf_s: float, nkeys: int = 1,
                      requests: int = 1, nclients: int = 1,
                      arrival: str = "poisson") -> None:
    """Reject nonsense parameters with actionable messages (the CLI
    validators reuse these bounds)."""
    if not 0 < rate_rps < math.inf:
        raise ValueError(
            f"arrival rate must be finite and > 0 requests/s, got "
            f"{rate_rps}")
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError(
            f"read fraction must be within [0, 1], got "
            f"{read_fraction}")
    if not zipf_s >= 0:
        raise ValueError(
            f"Zipf exponent must be >= 0, got {zipf_s}")
    if nkeys < 1:
        raise ValueError(f"need at least one key, got {nkeys}")
    if requests < 1:
        raise ValueError(
            f"need at least one request, got {requests}")
    if nclients < 1:
        raise ValueError(
            f"need at least one client, got {nclients}")
    if arrival not in ARRIVAL_MODES:
        raise ValueError(
            f"unknown arrival mode {arrival!r}; choose from "
            f"{list(ARRIVAL_MODES)}")


def zipf_cdf(nkeys: int, s: float) -> List[float]:
    """Cumulative (unnormalised) Zipf weights: entry ``k`` is
    ``sum(1/(i+1)^s for i <= k)``.  Key 0 is the hottest."""
    cdf: List[float] = []
    total = 0.0
    for rank in range(1, nkeys + 1):
        total += rank ** -s
        cdf.append(total)
    return cdf


def _words(rng: Random, count: int) -> np.ndarray:
    """The next ``count`` 32-bit Mersenne Twister outputs of ``rng``,
    in draw order.  ``getrandbits`` fills its result least significant
    word first, so the result's little-endian bytes are the stream."""
    return np.frombuffer(
        rng.getrandbits(32 * count).to_bytes(4 * count, "little"),
        dtype="<u4")


def _uniforms(rng: Random, count: int) -> np.ndarray:
    """``count`` successive ``rng.random()`` values: CPython's res53
    formula, 27 high bits of one word and 26 of the next."""
    words = _words(rng, 2 * count)
    return ((words[0::2] >> 5) * 67108864.0
            + (words[1::2] >> 6)) / 9007199254740992.0


def _below(rng: Random, n: int, count: int) -> List[int]:
    """``count`` successive ``rng.randrange(n)`` values.

    ``randrange`` draws ``getrandbits(k)``, ``k = n.bit_length()``,
    until a draw is below ``n``.  One draw takes ``ceil(k/32)`` words,
    low word first, the last one shifted right to the bits still
    needed.  Blocks of draws are decoded and filtered in order until
    ``count`` survive; draws past the last survivor are never used.
    """
    k = n.bit_length()
    nwords = -(-k // 32)
    dtype = np.uint64 if k <= 64 else object
    kept: List[np.ndarray] = []
    while count:
        # The expected draws per survivor are 2**k / n (at most 2).
        draws = count * (1 << k) // n + 16
        words = _words(rng, draws * nwords).reshape(
            draws, nwords).astype(dtype)
        value = words[:, -1] >> (32 * nwords - k)
        for i in range(nwords - 2, -1, -1):
            value = (value << 32) | words[:, i]
        value = value[value < n][:count]
        kept.append(value)
        count -= len(value)
    return np.concatenate(kept).tolist()


#: Op names indexed by "is a read", as shared objects.
_OPS = np.array(["put", "get"], dtype=object)


def generate_requests(nkeys: int, requests: int, rate_rps: float,
                      read_fraction: float, zipf_s: float,
                      nclients: int, arrival: str,
                      seed: int) -> List[Request]:
    """The full schedule, ascending by arrival time.

    Four substreams (``serve.arrivals`` / ``serve.keys`` /
    ``serve.ops`` / ``serve.clients``) keep the dimensions
    independent: changing the read mix does not perturb which keys
    are hot or when requests land.
    """
    validate_workload(rate_rps, read_fraction, zipf_s, nkeys=nkeys,
                      requests=requests, nclients=nclients,
                      arrival=arrival)
    mean_gap_us = 1e6 / rate_rps
    if arrival == "poisson":
        # expovariate(lambd) is -log(1 - random()) / lambd; math.log,
        # not np.log, whose last bit can differ.  The running sum
        # stays sequential, as the clock advanced one gap at a time.
        # Starting the sum from 0.0 keeps a -0.0 first gap at 0.0.
        lambd = 1.0 / mean_gap_us
        u = _uniforms(substream(seed, "serve.arrivals"), requests)
        gaps = (-math.log(x) / lambd for x in (1.0 - u).tolist())
        arrivals = islice(accumulate(gaps, initial=0.0), 1, None)
    else:
        arrivals = (np.arange(requests) * mean_gap_us).tolist()
    cdf = zipf_cdf(nkeys, zipf_s)
    keys = np.searchsorted(
        np.array(cdf), _uniforms(substream(seed, "serve.keys"),
                                 requests) * cdf[-1], side="left")
    reads = _uniforms(substream(seed, "serve.ops"), requests) \
        < read_fraction
    clients = _below(substream(seed, "serve.clients"), nclients,
                     requests)
    return list(map(Request._make, zip(
        range(requests), clients, keys.tolist(),
        _OPS[reads.astype(np.intp)].tolist(), arrivals)))


def node_schedules(schedule: Sequence[Request],
                   nprocs: int) -> List[List[Request]]:
    """Split the global schedule into per-node streams (a client's
    requests always land on ``client % nprocs``), preserving arrival
    order within each node."""
    per_node: List[List[Request]] = [[] for _ in range(nprocs)]
    for request in schedule:
        per_node[request.client % nprocs].append(request)
    return per_node


def write_counts(schedule: Sequence[Request],
                 nkeys: int) -> List[int]:
    """Expected number of ``put`` requests per key — the oracle the
    kvstore verifies its counters against."""
    counts = [0] * nkeys
    for request in schedule:
        if request.op == "put":
            counts[request.key] += 1
    return counts


#: Scaled parameter sets for the serving app, mirroring
#: ``repro.analysis.experiments.APP_PARAMS`` but kept separate so the
#: paper-reproduction report never iterates the serving workload.
SERVE_APP_PARAMS: Dict[str, Dict[str, object]] = {
    "small": dict(nkeys=32, value_words=8, shards=4, requests=120,
                  rate_rps=40_000.0, read_fraction=0.9, zipf_s=0.99,
                  nclients=1_000_000),
    "bench": dict(nkeys=64, value_words=16, shards=8, requests=400,
                  rate_rps=40_000.0, read_fraction=0.9, zipf_s=0.99,
                  nclients=1_000_000),
    "large": dict(nkeys=256, value_words=32, shards=16,
                  requests=2_000, rate_rps=40_000.0,
                  read_fraction=0.9, zipf_s=0.99,
                  nclients=4_000_000),
}
