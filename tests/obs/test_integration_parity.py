"""Registry vs. legacy-counter parity on a real run.

The registry is the only store a run counts in; ``NodeMetrics`` and
the ``network_*`` fields are views read from it when the run ends, so
comparing them with the live registry would prove nothing.  The
legacy counters instead come from the golden dump of the same run
(``tests/perf/golden/jacobi_li_atm4.json``), recorded when every one
of them was still kept in a separate store.  The live registry must
match them *bit for bit*, including float cycle sums.  A Jacobi run on
the 100 Mbit ATM network exercises every layer: the event kernel, the
ATM model, the protocol engine, and the lock/barrier managers.
"""

import json

import pytest

from repro.apps import create_app
from repro.core.config import MachineConfig, NetworkConfig
from repro.core.metrics import NodeMetrics
from repro.core.runner import run_app
from repro.lab.spec import execute_spec
from repro.net.message import MsgKind
from tests.perf.parity import cases, golden_path

GOLDEN = "jacobi_li_atm4"


@pytest.fixture(scope="module")
def result():
    return execute_spec(dict(cases())[GOLDEN])


@pytest.fixture(scope="module")
def legacy():
    """The golden dump's per-node and network counters."""
    with open(golden_path(GOLDEN)) as handle:
        golden = json.load(handle)
    golden["node_metrics"] = [NodeMetrics.from_dict(m)
                              for m in golden["node_metrics"]]
    return golden


def _per_node(legacy, attr):
    return {str(m.proc): getattr(m, attr)
            for m in legacy["node_metrics"]}


def test_message_counts_match_per_node_and_kind(result, legacy):
    registry = result.registry
    legacy_total = sum(m.total_messages for m in legacy["node_metrics"])
    assert registry.total("dsm.messages_total") == legacy_total
    assert legacy_total > 0

    by_node = registry.by_label("dsm.messages_total", "node")
    assert by_node == _per_node(legacy, "total_messages")

    by_type = registry.by_label("dsm.messages_total", "msg_type")
    legacy_by_kind = {}
    for metrics in legacy["node_metrics"]:
        for kind, count in metrics.messages_sent.items():
            legacy_by_kind[kind.value] = \
                legacy_by_kind.get(kind.value, 0) + count
    assert by_type == legacy_by_kind


def test_sync_message_accounting_matches(result, legacy):
    assert result.registry_sync_messages() == \
        sum(m.sync_messages for m in legacy["node_metrics"])


@pytest.mark.parametrize("metric,attr", [
    ("dsm.data_bytes_total", "data_bytes_sent"),
    ("dsm.wire_bytes_total", "wire_bytes_sent"),
    ("dsm.read_misses_total", "read_misses"),
    ("dsm.write_misses_total", "write_misses"),
    ("dsm.cold_misses_total", "cold_misses"),
    ("dsm.page_transfers_total", "page_transfers"),
    ("dsm.diffs_created_total", "diffs_created"),
    ("dsm.diff_words_total", "diff_words_created"),
    ("dsm.diffs_applied_total", "diffs_applied"),
    ("dsm.invalidations_total", "invalidations"),
    ("sync.lock_acquires_total", "lock_acquires"),
    ("sync.lock_local_acquires_total", "lock_local_acquires"),
    ("sync.barrier_waits_total", "barrier_waits"),
])
def test_counter_totals_match_legacy(result, legacy, metric, attr):
    registry = result.registry
    assert registry.total(metric) == \
        sum(getattr(m, attr) for m in legacy["node_metrics"])
    assert registry.by_label(metric, "node") == _per_node(legacy, attr)


@pytest.mark.parametrize("metric,attr", [
    ("sync.lock_wait_cycles", "lock_wait_cycles"),
    ("sync.barrier_wait_cycles", "barrier_wait_cycles"),
    ("dsm.miss_wait_cycles", "miss_wait_cycles"),
    ("cpu.compute_cycles_total", "compute_cycles"),
    ("cpu.overhead_cycles_total", "overhead_cycles"),
])
def test_cycle_sums_match_legacy_bit_for_bit(result, legacy, metric,
                                             attr):
    # Float sums accumulated in the same order as the legacy fields
    # were, so exact equality is required, not approx.
    registry = result.registry
    assert registry.total(metric) == \
        sum(getattr(m, attr) for m in legacy["node_metrics"])
    assert registry.by_label(metric, "node") == _per_node(legacy, attr)


def test_network_stats_match_registry(result, legacy):
    registry = result.registry
    assert registry.total("net.messages_total") == \
        legacy["network_messages"]
    assert registry.total("net.wire_bytes_total") == \
        legacy["network_bytes"]
    assert registry.total("net.contention_cycles_total") == \
        legacy["network_contention_cycles"]
    # The wire-time histogram saw every message.
    wire = registry.get("net.wire_cycles").labels()
    assert wire.count == result.network_messages


def test_sim_event_count_matches_registry(result):
    assert result.registry.total("sim.events_dispatched_total") > 0
    assert result.registry.total("sim.queue_depth_peak") >= 1


def test_const_labels_describe_the_run(result):
    assert result.registry.const_labels == {
        "protocol": "li", "network": "atm", "nprocs": "4",
        "app": "jacobi"}


def test_barrier_messages_exist_on_multiproc_run(result):
    by_type = result.registry.by_label("dsm.messages_total",
                                       "msg_type")
    assert by_type.get(MsgKind.BARRIER_ARRIVE.value, 0) > 0
    assert by_type.get(MsgKind.BARRIER_DEPART.value, 0) > 0


def test_stats_cli_json_matches_run_counters():
    """Acceptance: ``repro stats`` emits a JSON dump for a Jacobi /
    ATM / LI run whose message and diff counts equal the values the
    pre-existing experiments path reports."""
    from repro.cli import main

    import contextlib
    import io
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "stats.json")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["stats", "jacobi", "--protocol", "li",
                         "--network", "atm", "--procs", "4",
                         "--scale", "small", "--output", out_path])
        assert code == 0
        with open(out_path) as handle:
            dump = json.load(handle)

    reference = run_app(
        create_app("jacobi", n=48, iterations=3),
        MachineConfig(nprocs=4, network=NetworkConfig.atm()),
        protocol="li")

    assert dump["const_labels"]["protocol"] == "li"
    assert dump["const_labels"]["network"] == "atm"
    by_name = {m["name"]: m for m in dump["metrics"]}
    assert by_name["dsm.messages_total"]["total"] == \
        reference.total_messages
    assert by_name["dsm.diffs_created_total"]["total"] == \
        reference.diffs_created
    assert by_name["net.messages_total"]["total"] == \
        reference.network_messages
