"""Unit tests for metrics aggregation."""

import pytest

from repro.core.metrics import NodeMetrics, RunResult
from repro.net.message import Message, MsgKind
from repro.obs import Observability


def make_result(nodes=2, **overrides):
    metrics = []
    for proc in range(nodes):
        m = NodeMetrics(proc=proc)
        m.finish_time = 1000.0
        metrics.append(m)
    defaults = dict(app="test", protocol="lh", nprocs=nodes,
                    elapsed_cycles=1000.0, node_metrics=metrics,
                    network_messages=0, network_bytes=0,
                    network_contention_cycles=0.0)
    defaults.update(overrides)
    return RunResult(**defaults)


def _registry_result(sends, nodes=2):
    """A RunResult read back from a registry that saw ``sends``."""
    obs = Observability()
    instruments = [obs.node_instruments(proc) for proc in range(nodes)]
    for message in sends:
        instruments[message.src].record_send(message)
    return RunResult.from_registry(
        obs.registry, app="test", protocol="lh", elapsed_cycles=1000.0,
        finish_times=[1000.0] * nodes)


def test_record_send_accumulates():
    result = _registry_result([
        Message(src=0, dst=1, kind=MsgKind.LOCK_REQ),
        Message(src=0, dst=1, kind=MsgKind.PAGE_REPLY, data_bytes=100)])
    m = result.node_metrics[0]
    assert m.total_messages == 2
    assert m.sync_messages == 1
    assert m.data_bytes_sent == 100
    assert m.wire_bytes_sent > 100  # headers included
    assert result.node_metrics[1].total_messages == 0
    # Cycle fields nobody touched still read as floats.
    assert m.compute_cycles == 0.0
    assert isinstance(m.compute_cycles, float)
    assert isinstance(result.network_contention_cycles, float)


def test_run_result_aggregates_over_nodes():
    result = _registry_result([
        Message(src=0, dst=1, kind=MsgKind.DIFF_REPLY, data_bytes=512),
        Message(src=2, dst=0, kind=MsgKind.BARRIER_ARRIVE)], nodes=3)
    assert result.total_messages == 2
    assert result.sync_messages == 1
    assert result.data_kbytes == pytest.approx(0.5)
    by_kind = result.messages_by_kind()
    assert by_kind[MsgKind.DIFF_REPLY] == 1


def test_speedup_over():
    base = make_result(elapsed_cycles=8000.0)
    fast = make_result(elapsed_cycles=2000.0)
    assert fast.speedup_over(base) == pytest.approx(4.0)
    broken = make_result(elapsed_cycles=0.0)
    with pytest.raises(ValueError):
        broken.speedup_over(base)


def test_summary_mentions_key_numbers():
    result = make_result()
    text = result.summary()
    assert "test/lh" in text
    assert "2 procs" in text


def test_time_breakdown_fractions():
    result = make_result(nodes=2)
    for m in result.node_metrics:
        m.compute_cycles = 400.0
        m.lock_wait_cycles = 500.0
        m.overhead_cycles = 50.0
    breakdown = result.time_breakdown()
    assert breakdown["compute"] == pytest.approx(0.4)
    assert breakdown["lock_wait"] == pytest.approx(0.5)
    assert breakdown["other"] >= 0.0


def test_time_breakdown_empty_run():
    result = make_result()
    for m in result.node_metrics:
        m.finish_time = 0.0
    assert result.time_breakdown() == {}
