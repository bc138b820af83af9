"""A run's message mix by kind, read from the registry's
``dsm.messages_total``, including the paper's EU statistic."""

from repro.apps import Water
from repro.core import MachineConfig, NetworkConfig, run_app
from repro.net.message import MsgKind


def run_water(protocol, nmols=16):
    return run_app(Water(nmols=nmols, steps=1),
                   MachineConfig(nprocs=4, network=NetworkConfig.atm()),
                   protocol=protocol)


def test_timeline_counts_match_kinds():
    result = run_water("lh")
    by_kind = result.metric_by("dsm.messages_total", "msg_type")
    # Node sends and network transmissions are counted at different
    # layers; with no faults every send is one transmission.
    assert sum(by_kind.values()) == result.network_messages > 0
    assert by_kind.get(MsgKind.BARRIER_ARRIVE.value, 0) >= 3


def test_eu_flush_messages_dominate():
    """Paper section 6.2: '91% of EU's messages are updates sent
    during lock releases.'  In our accounting that's the FLUSH +
    FLUSH_ACK traffic."""
    result = run_water("eu", nmols=24)
    by_kind = result.metric_by("dsm.messages_total", "msg_type")
    flush_traffic = (by_kind.get(MsgKind.FLUSH.value, 0)
                     + by_kind.get(MsgKind.FLUSH_ACK.value, 0))
    assert flush_traffic / sum(by_kind.values()) > 0.5
