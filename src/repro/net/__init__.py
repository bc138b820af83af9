"""Network substrate: message model and contention models."""

from repro.net.atm import AtmNetwork
from repro.net.base import Network, NetworkStats
from repro.net.ethernet import EthernetNetwork
from repro.net.ideal import IdealNetwork
from repro.net.message import Message, MsgKind


def build_network(sim, config, obs=None):
    """Instantiate the network named by ``config.network.kind``,
    counting its traffic in ``obs``'s registry (a private one when
    ``obs`` is None)."""
    kind = config.network.kind
    if kind == "ethernet":
        return EthernetNetwork(sim, config, obs)
    if kind == "atm":
        return AtmNetwork(sim, config, obs)
    if kind == "ideal":
        return IdealNetwork(sim, config, obs)
    raise ValueError(f"unknown network kind: {kind!r}")


__all__ = [
    "AtmNetwork", "EthernetNetwork", "IdealNetwork", "Message", "MsgKind",
    "Network", "NetworkStats", "build_network",
]
