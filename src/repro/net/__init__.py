"""P2P overlay network substrate.

Models the paper's setting: every contents peer is connected to the leaf
peer (and to other contents peers) over a *logical channel* of the
underlying network.  A channel applies, in order:

1. a loss model (none, Bernoulli, or bursty Gilbert–Elliott),
2. an optional link fault (drop, duplicate, reorder, sever window),
3. a latency model (constant δ, uniform or normal jitter).

Serialization is negligible (the paper's 10 Gbps links); a finite uplink
is a peer's :class:`UploadBudget`.  Messages that survive are handed to
the destination node's ``on_deliver`` handler the instant they arrive.
The :class:`Overlay` opens each pair lazily (full logical mesh): one delay
if it is fault-free, else a channel.  It tallies traffic per message kind
(:class:`TrafficStats`, what results and the harness read), and files
every lost, duplicated or held-back message instance as a row of the
run's :class:`~repro.net.ledger.FaultLedger`; a channel keeps no
accounting of its own.
"""

from repro.net.message import Message
from repro.net.latency import ConstantLatency, LatencyModel, NormalLatency, UniformLatency
from repro.net.loss import BernoulliLoss, GilbertElliottLoss, LossModel, NoLoss
from repro.net.linkfault import (
    CompositeFault,
    DuplicateFault,
    LinkFault,
    ReorderFault,
)
from repro.net.dedup import DedupWindow
from repro.net.capacity import CapacityPolicy, UploadBudget
from repro.net.channel import Channel
from repro.net.node import Node
from repro.net.overlay import Overlay, TrafficStats

__all__ = [
    "BernoulliLoss",
    "CapacityPolicy",
    "Channel",
    "CompositeFault",
    "ConstantLatency",
    "DedupWindow",
    "DuplicateFault",
    "GilbertElliottLoss",
    "LatencyModel",
    "LinkFault",
    "LossModel",
    "Message",
    "NoLoss",
    "Node",
    "NormalLatency",
    "Overlay",
    "ReorderFault",
    "TrafficStats",
    "UniformLatency",
    "UploadBudget",
]
