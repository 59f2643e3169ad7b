"""Coordination protocols — the paper's contribution (§3) plus baselines.

Two flooding-based protocols synchronize ``n`` contents peers so they
cooperatively stream one content to a leaf peer:

* :class:`DCoP` — redundant distributed coordination (§3.4): a peer may be
  selected by several parents and merges the assignments; one δ-round per
  flooding wave.
* :class:`TCoP` — non-redundant tree-based coordination (§3.5): selection is
  a three-round handshake (offer / confirm / start), so each peer has at
  most one parent and the active peers form a tree rooted at the leaf.

Baselines from §3.1 and the related work the paper compares against:

* :class:`BroadcastCoordination` — leaf floods all peers, every peer
  transmits the whole sequence, peers gossip state to everyone (1 round,
  maximal redundancy, §3.1 "first broadcast way").
* :class:`UnicastChainCoordination` — leaf contacts one peer; peers hand
  off one-by-one (n rounds, minimal redundancy, §3.1 "second unicast way").
* :class:`CentralizedCoordination` — a controller peer runs a 2PC-style
  prepare/ready/start exchange (≥3 rounds, ref [5]).
* :class:`ScheduleBasedCoordination` — the leaf computes the whole
  transmission schedule and ships it to every peer (ref [8], Liu–Vuong).
* :class:`SingleSourceStreaming` — one peer serves the content alone (the
  traditional model §2 argues against).
"""

from repro.core.base import (
    Assignment,
    AssignmentMessage,
    ConfirmMessage,
    CoordinationProtocol,
    HandoffPlan,
    OfferMessage,
    ProtocolConfig,
    divide_evenly,
    divide_weighted,
    parity_interval_for,
)
from repro.core.dcop import DCoP
from repro.core.tcop import TCoP
from repro.core.broadcast import BroadcastCoordination
from repro.core.unicast import UnicastChainCoordination
from repro.core.centralized import CentralizedCoordination
from repro.core.schedule_based import ScheduleBasedCoordination
from repro.core.single_source import SingleSourceStreaming
from repro.core.ams import AMSCoordination

__all__ = [
    "AMSCoordination",
    "Assignment",
    "AssignmentMessage",
    "BroadcastCoordination",
    "CentralizedCoordination",
    "ConfirmMessage",
    "CoordinationProtocol",
    "DCoP",
    "HandoffPlan",
    "OfferMessage",
    "ProtocolConfig",
    "ScheduleBasedCoordination",
    "SingleSourceStreaming",
    "TCoP",
    "UnicastChainCoordination",
    "divide_evenly",
    "divide_weighted",
    "parity_interval_for",
]
