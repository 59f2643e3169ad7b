"""Media model: contents, packets, sequence algebra, and time slots.

Implements §2 of the paper: a multimedia content is decomposed into a
sequence of packets; multiple contents peers transmit subsequences of that
sequence over logical channels; with heterogeneous channel bandwidths the
*time-slot allocation* algorithm assigns packets to channels so a leaf peer
can deliver each packet immediately on receipt (the *packet allocation
property*).

Packet labels follow the paper's notation: a data packet is ``t_k`` (label
``k``); a parity packet over labels ``a, b, c`` is ``t_<a,b,c>`` (label
``(a, b, c)``), and labels nest when already-enhanced sequences are enhanced
again (e.g. ``t_<<1,2>,3,5>``).
"""

from repro.media.batch import PacketBatch
from repro.media.packet import (
    DataPacket,
    Label,
    Packet,
    ParityPacket,
    base_seqs,
    format_label,
    parity_covers,
)
from repro.media.sequence import PacketSequence
from repro.media.content import MediaContent
from repro.media.timeslot import TimeSlot, allocate_packets, build_slots

__all__ = [
    "DataPacket",
    "Label",
    "MediaContent",
    "Packet",
    "PacketBatch",
    "PacketSequence",
    "ParityPacket",
    "TimeSlot",
    "allocate_packets",
    "base_seqs",
    "build_slots",
    "format_label",
    "parity_covers",
]
