"""Packets and packet labels.

Two packet kinds exist:

* :class:`DataPacket` — the ``k``-th fragment of a content; label is the
  integer sequence number ``k`` (1-based, as in the paper).
* :class:`ParityPacket` — XOR of a group of packets (data or parity); its
  label is normally the tuple of the covered packets' labels, mirroring the
  paper's ``t_<1,2>`` / ``t_<<1,2>,3,5>`` notation.

Labels must be unique within one packet sequence.  Repeated enhancement of
overlapping material (a parent re-enhancing a postfix that still contains an
older parity packet) can produce a new parity whose covers-tuple equals an
existing label; :func:`repro.fec.enhance.enhance` then *disambiguates* the
new label to ``("p", segment_index, covers)`` (wrapped further with
``("p", …)`` if even that collides).  :func:`parity_covers` recovers the
true covered labels from any label form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

#: A packet label: an ``int`` seq for data; for parity either the covers
#: tuple itself or a disambiguated ``("p", d, covers)`` / ``("p", inner)``.
Label = Union[int, Tuple["Label", ...]]

#: First element of disambiguated parity labels.
_P = "p"


def is_disambiguated(label: Label) -> bool:
    """True for ``("p", …)`` parity-label forms."""
    return isinstance(label, tuple) and len(label) > 0 and label[0] == _P


def parity_covers(label: Label) -> Tuple[Label, ...]:
    """The covered labels of a parity label, unwrapping disambiguation."""
    if isinstance(label, int):
        raise TypeError(f"data label {label!r} covers nothing")
    if is_disambiguated(label):
        return parity_covers(label[-1])
    return label


def base_seqs(label: Label) -> frozenset[int]:
    """All underlying data sequence numbers a label (transitively) covers."""
    if isinstance(label, int):
        return frozenset((label,))
    if is_disambiguated(label):
        return base_seqs(label[-1])
    out: set[int] = set()
    for sub in label:
        out |= base_seqs(sub)
    return frozenset(out)


def format_label(label: Label) -> str:
    """Render a label in the paper's ``t_<...>`` notation."""
    if isinstance(label, int):
        return f"t{label}"
    if is_disambiguated(label):
        return format_label(label[-1]) + "'"
    parts = []
    for sub in label:
        parts.append(str(sub) if isinstance(sub, int) else format_label(sub)[1:])
    return "t<" + ",".join(parts) + ">"


def label_sort_key(label: Label) -> tuple:
    """Stable ordering key: by smallest covered seq, parity after data."""
    seqs = base_seqs(label)
    return (min(seqs) if seqs else 0, 0 if isinstance(label, int) else 1, repr(label))


@dataclass(frozen=True)
class Packet:
    """Base packet: a label plus optional payload bytes.

    ``payload`` is ``None`` in label-only (symbolic) simulations where only
    coordination metrics are measured; byte payloads are attached when the
    FEC recovery path is exercised end-to-end.
    """

    label: Label
    payload: Optional[bytes] = field(default=None, compare=False, repr=False)

    @property
    def is_parity(self) -> bool:
        return not isinstance(self.label, int)

    @property
    def seq(self) -> int:
        """Data sequence number; raises for parity packets."""
        if not isinstance(self.label, int):
            raise TypeError(f"{self} is a parity packet and has no seq")
        return self.label

    def covered_seqs(self) -> frozenset[int]:
        """All underlying data sequence numbers under this packet."""
        return base_seqs(self.label)

    def __str__(self) -> str:
        return format_label(self.label)


class DataPacket(Packet):
    """The ``seq``-th data fragment of a content."""

    def __init__(self, seq: int, payload: Optional[bytes] = None) -> None:
        if not isinstance(seq, int) or seq < 1:
            raise ValueError(f"data packet seq must be a positive int, got {seq!r}")
        super().__init__(label=seq, payload=payload)


class ParityPacket(Packet):
    """XOR parity over ``covers`` (a tuple of at least one label).

    ``label`` defaults to the covers tuple; :func:`repro.fec.enhance.enhance`
    passes a disambiguated label when the default would collide.
    """

    def __init__(
        self,
        covers: Tuple[Label, ...],
        payload: Optional[bytes] = None,
        label: Optional[Label] = None,
    ) -> None:
        if not isinstance(covers, tuple) or len(covers) < 1:
            raise ValueError(f"parity must cover a non-empty tuple, got {covers!r}")
        use_label = covers if label is None else label
        if parity_covers(use_label) != covers:
            raise ValueError(
                f"label {use_label!r} does not resolve to covers {covers!r}"
            )
        super().__init__(label=use_label, payload=payload)
