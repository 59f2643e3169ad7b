"""``Div(pkt, H, i)``: round-robin division over ``H`` subsequences."""

from __future__ import annotations

from repro.media.sequence import PacketSequence

#: every empty part is this one sequence: a late handoff splits a short
#: postfix ``H + 1`` ways and most parts have nothing in them
_EMPTY = PacketSequence()


def divide(seq: PacketSequence, n_parts: int, index: int) -> PacketSequence:
    """Subsequence ``index`` (0-based) of the round-robin split of ``seq``.

    The ``j``-th packet (0-based) goes to part ``j mod n_parts`` — the
    paper's "``t`` is allocated to ``pkt_{s_i}`` where ``i = j mod H + 1``"
    in 0-based form.
    """
    if n_parts < 1:
        raise ValueError(f"n_parts must be >= 1, got {n_parts}")
    if not 0 <= index < n_parts:
        raise ValueError(f"index {index} outside 0..{n_parts - 1}")
    if n_parts == 1:
        return seq  # sequences are immutable: the whole is its only part
    if index >= len(seq):
        return _EMPTY
    return PacketSequence(seq[index::n_parts])


def divide_all(seq: PacketSequence, n_parts: int) -> list[PacketSequence]:
    """All ``n_parts`` round-robin subsequences, a partition of ``seq``."""
    if n_parts < 1:
        raise ValueError(f"n_parts must be >= 1, got {n_parts}")
    return [divide(seq, n_parts, i) for i in range(n_parts)]
