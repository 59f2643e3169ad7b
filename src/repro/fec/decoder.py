"""Leaf-side parity decoding by XOR constraint propagation.

Every parity packet is one linear constraint over the payloads it covers:
``parity = ⊕ covered``.  When exactly one covered item is missing it can be
recovered; recovered parity payloads can in turn unlock deeper constraints
(nested labels from repeated enhancement).  The decoder runs this to a
fixpoint incrementally as packets arrive, so recovery latency can be
measured per packet.

Each open constraint keeps the set of covered labels still missing, and a
``label → waiting constraints`` index names the constraints a label can
advance, so an arrival touches only the parities that cover it.  The
fixpoint is the closure of "a constraint with one member missing yields
that member"; the closure does not depend on the order constraints are
visited in.
"""

from __future__ import annotations

from typing import Optional

from repro.media.packet import Label, Packet, parity_covers
from repro.fec.xor import xor_recover


class ParityDecoder:
    """Tracks received packets of one content and recovers losses.

    Works in two modes:

    * **symbolic** (payloads absent): recovery is tracked at the label
      level — a missing label is *recoverable* when some parity constraint
      has it as its only missing member.
    * **concrete** (payload bytes present): recovered payloads are actually
      XOR-computed and exposed via :meth:`payload_of`.

    Parameters
    ----------
    n_packets:
        Number of data packets in the content, for completeness queries.
    """

    def __init__(self, n_packets: int) -> None:
        if n_packets < 1:
            raise ValueError("n_packets must be positive")
        self.n_packets = n_packets
        #: label -> payload (or None in symbolic mode) for every packet we
        #: hold, whether received or recovered.
        self._have: dict[Label, Optional[bytes]] = {}
        #: data sequence numbers held (maintained incrementally — the leaf
        #: queries this per arriving packet, so it must be O(1))
        self._data_held: set[int] = set()
        #: largest m such that data packets 1..m are all held (§2's
        #: packet-allocation property makes this advance monotonically
        #: with arrivals when the allocation is correct)
        self._prefix = 0
        #: labels recovered (never directly received)
        self.recovered: set[Label] = set()
        #: open parity constraints: held parity label -> the covered
        #: labels still missing (always two or more: one missing member is
        #: recovered on the spot, none closes the constraint)
        self._constraints: dict[Label, set[Label]] = {}
        #: missing label -> the constraints that were open on it when they
        #: were registered (entries of since-closed constraints are skipped)
        self._waiting: dict[Label, list[Label]] = {}
        #: constraints looked at so far; the work a decoder has done,
        #: independent of the host's speed
        self.constraint_visits = 0
        #: count of packets delivered to the decoder (incl. duplicates)
        self.received_count = 0
        self.duplicate_count = 0

    # ------------------------------------------------------------------
    # feeding
    # ------------------------------------------------------------------
    def add(self, packet: Packet) -> set[int]:
        """Register an arriving packet and propagate recoveries.

        Returns the set of data sequence numbers that became held as a
        result (directly or through recovery) — empty for duplicates and
        for parity that unlocked nothing.
        """
        self.received_count += 1
        if packet.label in self._have:
            self.duplicate_count += 1
            # a packet recovered eagerly (XOR fired before the last segment
            # member arrived) has now genuinely arrived: it no longer
            # counts as a loss that parity had to repair
            self.recovered.discard(packet.label)
            # keep a concrete payload if we only had a symbolic entry
            if self._have[packet.label] is None and packet.payload is not None:
                self._have[packet.label] = packet.payload
            return set()
        self._have[packet.label] = packet.payload
        newly: set[int] = set()
        # labels that just became held, whose consequences are still to
        # be drawn; recoveries push more
        settled = [packet.label]
        while settled:
            label = settled.pop()
            if isinstance(label, int):
                self._data_held.add(label)
                newly.add(label)
            else:
                # a held parity label — arrived, or recovered and thereby
                # re-armed — is a constraint over what it covers
                self._open(label, settled)
            for parity_label in self._waiting.pop(label, ()):
                missing = self._constraints.get(parity_label)
                if missing is None:
                    continue  # closed since
                self.constraint_visits += 1
                missing.discard(label)
                if len(missing) == 1:
                    self._recover(parity_label, missing.pop(), settled)
        self._advance_prefix()
        return newly

    def _open(self, parity_label: Label, settled: list) -> None:
        """Register the constraint of a held parity label."""
        self.constraint_visits += 1
        have = self._have
        missing = {c for c in parity_covers(parity_label) if c not in have}
        if len(missing) > 1:
            self._constraints[parity_label] = missing
            waiting = self._waiting
            for c in missing:
                waiting.setdefault(c, []).append(parity_label)
        elif missing:
            self._recover(parity_label, missing.pop(), settled)

    def _recover(self, parity_label: Label, target: Label, settled: list) -> None:
        """``target`` is the one member ``parity_label`` still lacked."""
        have = self._have
        self._constraints.pop(parity_label, None)
        if target in have:
            # recovered through another constraint earlier in this add
            return
        parity_payload = have[parity_label]
        present = [have[c] for c in parity_covers(parity_label) if c in have]
        if parity_payload is not None and all(p is not None for p in present):
            payload: Optional[bytes] = xor_recover(
                parity_payload, present  # type: ignore[arg-type]
            )
        else:
            payload = None
        have[target] = payload
        self.recovered.add(target)
        settled.append(target)

    def _advance_prefix(self) -> None:
        while (self._prefix + 1) in self._data_held:
            self._prefix += 1

    @property
    def contiguous_prefix(self) -> int:
        """Largest ``m`` with data packets 1..m all held (0 if none)."""
        return self._prefix

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def unresolved(self) -> dict[Label, tuple[Label, ...]]:
        """Held parity label → the members it covers that are still missing
        (in covers order), for every constraint beyond single-loss recovery."""
        return {
            parity_label: tuple(
                c for c in parity_covers(parity_label) if c in missing
            )
            for parity_label, missing in self._constraints.items()
        }

    def has(self, label: Label) -> bool:
        """Do we hold this label (received or recovered)?"""
        return label in self._have

    def has_data(self, seq: int) -> bool:
        """Do we hold data packet ``t_seq``?"""
        return seq in self._have

    def payload_of(self, label: Label) -> Optional[bytes]:
        if label not in self._have:
            raise KeyError(f"label {label!r} not held")
        return self._have[label]

    def data_seqs_held(self) -> set[int]:
        """All data sequence numbers currently held (copy)."""
        return set(self._data_held)

    def missing_data_seqs(self) -> set[int]:
        return set(range(1, self.n_packets + 1)) - self._data_held

    @property
    def complete(self) -> bool:
        """True once every data packet of the content is held."""
        return len(self._data_held) == self.n_packets

    def delivery_ratio(self) -> float:
        """Fraction of data packets held (received or recovered)."""
        return len(self._data_held) / self.n_packets

    def verify_against(self, content) -> bool:
        """Check every held concrete data payload against the content.

        Returns True when all held data payloads byte-match
        ``content.payload(seq)``; symbolic entries are skipped.
        """
        for seq in self.data_seqs_held():
            payload = self._have[seq]
            if payload is None:
                continue
            if payload != content.payload(seq):
                return False
        return True

    def __repr__(self) -> str:
        return (
            f"<ParityDecoder {len(self.data_seqs_held())}/{self.n_packets} data, "
            f"{len(self.recovered)} recovered, "
            f"{len(self._constraints)} open constraints>"
        )
