"""The indexed :class:`ParityDecoder` against the rescan fixpoint it replaced.

``RescanDecoder`` below *is* the old decoder: every ``add`` rescans every
open constraint until nothing changes.  It stays here as the reference;
the indexed decoder must agree with it add for add, and must do so while
looking only at the constraints that cover the labels an add settles.
"""

from collections import Counter
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fec import ParityDecoder, divide, enhance
from repro.fec.xor import xor_recover
from repro.media import MediaContent
from repro.media.packet import is_disambiguated, parity_covers


class RescanDecoder(ParityDecoder):
    """Reference: XOR recovery by rescanning all constraints to a fixpoint."""

    def add(self, packet):
        self.received_count += 1
        if packet.label in self._have:
            self.duplicate_count += 1
            self.recovered.discard(packet.label)
            if self._have[packet.label] is None and packet.payload is not None:
                self._have[packet.label] = packet.payload
            return set()
        self._have[packet.label] = packet.payload
        newly = set()
        if isinstance(packet.label, int):
            self._data_held.add(packet.label)
            newly.add(packet.label)
        if packet.is_parity:
            self._constraints[packet.label] = parity_covers(packet.label)
        newly |= self._propagate()
        self._advance_prefix()
        return newly

    def _propagate(self):
        newly = set()
        progress = True
        while progress:
            progress = False
            for parity_label, covers in list(self._constraints.items()):
                missing = [c for c in covers if c not in self._have]
                if not missing:
                    del self._constraints[parity_label]
                    continue
                if len(missing) == 1:
                    target = missing[0]
                    parity_payload = self._have[parity_label]
                    present = [self._have[c] for c in covers if c in self._have]
                    if parity_payload is not None and all(
                        p is not None for p in present
                    ):
                        payload: Optional[bytes] = xor_recover(
                            parity_payload, present
                        )
                    else:
                        payload = None
                    self._have[target] = payload
                    self.recovered.add(target)
                    if isinstance(target, int):
                        self._data_held.add(target)
                        newly.add(target)
                    else:
                        self._constraints.setdefault(
                            target, parity_covers(target)
                        )
                    del self._constraints[parity_label]
                    progress = True
        return newly


# ----------------------------------------------------------------------
# packet universes: what a leaf can be sent after repeated handoffs
# ----------------------------------------------------------------------
@st.composite
def universes(draw):
    """``(content, packets)``: an enhanced content plus one or two
    re-enhancements of postfixes or division parts of it, as §3.3 handoffs
    produce — nested labels, and ``("p", …)`` labels where a postfix still
    holds the parity its own segment would be labelled as."""
    n = draw(st.integers(2, 18))
    content = MediaContent(
        "c", n, packet_size=4, seed=draw(st.integers(0, 3)),
        with_payload=draw(st.booleans()),
    )
    level = enhance(content.packet_sequence(), draw(st.integers(1, 4)))
    packets = {p.label: p for p in level}
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            basis = level.slice_from(draw(st.integers(0, len(level) - 1)))
        else:
            n_parts = draw(st.integers(1, 3))
            basis = divide(level, n_parts, draw(st.integers(0, n_parts - 1)))
        if not len(basis):
            break
        level = enhance(basis, draw(st.integers(1, 4)))
        for p in level:
            packets.setdefault(p.label, p)
    return content, list(packets.values())


def arrivals(universe):
    """Any multiset of the universe in any order: losses (never drawn),
    duplicates, and a label arriving after parity already recovered it."""
    return st.lists(st.sampled_from(universe), max_size=3 * len(universe))


def assert_same_state(new: ParityDecoder, ref: RescanDecoder) -> None:
    assert new._have == ref._have  # held labels and their payloads
    assert new.recovered == ref.recovered
    assert new.data_seqs_held() == ref.data_seqs_held()
    assert new.contiguous_prefix == ref.contiguous_prefix
    assert new.duplicate_count == ref.duplicate_count
    assert new.complete == ref.complete
    # the open constraints are the same, with the same members missing
    assert new.unresolved() == {
        label: tuple(c for c in covers if c not in ref._have)
        for label, covers in ref._constraints.items()
    }


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_indexed_decoder_equals_rescan_fixpoint(data):
    content, universe = data.draw(universes())
    new, ref = ParityDecoder(content.n_packets), RescanDecoder(content.n_packets)
    for packet in data.draw(arrivals(universe)):
        assert new.add(packet) == ref.add(packet)
        assert_same_state(new, ref)
    if content.has_payload:
        assert new.verify_against(content)
        for label in new.recovered:
            assert new.payload_of(label) == ref.payload_of(label) is not None


def test_disambiguated_and_nested_labels_are_exercised():
    """The shapes the property test relies on do occur: a postfix that still
    holds its own segment's parity re-enhances to a ``("p", …)`` label, and
    a lost nested parity is recovered, re-armed, and recovers data."""
    content = MediaContent("c", 6, packet_size=4, with_payload=True)
    first = enhance(content.packet_sequence(), 2)
    assert first.labels()[-3:] == [5, 6, (5, 6)]
    second = enhance(first.slice_from(len(first) - 3), 2)
    disambiguated = [p for p in second if is_disambiguated(p.label)]
    assert [p.label for p in disambiguated] == [("p", 0, (5, 6))]

    outer = second.find(((5, 6),))  # the short tail segment's parity
    assert outer is not None
    for decoder in (ParityDecoder(6), RescanDecoder(6)):
        # (5, 6) never arrives: its own parity yields it, and once held it
        # is a constraint again and yields t6
        assert decoder.add(outer) == set()
        assert (5, 6) in decoder._have and (5, 6) in decoder.recovered
        assert decoder.add(first.find(5)) == {5, 6}
        assert decoder.payload_of(6) == content.payload(6)
        # the eagerly recovered parity arriving late is no longer a repair
        assert decoder.add(first.find((5, 6))) == set()
        assert (5, 6) not in decoder.recovered


# ----------------------------------------------------------------------
# work done per add
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_an_add_visits_only_constraints_covering_what_it_settles(data):
    content, universe = data.draw(universes())
    #: label -> how many parities of the universe cover it
    covering = Counter(
        c for p in universe if p.is_parity for c in parity_covers(p.label)
    )
    decoder = ParityDecoder(content.n_packets)
    for packet in data.draw(arrivals(universe)):
        held, visits = set(decoder._have), decoder.constraint_visits
        decoder.add(packet)
        settled = set(decoder._have) - held  # the arrival and its recoveries
        bound = sum(
            covering[label] + (not isinstance(label, int)) for label in settled
        )
        assert decoder.constraint_visits - visits <= bound


def test_in_order_stream_costs_one_visit_per_cover():
    """1000 constraints open at once (every parity ahead of its members):
    the rescan looked at each of them on every one of the 3000 adds."""
    enhanced = enhance(
        MediaContent("c", 3000, with_payload=False).packet_sequence(), 3
    )
    parities = [p for p in enhanced if p.is_parity]
    data = [p for p in enhanced if not p.is_parity]
    decoder = ParityDecoder(3000)
    for p in parities:  # 1000 constraints open, nothing recoverable yet
        decoder.add(p)
    for p in data:
        decoder.add(p)
    assert decoder.complete and not decoder.recovered
    # one visit to open each constraint, one per covered member arriving
    # until a single member is left (which is then recovered, not visited)
    assert decoder.constraint_visits <= len(parities) + len(data)
