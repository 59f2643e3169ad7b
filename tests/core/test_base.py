"""Tests for protocol configuration, rate math, and assignments."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import sim
from repro.core import (
    Assignment,
    ProtocolConfig,
    divide_evenly,
    parity_interval_for,
)
from repro.core.base import rate_for
from repro.fec import divide, enhance, shared_enhance
from repro.media import DataPacket, MediaContent, PacketSequence
from repro.streaming import Stream


def data_seq(n):
    return PacketSequence(DataPacket(k) for k in range(1, n + 1))


class TestParityInterval:
    def test_paper_regime_h1(self):
        # §4: h=1 with 100 senders → one parity per 99 packets
        assert parity_interval_for(100, 1) == 99
        assert parity_interval_for(60, 1) == 59

    def test_margin_zero_disables_parity(self):
        assert parity_interval_for(10, 0) == 0

    def test_floor_at_one(self):
        assert parity_interval_for(2, 1) == 1
        assert parity_interval_for(2, 5) == 1
        assert parity_interval_for(1, 1) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            parity_interval_for(0, 1)
        with pytest.raises(ValueError):
            parity_interval_for(5, -1)


class TestRateFor:
    def test_paper_formula(self):
        # τ_i = τ(h+1)/(hH): τ=1, h=59, H=60
        assert rate_for(1.0, 60, 59) == pytest.approx(60 / (59 * 60))

    def test_no_parity_even_split(self):
        assert rate_for(3.0, 3, 0) == pytest.approx(1.0)

    def test_aggregate_preserves_data_timeline(self):
        """n_parts peers at the split rate deliver (h+1)/h packets per
        parent-packet-time — i.e. the data rate is preserved."""
        for n_parts in (2, 5, 10):
            for h in (1, 2, 9):
                agg = n_parts * rate_for(1.0, n_parts, h)
                assert agg == pytest.approx((h + 1) / h)


class TestDivisionRule:
    @settings(max_examples=60, deadline=None)
    @given(
        length=st.integers(1, 60),
        n_parts=st.integers(1, 9),
        fault_margin=st.integers(0, 3),
        rate=st.floats(0.01, 50.0),
    )
    def test_one_division_partitions_esq(self, length, n_parts, fault_margin, rate):
        basis = data_seq(length)
        plan = divide_evenly(basis, rate, n_parts, fault_margin)
        h = plan.interval
        assert h == parity_interval_for(n_parts, fault_margin)
        assert [a.index for a in plan.assignments] == list(range(n_parts))
        # one Esq per division: every part reads the same basis object
        assert all(a.basis is basis for a in plan.assignments)
        parts = [lb for a in plan.assignments for lb in a.build_plan().labels()]
        whole = shared_enhance(basis, h).labels()
        assert len(parts) == len(whole) and set(parts) == set(whole)
        assert sum(a.rate for a in plan.assignments) == pytest.approx(
            rate * (h + 1) / h if h else rate
        )

    def test_the_rule_is_spelled_once(self):
        """Call-site counts over ``core/`` + ``streaming/``: a new place
        that works the interval, the rate or an assignment out by hand
        shows up here."""
        src = Path(repro.__file__).parent
        trees = {
            path: ast.parse(path.read_text())
            for pkg in ("core", "streaming")
            for path in sorted((src / pkg).glob("*.py"))
        }
        nodes = [n for tree in trees.values() for n in ast.walk(tree)]
        calls: dict[str, int] = {}
        for node in nodes:
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls[name] = calls.get(name, 0) + 1
        assert calls["parity_interval_for"] <= 3
        assert calls["rate_for"] <= 2
        assert calls["Assignment"] <= 6
        assert calls["allocate_packets"] == 1
        assert (
            sum(kw.arg == "replace" for n in nodes for kw in getattr(n, "keywords", ()))
            == 1
        )
        # the concrete base, TCoP's handshake, Centralized's controller
        assert [
            path.stem
            for path, tree in trees.items()
            for d in ast.walk(tree)
            if path.parent.name == "core"
            and isinstance(d, ast.FunctionDef) and d.name == "initiate"
        ] == ["base", "centralized", "tcop"]
        # one message class carries an assignment
        assert [
            c.name
            for c in nodes
            if isinstance(c, ast.ClassDef) and c.name.endswith("Message")
            and any(getattr(f, "target", None) is not None
                    and f.target.id == "assignment" for f in c.body)
        ] == ["AssignmentMessage"]
        # a loop is a timer: no module under src/repro starts a process,
        # makes an event or waits on a timeout, and the kernel exports
        # no such thing
        assert not [
            (path.relative_to(src).as_posix(), c.func.attr)
            for path in sorted(src.rglob("*.py"))
            for c in ast.walk(ast.parse(path.read_text()))
            if isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute)
            and c.func.attr in ("process", "event", "timeout")
        ]
        assert not {"Event", "Timeout", "Process"} & set(sim.__all__)
        assert not [
            path for path in sorted(src.rglob("*.py"))
            if "AnyOf" in path.read_text()
        ]


class TestAssignment:
    def test_build_plan_matches_esq_div(self):
        from repro.fec import divide, enhance

        basis = data_seq(12)
        a = Assignment(basis=basis, n_parts=3, index=1, interval=2, rate=0.5)
        assert a.build_plan() == divide(enhance(basis, 2), 3, 1)

    def test_build_plan_no_parity(self):
        basis = data_seq(6)
        a = Assignment(basis=basis, n_parts=2, index=0, interval=0, rate=1.0)
        assert a.build_plan().labels() == [1, 3, 5]

    def test_empty_basis_gives_empty_plan(self):
        a = Assignment(
            basis=PacketSequence(), n_parts=2, index=1, interval=0, rate=1.0
        )
        assert len(a.build_plan()) == 0

    def test_validation(self):
        basis = data_seq(3)
        with pytest.raises(ValueError):
            Assignment(basis=basis, n_parts=0, index=0, interval=0, rate=1.0)
        with pytest.raises(ValueError):
            Assignment(basis=basis, n_parts=2, index=2, interval=0, rate=1.0)
        with pytest.raises(ValueError):
            Assignment(basis=basis, n_parts=2, index=0, interval=-1, rate=1.0)
        with pytest.raises(ValueError):
            Assignment(basis=basis, n_parts=2, index=0, interval=0, rate=0.0)

    def test_plans_partition_basis(self):
        basis = data_seq(20)
        plans = [
            Assignment(basis=basis, n_parts=4, index=i, interval=3, rate=1.0).build_plan()
            for i in range(4)
        ]
        all_labels = sorted(repr(lb) for p in plans for lb in p.labels())
        from repro.fec import enhance

        expected = sorted(repr(lb) for lb in enhance(basis, 3).labels())
        assert all_labels == expected


class TestProtocolConfig:
    def test_defaults_are_paper_scale(self):
        cfg = ProtocolConfig()
        assert cfg.n == 100
        assert cfg.fault_margin == 1

    def test_initial_interval_and_rate(self):
        # the leaf's initial H-way division, paper: τ(h+1)/(hH)
        cfg = ProtocolConfig(n=100, H=60, fault_margin=1, tau=2.0)
        plan = divide_evenly(
            data_seq(cfg.content_packets), cfg.tau, cfg.H, cfg.fault_margin
        )
        assert plan.interval == 59
        assert plan.child_rate == pytest.approx(2.0 * 60 / (59 * 60))
        assert {a.rate for a in plan.assignments} == {plan.child_rate}

    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(n=0)
        with pytest.raises(ValueError):
            ProtocolConfig(n=5, H=6)
        with pytest.raises(ValueError):
            ProtocolConfig(H=0)
        with pytest.raises(ValueError):
            ProtocolConfig(fault_margin=-1)
        with pytest.raises(ValueError):
            ProtocolConfig(tau=0)
        with pytest.raises(ValueError):
            ProtocolConfig(delta=0)
        with pytest.raises(ValueError):
            ProtocolConfig(content_packets=0)


# ----------------------------------------------------------------------
# one Esq per handoff, read by the parent and every child
# ----------------------------------------------------------------------
class TestSharedEnhancement:
    @staticmethod
    def _count_enhance(monkeypatch):
        import sys

        # ``repro.fec.enhance`` the attribute is the function; the module
        # whose ``enhance`` shared_enhance calls is in sys.modules
        enhance_module = sys.modules["repro.fec.enhance"]
        calls = []

        def counted(seq, h):
            calls.append((seq, h))
            return enhance(seq, h)

        monkeypatch.setattr(enhance_module, "enhance", counted)
        return calls

    def test_siblings_equal_a_fresh_derivation_bytes_included(self):
        content = MediaContent("c", 90, packet_size=8, with_payload=True)
        stream = Stream(content.packet_sequence(), rate=1.0)
        plan = stream.handoff(n_children=4, fault_margin=1, delta=3.0)
        assert plan.interval == 4 and plan.n_parts == 5
        fresh = enhance(plan.basis, plan.interval)
        assert fresh.parity_count() > 0
        for a in plan.assignments:
            built = a.build_plan()
            want = divide(fresh, plan.n_parts, a.index)
            assert built.labels() == want.labels()
            assert [p.payload for p in built] == [p.payload for p in want]
            assert all(p.payload is not None for p in built)
        # the parent's own share is part 0 of the same division
        own = [p.label for p in stream.future_packets()][3:]
        assert own == divide(fresh, plan.n_parts, 0).labels()

    def test_one_handoff_enhances_once(self, monkeypatch):
        calls = self._count_enhance(monkeypatch)
        stream = Stream(data_seq(120), rate=1.0)
        plan = stream.handoff(n_children=7, fault_margin=1, delta=2.0)
        assert len(calls) == 1 and calls[0][0] is plan.basis
        for a in plan.assignments:
            a.build_plan()
        assert len(calls) == 1

    def test_no_parity_never_enhances(self, monkeypatch):
        calls = self._count_enhance(monkeypatch)
        a = Assignment(data_seq(10), n_parts=2, index=1, interval=0, rate=1.0)
        assert a.build_plan().labels() == [2, 4, 6, 8, 10]
        assert calls == []

    def test_equal_but_distinct_bases_do_not_share(self, monkeypatch):
        # the memo belongs to the basis *object*: an equal-labelled basis
        # with other payloads must not read this one's parity bytes
        calls = self._count_enhance(monkeypatch)
        for seed in (0, 1):
            basis = MediaContent(
                "c", 12, packet_size=4, seed=seed, with_payload=True
            ).packet_sequence()
            a = Assignment(basis, n_parts=3, index=0, interval=2, rate=1.0)
            want = divide(enhance(basis, 2), 3, 0)
            assert [p.payload for p in a.build_plan()] == [
                p.payload for p in want
            ]
        assert len(calls) == 2

    def test_empty_parts_are_one_object_and_a_sole_part_is_the_whole(self):
        seq = data_seq(3)
        late = [divide(seq, 60, i) for i in range(3, 60)]
        assert all(len(p) == 0 and p is late[0] for p in late)
        assert divide(seq, 60, 1).labels() == [2]
        assert divide(seq, 1, 0) is seq

    def test_memo_dies_with_the_basis_and_stays_out_of_pickles(self):
        import gc
        import pickle
        import weakref

        basis = data_seq(20)
        enhanced = shared_enhance(basis, 3)
        assert shared_enhance(basis, 3) is enhanced
        assert shared_enhance(basis, 4) is not enhanced
        clone = pickle.loads(pickle.dumps(basis))
        assert clone == basis and clone._derived is None
        assert len(pickle.dumps(basis)) == len(pickle.dumps(data_seq(20)))

        gone = weakref.ref(enhanced[0])  # a packet only the memo holds
        assert gone() is not None and gone().is_parity
        del enhanced, basis
        gc.collect()
        assert gone() is None
