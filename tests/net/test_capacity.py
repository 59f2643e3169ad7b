"""Upload-budget unit tests: the windowed ledger's invariants.

The whole overload layer rests on one promise — at most ``per_window``
sends land in any aligned δ-window, queued sends wait exactly until
their landing window opens, and overflow sheds parity before data.
"""

import pytest

from repro.net.capacity import CapacityPolicy, UploadBudget
from repro.sim import Environment


def budget(**policy_kw):
    policy_kw.setdefault("packets_per_delta", 4)
    return UploadBudget(
        "CP1", CapacityPolicy(**policy_kw), delta=10.0, env=Environment()
    )


class TestCapacityPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            CapacityPolicy(packets_per_delta=0)
        with pytest.raises(ValueError):
            CapacityPolicy(packets_per_delta=4, queue_limit=0)
        with pytest.raises(ValueError):
            CapacityPolicy(packets_per_delta=4, parity_queue_fraction=0.0)
        with pytest.raises(ValueError):
            CapacityPolicy(packets_per_delta=4, parity_queue_fraction=1.5)
        with pytest.raises(ValueError):
            CapacityPolicy(packets_per_delta=4, window_deltas=0)

    def test_fractional_budget_floors_at_one(self):
        b = budget(packets_per_delta=0.2)
        assert b.per_window == 1

    def test_per_peer_rates_replace_the_default(self):
        rates = {"CP2": 1.5}
        policy = CapacityPolicy(
            packets_per_delta=4, window_deltas=2.0, per_peer=rates
        )
        rates["CP1"] = 9.0  # the policy keeps its own copy
        budgets = policy.budgets(["CP1", "CP2"], delta=10.0, env=Environment())
        assert budgets["CP1"].per_window == 8
        assert budgets["CP2"].per_window == 3
        assert budgets["CP2"].rate_per_ms == pytest.approx(3 / 20.0)

    def test_per_peer_validation(self):
        with pytest.raises(ValueError):
            CapacityPolicy(packets_per_delta=4, per_peer={"CP1": 0.0})
        policy = CapacityPolicy(packets_per_delta=4, per_peer={"CP3": 1.0})
        with pytest.raises(ValueError, match="unknown peer 'CP3'"):
            policy.budgets(["CP1", "CP2"], delta=10.0, env=Environment())


class TestReserve:
    def test_within_window_is_immediate(self):
        b = budget()
        assert [b.reserve(0.0) for _ in range(4)] == [0.0] * 4
        assert b.sends == 4
        assert b.queued_sends == 0

    def test_overflow_waits_for_the_next_window(self):
        b = budget()
        for _ in range(4):
            b.reserve(0.0)
        wait = b.reserve(0.0)
        assert wait == pytest.approx(10.0)  # next window opens at t=10
        assert b.queued_sends == 1

    def test_no_window_ever_exceeds_budget(self):
        # hammer the ledger and re-derive per-window counts from the
        # landing times — the auditor's invariant, checked in vitro
        b = budget()
        landed = {}
        now = 0.0
        for _ in range(37):
            wait = b.reserve(now)
            assert wait is not None
            win = int((now + wait) / b.window_ms + 1e-6)
            landed[win] = landed.get(win, 0) + 1
        assert all(count <= b.per_window for count in landed.values())
        assert sum(landed.values()) == 37

    def test_queue_limit_sheds_data(self):
        b = budget(queue_limit=2)
        results = [b.reserve(0.0) for _ in range(8)]
        assert results[:4] == [0.0] * 4  # window budget
        assert results[4] is not None and results[5] is not None  # queued
        assert results[6] is None and results[7] is None  # shed
        assert b.shed_data == 2
        assert b.shed_parity == 0

    def test_parity_sheds_before_data(self):
        b = budget(queue_limit=4, parity_queue_fraction=0.5)
        for _ in range(4):
            b.reserve(0.0)
        # queue depth 2 = parity limit: 3rd parity packet sheds while
        # data still queues
        assert b.reserve(0.0, parity=True) is not None
        assert b.reserve(0.0, parity=True) is not None
        assert b.reserve(0.0, parity=True) is None
        assert b.reserve(0.0, parity=False) is not None
        assert b.shed_parity == 1
        assert b.shed_data == 0

    def test_ledger_resets_after_idle(self):
        b = budget()
        for _ in range(5):
            b.reserve(0.0)
        # long idle: the backlog drains and a fresh window is free
        assert b.reserve(100.0) == 0.0

    def test_backlog_counts_future_slots(self):
        b = budget()
        assert b.backlog(0.0) == 0
        for _ in range(6):
            b.reserve(0.0)
        assert b.backlog(0.0) == 2
        assert b.backlog(10.0) == 0  # that window arrived


class TestTake:
    def test_take_claims_remaining_window(self):
        b = budget()
        assert b.take(0.0, 3) == 3
        assert b.take(0.0, 3) == 1  # only one slot left
        assert b.take(0.0, 3) == 0  # exhausted: caller must sleep
        assert b.next_window_wait(0.0) == pytest.approx(10.0)
        assert b.take(10.0, 3) == 3  # fresh window

    def test_take_never_books_future_windows(self):
        b = budget()
        for _ in range(6):  # two packets queued into window 1
            b.reserve(0.0)
        assert b.take(0.0, 4) == 0

    def test_trace_events(self):
        env = Environment()

        class Recorder:
            def __init__(self):
                self.kinds = []

            def emit(self, kind, subject, **data):
                self.kinds.append(kind)

        env.hooks.tracer = Recorder()
        b = UploadBudget(
            "CP1",
            CapacityPolicy(packets_per_delta=1, queue_limit=1),
            delta=10.0,
            env=env,
        )
        b.reserve(0.0)  # immediate
        b.reserve(0.0)  # queued
        b.reserve(0.0)  # shed
        assert env.hooks.tracer.kinds == [
            "capacity.budget",
            "capacity.queue",
            "capacity.shed",
        ]
