"""Tests for vector clocks."""

import pytest

from repro.groupcomm import VectorClock

GROUP = ["a", "b", "c"]


def test_starts_at_zero():
    vc = VectorClock(GROUP)
    assert all(vc[m] == 0 for m in GROUP)


def test_empty_group_rejected():
    with pytest.raises(ValueError):
        VectorClock([])


def test_initial_counts():
    vc = VectorClock(GROUP, {"a": 3})
    assert vc["a"] == 3
    assert vc["b"] == 0
    with pytest.raises(KeyError):
        VectorClock(GROUP, {"z": 1})
    with pytest.raises(ValueError):
        VectorClock(GROUP, {"a": -1})


def test_tick_and_getitem():
    vc = VectorClock(GROUP)
    vc.tick("a").tick("a").tick("b")
    assert vc["a"] == 2
    assert vc["b"] == 1
    with pytest.raises(KeyError):
        vc.tick("z")
    with pytest.raises(KeyError):
        vc["z"]


def test_merge_is_componentwise_max():
    x = VectorClock(GROUP, {"a": 2, "b": 1})
    y = VectorClock(GROUP, {"a": 1, "c": 5})
    x.merge(y)
    assert x.as_dict() == {"a": 2, "b": 1, "c": 5}


def test_merge_group_mismatch():
    with pytest.raises(ValueError):
        VectorClock(["a"]).merge(VectorClock(["b"]))


def test_copy_is_independent():
    # a copy is a clock built from another's as_dict() snapshot — what a
    # causal broadcast puts on the wire: ticking either clock afterwards
    # changes neither the other nor the snapshot
    x = VectorClock(GROUP, {"a": 1})
    snapshot = x.as_dict()
    y = VectorClock(GROUP, snapshot)
    x.tick("a")
    y.tick("b")
    assert snapshot == {"a": 1, "b": 0, "c": 0}
    assert x.as_dict() == {"a": 2, "b": 0, "c": 0}
    assert y.as_dict() == {"a": 1, "b": 1, "c": 0}
