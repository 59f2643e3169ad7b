"""Tests for deterministic random stream management."""

import zlib

import numpy as np
import pytest

from repro.sim import RandomStreams
from repro.sim.rng import LazyGenerator


def test_same_name_same_stream_object():
    rs = RandomStreams(1)
    assert rs.get("a") is rs.get("a")


def test_same_seed_reproducible_across_instances():
    a = RandomStreams(7).get("latency").random(5)
    b = RandomStreams(7).get("latency").random(5)
    assert np.array_equal(a, b)


def test_distinct_names_distinct_draws():
    rs = RandomStreams(7)
    a = rs.get("x").random(8)
    b = rs.get("y").random(8)
    assert not np.array_equal(a, b)


def test_distinct_seeds_distinct_draws():
    a = RandomStreams(1).get("x").random(8)
    b = RandomStreams(2).get("x").random(8)
    assert not np.array_equal(a, b)


def test_new_consumer_does_not_perturb_existing():
    rs1 = RandomStreams(3)
    first = rs1.get("sel").random(4)

    rs2 = RandomStreams(3)
    rs2.get("other")  # an extra stream created before "sel"
    second = rs2.get("sel").random(4)
    assert np.array_equal(first, second)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RandomStreams(-1)


def test_repr_lists_streams():
    rs = RandomStreams(0)
    rs.get("b")
    rs.get("a")
    assert "['a', 'b']" in repr(rs)


# ----------------------------------------------------------------------
# seeding at first draw
# ----------------------------------------------------------------------
def _eager(root_seed, name):
    """What ``get`` returned when it seeded on the spot."""
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([root_seed, key]))


def test_lazy_stream_draws_like_the_eagerly_seeded_generator():
    rs = RandomStreams(11)
    stream, eager = rs.get("channel/CP1->LP"), _eager(11, "channel/CP1->LP")
    assert np.array_equal(stream.random(6), eager.random(6))
    assert stream.integers(0, 1000) == eager.integers(0, 1000)
    assert np.array_equal(
        stream.choice(50, size=5, replace=False),
        eager.choice(50, size=5, replace=False),
    )
    assert stream.exponential(2.0) == eager.exponential(2.0)


@pytest.mark.parametrize("entropy", [(0, 0), (1, 7), (42, 2**32 - 1), (3, 12345)])
def test_lazy_stream_draws_like_default_rng_for_any_entropy(entropy):
    stream = LazyGenerator(entropy)
    eager = np.random.default_rng(np.random.SeedSequence(entropy))
    assert np.array_equal(stream.random(8), eager.random(8))
    assert stream.normal(1.0, 2.0) == eager.normal(1.0, 2.0)
    assert np.array_equal(stream.integers(0, 99, 5), eager.integers(0, 99, 5))


def test_stream_is_seeded_by_its_first_draw_not_by_get():
    rs = RandomStreams(4)
    stream = rs.get("a")
    rs.get("b")
    assert not stream.opened and rs.opened() == []
    stream.random()
    assert stream.opened and rs.opened() == ["a"]


def test_opening_order_does_not_perturb_other_streams():
    names = ["select/CP1", "phase/CP1", "channel/CP1->LP", "retx/jitter"]
    want = {name: _eager(9, name).random(4) for name in names}
    for order in (names, names[::-1], names[2:] + names[:2]):
        rs = RandomStreams(9)
        handles = {name: rs.get(name) for name in names}
        got = {}
        for name in order:  # interleave: one draw each, then the rest
            got[name] = [handles[name].random()]
        for name in order[::-1]:
            got[name].extend(handles[name].random(3))
        for name in names:
            assert np.array_equal(got[name], want[name])


def test_lazy_stream_has_no_dunder_passthrough():
    # copy/pickle probe for dunders with getattr; that must not seed
    stream = RandomStreams(0).get("x")
    assert getattr(stream, "__deepcopy__", None) is None
    assert not stream.opened
    with pytest.raises(AttributeError):
        stream.no_such_generator_method
