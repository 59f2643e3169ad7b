"""Tests for latency and loss models."""

import numpy as np
import pytest

from repro.net import (
    BernoulliLoss,
    ConstantLatency,
    GilbertElliottLoss,
    NoLoss,
    NormalLatency,
    UniformLatency,
)


def rng():
    return np.random.default_rng(42)


def test_constant_latency():
    m = ConstantLatency(3.5)
    assert m.sample(rng()) == 3.5


def test_constant_latency_negative_rejected():
    with pytest.raises(ValueError):
        ConstantLatency(-1)


def test_uniform_latency_bounds_and_mean():
    m = UniformLatency(2, 4)
    assert all(2 <= m.sample(rng()) <= 4 for _ in range(100))
    g = rng()
    assert np.mean([m.sample(g) for _ in range(1000)]) == pytest.approx(3, abs=0.1)


def test_uniform_latency_validation():
    with pytest.raises(ValueError):
        UniformLatency(-1, 2)
    with pytest.raises(ValueError):
        UniformLatency(3, 2)


def test_normal_latency_floor():
    m = NormalLatency(mean=1.0, std=10.0, floor=0.5)
    g = rng()
    draws = [m.sample(g) for _ in range(200)]
    assert all(d >= 0.5 for d in draws)


def test_normal_latency_validation():
    with pytest.raises(ValueError):
        NormalLatency(-1, 1)
    with pytest.raises(ValueError):
        NormalLatency(1, -1)


def test_no_loss_never_drops():
    m = NoLoss()
    g = rng()
    assert not any(m.drops(g) for _ in range(100))


def test_bernoulli_loss_rate():
    m = BernoulliLoss(0.3)
    g = rng()
    losses = sum(m.drops(g) for _ in range(20000))
    assert losses / 20000 == pytest.approx(0.3, abs=0.02)


def test_bernoulli_extremes():
    g = rng()
    assert not any(BernoulliLoss(0.0).drops(g) for _ in range(50))
    assert all(BernoulliLoss(1.0).drops(g) for _ in range(50))


def test_bernoulli_validation():
    with pytest.raises(ValueError):
        BernoulliLoss(1.5)
    with pytest.raises(ValueError):
        BernoulliLoss(-0.1)


def test_gilbert_elliott_stationary_loss():
    m = GilbertElliottLoss(p_gb=0.1, p_bg=0.4)
    # pi_bad = 0.1/0.5 = 0.2; loss = 0.2*1.0
    assert m.stationary_loss == pytest.approx(0.2)
    g = rng()
    losses = sum(m.drops(g) for _ in range(50000))
    assert losses / 50000 == pytest.approx(0.2, abs=0.02)


def test_gilbert_elliott_burstiness():
    """Losses cluster: mean run length of drops ≈ 1/p_bg, > Bernoulli."""
    m = GilbertElliottLoss(p_gb=0.01, p_bg=0.2)
    g = rng()
    seq = [m.drops(g) for _ in range(50000)]
    # count mean length of loss runs
    runs, cur = [], 0
    for lost in seq:
        if lost:
            cur += 1
        elif cur:
            runs.append(cur)
            cur = 0
    mean_run = sum(runs) / len(runs)
    assert mean_run > 2.0  # Bernoulli at same rate would be ~1.05


def test_gilbert_elliott_validation():
    with pytest.raises(ValueError):
        GilbertElliottLoss(p_gb=2.0, p_bg=0.1)
    with pytest.raises(ValueError):
        GilbertElliottLoss(p_gb=0.1, p_bg=0.1, loss_bad=-1)


def test_gilbert_elliott_degenerate_chain():
    m = GilbertElliottLoss(p_gb=0.0, p_bg=0.0)
    assert m.stationary_loss == 0.0  # starts good, never flips
    g = rng()
    assert not any(m.drops(g) for _ in range(20))


def test_reprs():
    assert "0.3" in repr(BernoulliLoss(0.3))
    assert "NoLoss" in repr(NoLoss())
    assert "Constant" in repr(ConstantLatency(1))
    assert "Uniform" in repr(UniformLatency(1, 2))
    assert "Normal" in repr(NormalLatency(1, 2))
    assert "Gilbert" in repr(GilbertElliottLoss(0.1, 0.2))
