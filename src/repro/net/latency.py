"""One-way latency models for overlay channels.

The paper's protocols assume a known control-packet delay δ (used by the
``Mark`` rule); the simulation exposes that as :class:`ConstantLatency` and
offers jittered models to stress the marking rule's tolerance.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class LatencyModel(ABC):
    """Draws a one-way delay per message."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """Return a non-negative delay in milliseconds."""

    def sample_batch(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """Delays for ``k`` consecutive messages (batched media plane).

        The default samples sequentially; memoryless built-ins override
        with one vectorized draw.
        """
        return np.fromiter(
            (self.sample(rng) for _ in range(k)), dtype=np.float64, count=k
        )


class ConstantLatency(LatencyModel):
    """Fixed delay δ — the paper's evaluation regime."""

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = float(delay)

    def sample(self, rng: np.random.Generator) -> float:
        return self.delay

    def sample_batch(self, rng: np.random.Generator, k: int) -> np.ndarray:
        # no RNG draws, mirroring sample()
        return np.full(k, self.delay)

    def __repr__(self) -> str:
        return f"ConstantLatency({self.delay})"


class UniformLatency(LatencyModel):
    """Delay uniform in ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if low < 0 or high < low:
            raise ValueError("require 0 <= low <= high")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def sample_batch(self, rng: np.random.Generator, k: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, k)

    def __repr__(self) -> str:
        return f"UniformLatency({self.low}, {self.high})"


class NormalLatency(LatencyModel):
    """Gaussian delay truncated at ``floor`` (no negative or sub-floor delays)."""

    def __init__(self, mean: float, std: float, floor: float = 0.0) -> None:
        if mean < 0 or std < 0 or floor < 0:
            raise ValueError("mean, std, floor must be non-negative")
        self._mean = float(mean)
        self.std = float(std)
        self.floor = float(floor)

    def sample(self, rng: np.random.Generator) -> float:
        return max(self.floor, float(rng.normal(self._mean, self.std)))

    def sample_batch(self, rng: np.random.Generator, k: int) -> np.ndarray:
        return np.maximum(self.floor, rng.normal(self._mean, self.std, k))

    def __repr__(self) -> str:
        return f"NormalLatency({self._mean}, {self.std}, floor={self.floor})"
