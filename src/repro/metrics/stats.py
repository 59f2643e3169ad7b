"""The one statistic the sweep driver folds replications with."""

from __future__ import annotations

from typing import Sequence


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)
