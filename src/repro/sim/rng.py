"""Deterministic random-stream management.

Every stochastic component (peer selection, channel latency jitter, loss
processes, content bytes) draws from its own named stream derived from a
single experiment seed, so adding a new consumer never perturbs existing
ones and every figure in EXPERIMENTS.md is bit-reproducible.  A stream's
draws depend only on ``(root seed, name)``, never on when it is seeded, so
the seeding is put off to the first draw (:class:`LazyGenerator`).
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Sequence

import numpy as np


class LazyGenerator:
    """A named stream, seeded when its first number is asked for.

    Stands in for the ``numpy.random.Generator`` it will become: the first
    attribute read (``.random``, ``.choice``, …) seeds the generator from
    the stream's ``SeedSequence`` entropy and every attribute read is then
    kept on the instance, so later draws go straight to numpy.  Seeding
    costs tens of microseconds and a fault-free run materialises tens of
    thousands of channels whose ``NoLoss``/``ConstantLatency`` models are
    handed a stream and never draw from it.
    """

    def __init__(self, entropy: Sequence[int]) -> None:
        self._entropy = entropy
        self._generator: Optional[np.random.Generator] = None

    @property
    def opened(self) -> bool:
        """Has anything been drawn (has the generator been seeded)?"""
        return self._generator is not None

    def __getattr__(self, attr: str):
        # reached only for names not yet on the instance
        if attr.startswith("__"):
            raise AttributeError(attr)
        gen = self._generator
        if gen is None:
            gen = self._generator = np.random.default_rng(
                np.random.SeedSequence(self._entropy)
            )
        value = getattr(gen, attr)
        self.__dict__[attr] = value
        return value


class RandomStreams:
    """A family of independent, named random streams.

    ``streams.get("latency/CP3")`` always returns the same
    :class:`LazyGenerator` for a given instance.  It draws like the
    ``numpy.random.Generator`` seeded from ``(root_seed, crc32(name))`` via
    :class:`numpy.random.SeedSequence`, so distinct names yield
    statistically independent streams; the seeding itself happens at the
    stream's first draw, whenever and in whatever order that comes, and a
    stream nobody draws from is never seeded.
    """

    def __init__(self, root_seed: int = 0) -> None:
        if root_seed < 0:
            raise ValueError("root seed must be non-negative")
        self.root_seed = int(root_seed)
        self._streams: Dict[str, LazyGenerator] = {}

    def get(self, name: str) -> LazyGenerator:
        """Return (creating if needed) the stream for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            key = zlib.crc32(name.encode("utf-8"))
            gen = self._streams[name] = LazyGenerator((self.root_seed, key))
        return gen

    def opened(self) -> list[str]:
        """Names of the streams that have been drawn from, sorted."""
        return sorted(n for n, g in self._streams.items() if g.opened)

    def spawn(self, name: str) -> "RandomStreams":
        """Derive a child family, e.g. one per replication of a sweep."""
        key = zlib.crc32(name.encode("utf-8"))
        return RandomStreams((self.root_seed * 1_000_003 + key) % (2**63))

    def __repr__(self) -> str:
        return (
            f"RandomStreams(root_seed={self.root_seed}, "
            f"streams={sorted(self._streams)})"
        )
