"""Deterministic, splittable random streams.

Every stochastic routine in this package takes an :class:`RngStream`.  A
stream is identified by ``(master_seed, stream_id)`` and is backed by the
counter-based Philox generator, so sequences are bit-identical across runs
and platforms, and distinct stream ids give statistically independent
streams without any shared state.  Parallel work splits child streams
instead of sharing a generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One step of SplitMix64, used only to derive child stream ids."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """A named position in a family of independent random streams."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            if not (0 <= int(v) < 1 << 64):
                raise ValueError(f"{name} must fit in 64 bits, got {v}")

    def generator(self) -> np.random.Generator:
        """Fresh generator for this (seed, stream) pair, at Philox counter 0."""
        bitgen = np.random.Philox(
            counter=np.zeros(4, dtype=np.uint64),
            key=np.array([self.master_seed, self.stream_id], dtype=np.uint64),
        )
        return np.random.Generator(bitgen)

    def child(self, index: int) -> "RngStream":
        """Independent substream, deterministic in (stream_id, index)."""
        mixed = _splitmix64((self.stream_id * 0x2545F4914F6CDD1D + index + 1) & _MASK64)
        return RngStream(self.master_seed, mixed)
