"""Deterministic seed derivation for trial-indexed experiments.

Every stochastic routine takes a single integer seed.  Experiments that run
many trials derive one independent seed per trial index so that trials can be
executed in any order (or on any number of workers) and still reproduce
byte-identical results.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_WORD = 1 << 32


def derive_seed(seed: int, index: int) -> int:
    """Return a 63-bit seed mixed from (seed, index).

    Uses the splitmix64 finalizer on seed + (index + 1) * golden-gamma, so
    nearby (seed, index) pairs land far apart.  Stable across platforms and
    Python processes, unlike the built-in hash().
    """
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return z & ((1 << 63) - 1)


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator for a derived or top-level seed."""
    return np.random.default_rng(seed)


class Draws:
    """Exact bulk stand-in for scalar `rng.integers(n)` calls, 1 <= n <= 2**32.

    numpy's rule (Lemire 2019) on 32-bit words drawn through the same
    `next_uint32` in chunks of 256 up to 4096: n == 1 takes no word; else
    m = w * n is redrawn while m mod 2**32 < (2**32 - n) mod n, giving
    m >> 32.  `close()` rewinds to the chunk's start and redraws the words
    used, as the scalar calls would; nothing else may draw before it.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng, self._words, self._pos = rng, [], 0

    def below(self, n: int) -> int:
        n = operator.index(n)
        if not 1 <= n <= _WORD:
            raise ValueError(f"bound {n} outside 1..2**32")
        threshold = (_WORD - n) % n
        while n > 1:
            if self._pos == len(self._words):
                self._start = self._rng.bit_generator.state
                k = min(4096, max(256, 2 * self._pos))
                self._words = self._rng.integers(0, _WORD, k, np.uint32).tolist()
                self._pos = 0
            m = self._words[self._pos] * n
            self._pos += 1
            if m % _WORD >= threshold:
                return m >> 32
        return 0

    def close(self) -> None:
        if self._words:
            self._rng.bit_generator.state = self._start
            self._rng.integers(0, _WORD, self._pos, np.uint32)
        self.__init__(self._rng)
