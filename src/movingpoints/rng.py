"""Seeded, portable random number generation.

Everything stochastic in this library (blob sampling, shuffles, split
membership, near-cluster draws) goes through SplitMix64 so that a run is
reproducible from a single 64-bit seed, independent of the host platform
and of numpy's generator internals.

SplitMix64 (Steele, Lea & Flood's mix, as used by Java's SplittableRandom):
word k of the stream for `seed` is mix(seed + (k+1) * 0x9E3779B97F4A7C15),
two xor-shift-multiply rounds on the seed advanced k+1 times by the
golden gamma. A word depends only on the seed and k, so a stream keeps the
seed and a position and serves every draw from a buffer of pre-mixed
words, refilled (at least _BLOCK words at a time) only when a draw runs
past its end. The buffer sets the cost of a draw, never its value.

Streaming discipline, fixed for all consumers:

* uniform double in [0, 1): top 53 bits of one output word, times 2^-53.
* standard normal: Box-Muller. Each normal consumes exactly two output
  words u, v (in stream order); the value is
  sqrt(-2 ln((u53 + 1) * 2^-53)) * cos(2 pi * v53 * 2^-53)
  where u53/v53 are the top 53 bits. The sine counterpart is discarded.
* bounded integer in [0, n): rejection sampling on raw words, accepting
  w < 2^64 - (2^64 mod n), returning w mod n. Unbiased.
* shuffle: Fisher-Yates from the last index down, j = randint(i + 1).
  The n-1 words are one slice of the buffer, each accepted by randint's
  test; from the first rejected word on, the draws are scalar randint.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_TWO53 = float(1 << 53)
_BLOCK = 1024  # words mixed per refill; faster than 256 on overlap-8d
_GAMMA_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GAMMA)
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_U_MIX1, _U_MIX2, _U11, _U27, _U30, _U31 = (
    np.uint64(c) for c in (_MIX1, _MIX2, 11, 27, 30, 31))


def _word_block(seed: int, start: int, count: int) -> np.ndarray:
    """Words start..start+count-1 of the stream for `seed` (uint64 wraps)."""
    steps = (_GAMMA_STEPS[:count] if count <= _BLOCK
             else np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA))
    z = steps + np.uint64((seed + start * _GAMMA) & _MASK)
    z ^= z >> _U30
    z *= _U_MIX1
    z ^= z >> _U27
    z *= _U_MIX2
    z ^= z >> _U31
    return z


@lru_cache(maxsize=64)
def _swap_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Bounds i+1 for i = n-1 down to 1, and randint's largest accepted word."""
    bounds = np.arange(n, 1, -1, dtype=np.uint64)
    limits = np.uint64(_MASK) - (-bounds) % bounds
    for shared in (bounds, limits):
        shared.setflags(write=False)
    return bounds, limits


class SplitMix64:
    """SplitMix64 stream seeded with an unsigned 64-bit integer."""

    def __init__(self, seed: int):
        self._seed = seed & _MASK
        self._base = 0  # stream index of _buf[0]
        self._pos = 0  # buffer index of the next word
        self._buf = _GAMMA_STEPS[:0]

    def _take(self, count: int) -> np.ndarray:
        """The next `count` words, as a view of the buffer."""
        if self._pos + count > self._buf.size:
            self._base += self._pos
            self._buf = _word_block(self._seed, self._base, max(count, _BLOCK))
            self._pos = 0
        self._pos += count
        return self._buf[self._pos - count:self._pos]

    def next_u64(self) -> int:
        pos = self._pos
        if pos == self._buf.size:
            return self._take(1).item()
        self._pos = pos + 1
        return self._buf.item(pos)

    def uniforms(self, count: int) -> np.ndarray:
        """`count` uniform doubles in [0, 1), one word each."""
        return (self._take(count) >> _U11).astype(np.float64) / _TWO53

    def normals(self, count: int) -> np.ndarray:
        """`count` standard normals, two words each (see module doc)."""
        words = self._take(2 * count)
        u = ((words[0::2] >> _U11).astype(np.float64) + 1.0) / _TWO53  # (0, 1]
        v = (words[1::2] >> _U11).astype(np.float64) / _TWO53
        return np.sqrt(-2.0 * np.log(u)) * np.cos(2.0 * np.pi * v)

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return float(self.uniforms(1)[0])

    def normal(self) -> float:
        """One standard normal draw (consumes two words, see module doc)."""
        return float(self.normals(1)[0])

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        bound = _MASK + 1 - ((_MASK + 1) % n)
        while True:
            w = self.next_u64()
            if w < bound:
                return w % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i, j in zip(range(len(items) - 1, 0, -1), self._swap_targets(len(items))):
            items[i], items[j] = items[j], items[i]

    def _swap_targets(self, n: int) -> list[int]:
        """randint(i + 1) for i = n-1 down to 1: the same values from the same words."""
        if n < 2:
            return []
        words = self._take(n - 1)
        bounds, limits = _swap_tables(n)
        accepted = words <= limits
        first = int(accepted.argmin())  # the first rejected word, or 0 if none
        taken = first if not accepted[first] else n - 1
        self._pos -= n - 1 - taken  # give back the rejected word and the rest
        targets = (words[:taken] % bounds[:taken]).tolist()
        targets.extend(self.randint(i + 1) for i in range(n - 1 - taken, 0, -1))
        return targets

    def permutation(self, n: int) -> list[int]:
        idx = list(range(n))
        self.shuffle(idx)
        return idx


def _mix(z: int) -> int:
    """SplitMix64's mix of one 64-bit word, on Python ints (as _word_block mixes)."""
    z ^= z >> 30
    z = (z * _MIX1) & _MASK
    z ^= z >> 27
    z = (z * _MIX2) & _MASK
    return z ^ (z >> 31)


def derive_seed(master: int, *parts: int) -> int:
    """Fold integer parts into a master seed, one mix round per part.

    derive_seed(m, a, b) = mix(mix(m ^ mix(a + gamma)) ^ mix(b + 2*gamma))
    (documented so a cell seed can be reproduced by hand): each part is
    scrambled at its position and xor-folded into the running state, which
    is re-mixed. mix(x + k*gamma) is word k-1 of the stream for x. The
    master and the parts may be any integers, numpy's included (TypeError
    for a float).
    """
    state = operator.index(master) & _MASK
    for i, part in enumerate(parts, 1):
        state = _mix(state ^ _mix((operator.index(part) + i * _GAMMA) & _MASK))
    return state
