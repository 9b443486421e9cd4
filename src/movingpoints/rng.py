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
  w < 2^64 - (2^64 mod n), returning w mod n. Unbiased. For n <= 2^32
  the bound is above _SAFE = 2^64 - 2^32 (2^64 mod n < n), so every
  word below _SAFE is accepted and the draw is w mod n with no bound
  arithmetic. Each refill records the buffer index of its first word
  >= _SAFE (about one word in 2^32), and a draw from below that index
  takes this fast path; every other draw (a word at or past it, or
  n > 2^32) runs the exact test, which gives the same value or rejects.
* permutation(n): range(n) shuffled by Fisher-Yates from the last index
  down, item i swapping with j = randint(i + 1).
  permutations(n, count) draws count orders one after another, as count
  permutation(n) calls do, and takes their words in blocks: each block is
  one slice of the buffer holding the (n-1) words of as many whole orders
  as fit in _BLOCK words (at least one). A slice below the first word >=
  _SAFE is taken as w mod (i + 1) whole; a slice at or past it is given
  back and drawn by randint one word at a time. permutation(n) is the
  one-order case, so both draw the same words with the same fallback.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_TWO53 = float(1 << 53)
_SAFE = (1 << 64) - (1 << 32)  # every word below it is accepted by randint(n), n <= 2^32
_SAFE_N = 1 << 32
_BLOCK = 1024  # words mixed per refill; faster than 256 on overlap-8d
_GAMMA_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GAMMA)
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_U_MIX1, _U_MIX2, _U11, _U27, _U30, _U31 = (
    np.uint64(c) for c in (_MIX1, _MIX2, 11, 27, 30, 31))
_U_SAFE = np.uint64(_SAFE)


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
def _swap_bounds(n: int) -> np.ndarray:
    """Bounds i+1 for i = n-1 down to 1, as one (1, n-1) row (read-only,
    shared): numpy divides a one-order block by a row of its own shape
    faster than by a broadcast 1-D array."""
    bounds = np.arange(n, 1, -1, dtype=np.uint64).reshape(1, n - 1)
    bounds.setflags(write=False)
    return bounds


class SplitMix64:
    """SplitMix64 stream seeded with an unsigned 64-bit integer."""

    def __init__(self, seed: int):
        self._seed = seed & _MASK
        self._base = 0  # stream index of _buf[0]
        self._pos = 0  # buffer index of the next word
        self._buf = _GAMMA_STEPS[:0]
        self._safe_end = 0  # buffer index of the first word >= _SAFE, or its size

    def _take(self, count: int) -> np.ndarray:
        """The next `count` words, as a view of the buffer."""
        if self._pos + count > self._buf.size:
            self._base += self._pos
            self._buf = buf = _word_block(self._seed, self._base, max(count, _BLOCK))
            unsafe = buf >= _U_SAFE
            first = int(unsafe.argmax())  # the first word >= _SAFE, or 0 if none
            self._safe_end = first if unsafe[first] else buf.size
            self._pos = 0
        self._pos += count
        return self._buf[self._pos - count:self._pos]

    def next_u64(self) -> int:
        return self._take(1).item()

    def uniforms(self, count: int) -> np.ndarray:
        """`count` uniform doubles in [0, 1), one word each."""
        return (self._take(count) >> _U11).astype(np.float64) / _TWO53

    def normals(self, count: int) -> np.ndarray:
        """`count` standard normals, two words each (see module doc)."""
        words = self._take(2 * count)
        u = ((words[0::2] >> _U11).astype(np.float64) + 1.0) / _TWO53  # (0, 1]
        v = (words[1::2] >> _U11).astype(np.float64) / _TWO53
        return np.sqrt(-2.0 * np.log(u)) * np.cos(2.0 * np.pi * v)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased."""
        pos = self._pos
        if pos < self._safe_end and 0 < n <= _SAFE_N:
            self._pos = pos + 1
            return self._buf.item(pos) % n
        if n <= 0:
            raise ValueError("randint bound must be positive")
        bound = _MASK + 1 - ((_MASK + 1) % n)
        while True:
            w = self.next_u64()
            if w < bound:
                return w % n

    def permutation(self, n: int) -> list[int]:
        return _order(n, self._swap_targets(n, 1)[0])

    def permutations(self, n: int, count: int) -> list[list[int]]:
        """count successive permutation(n) orders. Their words are taken in
        blocks of at most _BLOCK, or one order's n - 1 when that is more."""
        per_block = max(1, _BLOCK // max(n - 1, 1))
        return [_order(n, targets) for start in range(0, count, per_block)
                for targets in self._swap_targets(n, min(per_block, count - start))]

    def _swap_targets(self, n: int, count: int) -> list[list[int]]:
        """count rows of randint(i + 1) for i = n-1 down to 1: the same
        values from the same words, row after row."""
        if n < 2:
            return [[] for _ in range(count)]
        size = count * (n - 1)
        words = self._take(size)
        if self._pos <= self._safe_end and n <= _SAFE_N:  # every word below _SAFE
            return (words.reshape(count, n - 1) % _swap_bounds(n)).tolist()
        self._pos -= size  # give the slice back; randint draws it word by word
        return [[self.randint(i + 1) for i in range(n - 1, 0, -1)] for _ in range(count)]


def _order(n: int, targets: list[int]) -> list[int]:
    """range(n) shuffled by Fisher-Yates: items i and targets[n-1-i] swap
    for i = n-1 down to 1."""
    idx = list(range(n))
    i = n - 1
    for j in targets:
        idx[i], idx[j] = idx[j], idx[i]
        i -= 1
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
