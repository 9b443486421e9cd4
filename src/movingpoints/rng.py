"""Seeded, portable random number generation.

Everything stochastic in this library (blob sampling, shuffles, split
membership, near-cluster draws) goes through SplitMix64 so that a run is
reproducible from a single 64-bit seed, independent of the host platform
and of numpy's generator internals.

SplitMix64 (Steele, Lea & Flood's mix, as used by Java's SplittableRandom):
each step advances the state by the 64-bit golden-gamma constant
0x9E3779B97F4A7C15 and scrambles it with two xor-shift-multiply rounds.

Streaming discipline, fixed for all consumers:

* uniform double in [0, 1): top 53 bits of one output word, times 2^-53.
* standard normal: Box-Muller. Each normal consumes exactly two output
  words u, v (in stream order); the value is
  sqrt(-2 ln((u53 + 1) * 2^-53)) * cos(2 pi * v53 * 2^-53)
  where u53/v53 are the top 53 bits. The sine counterpart is discarded.
* bounded integer in [0, n): rejection sampling on raw words, accepting
  w < 2^64 - (2^64 mod n), returning w mod n. Unbiased.
* shuffle: Fisher-Yates from the last index down, j = randint(i + 1).
  The n-1 words are computed as one block (word k of a stream depends
  only on the state and k, see _word_block); each is accepted by
  randint's test, and from the first rejected word on the draws fall
  back to scalar randint, so results are identical to the scalar stream.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO53 = float(1 << 53)


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Scalar SplitMix64 stream seeded with an unsigned 64-bit integer."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) / _TWO53

    def normal(self) -> float:
        """One standard normal draw (consumes two words, see module doc)."""
        u = (self.next_u64() >> 11) + 1  # (0, 2^53], avoids log(0)
        v = self.next_u64() >> 11
        return float(np.sqrt(-2.0 * np.log(u / _TWO53)) * np.cos(2.0 * np.pi * (v / _TWO53)))

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
        """randint(i + 1) for i = n-1 down to 1, from one block of words.

        Word k of the block is the (k+1)-th next_u64(), and it is accepted
        by randint's test, w <= 2^64 - 1 - (2^64 mod (i+1)). From the first
        rejected word on, the draws are scalar randint calls, so results
        and the state left behind equal n-1 randint calls.
        """
        if n < 2:
            return []
        words = _word_block(self._state, 0, n - 1)
        bounds = np.arange(n, 1, -1, dtype=np.uint64)
        accepted = words <= np.uint64(_MASK) - (-bounds) % bounds
        taken = n - 1 if accepted.all() else int(accepted.argmin())
        targets = (words[:taken] % bounds[:taken]).tolist()
        self._state = (self._state + taken * _GAMMA) & _MASK
        targets.extend(self.randint(i + 1) for i in range(n - 1 - taken, 0, -1))
        return targets

    def permutation(self, n: int) -> list[int]:
        idx = list(range(n))
        self.shuffle(idx)
        return idx


def _word_block(seed: int, start: int, count: int) -> np.ndarray:
    """Output words number start..start+count-1 of the stream for `seed`.

    Word k is mix(seed + (k+1) * gamma); identical to calling next_u64()
    k+1 times on a fresh SplitMix64(seed).
    """
    with np.errstate(over="ignore"):
        states = (
            np.uint64(seed & _MASK)
            + np.uint64(_GAMMA) * np.arange(start + 1, start + count + 1, dtype=np.uint64)
        )
        z = states
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))


class BlockSplitMix64:
    """Vectorized view of the same stream, for bulk draws.

    Produces bit-identical sequences to the scalar class; used where a
    whole matrix of draws is needed at once (blob generation).
    """

    def __init__(self, seed: int):
        self._seed = seed & _MASK
        self._pos = 0

    def uniforms(self, count: int) -> np.ndarray:
        words = _word_block(self._seed, self._pos, count)
        self._pos += count
        return (words >> np.uint64(11)).astype(np.float64) / _TWO53

    def normals(self, count: int) -> np.ndarray:
        words = _word_block(self._seed, self._pos, 2 * count)
        self._pos += 2 * count
        u = ((words[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) / _TWO53
        v = (words[1::2] >> np.uint64(11)).astype(np.float64) / _TWO53
        return np.sqrt(-2.0 * np.log(u)) * np.cos(2.0 * np.pi * v)


def derive_seed(master: int, *parts: int) -> int:
    """Fold integer parts into a master seed, one mix round per part.

    derive_seed(m, a, b) = mix(mix(m ^ mix(a + gamma)) ^ mix(b + 2*gamma)),
    i.e. each part is scrambled at its position in the argument list and
    xor-folded into the running state, which is re-mixed. Documented so a
    reported cell seed can be reproduced by hand.
    """
    state = master & _MASK
    for i, part in enumerate(parts, start=1):
        state = _mix(state ^ _mix((part + i * _GAMMA) & _MASK))
    return state
