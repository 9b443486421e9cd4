"""Generator checks against an independently written reference stream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movingpoints.rng import _BLOCK, _SAFE, SplitMix64, derive_seed

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def reference_words(seed: int, count: int) -> list[int]:
    # retyped from the published splitmix64 reference, kept deliberately plain
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_known_answer_seed_zero():
    r = SplitMix64(0)
    assert r.next_u64() == 0xE220A8397B1DCDAF
    assert r.next_u64() == 0x6E789E6AA1B965F4
    assert r.next_u64() == 0x06C45D188009454F


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63, (1 << 64) - 1])
def test_word_stream_matches_reference(seed):
    r = SplitMix64(seed)
    got = [r.next_u64() for _ in range(200)]
    assert got == reference_words(seed, 200)


def test_random_uses_top_53_bits():
    words = reference_words(9, 50)
    r = SplitMix64(9)
    for w in words:
        assert r.uniforms(1)[0] == (w >> 11) / float(1 << 53)


def test_random_in_unit_interval():
    r = SplitMix64(123)
    vals = [r.uniforms(1)[0] for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    # crude uniformity check, generous bounds
    assert 0.45 < sum(vals) / len(vals) < 0.55


def test_normal_is_box_muller_on_two_words():
    words = reference_words(5, 2)
    u1 = ((words[0] >> 11) + 1) / float(1 << 53)  # shifted into (0, 1]
    u2 = (words[1] >> 11) / float(1 << 53)
    expect = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    r = SplitMix64(5)
    assert r.normals(1)[0] == expect


def test_normal_moments():
    r = SplitMix64(77)
    z = np.array([r.normals(1)[0] for _ in range(20000)])
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03


def test_randint_bounds_and_coverage():
    r = SplitMix64(3)
    draws = [r.randint(7) for _ in range(7000)]
    assert set(draws) == set(range(7))
    counts = np.bincount(draws)
    assert counts.min() > 800  # near 1000 each


def test_randint_rejects_bad_n():
    r = SplitMix64(0)
    with pytest.raises(ValueError):
        r.randint(0)


def test_permutation_is_fisher_yates():
    # mirror the swap loop on a cloned word stream
    r = SplitMix64(11)
    got = r.permutation(10)
    ref = SplitMix64(11)
    items = list(range(10))
    for i in range(9, 0, -1):
        j = ref.randint(i + 1)
        items[i], items[j] = items[j], items[i]
    assert got == items
    assert sorted(got) == list(range(10))


def scalar_fisher_yates(rng: SplitMix64, n: int) -> list[int]:
    items = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randint(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, MASK), n=st.integers(0, 300))
def test_permutation_matches_scalar_loop(seed, n):
    r = SplitMix64(seed)
    ref = SplitMix64(seed)
    assert r.permutation(n) == scalar_fisher_yates(ref, n)
    assert r.next_u64() == ref.next_u64()


def unmix(z: int) -> int:
    """Inverse of the SplitMix64 output mix."""
    def unxorshift(x, s):
        y = x
        for _ in range(64 // s + 1):
            y = x ^ (y >> s)
        return y

    z = unxorshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK
    z = unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK
    return unxorshift(z, 30)


def test_permutation_falls_back_on_rejected_word():
    # Word 4 of this stream is 2^64 - 1. In permutation(10) it is drawn for
    # i = 5, whose bound 6 does not divide 2^64, so randint rejects it.
    seed = (unmix(MASK) - 5 * GAMMA) & MASK
    assert reference_words(seed, 5)[4] == MASK
    r = SplitMix64(seed)
    ref = SplitMix64(seed)
    assert r.permutation(10) == scalar_fisher_yates(ref, 10)
    assert r.next_u64() == ref.next_u64()


def test_permutations_fall_back_on_rejected_word():
    # Word 13 of this stream is 2^64 - 1: word 4 of the second order of
    # permutations(10, 3), drawn for i = 5 and rejected. The whole block is
    # drawn again by randint, as three permutation(10) calls draw it.
    seed = (unmix(MASK) - 14 * GAMMA) & MASK
    assert reference_words(seed, 14)[13] == MASK
    r = SplitMix64(seed)
    ref = SplitMix64(seed)
    assert r.permutations(10, 3) == [scalar_fisher_yates(ref, 10) for _ in range(3)]
    assert r.next_u64() == ref.next_u64()


def test_permutations_take_one_block_per_many_orders():
    # 80-point orders take 79 words each, so 12 fit a block of _BLOCK words.
    r = SplitMix64(5)
    ref = SplitMix64(5)
    takes = []
    take = r._take
    r._take = lambda count: takes.append(count) or take(count)
    assert r.permutations(80, 30) == [ref.permutation(80) for _ in range(30)]
    assert takes == [12 * 79, 12 * 79, 6 * 79]
    assert r.permutations(80, 0) == [] and r.permutations(1, 2) == [[0], [0]]


def test_block_uniforms_match_scalar():
    block = SplitMix64(21)
    a = block.uniforms(977)
    b = block.uniforms(23)
    r = SplitMix64(21)
    scalar = np.array([r.uniforms(1)[0] for _ in range(1000)])
    assert np.array_equal(np.concatenate([a, b]), scalar)


def test_block_normals_match_scalar():
    block = SplitMix64(34)
    a = block.normals(501)
    b = block.normals(499)
    r = SplitMix64(34)
    scalar = np.array([r.normals(1)[0] for _ in range(1000)])
    assert np.array_equal(np.concatenate([a, b]), scalar)


class UnbufferedSplitMix64:
    """Frozen oracle: the scalar stream as it was before the word buffer.

    One state word, advanced by gamma per draw; bulk uniforms and normals
    apply the former vectorized formulas to the scalar words.
    """

    def __init__(self, seed):
        self.state = seed & MASK

    def next_u64(self):
        self.state = (self.state + GAMMA) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def randint(self, n):
        if n <= 0:
            raise ValueError("randint bound must be positive")
        bound = MASK + 1 - ((MASK + 1) % n)
        while True:
            w = self.next_u64()
            if w < bound:
                return w % n

    def permutation(self, n):
        return scalar_fisher_yates(self, n)

    def permutations(self, n, count):
        return [self.permutation(n) for _ in range(count)]

    def _words(self, count):
        return np.array([self.next_u64() for _ in range(count)], dtype=np.uint64)

    def uniforms(self, count):
        return (self._words(count) >> np.uint64(11)).astype(np.float64) / float(1 << 53)

    def normals(self, count):
        words = self._words(2 * count)
        u = ((words[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) / float(1 << 53)
        v = (words[1::2] >> np.uint64(11)).astype(np.float64) / float(1 << 53)
        return np.sqrt(-2.0 * np.log(u)) * np.cos(2.0 * np.pi * v)


def same_draw(a, b):
    if isinstance(a, np.ndarray):
        return a.tobytes() == b.tobytes()
    return type(a) is type(b) and a == b


# Calls that draw up to a little more than one buffer at once, so that a
# few of them in a row straddle one or more refills; randint bounds reach
# 2^64 - 1, where rejections are common.
DRAWS = st.one_of(
    st.tuples(st.just("next_u64")),
    st.tuples(st.sampled_from(["uniforms", "normals"]), st.just(1)),  # single draws
    st.tuples(st.just("randint"), st.one_of(st.integers(1, 100), st.integers(1, MASK))),
    st.tuples(st.just("permutation"), st.integers(0, _BLOCK + 40)),
    st.tuples(st.just("permutations"), st.integers(0, _BLOCK + 40), st.integers(0, 40)),
    st.tuples(st.just("uniforms"), st.integers(0, _BLOCK + 40)),
    st.tuples(st.just("normals"), st.integers(0, _BLOCK // 2 + 20)),
)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, MASK), draws=st.lists(DRAWS, max_size=12))
def test_buffer_matches_unbuffered_oracle(seed, draws):
    r = SplitMix64(seed)
    ref = UnbufferedSplitMix64(seed)
    for name, *args in draws:
        assert same_draw(getattr(r, name)(*args), getattr(ref, name)(*args)), (name, args)
    assert r.next_u64() == ref.next_u64()


@settings(max_examples=120, deadline=None)
@given(at=st.sampled_from([_BLOCK - 1, _BLOCK]), lead=st.integers(_BLOCK - 14, _BLOCK),
       bulk_lead=st.booleans(), n=st.integers(2, 14), tail=st.integers(2, 9))
def test_rejected_word_at_block_boundary(at, lead, bulk_lead, n, tail):
    # Word `at` of this stream is 2^64 - 1: the last word of the first
    # buffer, or the first of the second. It is rejected by every bound
    # that does not divide 2^64; permutation(n) after `lead` words and
    # randint(tail) may draw it on either side of a refill.
    seed = (unmix(MASK) - (at + 1) * GAMMA) & MASK
    assert reference_words(seed, at + 1)[at] == MASK
    r = SplitMix64(seed)
    ref = UnbufferedSplitMix64(seed)
    if bulk_lead:
        assert same_draw(r.uniforms(lead), ref.uniforms(lead))
    else:
        assert [r.next_u64() for _ in range(lead)] == [ref.next_u64() for _ in range(lead)]
    assert r.permutation(n) == ref.permutation(n)
    assert r.randint(tail) == ref.randint(tail)
    assert r.next_u64() == ref.next_u64()


THRESHOLD_DRAWS = [("randint", 7), ("permutation", 10), ("randint", 2**40)]


@pytest.mark.parametrize("word", [_SAFE - 1, _SAFE], ids=["last-fast-word", "first-exact-word"])
@pytest.mark.parametrize("at", [0, _BLOCK - 1, _BLOCK])
@pytest.mark.parametrize("name, arg, back", [
    ("randint", 7, 0), ("permutation", 10, 0), ("permutation", 10, 4), ("permutation", 10, 8),
    ("permutations", (10, 3), 12), ("randint", 2**40, 0)],
    ids=["randint7", "perm10", "perm10-back4", "perm10-back8", "perms10x3-back12",
         "randint2^40"])
def test_words_either_side_of_the_fast_path_threshold(word, at, name, arg, back):
    # Word `at` of this stream is _SAFE - 1, the largest word that randint
    # takes without its bound test, or _SAFE, the smallest that it tests
    # (and still accepts for these bounds). It sits at the first or the
    # last index of a buffer; the draw under test starts `back` words
    # before it (a permutation(10) draws 9 words, so permutations(10, 3)
    # draws it as word 3 of its second order, unless the stream starts
    # nearer).
    seed = (unmix(word) - (at + 1) * GAMMA) & MASK
    assert reference_words(seed, at + 1)[at] == word
    lead = max(at - back, 0)
    r = SplitMix64(seed)
    ref = UnbufferedSplitMix64(seed)
    assert [r.next_u64() for _ in range(lead)] == [ref.next_u64() for _ in range(lead)]
    args = arg if isinstance(arg, tuple) else (arg,)
    assert same_draw(getattr(r, name)(*args), getattr(ref, name)(*args))
    # The threshold recorded at the refill that mixed word `at`.
    assert r._safe_end == (at - r._base if word == _SAFE else r._buf.size)
    for draw in THRESHOLD_DRAWS:
        assert same_draw(getattr(r, draw[0])(draw[1]), getattr(ref, draw[0])(draw[1]))
    assert r.next_u64() == ref.next_u64()


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)
    seen = {derive_seed(0, i, j) for i in range(20) for j in range(20)}
    assert len(seen) == 400
    assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)  # order matters


def test_derive_seed_streams_diverge():
    a = SplitMix64(derive_seed(5, 0))
    b = SplitMix64(derive_seed(5, 1))
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def reference_derive_seed(master: int, *parts: int) -> int:
    """derive_seed as its docstring defines it, with SplitMix64's stream words:
    mix(x + k*gamma) is word k-1 of the stream for x, and mix(s) is word 0
    of the stream for s - gamma."""
    state = master & MASK
    for k, part in enumerate(parts, 1):
        scrambled = SplitMix64(part + (k - 1) * GAMMA).next_u64()
        state = SplitMix64((state ^ scrambled) - GAMMA).next_u64()
    return state


@settings(max_examples=300, deadline=None)
@given(master=st.integers(0, MASK), parts=st.lists(st.integers(0, MASK), min_size=1, max_size=3))
def test_derive_seed_matches_stream_words(master, parts):
    assert derive_seed(master, *parts) == reference_derive_seed(master, *parts)


def test_derive_seed_of_small_and_negative_parts():
    # The grid's cell seeds fold small integers; the CLI takes a signed seed.
    for master, parts in [(0, (0,)), (0, (49, 9)), (-1, (3,)), (7, (-5, 2**70))]:
        assert derive_seed(master, *parts) == reference_derive_seed(master, *parts)


def test_derive_seed_takes_numpy_integers_and_refuses_floats():
    # numpy integers are folded as Python ints: an int64 plus the gamma
    # would overflow.
    assert derive_seed(np.uint64(2**64 - 1), np.int64(5), np.int32(-3)) == derive_seed(
        2**64 - 1, 5, -3)
    with pytest.raises(TypeError):
        derive_seed(0, 2.0)
