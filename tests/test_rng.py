import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import scalar_bits, scalar_randbelow

from otplab.bitstring import BitString
from otplab.rng import (
    _CHUNK,
    MASK64,
    RandomSource,
    derive_child_seed,
    splitmix64_next,
)

# Reference outputs of the canonical splitmix64.c, frozen from a C run.
CANONICAL_WORDS = {
    0: [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
        17909611376780542444,
    ],
    42: [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
        6349198060258255764,
    ],
    1234567: [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
    ],
}


@pytest.mark.parametrize("seed", sorted(CANONICAL_WORDS))
def test_matches_canonical_generator(seed):
    src = RandomSource(seed)
    assert [src.bits(64).value for _ in range(4)] == CANONICAL_WORDS[seed]


def test_splitmix64_next_is_pure():
    word1, state1 = splitmix64_next(42)
    word2, state2 = splitmix64_next(42)
    assert (word1, state1) == (word2, state2)
    assert word1 == CANONICAL_WORDS[42][0]


def test_same_seed_same_stream():
    a = RandomSource(9001)
    b = RandomSource(9001)
    assert a.bits(64) == b.bits(64)
    assert a.bits(7) == b.bits(7)


def test_bits_golden_vector_seed_42():
    # Frozen after pinning the generator: top 16 bits of the first word.
    assert RandomSource(42).bits(16).to01() == "1011110111010111"
    assert RandomSource(42).bits(16).value == 48599


@pytest.mark.parametrize("seed", [0, 1, 42, MASK64])
def test_one_word_draw_is_the_top_bits_of_one_step(seed):
    word, state = splitmix64_next(seed)
    for n in range(1, 65):
        src = RandomSource(seed)
        assert src.bits(n) == BitString.from_int(word >> (64 - n), n)
        assert src._state == state


def test_bits_zero_consumes_nothing():
    src = RandomSource(5)
    assert src.bits(0) == BitString("")
    assert src.bits(64).value == RandomSource(5).bits(64).value


def test_bits_word_discipline():
    # bits(n) consumes ceil(n/64) words, MSB-first, truncated to n bits.
    # The sizes past 100_003 sit on both sides of one and two packed chunks.
    for n in (1, 13, 63, 64, 65, 130, 4096, 4097, 100_003, 64 * _CHUNK - 1,
              64 * _CHUNK, 64 * _CHUNK + 1, 2 * 64 * _CHUNK + 5):
        src = RandomSource(7)
        got = src.bits(n)
        ref = RandomSource(7)
        nwords = (n + 63) // 64
        acc = 0
        for _ in range(nwords):
            acc = (acc << 64) | ref.bits(64).value
        assert got.value == acc >> (64 * nwords - n)
        assert len(got) == n
        assert src.bits(64).value == ref.bits(64).value  # no word more or less


_DRAW = st.one_of(
    st.tuples(st.just("bits"), st.integers(0, 3 * 64 * _CHUNK)),
    st.tuples(st.just("bits"), st.integers(0, 64)),
    st.tuples(st.just("word"), st.just(64)),  # randbelow(2**64): one word
)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, MASK64), st.lists(_DRAW, min_size=1, max_size=6))
def test_interleaved_draws_match_scalar_replay(seed, draws):
    src = RandomSource(seed)
    state = seed
    for kind, n in draws:
        got = src.bits(n) if kind == "bits" else src.randbelow(1 << 64)
        value, state = scalar_bits(state, n)
        if kind == "bits":
            assert (got.value, len(got)) == (value, n)
        else:
            assert got == value
        assert src._state == state


def test_bits_rejects_negative():
    with pytest.raises(ValueError):
        RandomSource(1).bits(-1)


def test_ones_fraction_near_half():
    for seed in (0, 42, 2024):
        bits = RandomSource(seed).bits(1_000_000)
        ones = bin(bits.value).count("1")
        assert 0.497 <= ones / 1_000_000 <= 0.503


def test_randbelow_exact_and_in_range():
    src = RandomSource(11)
    seen = set()
    for _ in range(2000):
        v = src.randbelow(6)
        assert 0 <= v < 6
        seen.add(v)
    assert seen == set(range(6))
    assert RandomSource(0).randbelow(1) == 0
    with pytest.raises(ValueError):
        src.randbelow(0)


# Bounds around every attempt width: 1 draws nothing, powers of two and
# their neighbours sit at the edges of a bit count, and bounds above 2**64
# take two or more words per attempt.
_POWERS = [1 << k for k in (1, 2, 3, 8, 31, 32, 63, 64, 65, 127, 128, 129, 200)]
_BOUND = st.one_of(
    st.just(1),
    st.sampled_from(sorted({p + d for p in _POWERS for d in (-1, 0, 1)} - {0})),
    st.integers(1, 1 << 200),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, MASK64), st.lists(_BOUND, max_size=10),
       st.sampled_from([1, 3, 1000]))
@example(seed=0, pattern=[], repeat=1)
@example(seed=1, pattern=[3, 1, (1 << 64) + 1, 5, 1 << 64], repeat=900)
@example(seed=2, pattern=[1], repeat=3 * _CHUNK)
@example(seed=3, pattern=[(1 << 64 * _CHUNK + 5) + 3, 7, 1], repeat=2)
def test_randbelow_many_matches_scalar_replay(seed, pattern, repeat):
    # The pattern repeated 1000 times is longer than 2 * _CHUNK draws when it
    # holds 5 or more bounds, so the rounds of words from bits() meet at
    # chunk edges; the last example takes more than _CHUNK words an attempt.
    bounds = pattern * repeat
    src = RandomSource(seed)
    got = list(src.randbelow_many(bounds))
    state, want = seed, []
    for n in bounds:
        value, state = scalar_randbelow(state, n)
        want.append(value)
    assert got == want
    assert src._state == state


def test_randbelow_many_draws_few_bounded_rounds():
    rounds = []

    class Recording(RandomSource):
        def bits(self, n):
            rounds.append(n)
            return super().bits(n)

    src = Recording(4)
    values = list(src.randbelow_many(iter([5] * 10_000)))  # any iterable
    assert len(values) == 10_000 and set(values) == set(range(5))
    # 3/8 of the one-word attempts are rejected: about 16,000 words in all,
    # drawn in full rounds and a few short ones at the end.
    assert max(rounds) == 64 * _CHUNK
    assert len(rounds) < 20


def test_randbelow_many_rejects_a_bound_below_one_before_drawing():
    late = [5] * 5000 + [0]  # past the first full round of words
    for bounds in ([0], [7, 2**70, -3, 3], [1] * 5000 + [0], late, iter(late)):
        src = RandomSource(9)
        drawn = []
        with pytest.raises(ValueError, match="n >= 1"):
            drawn.extend(src.randbelow_many(bounds))
        assert drawn == []  # refused before the first value
        assert src._state == 9  # the first round would have drawn its words


def test_derive_child_seed_is_the_documented_formula():
    seed = 0xDEADBEEF
    for t in range(5):
        expected = (seed ^ ((0x9E3779B97F4A7C15 * (t + 1)) & MASK64)) & MASK64
        assert derive_child_seed(seed, t) == expected


def test_child_seeds_distinct():
    children = {derive_child_seed(77, t) for t in range(1000)}
    assert len(children) == 1000
