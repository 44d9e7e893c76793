import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bitstrings, scalar_randbelow
from otplab.bitstring import BitString
from otplab import facts
from otplab.facts import (
    MAX_SIZE_BOUND,
    ParseError,
    PqString,
    decode_lines,
    decode_string,
    derive_oracle,
    encode_bit,
    encode_lines,
    _count_nontheorems,
    _count_theorems,
    _unrank_nontheorem,
    _unrank_theorem,
    enumerate_wellformed,
    is_theorem,
    parse_pq,
)
from otplab.rng import _CHUNK, MASK64, RandomSource


def test_parse_examples():
    assert parse_pq("--p---q-----") == PqString(2, 3, 5)
    assert parse_pq("-p-q--") == PqString(1, 1, 2)
    with pytest.raises(ParseError):
        parse_pq("pq--")


@pytest.mark.parametrize(
    "bad",
    ["", "-", "p", "q", "-p-q", "-pq-", "p-q-", "-p-q-x", "-q-p-", "-p-p-q-",
     "-p-q-q-", "--p--", "hello", "-p-q-\n"],
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_pq(bad)


def test_parse_error_does_not_echo_input():
    junk = "x" * 10_000
    with pytest.raises(ParseError) as info:
        parse_pq(junk)
    assert len(str(info.value)) < 200


def test_render_inverts_parse():
    ps = PqString(2, 3, 5)
    assert ps.render() == "--p---q-----"
    assert parse_pq(ps.render()) == ps
    assert ps.surface_length == len(ps.render()) == 12


def test_pqstring_requires_positive_groups():
    with pytest.raises(ValueError):
        PqString(0, 1, 1)


def test_is_theorem_examples():
    assert is_theorem(PqString(2, 3, 5))
    assert is_theorem(PqString(1, 1, 2))
    assert not is_theorem(PqString(1, 1, 3))


def test_derivation_oracle_examples():
    assert derive_oracle(PqString(2, 3, 5), 2)  # axiom --p-q--- plus two steps
    assert derive_oracle(PqString(1, 1, 2), 0)  # an axiom itself
    assert not derive_oracle(PqString(2, 2, 5), 10)


def test_oracle_needs_enough_steps():
    ps = PqString(2, 3, 5)
    assert not derive_oracle(ps, 1)
    assert derive_oracle(ps, 2)  # y - 1 steps decide exactly


def test_decision_procedure_matches_oracle_exhaustively():
    # Every well-formed string of surface length <= 20.
    count = 0
    for ps in enumerate_wellformed(20):
        assert is_theorem(ps) == derive_oracle(ps, ps.y)
        count += 1
    assert count == 816  # all (x, y, z) >= 1 with x+y+z <= 18


def test_decode_examples():
    assert decode_string("--p---q-----") == 0
    assert decode_string("-p-q---") == 1
    with pytest.raises(ParseError):
        decode_string("--pp--q-")


@pytest.mark.parametrize("size_bound", range(6, 33))
def test_unranking_follows_enumeration_order(size_bound):
    budget = size_bound - 2
    strings = list(enumerate_wellformed(size_bound))
    theorems = [ps for ps in strings if is_theorem(ps)]
    nons = [ps for ps in strings if not is_theorem(ps)]
    assert len(theorems) == _count_theorems(budget)
    assert len(nons) == _count_nontheorems(budget)
    assert [PqString(*_unrank_theorem(r)) for r in range(len(theorems))] == theorems
    assert [PqString(*_unrank_nontheorem(r, budget))
            for r in range(len(nons))] == nons


def test_encode_validity_and_size_bound():
    src = RandomSource(5)
    for bound in (6, 7, 12, 30):
        for bit in (0, 1):
            for _ in range(50):
                s = encode_bit(bit, src, bound)
                assert len(s) <= bound
                assert decode_string(s) == bit
    with pytest.raises(ValueError):
        encode_bit(0, src, 5)
    with pytest.raises(ValueError):
        encode_bit(2, src, 10)


def test_size_bound_cap():
    src = RandomSource(8)
    for bound in (MAX_SIZE_BOUND + 1, 10**121):
        for bit in (0, 1):
            with pytest.raises(ValueError, match="size bound must be <="):
                encode_bit(bit, src, bound)
    for bit in (0, 1):
        s = encode_bit(bit, src, MAX_SIZE_BOUND)
        assert len(s) <= MAX_SIZE_BOUND
        assert decode_string(s) == bit


def test_unranking_at_the_cap_keeps_block_order():
    # The first and last rank of every hyphen total's block, at the largest
    # budget, unrank to strings of that total, in enumeration order.
    budget = MAX_SIZE_BOUND - 2
    assert _count_nontheorems(2) == 0
    keys = []
    for total in range(3, budget + 1):
        first, end = _count_nontheorems(total - 1), _count_nontheorems(total)
        for rank in sorted({first, end - 1}):
            x, y, z = _unrank_nontheorem(rank, budget)
            assert min(x, y, z) >= 1 and x + y + z == total and x + y != z
            keys.append((total, x, y))
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert keys[-1] == (budget, budget - 2, 1)
    with pytest.raises(AssertionError):
        _unrank_nontheorem(_count_nontheorems(budget), budget)


@pytest.mark.parametrize("total", [200, 201])
def test_unranking_covers_a_large_block(total):
    first = _count_nontheorems(total - 1)
    block = [(x, y, total - x - y) for x in range(1, total - 1)
             for y in range(1, total - x) if x + y != total - x - y]
    assert len(block) == _count_nontheorems(total) - first
    budget = MAX_SIZE_BOUND - 2
    assert [_unrank_nontheorem(first + r, budget)
            for r in range(len(block))] == block


def _per_bit_replay(message, seed, size_bound):
    # One scalar randbelow replay per bit, then the unranking of its class.
    budget = size_bound - 2
    state, lines = seed, []
    for bit in message:
        count = _count_nontheorems(budget) if bit else _count_theorems(budget)
        rank, state = scalar_randbelow(state, count)
        groups = _unrank_nontheorem(rank, budget) if bit else _unrank_theorem(rank)
        lines.append(PqString(*groups).render() + "\n")
    return "".join(lines), state


# At bounds 6 and 7 the theorem class has one member, so a 0 bit draws no
# word; 8 and 24 are small, MAX_SIZE_BOUND the cap.
@settings(max_examples=40, deadline=None)
@given(st.integers(0, MASK64), bitstrings(max_len=300),
       st.one_of(st.sampled_from([6, 7, 8, 24, MAX_SIZE_BOUND]),
                 st.integers(6, MAX_SIZE_BOUND)))
@example(seed=5, message=BitString(""), size_bound=24)
@example(seed=6, message=RandomSource(1).bits(2 * _CHUNK + 100), size_bound=7)
def test_encode_lines_matches_per_bit_scalar_replay(seed, message, size_bound):
    src = RandomSource(seed)
    out = "".join(encode_lines(message, src, size_bound))
    assert (out, src._state) == _per_bit_replay(message, seed, size_bound)
    per_bit = RandomSource(seed)  # encode_bit, the one-bit case, bit by bit
    assert out == "".join(encode_bit(b, per_bit, size_bound) + "\n" for b in message)


@pytest.mark.parametrize("bound", [5, MAX_SIZE_BOUND + 1])
def test_encode_lines_checks_the_bound_of_an_empty_message(bound):
    src = RandomSource(3)
    with pytest.raises(ValueError, match="size bound must be"):
        "".join(encode_lines(BitString(""), src, bound))
    assert src._state == 3


@pytest.mark.parametrize("bound", [6, 7])
def test_a_single_member_class_draws_no_word(bound):
    # The theorem class holds only -p-q-- here, so zeros cost no draw.
    src = RandomSource(5)
    assert "".join(encode_lines(BitString.zeros(5000), src, bound)) == "-p-q--\n" * 5000
    assert src._state == 5


@pytest.fixture
def unranked(monkeypatch):
    # The ranks each class unranks, theorems first, seen through the module
    # globals that encode_lines calls.
    calls = ([], [])
    unrank_t, unrank_n = facts._unrank_theorem, facts._unrank_nontheorem
    monkeypatch.setattr(facts, "_unrank_theorem",
                        lambda r: calls[0].append(r) or unrank_t(r))
    monkeypatch.setattr(facts, "_unrank_nontheorem",
                        lambda r, b: calls[1].append(r) or unrank_n(r, b))
    return calls


def test_encode_lines_unranks_each_distinct_rank_once(unranked):
    sizes = (_count_theorems(22), _count_nontheorems(22))
    # At bound 24 both classes are larger than their bit's count in 100
    # bits, so each keeps its lazy table; in 5,000 bits neither is, so both
    # are rendered whole and nothing is unranked.
    for length, lazy in ((100, True), (5000, False)):
        for drawn in unranked:
            drawn.clear()
        message = RandomSource(12).bits(length)
        lines = "".join(encode_lines(message, RandomSource(13), 24)).splitlines()
        for bit in (0, 1):
            carried = [line for line, b in zip(lines, message) if b == bit]
            assert (sizes[bit] > len(carried)) == lazy
            distinct = len(set(carried)) if lazy else 0
            assert len(unranked[bit]) == len(set(unranked[bit])) == distinct


def test_encode_lines_keeps_its_rank_tables_across_blocks(unranked):
    # 2,100 bits at bound 100 span three blocks.  The theorems (1,176 of
    # them) outnumber the message's zeros, so their table stays lazy, and a
    # rank that repeats in a later block is not unranked again.
    message = RandomSource(14).bits(2100)
    lines = "".join(encode_lines(message, RandomSource(15), 100)).splitlines()
    zeros = [line for line, bit in zip(lines, message) if bit == 0]
    assert len(message) > 2 * facts._BLOCK_LINES
    assert _count_theorems(98) > len(zeros) > len(set(zeros))
    assert len(unranked[0]) == len(set(unranked[0])) == len(set(zeros))


def _enumerated_classes(size_bound):
    # Independent of the unranking: every string within the bound, in
    # enumeration order, rendered and split by class.
    classes = ([], [])
    for ps in enumerate_wellformed(size_bound):
        classes[not is_theorem(ps)].append(ps.render() + "\n")
    return classes


def _indexed_replay(message, seed, classes):
    # One scalar randbelow replay per bit, indexing its class's list.
    state, lines = seed, []
    for bit in message:
        rank, state = scalar_randbelow(state, len(classes[bit]))
        lines.append(classes[bit][rank])
    return "".join(lines), state


def _shuffled_message(rng, zeros, ones):
    bits = [0] * zeros + [1] * ones
    rng.shuffle(bits)
    return BitString(bits)


@pytest.mark.parametrize("size_bound", range(6, 41))
def test_encode_lines_matches_the_enumerated_classes(size_bound, unranked):
    # Each bit's count at its class's size and one either side: one below,
    # the class keeps its lazy table; at or above, it is rendered whole and
    # unranks nothing.  The other bit is rare.
    classes = _enumerated_classes(size_bound)
    rng = random.Random(size_bound)
    for bit in (0, 1):
        for count in range(len(classes[bit]) - 1, len(classes[bit]) + 2):
            for drawn in unranked:
                drawn.clear()
            message = _shuffled_message(rng, *((count, 5) if bit == 0 else (5, count)))
            seed = rng.getrandbits(64)
            src = RandomSource(seed)
            out = "".join(encode_lines(message, src, size_bound))
            assert (out, src._state) == _indexed_replay(message, seed, classes)
            carried = {line for line, b in zip(out.splitlines(), message) if b == bit}
            lazy = count < len(classes[bit])
            assert len(unranked[bit]) == (len(carried) if lazy else 0)


def test_encode_lines_with_one_rare_value():
    # 10 theorems, from a lazy table, among 3,000 whole-class non-theorems,
    # and the reverse.
    classes = _enumerated_classes(24)
    rng = random.Random(24)
    for zeros, ones in ((10, 3000), (3000, 10)):
        message = _shuffled_message(rng, zeros, ones)
        src = RandomSource(77)
        out = "".join(encode_lines(message, src, 24))
        assert (out, src._state) == _indexed_replay(message, 77, classes)
    # At the cap (521,731 theorems and about 1.4e9 non-theorems) no message
    # here reaches a class's size and the classes are too large to
    # enumerate, so both keep their lazy tables and the reference is the
    # closed-form replay, whose order the tests above pin at the cap.
    message = _shuffled_message(rng, 10, 300)
    src = RandomSource(78)
    out = "".join(encode_lines(message, src, MAX_SIZE_BOUND))
    assert (out, src._state) == _per_bit_replay(message, 78, MAX_SIZE_BOUND)


# Well-formed strings of both classes and malformed ones, few enough that a
# list of them repeats its lines.
_WELL_FORMED = ["-p-q--", "-p-q---", "--p-q---", "-p--q---", "--p--q----",
                "---p-q--", "-p---q-"]
_MALFORMED = ["", "-p-q-q-", "pq", "-p-q--\n", "--p--", " -p-q--"]


@st.composite
def _pq_lines(draw):
    lines = draw(st.lists(st.sampled_from(_WELL_FORMED), max_size=60))
    for _ in range(draw(st.integers(0, 2))):
        bad = draw(st.sampled_from(_MALFORMED) | st.text(max_size=6))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return lines


@settings(max_examples=200, deadline=None)
@given(_pq_lines())
@example(lines=[])
def test_decode_lines_matches_decode_string_per_line(lines):
    try:
        expected = [decode_string(line) for line in lines]
    except ParseError as exc:
        with pytest.raises(ParseError, match=f"^{re.escape(str(exc))}$"):
            decode_lines(lines)
        return
    assert decode_lines(lines) == BitString(expected)


def test_decode_lines_parses_each_distinct_line_once_in_order(monkeypatch):
    # Through the module global, up to and including the first malformed line.
    seen = []
    monkeypatch.setattr(facts, "decode_string",
                        lambda line: seen.append(line) or decode_string(line))
    lines = ["-p-q--", "-p-q---", "-p-q--", "-p-q---", "--p-q---", "-p-q--"]
    assert decode_lines(lines) == BitString("010100")
    assert seen == ["-p-q--", "-p-q---", "--p-q---"]
    seen.clear()
    with pytest.raises(ParseError):
        decode_lines(lines + ["pq", "-p-q--", "q-p-"])
    assert seen == ["-p-q--", "-p-q---", "--p-q---", "pq"]


def test_encode_decode_round_trip_10k():
    src = RandomSource(1312)
    bits = RandomSource(99).bits(10_000)
    for b in bits:
        assert decode_string(encode_bit(b, src, 20)) == b


def test_encode_is_uniform_within_each_class():
    # With bound 8 there are 3 theorems and 17 non-theorems; every string
    # should appear with roughly its class-uniform frequency.
    theorems = [ps for ps in enumerate_wellformed(8) if is_theorem(ps)]
    nons = [ps for ps in enumerate_wellformed(8) if not is_theorem(ps)]
    assert len(theorems) == 3 and len(nons) == 17
    src = RandomSource(77)
    counts = {}
    trials = 6000
    for _ in range(trials):
        s = encode_bit(0, src, 8)
        counts[s] = counts.get(s, 0) + 1
    assert set(counts) == {ps.render() for ps in theorems}
    for c in counts.values():
        assert abs(c / trials - 1 / 3) < 0.05
    seen_nons = {encode_bit(1, src, 8) for _ in range(2000)}
    assert seen_nons == {ps.render() for ps in nons}


def test_parser_total_on_fuzzed_bytes():
    rng = random.Random(0xFACE)
    for _ in range(100_000):
        length = rng.randrange(0, 24)
        text = bytes(rng.randrange(256) for _ in range(length)).decode("latin-1")
        try:
            parse_pq(text)
        except ParseError:
            pass


def _decode_via_parse(text):
    return 0 if is_theorem(parse_pq(text)) else 1


def _same_bit_or_error(text):
    try:
        expected = _decode_via_parse(text)
    except ParseError as exc:
        with pytest.raises(ParseError, match=re.escape(str(exc))):
            decode_string(text)
        return False
    assert decode_string(text) == expected
    return True


def test_decode_string_agrees_with_parse_on_fuzzed_input():
    rng = random.Random(0xFACE)
    accepted = 0
    for _ in range(20_000):
        length = rng.randrange(0, 24)
        text = bytes(rng.randrange(256) for _ in range(length)).decode("latin-1")
        _same_bit_or_error(text)
        # Near misses: hyphen groups, possibly empty, around two separators.
        groups = ["-" * rng.randrange(0, 8) for _ in range(3)]
        text = (groups[0] + rng.choice("pq-x\n") + groups[1]
                + rng.choice("qp-x\n") + groups[2])
        accepted += _same_bit_or_error(text)
    assert accepted > 200


@settings(max_examples=500)
@given(st.text(max_size=40))
def test_decode_string_agrees_with_parse_on_arbitrary_text(text):
    _same_bit_or_error(text)


@settings(max_examples=500)
@given(st.text(max_size=40))
def test_parser_total_on_arbitrary_text(text):
    try:
        ps = parse_pq(text)
    except ParseError:
        return
    assert ps.render() == text


@given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 60))
def test_parser_accepts_every_rendering(x, y, z):
    assert parse_pq(PqString(x, y, z).render()) == PqString(x, y, z)
