import hashlib
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from otplab.bitstring import BitString, xor
from otplab.otp import encrypt
from otplab.private_object import (
    _BLOCK_LINES,
    PadObject,
    PrivateObject,
    Statement,
    StatementParseError,
    TableObject,
    decode_lines,
    encode_lines,
    encode_statements,
    statement_from_line,
    statement_to_line,
    verify_statements,
)
from otplab.rng import RandomSource

from conftest import (
    MALFORMED_STATEMENT_LINES,
    bitstrings,
    demo_object,
    equal_length_pairs,
)

PAD = BitString("1011001001")
MSG = BitString("0010110101")

# The fault each malformed line is named by, in the order the checks run:
# two fields, then the claimed value, then the index, then int().
_NEEDS = "statement line needs '<index> <value>'"
_CLAIM = "claimed value must be 0 or 1"
_INDEX = "feature index must be a decimal number >= 1"
_FAULTS = {
    "": _NEEDS, "7": _NEEDS, "x 1": _INDEX, "7 2": _CLAIM, "0 1": _INDEX,
    "7 x": _CLAIM, "1_0 1": _INDEX, "+3 1": _INDEX, "-3 1": _INDEX,
    "\u0663 1": _INDEX, "2 +1": _CLAIM, "2 01": _CLAIM, "2 \u0661": _CLAIM,
    "07 1": _INDEX, "9" * 5000 + " 1": "malformed statement line",
}


def test_pad_object_features_are_pad_bits():
    obj = PadObject(PAD)
    assert obj.entropy_bits == 10
    assert obj.feature(1) == 1
    assert obj.feature(3) == 1
    assert obj.feature(10) == 1
    assert obj.features(4) == BitString("1011")
    assert obj.features(10) == PAD
    with pytest.raises(ValueError):
        obj.feature(0)
    with pytest.raises(ValueError):
        obj.feature(11)


def test_pad_object_rejects_empty_pad():
    with pytest.raises(ValueError):
        PadObject(BitString(""))


def test_worked_example_claimed_values():
    stmts = encode_statements(MSG, PadObject(PAD))
    claimed = BitString(s.claimed_value for s in stmts)
    assert claimed == BitString("1001111100")
    # The first two statements are true (message bits 0), the tenth is false.
    assert stmts[0].claimed_value == 1
    assert stmts[1].claimed_value == 0
    assert stmts[9].claimed_value == 0
    assert stmts[0].rendering == "bit 1 of the OTP is 1"


def test_all_zero_message_makes_true_statements():
    obj = PadObject(PAD)
    stmts = encode_statements(BitString.zeros(10), obj)
    assert verify_statements(stmts, obj) == BitString.zeros(10)
    assert BitString(s.claimed_value for s in stmts) == PAD


def test_verify_examples():
    obj = PadObject(PAD)
    assert verify_statements([Statement(1, 1)], obj) == BitString("0")
    assert verify_statements([Statement(10, 0)], obj) == BitString("1")


def test_each_bit_uses_its_own_feature():
    stmts = encode_statements(MSG, PadObject(PAD))
    assert [s.feature_index for s in stmts] == list(range(1, 11))


def test_message_longer_than_entropy_rejected():
    with pytest.raises(ValueError):
        encode_statements(BitString.zeros(11), PadObject(PAD))


@given(equal_length_pairs(min_len=1, max_len=64))
def test_claimed_values_equal_xor_ciphertext(pair):
    m, pad = pair
    stmts = encode_statements(m, PadObject(pad))
    claimed = BitString(s.claimed_value for s in stmts)
    assert claimed == xor(m, pad)
    assert claimed == encrypt(m, pad)


@given(equal_length_pairs(min_len=0, max_len=64))
def test_round_trip(pair):
    m, pad = pair
    if len(pad) == 0:
        return
    obj = PadObject(pad)
    assert verify_statements(encode_statements(m, obj), obj) == m


def test_table_object_and_demo():
    obj = demo_object()
    assert obj.entropy_bits == 8
    assert obj.feature(1) == 1
    assert obj.feature(3) == 0
    m = BitString("01010101")
    assert verify_statements(encode_statements(m, obj), obj) == m
    with pytest.raises(ValueError):
        TableObject([("broken", 2)])
    assert TableObject([("", 1)]).describe(1, 1) == "'' is true"
    for name in ("a\nb", "a\r\n", "x\u2028y", "a\x85b"):
        with pytest.raises(ValueError, match="line break"):
            TableObject([(name, 1), ("c", 0)])


def test_statement_equality_ignores_rendering():
    assert Statement(3, 1, "bit 3 of the OTP is 1") == Statement(3, 1)
    assert Statement(3, 1) != Statement(3, 0)
    assert Statement(3, 1) != Statement(4, 1)


def test_wire_form_round_trip():
    stmt = Statement(7, 0, "bit 7 of the OTP is 0")
    line = statement_to_line(stmt)
    assert line == "7 0 bit 7 of the OTP is 0"
    assert statement_from_line(line) == stmt
    assert statement_from_line("7 0") == Statement(7, 0)
    # Rendering is ignored for equality, so a tampered rendering is harmless.
    assert statement_from_line("7 0 some other words") == stmt


def test_wire_form_errors():
    # Only what statement_to_line writes parses, and the error names the
    # fault.
    assert set(_FAULTS) == set(MALFORMED_STATEMENT_LINES)
    for bad in MALFORMED_STATEMENT_LINES:
        with pytest.raises(StatementParseError) as info:
            statement_from_line(bad)
        assert str(info.value) == f"{_FAULTS[bad]}: {bad!r}"


def test_decode_lines_rejects_every_malformed_line():
    obj = PadObject(PAD)
    for bad in MALFORMED_STATEMENT_LINES:
        with pytest.raises(StatementParseError) as info:
            decode_lines(["1 1", bad], obj)
        assert str(info.value) == f"{_FAULTS[bad]}: {bad!r}"


@st.composite
def objects_and_messages(draw):
    if draw(st.booleans()):
        obj = PadObject(draw(bitstrings(min_len=1, max_len=96)))
    else:
        values = draw(st.lists(st.integers(0, 1), min_size=1, max_size=12))
        obj = TableObject([(f"feature {i}", v) for i, v in enumerate(values)])
    n = draw(st.integers(0, obj.entropy_bits))
    return obj, draw(bitstrings(min_len=n, max_len=n))


@given(objects_and_messages())
def test_encode_is_one_xor_with_the_features(case):
    obj, m = case
    features = obj.features(m.length)
    assert features == BitString(obj.feature(i) for i in range(1, m.length + 1))
    stmts = encode_statements(m, obj)
    assert BitString(s.claimed_value for s in stmts) == m ^ features
    for j, s in enumerate(stmts, start=1):
        assert s.feature_index == j
        assert s.rendering == obj.describe(j, s.claimed_value)
    assert verify_statements(stmts, obj) == m


@pytest.mark.parametrize("obj", [PadObject(PAD), demo_object()])
def test_features_bounds(obj):
    assert obj.features(0) == BitString("")
    assert obj.features(obj.entropy_bits).length == obj.entropy_bits
    for count in (-1, obj.entropy_bits + 1):
        with pytest.raises(ValueError):
            obj.features(count)


def test_verify_rejects_statement_past_pad_end():
    # A statement is read as its line, so an index below 1 gets the
    # grammar's message and one past the end names the range.
    obj = PadObject(PAD)
    for index, fault in ((0, _INDEX), (11, "feature index 11 outside 1..10")):
        with pytest.raises(StatementParseError, match=f"^{fault}"):
            verify_statements([Statement(1, 1), Statement(index, 0)], obj)


@pytest.mark.parametrize("claim", [2, "x", -1, True])
def test_verify_rejects_a_claim_other_than_0_or_1(claim):
    with pytest.raises(StatementParseError,
                       match=f"^{_CLAIM}: '1 {re.escape(str(claim))}'$"):
        verify_statements([Statement(2, 0), Statement(1, claim)], PadObject(PAD))


def test_verify_reads_a_claim_as_its_line_does():
    # "1" is the wire form of the claim 1, which is true of PAD's bit 1.
    obj = PadObject(PAD)
    assert verify_statements([Statement(1, "1"), Statement(2, "1")], obj) == BitString("01")


@pytest.mark.parametrize("stmt", [Statement(1, "1 x"), Statement(1, "1\n0"),
                                  Statement("1 1", 0)])
def test_verify_refuses_a_field_of_more_than_one_token(stmt):
    # Each reads as a valid line "1 1 ..." with a rendering tail, but a
    # Statement has no rendering to carry.
    with pytest.raises(StatementParseError, match="^statement field is not one token"):
        verify_statements([stmt], PadObject(BitString("1010")))


def test_verify_keeps_statement_order():
    obj = PadObject(PAD)
    stmts = encode_statements(MSG, obj)
    assert verify_statements(stmts[::-1], obj) == BitString(MSG.to01()[::-1])
    assert verify_statements(stmts[3:6], obj) == MSG[3:6]
    assert verify_statements([stmts[9], stmts[0], stmts[9]], obj) == BitString("101")


def test_wire_form_survives_random_messages():
    src = RandomSource(17)
    pad = src.bits(32)
    obj = PadObject(pad)
    m = src.bits(32)
    lines = [statement_to_line(s) for s in encode_statements(m, obj)]
    revived = [statement_from_line(line) for line in lines]
    assert verify_statements(revived, obj) == m


@given(objects_and_messages(), st.data())
def test_wire_path_matches_statement_path(case, data):
    # Both paths against independent references: the drawn message, the
    # lines one describe call each renders, and the per-line decoder.
    obj, m = case
    stmts = encode_statements(m, obj)
    wire = "".join(encode_lines(m, obj))
    assert wire == _reference_lines(m, obj)
    lines = wire.splitlines()
    assert [statement_from_line(line) for line in lines] == stmts
    assert decode_lines(lines, obj) == verify_statements(stmts, obj) == m
    # Any order and any repeats, as a receiver may be sent them.
    picked = data.draw(st.lists(st.sampled_from(lines))) if lines else []
    assert decode_lines(picked, obj) == _decode_per_line(picked, obj)


def test_decode_lines_rejects_statement_past_object_end():
    obj = PadObject(PAD)
    for index in (11, 12):
        with pytest.raises(StatementParseError, match=f"feature index {index}"):
            decode_lines(["1 1", f"{index} 0"], obj)


def test_encode_lines_rejects_message_longer_than_object():
    with pytest.raises(ValueError, match="independent features"):
        "".join(encode_lines(BitString.zeros(11), PadObject(PAD)))
    assert "".join(encode_lines(BitString(""), PadObject(PAD))) == ""


def _decode_per_line(lines, obj):
    # The reference: statement_from_line on each line, then the 1..width
    # check, then the claim against the feature.
    width = obj.entropy_bits
    bits = []
    for line in lines:
        stmt = statement_from_line(line)
        index = stmt.feature_index
        if not 1 <= index <= width:
            raise StatementParseError(f"feature index {index} outside 1..{width}")
        bits.append(obj.feature(index) ^ stmt.claimed_value)
    return BitString(bits)


@st.composite
def _statement_lines(draw):
    # Well-formed lines about PAD, with any whitespace str.split() accepts
    # and with or without a rendering, then up to three malformed lines or
    # lines past the pad's end at random places.
    space = st.sampled_from([" ", "  ", "\t", "\u3000"])
    well_formed = st.builds(
        "{}{}{}{}{}".format,
        st.sampled_from(["", " ", "\t"]), st.integers(1, PAD.length), space,
        st.sampled_from("01"),
        st.sampled_from(["", " ", " bit 3 of the OTP is 1", "\t7 0 x "]))
    faulty = st.sampled_from(MALFORMED_STATEMENT_LINES) | st.builds(
        "{} {}".format, st.integers(PAD.length + 1, PAD.length + 3),
        st.sampled_from("01"))
    lines = draw(st.lists(well_formed, max_size=40))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(faulty))
    return lines


@settings(max_examples=200, deadline=None)
@given(_statement_lines())
@example(lines=[])
def test_decode_lines_matches_per_line_reference(lines):
    obj = PadObject(PAD)
    try:
        expected = _decode_per_line(lines, obj)
    except StatementParseError as exc:
        with pytest.raises(StatementParseError, match=f"^{re.escape(str(exc))}$"):
            decode_lines(lines, obj)
        return
    assert decode_lines(lines, obj) == expected


def test_decode_lines_peak_memory_stays_small():
    # 100k lines: the decoder holds one pointer per bit and the features'
    # text, about 1 MiB.  Splitting every line up front would hold tens.
    n = 100_000
    pad, message = RandomSource(11).bits(n), RandomSource(12).bits(n)
    obj = PadObject(pad)
    lines = "".join(encode_lines(message, obj)).splitlines()
    tracemalloc.start()
    try:
        decoded = decode_lines(lines, obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decoded == message
    assert peak < 4 << 20, f"decode_lines peaked at {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("obj", [PadObject(BitString("101")),
                                 TableObject([("a", 1), ("b", 0)])])
def test_describe_refuses_an_index_outside_the_object(obj):
    # An index is 1-based: 0 must not wrap to the last feature, and one
    # past the end must name the range rather than raise IndexError.
    width = obj.entropy_bits
    for index in (0, width + 1):
        with pytest.raises(ValueError, match=rf"^feature index {index} outside 1\.\.{width}$"):
            obj.describe(index, 1)
    for index in (1, width):
        assert obj.describe(index, 1)


def test_describe_examples_at_the_two_ends():
    pad = PadObject(BitString("101"))
    assert pad.describe(1, 1) == "bit 1 of the OTP is 1"
    assert pad.describe(3, 0) == "bit 3 of the OTP is 0"
    # The claimed value is rendered whole, as the base class does.
    assert pad.describe(2, True) == "bit 2 of the OTP is True"
    assert pad.describe(2, 10) == "bit 2 of the OTP is 10"
    table = TableObject([("a", 1), ("b", 0)])
    assert table.describe(1, 1) == "'a' is true"
    assert table.describe(2, 0) == "'b' is false"


def _reference_lines(message, obj):
    # One describe call per line, each claim the message bit XOR the
    # feature: the rendering every object must match.
    claims = [b ^ obj.feature(j) for j, b in enumerate(message, start=1)]
    return "".join(f"{j} {c} {obj.describe(j, c)}\n"
                   for j, c in enumerate(claims, start=1))


@st.composite
def _pads_and_messages(draw):
    # A pad at least as long as the message, often longer.
    n = draw(st.integers(1, 300))
    message = draw(bitstrings(min_len=n, max_len=n))
    return draw(bitstrings(min_len=n, max_len=n + draw(st.integers(0, 40)))), message


@settings(max_examples=200)
@given(_pads_and_messages())
@example(case=(BitString("1"), BitString("0")))
@example(case=(BitString("0"), BitString("0")))
@example(case=(BitString("0110"), BitString("1")))
def test_pad_object_renders_every_line_as_describe_does(case):
    pad, message = case
    obj = PadObject(pad)
    wire = "".join(encode_lines(message, obj))
    assert wire == _reference_lines(message, obj)
    assert decode_lines(wire.splitlines(), obj) == message


class _Coin(PrivateObject):
    # A user object that overrides only describe.
    entropy_bits = 6

    def feature(self, index):
        self._check_index(index)
        return index % 2

    def describe(self, index, claimed_value):
        return f"coin {index} shows {'heads' if claimed_value else 'tails'}"


class _Broken(_Coin):
    # A describe whose rendering would write a second statement line.
    def __init__(self, rendering):
        self.rendering = rendering

    def describe(self, index, claimed_value):
        return self.rendering


@pytest.mark.parametrize("rendering", ["a\n2 0", "a\r\n", "x\u2028y", "a\x85b"])
def test_a_line_break_in_a_rendering_writes_nothing(rendering):
    with pytest.raises(ValueError, match="line break"):
        statement_to_line(Statement(1, 0, rendering))
    with pytest.raises(ValueError, match="line break"):
        "".join(encode_lines(BitString("1"), _Broken(rendering)))
    assert "".join(encode_lines(BitString("1"), _Broken("a 2 0"))) == "1 0 a 2 0\n"


class _BreaksAt(_Coin):
    # A describe whose rendering breaks its line at one index only.
    entropy_bits = 2 * _BLOCK_LINES

    def __init__(self, index):
        self.index = index

    def describe(self, index, claimed_value):
        if index == self.index:
            return "a\nb"
        return super().describe(index, claimed_value)


def test_a_line_break_in_a_later_block_raises_when_that_block_is_taken():
    # Only the length check comes before the first block: a block is
    # rendered when it is taken, so the blocks before a faulty rendering
    # reach the caller first.
    obj = _BreaksAt(_BLOCK_LINES + 1)
    message = RandomSource(13).bits(_BLOCK_LINES + 1)
    blocks = encode_lines(message, obj)
    assert next(blocks) == _reference_lines(message[:_BLOCK_LINES], obj)
    with pytest.raises(ValueError, match="line break"):
        next(blocks)


@pytest.mark.parametrize("obj", [demo_object(), _Coin()])
def test_other_objects_still_render_through_describe(obj):
    message = BitString("011010")
    wire = "".join(encode_lines(message, obj))
    assert wire == _reference_lines(message, obj)
    assert decode_lines(wire.splitlines(), obj) == message


def test_table_object_lines_are_pinned():
    # Digest of the lines rendered by one describe call per line.
    obj = TableObject([(f"feature {i}", i % 3 == 0) for i in range(50)])
    wire = "".join(encode_lines(RandomSource(5).bits(50), obj))
    assert hashlib.sha256(wire.encode()).hexdigest() == (
        "d702e552a5afcd93e109f2a16764bc0bda2a474c0d8f094529ff660da22de328")


class _Indented(_Coin):
    # A describe whose rendering starts with whitespace, which the reader drops.
    def describe(self, index, claimed_value):
        return " \t" + super().describe(index, claimed_value)


@pytest.mark.parametrize("obj", [PadObject(PAD), demo_object(), _Coin(), _Indented()])
def test_encode_statements_are_the_wire_lines_read_back(obj):
    message = RandomSource(19).bits(obj.entropy_bits)
    wire = "".join(encode_lines(message, obj))
    stmts = [(s.feature_index, s.claimed_value, s.rendering)
             for s in encode_statements(message, obj)]
    assert stmts == [(s.feature_index, s.claimed_value, s.rendering)
                     for s in map(statement_from_line, wire.splitlines())]
    # Against one describe call per line, as the reader reads its rendering.
    claims = [b ^ obj.feature(j) for j, b in enumerate(message, start=1)]
    assert stmts == [(j, c, obj.describe(j, c).lstrip())
                     for j, c in enumerate(claims, start=1)]


def test_encode_statements_refuses_a_rendering_with_a_line_break():
    with pytest.raises(ValueError, match="line break"):
        encode_statements(BitString("1"), _Broken("a\n2 0"))


# Every character str.splitlines() ends a line at.
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_FIELDS = (st.integers(-3, 10**6) | st.booleans()
           | st.from_regex(r"[0-9]{1,3}", fullmatch=True)
           | st.text(st.sampled_from("01x \t\u3000\xa0" + _LINE_BREAKS), max_size=4))
_RENDERINGS = (st.text(st.sampled_from("ab1 \t\u3000\xa0" + _LINE_BREAKS), max_size=6)
               | st.text(max_size=6))


@settings(max_examples=300)
@given(st.builds(Statement, _FIELDS, _FIELDS, _RENDERINGS))
@example(stmt=Statement("1 1", 0))
@example(stmt=Statement(1, "1 x"))
@example(stmt=Statement(1, "1\n0"))
@example(stmt=Statement(" 1", 0))
@example(stmt=Statement(1, 0, " \u3000x "))
def test_a_written_line_reads_back_as_its_statement_or_not_at_all(stmt):
    # The writer refuses a field that is empty or holds whitespace, and a
    # rendering with a line break; any other line its reader either refuses
    # or reads back field for field, the rendering without leading space.
    fields = (str(stmt.feature_index), str(stmt.claimed_value))
    try:
        line = statement_to_line(stmt)
    except StatementParseError:
        assert any(not f or any(c.isspace() for c in f) for f in fields)
        return
    except ValueError:
        assert any(c in _LINE_BREAKS for c in stmt.rendering)
        return
    try:
        back = statement_from_line(line)
    except StatementParseError:
        return
    assert (str(back.feature_index), str(back.claimed_value)) == fields
    assert back.rendering == stmt.rendering.lstrip()


@pytest.mark.parametrize("stmt", [Statement("1 1", 0), Statement(1, "1 x"),
                                  Statement(1, "1\n0")])
def test_the_writer_refuses_a_field_of_more_than_one_token(stmt):
    # Each would read back as index 1 claiming 1, with a rendering tail.
    with pytest.raises(StatementParseError, match="^statement field is not one token"):
        statement_to_line(stmt)
