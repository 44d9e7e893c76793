from hypothesis import strategies as st

from otplab.bitstring import BitString
from otplab.private_object import TableObject
from otplab.reduction import generate_reduced_pad, reserved_pattern


# Statement lines that must not parse: statement_to_line writes an unsigned
# ASCII decimal index without leading zeros and a claimed value of exactly 0
# or 1.  int() alone would accept several of these (1_0 as feature 10).
MALFORMED_STATEMENT_LINES = (
    "", "7", "x 1", "7 2", "0 1", "7 x",
    "1_0 1", "+3 1", "-3 1", "\u0663 1", "2 +1", "2 01",
    "2 \u0661", "07 1", "9" * 5000 + " 1",
)


@st.composite
def bitstrings(draw, min_len=0, max_len=128):
    n = draw(st.integers(min_value=min_len, max_value=max_len))
    value = draw(st.integers(min_value=0, max_value=(1 << n) - 1)) if n else 0
    return BitString.from_int(value, n)


@st.composite
def equal_length_pairs(draw, min_len=0, max_len=128):
    n = draw(st.integers(min_value=min_len, max_value=max_len))
    top = (1 << n) - 1 if n else 0
    a = draw(st.integers(min_value=0, max_value=top))
    b = draw(st.integers(min_value=0, max_value=top))
    return BitString.from_int(a, n), BitString.from_int(b, n)


def reserved_tail_mutant(params, src):
    """Protocol with the full-length tail rule deliberately mis-set: the
    forced tail collides with the first reserved pattern."""
    pad = generate_reduced_pad(params, src)
    if pad.length == params.n:
        return pad[: params.n - params.k] + reserved_pattern(params, 1)
    return pad


def demo_object():
    """A small fictional creature with eight independent yes/no features."""
    return TableObject(
        [
            ("the creature has three eyes", 1),
            ("the creature has two hands", 1),
            ("the creature has four legs", 0),
            ("the creature has five legs", 1),
            ("the creature has a tail", 0),
            ("the creature has wings", 1),
            ("the creature has horns", 0),
            ("the creature has fur", 0),
        ]
    )
