from hypothesis import strategies as st

from otplab.bitstring import BitString
from otplab.reduction import generate_reduced_pad, reserved_pattern


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
