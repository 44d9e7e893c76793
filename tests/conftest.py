import functools

from hypothesis import strategies as st

from otplab.bitstring import BitString
from otplab.private_object import TableObject
from otplab.reduction import allowed_tails, generate_reduced_pad, reserved_pattern
from otplab.rng import splitmix64_next


# Statement lines that must not parse: statement_to_line writes an unsigned
# ASCII decimal index without leading zeros and a claimed value of exactly 0
# or 1.  int() alone would accept several of these (1_0 as feature 10).
MALFORMED_STATEMENT_LINES = (
    "", "7", "x 1", "7 2", "0 1", "7 x",
    "1_0 1", "+3 1", "-3 1", "\u0663 1", "2 +1", "2 01",
    "2 \u0661", "07 1", "9" * 5000 + " 1",
)


def scalar_bits(state, n):
    """Reference ``bits(n)`` from SplitMix64 ``state``: one
    ``splitmix64_next`` call per word, MSB-first, truncated to ``n`` bits.
    Returns ``(value, next_state)``."""
    nwords = (n + 63) // 64
    acc = 0
    for _ in range(nwords):
        word, state = splitmix64_next(state)
        acc = (acc << 64) | word
    return acc >> (64 * nwords - n), state


def scalar_randbelow(state, n):
    """Reference ``randbelow(n)``: one :func:`scalar_bits` draw of
    ``(n - 1).bit_length()`` bits per attempt.  Returns ``(value,
    next_state)``."""
    nbits = (n - 1).bit_length()
    while nbits:  # n == 1 draws nothing
        value, state = scalar_bits(state, nbits)
        if value < n:
            return value, state
    return 0, state


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
        return BitString(pad[: params.n - params.k].to01()
                         + reserved_pattern(params, 1).to01())
    return pad


def _full_length_mutant(full_value):
    """Generator that draws like generate_reduced_pad, except that a
    full-length pad's value is ``full_value(params, src, t)`` for coin t."""
    @functools.wraps(full_value)
    def generate(params, src):
        t = src.bits(params.k).value
        if t < params.k:
            return src.bits(params.n - (t + 1))
        return BitString.from_int(full_value(params, src, t), params.n)
    return generate


@_full_length_mutant
def clamped_tail_mutant(params, src, t):
    """Off-by-one tail index clamped at 0: ``allowed[max(t - k - 1, 0)]``.
    The last allowed tail never occurs once there are two of them."""
    head = src.bits(params.n - params.k).value
    return head << params.k | allowed_tails(params)[max(t - params.k - 1, 0)]


@_full_length_mutant
def wrapped_tail_mutant(params, src, t):
    """Off-by-one tail index that wraps: ``allowed[t - k - 1]`` is still a
    permutation of the allowed tails, so this mutant is equivalent."""
    head = src.bits(params.n - params.k).value
    return head << params.k | allowed_tails(params)[t - params.k - 1]


@_full_length_mutant
def coin_head_mutant(params, src, t):
    """The coin reused as a full-length pad's head instead of fresh bits."""
    return t << params.k | allowed_tails(params)[t - params.k]


def last_bits_completion_mutant(pad, params):
    """``completed_value`` keeping a short pad's *last* n - k bits instead of
    its first.  Every bit of a short pad is uniform, so this mutant is
    equivalent: no check on the completed pad can reject it."""
    n, k = params.n, params.k
    if pad.length == n:
        return pad.value
    head = pad.value & ((1 << (n - k)) - 1)
    return head << k | reserved_pattern(params, n - pad.length).value


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
