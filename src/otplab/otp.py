"""Classical one-time-pad encryption: keygen, XOR encrypt, XOR decrypt.

A pad is a plain :class:`~otplab.bitstring.BitString` of secret bits.
"One-time" is how a pad is used, not something the value can hold: the
caller is responsible for using each pad once.
"""

from __future__ import annotations

from .bitstring import BitString, xor
from .rng import RandomSource


def keygen(src: RandomSource, n: int) -> BitString:
    """Generate a fresh n-bit pad (n >= 1) from the given source."""
    if n < 1:
        raise ValueError("pad length must be >= 1")
    return src.bits(n)


def encrypt(message: BitString, pad: BitString) -> BitString:
    """XOR the message with the pad."""
    if message.length != pad.length:
        raise ValueError(
            f"message is {message.length} bits but pad is {pad.length}"
        )
    return xor(message, pad)


def decrypt(ciphertext: BitString, pad: BitString) -> BitString:
    """XOR the ciphertext with the pad."""
    if ciphertext.length != pad.length:
        raise ValueError(
            f"ciphertext is {ciphertext.length} bits but pad is {pad.length}"
        )
    return xor(ciphertext, pad)
