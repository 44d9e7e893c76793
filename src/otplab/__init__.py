"""otplab: a laboratory for one-time-pad protocols.

Classical XOR pads, protocols that transmit pads *shorter* than the message
without giving up perfect secrecy, a length-aware pad codec, encryption as
True/False statements about a shared private object, a toy formal-system
bit channel, and the exact-enumeration / statistical machinery that
verifies all of it.
"""

from .bitstring import BitString, bits_from_text, xor
from .rng import RandomSource, derive_child_seed
from .padfile import (
    PadFormatError,
    deserialize_pad,
    read_pad,
    serialize_pad,
    write_pad,
)
from .otp import decrypt, encrypt, keygen
from .reduction import (
    ReductionParams,
    allowed_tails,
    decrypt_reduced,
    effective_pad,
    encrypt_reduced,
    expected_reduction,
    generate_reduced_pad,
    max_k,
    reserved_pattern,
)
from .codec import CorruptPadError, codec_census, compress_pad, decompress_pad
from .private_object import (
    PadObject,
    PrivateObject,
    Statement,
    TableObject,
    encode_statements,
    verify_statements,
)
from .facts import (
    ParseError,
    PqString,
    decode_string,
    derive_oracle,
    encode_bit,
    is_theorem,
    parse_pq,
)
from .analysis import (
    ReductionStats,
    SecrecyReport,
    TrialConfig,
    distinguisher_test,
    eve_guess_rate,
    exhaustive_secrecy_check,
    reduction_stats,
)

__version__ = "0.1.0"

__all__ = [
    "BitString",
    "bits_from_text",
    "xor",
    "RandomSource",
    "derive_child_seed",
    "PadFormatError",
    "serialize_pad",
    "deserialize_pad",
    "read_pad",
    "write_pad",
    "keygen",
    "encrypt",
    "decrypt",
    "ReductionParams",
    "max_k",
    "expected_reduction",
    "reserved_pattern",
    "allowed_tails",
    "generate_reduced_pad",
    "effective_pad",
    "encrypt_reduced",
    "decrypt_reduced",
    "CorruptPadError",
    "compress_pad",
    "decompress_pad",
    "codec_census",
    "PrivateObject",
    "PadObject",
    "TableObject",
    "Statement",
    "encode_statements",
    "verify_statements",
    "ParseError",
    "PqString",
    "parse_pq",
    "is_theorem",
    "derive_oracle",
    "encode_bit",
    "decode_string",
    "TrialConfig",
    "SecrecyReport",
    "ReductionStats",
    "exhaustive_secrecy_check",
    "eve_guess_rate",
    "distinguisher_test",
    "reduction_stats",
]
