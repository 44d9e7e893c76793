"""Command-line surface.

There is no network transport here: the "secure channel" is a pad file
handed over out-of-band, the "public channel" is standard output.  Exit
codes: 0 success, 2 usage / precondition error, out of memory or a number
too large, 3 data or corruption error, a closed standard input or output
among them.

The four statement commands stream: ``po-encode`` and ``facts-encode``
write each text block their encoder yields as it comes, and ``po-decode``
and ``facts-decode`` read their input in blocks of :data:`_READ_BLOCK`
bytes, decoded strictly as UTF-8 and split into lines in C, handing the
decoder a lazy iterator of the nonblank lines.
"""

from __future__ import annotations

import argparse
import codecs
import sys
from contextlib import nullcontext
from functools import cache, partial
from itertools import chain
from typing import Iterator, List, Optional

from . import analysis, codec, facts, private_object, reduction
from .bitstring import BitString, bits_from_text
from .codec import CorruptPadError
from .facts import ParseError
from .otp import decrypt, encrypt, keygen
from .padfile import MAX_BITS, PadFormatError, read_pad, write_pad
from .private_object import StatementParseError
from .rng import MASK64, RandomSource

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3


def _seed(text: str) -> int:
    value = int(text)  # argparse reports a non-integer itself
    if not 0 <= value <= MASK64:
        raise argparse.ArgumentTypeError(f"{value} outside 0..2**64-1")
    return value


def _bit_count(text: str) -> int:
    # The lower bound stays with the library, which words its own message.
    value = int(text)
    if value > MAX_BITS:
        raise argparse.ArgumentTypeError(
            f"{value} bits exceeds the OTPD limit of 2**64-1")
    return value


def _add_seed(p: argparse.ArgumentParser, default: Optional[int] = None) -> None:
    p.add_argument("--seed", type=_seed, required=default is None,
                   default=default, help="64-bit seed, 0..2**64-1")


def _message_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--in", dest="in_bits", metavar="BITS",
                       help="message as a string of 0/1 characters")
    group.add_argument("--text", help="message as text (8-bit character codes)")


def _message_bits(args: argparse.Namespace) -> BitString:
    if args.in_bits is not None:
        return BitString(args.in_bits)
    return bits_from_text(args.text)


def _cmd_keygen(args) -> int:
    write_pad(args.out, keygen(RandomSource(args.seed), args.bits))
    print(f"wrote {args.bits}-bit pad to {args.out}")
    return EXIT_OK


def _cmd_reduce_keygen(args) -> int:
    params = reduction.ReductionParams(args.message_bits, args.k)
    pad = reduction.generate_reduced_pad(params, RandomSource(args.seed))
    write_pad(args.out, pad)
    print(f"sampled length {pad.length}")
    print(f"wrote {pad.length}-bit pad to {args.out}")
    return EXIT_OK


def _cmd_encrypt(args, decrypting: bool = False) -> int:
    message = _message_bits(args)
    pad = read_pad(args.pad)
    if args.reduced:
        if args.message_bits is None or args.k is None:
            raise ValueError("--reduced requires --message-bits and --k")
        params = reduction.ReductionParams(args.message_bits, args.k)
        op = reduction.decrypt_reduced if decrypting else reduction.encrypt_reduced
        print(op(message, pad, params).to01())
        return EXIT_OK
    print((decrypt if decrypting else encrypt)(message, pad).to01())
    return EXIT_OK


def _cmd_pad_compress(args) -> int:
    bits = read_pad(getattr(args, "in"))
    write_pad(args.out, codec.compress_pad(bits))
    return EXIT_OK


def _cmd_pad_decompress(args) -> int:
    bits = read_pad(getattr(args, "in"))
    write_pad(args.out, codec.decompress_pad(bits, args.message_length))
    return EXIT_OK


def _cmd_po_encode(args) -> int:
    message = _message_bits(args)
    obj = private_object.PadObject(read_pad(args.pad))
    sys.stdout.writelines(private_object.encode_lines(message, obj))
    return EXIT_OK


# Bytes per read of a statement or string file: the most of it held at once.
_READ_BLOCK = 1 << 16


class _InputDecodeError(UnicodeDecodeError):
    """A block's UnicodeDecodeError moved to where its bytes sit in the
    whole input, so that it reads as decoding the input at once would;
    ``object`` keeps only the block's bytes, which start at ``offset``."""

    def __init__(self, exc: UnicodeDecodeError, offset: int) -> None:
        super().__init__(exc.encoding, exc.object, exc.start + offset,
                         exc.end + offset, exc.reason)
        self.offset = offset

    def __str__(self) -> str:  # UnicodeDecodeError's wording
        if self.end == self.start + 1:
            byte = self.object[self.start - self.offset]
            where = f"byte 0x{byte:02x} in position {self.start}"
        else:
            where = f"bytes in position {self.start}-{self.end - 1}"
        return f"'{self.encoding}' codec can't decode {where}: {self.reason}"


def _read_lines(path: Optional[str]) -> Iterator[str]:
    """The nonblank lines of the file at ``path``, or of stdin when it is
    None, read as they are taken."""
    return chain.from_iterable(_line_blocks(path))


def _line_blocks(path: Optional[str]) -> Iterator[Iterator[str]]:
    # Bytes, decoded strictly here: input that is not UTF-8 is a data error
    # from a file and from stdin alike, whatever the locale.  Each block's
    # lines are split by str.splitlines and filtered by str.strip, in C; a
    # line that a block edge cuts is carried as pieces, joined once it ends,
    # so a long line is not copied once per block.
    if path is None and sys.stdin is None:
        raise OSError("standard input is closed")
    decode = codecs.getincrementaldecoder("utf-8")().decode
    head, read = [], 0  # the pieces of a line that a block edge cut; bytes read
    with nullcontext(sys.stdin.buffer) if path is None else open(path, "rb") as fh:
        while True:
            data = fh.read(_READ_BLOCK)
            read += len(data)
            try:
                text = decode(data, final=not data)
            except UnicodeDecodeError as exc:  # exc.object ends at `read`
                raise _InputDecodeError(exc, read - len(exc.object)) from None
            if not data:
                yield filter(str.strip, ["".join(head)])
                return
            if not text:  # the block ends inside one character
                continue
            lines = text.splitlines()
            head.append(lines[0])
            # The last line runs into the next block unless a break ends text.
            ended = not (lines[-1] and text.endswith(lines[-1]))
            if len(lines) == 1 and not ended:
                continue
            lines[0] = "".join(head)
            head = [] if ended else [lines.pop()]
            yield filter(str.strip, lines)


def _cmd_po_decode(args) -> int:
    obj = private_object.PadObject(read_pad(args.pad))
    lines = _read_lines(getattr(args, "in"))
    print(private_object.decode_lines(lines, obj).to01())
    return EXIT_OK


def _cmd_facts_encode(args) -> int:
    src = RandomSource(args.seed)
    sys.stdout.writelines(facts.encode_lines(_message_bits(args), src,
                                             args.size_bound))
    return EXIT_OK


def _cmd_facts_decode(args) -> int:
    print(facts.decode_lines(_read_lines(getattr(args, "in"))).to01())
    return EXIT_OK


def _cmd_analyze(args) -> int:
    if args.check == "census":
        census = codec.codec_census(args.n)
        print("check=census")
        print(f"n={args.n}")
        for saving in sorted(census):
            print(f"pads_saving[{saving}]={census[saving]}")
        return EXIT_OK

    params = reduction.ReductionParams(args.n, args.k)
    if args.check == "exact":
        report = analysis.exhaustive_secrecy_check(params)
        print(report)
        return EXIT_OK if report.passed else 1

    if args.check == "eve":
        cfg = analysis.TrialConfig(params=params, trials=args.trials,
                                   seed=args.seed)
        rate = analysis.eve_guess_rate(cfg)
        print("check=eve")
        print(f"n={args.n}")
        print(f"k={args.k}")
        print(f"trials={args.trials}")
        print(f"guess_rate={rate:.6f}")
        print("expected=0.5")
        return EXIT_OK

    if args.check == "distinguish":
        m0 = BitString(args.m0) if args.m0 is not None else BitString.zeros(args.n)
        m1 = BitString(args.m1) if args.m1 is not None else BitString.ones(args.n)
        cfg = analysis.TrialConfig(params=params, trials=args.trials,
                                   seed=args.seed, m0=m0, m1=m1)
        report = analysis.distinguisher_test(cfg)
        print(report)
        return EXIT_OK if report.passed else 1

    # reduction
    cfg = analysis.TrialConfig(params=params, trials=args.trials, seed=args.seed)
    print(analysis.reduction_stats(cfg))
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing leaves the parser unchanged, and
    # building it costs more than most commands on small inputs.
    parser = argparse.ArgumentParser(
        prog="otplab",
        description="One-time-pad laboratory: pads, reduced pads, codecs, "
        "statement encodings and secrecy analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a pad file")
    p.add_argument("--bits", type=_bit_count, required=True)
    _add_seed(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("reduce-keygen",
                       help="generate a (possibly shorter) transmitted pad")
    p.add_argument("--message-bits", type=_bit_count, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_seed(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reduce_keygen)

    for name, decrypting in (("encrypt", False), ("decrypt", True)):
        p = sub.add_parser(name, help=f"{name} with a pad file")
        p.add_argument("--pad", required=True)
        _message_args(p)
        p.add_argument("--reduced", action="store_true",
                       help="complete a transmitted pad before the XOR")
        p.add_argument("--message-bits", type=int)
        p.add_argument("--k", type=int)
        p.set_defaults(func=partial(_cmd_encrypt, decrypting=decrypting))

    p = sub.add_parser("pad-compress", help="length-aware pad compression")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pad_compress)

    p = sub.add_parser("pad-decompress", help="restore a compressed pad")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--message-length", type=_bit_count, required=True)
    p.set_defaults(func=_cmd_pad_decompress)

    p = sub.add_parser("po-encode",
                       help="encode a message as statements about a pad")
    p.add_argument("--pad", required=True)
    _message_args(p)
    p.set_defaults(func=_cmd_po_encode)

    p = sub.add_parser("po-decode",
                       help="verify statement lines against a pad")
    p.add_argument("--pad", required=True)
    p.add_argument("--in", help="statement file (default: stdin)")
    p.set_defaults(func=_cmd_po_decode)

    p = sub.add_parser("facts-encode",
                       help="encode bits as strings of the formal system")
    _message_args(p)
    _add_seed(p)
    p.add_argument("--size-bound", type=int, default=24,
                   help=f"longest string, 6..{facts.MAX_SIZE_BOUND}")
    p.set_defaults(func=_cmd_facts_encode)

    p = sub.add_parser("facts-decode",
                       help="decode formal-system strings back to bits")
    p.add_argument("--in", help="string file, one per line (default: stdin)")
    p.set_defaults(func=_cmd_facts_decode)

    p = sub.add_parser("analyze", help="secrecy and reduction reports")
    p.add_argument("check",
                   choices=["exact", "eve", "distinguish", "reduction", "census"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--trials", type=int, default=100_000)
    _add_seed(p, default=2024)
    p.add_argument("--m0", help="first candidate message (distinguish)")
    p.add_argument("--m1", help="second candidate message (distinguish)")
    p.set_defaults(func=_cmd_analyze)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Only the commands with an --out file have a product other than
        # stdout.  With fd 1 closed at startup sys.stdout is None, and
        # print() would drop the output silently.
        if sys.stdout is None and not hasattr(args, "out"):
            raise OSError("standard output is closed")
        return args.func(args)
    except (PadFormatError, CorruptPadError, ParseError, StatementParseError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:
        print(f"error: number too large: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
