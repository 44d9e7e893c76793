"""The three workloads: inputs made from the seed, job lists and oracles.

A workload sends jobs from one client in a closed loop: each job is one
``otplab.cli.main(argv)`` call (or, for the library-path distinguisher, one
``analysis.distinguisher_test`` call) and the next is sent only when it has
returned.  Every output is checked against an oracle computed here, from the
benchmark's own SplitMix64, OTPD and pad-completion code, never from the
package under test.  Oracles are computed outside the timed calls and cached,
because every pass repeats the same job list; long expected outputs are
kept as SHA-256 digests, so that the process's peak memory is the program's
plus its inputs.

While it runs, the runner times a fixed piece of pure-Python work, the
*reference unit*, which never calls ``otplab``, every :data:`REF_EVERY_S` of
wall time, also in the middle of a job, from a ``SIGALRM`` handler.  The
host's speed drifts by tens of percent within a minute; the reference samples
show by how much, so that ``run.py`` can express job times at a fixed nominal
host speed.  The time spent in samples is taken out of the job it fell in.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import re
import signal
import traceback
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Optional

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


# -- oracle building blocks ------------------------------------------------

class Stream:
    """SplitMix64 with the pinned draw discipline: ``bits(n)`` takes
    ``ceil(n / 64)`` words, concatenated MSB-first, truncated to ``n`` bits."""

    def __init__(self, seed: int) -> None:
        self.state = seed & MASK64

    def bits(self, n: int) -> int:
        if n == 0:
            return 0
        nwords = (n + 63) // 64
        out = bytearray()
        state = self.state
        for _ in range(nwords):
            state = (state + _GAMMA) & MASK64
            z = ((state ^ (state >> 30)) * _MIX1) & MASK64
            z = ((z ^ (z >> 27)) * _MIX2) & MASK64
            out += (z ^ (z >> 31)).to_bytes(8, "big")
        self.state = state
        return int.from_bytes(out, "big") >> (64 * nwords - n)


def otpd(value: int, length: int) -> bytes:
    """OTPD container bytes for a ``length``-bit string."""
    nbytes = (length + 7) // 8
    packed = value << (8 * nbytes - length)
    return b"OTPD" + length.to_bytes(8, "big") + packed.to_bytes(nbytes, "big")


def text(value: int, length: int) -> str:
    return format(value, f"0{length}b") if length else ""


def reference_unit() -> int:
    """Fixed pure-Python work the host's speed is measured by: SplitMix64
    words as big integers, their bit text, one loop step per bit and a small
    dict of strings, the same kinds of work ``otplab`` does."""
    n = 64 * 40
    bits = text(Stream(REF_SEED).bits(n), n)
    acc = 0
    for ch in bits:
        acc = (acc * 31 + (ch == "1")) & MASK64
    names = {i: str(i) for i in range(512)}
    return acc ^ len("".join(names.values()))


REF_SEED = 0x5EED
# Interval of the host samples: a unit takes about 0.7 ms, so sampling costs
# about 1.5 % of the run, and a job of a few seconds holds dozens of samples.
REF_EVERY_S = 0.05


def reduced_pad(seed: int, n: int, k: int):
    """(value, length) of the transmitted pad the reduction protocol draws."""
    src = Stream(seed)
    coin = src.bits(k)
    if coin < k:
        length = n - (coin + 1)
        return src.bits(length), length
    head = src.bits(n - k)
    mask = (1 << k) - 1
    reserved = {(n - i) & mask for i in range(1, k + 1)}
    tails = [v for v in range(1 << k) if v not in reserved]
    return (head << k) | tails[coin - k], n


def completed_pad(value: int, length: int, n: int, k: int) -> int:
    """The n-bit pad both ends derive from a transmitted pad."""
    if length == n:
        return value
    # P_i, the tail of a pad sent i = n - length bits short, is (n - i) mod 2**k.
    head = value >> (length - (n - k))
    return (head << k) | (length & ((1 << k) - 1))


def spread_lengths(rng: random.Random, lo: int, hi: int, strata: int):
    """``2 * strata`` lengths, log-uniform over ``[lo, hi]``.

    One antithetic pair (u, 1 - u) per equal-width stratum of log-length, so
    that a pass costs nearly the same for every seed even where the cost of a
    job grows faster than its length.
    """
    span = math.log(hi / lo)
    lengths = []
    for i in range(strata):
        u = rng.random()
        for v in (u, 1.0 - u):
            lengths.append(round(lo * math.exp(span * (i + v) / strata)))
    rng.shuffle(lengths)
    return lengths


def _expect(out: str, expected: str):
    if out == expected:
        return None
    at = next((i for i, (a, b) in enumerate(zip(out, expected)) if a != b),
              min(len(out), len(expected)))
    return (f"output differs from oracle at char {at} "
            f"({len(out)} chars, expected {len(expected)})")


def digest(data) -> bytes:
    """SHA-256 of text or bytes: what the oracles keep of long outputs."""
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).digest()


def _expect_digest(out: str, expected: bytes):
    if digest(out) == expected:
        return None
    return f"output ({len(out)} chars) differs from oracle (SHA-256 mismatch)"


def _keyvals(out: str):
    pairs = [line.split("=", 1) for line in out.splitlines()]
    if any(len(p) != 2 for p in pairs):
        return None
    return pairs


# -- the runner ------------------------------------------------------------

@dataclass(slots=True)
class Job:
    """One completed job: what ran, how long it took and whether it was right."""

    kind: str
    start: float  # perf_counter() when the job was sent
    group: Optional[str]  # jobs whose amounts add up to a throughput
    amount: int  # message bits or trials the job carries for its group
    seconds: float  # without the host samples that fell in the job
    sampled: float  # time of those host samples
    out_bytes: int
    error: Optional[str]


class Runner:
    """Runs jobs one at a time, times them and checks each one.

    ``ns`` holds the imported ``otplab`` modules; ``tracer``, when set, puts
    each job under a root span.  With ``corrupt`` set, the last line of the
    first measured job's output (a CLI job in every workload) is dropped
    before its check, to show that a wrong output is caught.  ``refs`` holds
    (start, seconds) of every reference unit timed while :meth:`sampling`.
    """

    def __init__(self, corrupt: bool = False) -> None:
        self.ns = None
        self.tracer = None
        self.jobs = []
        self.refs = []
        self.warm = True
        self.corrupt = corrupt

    def _sample(self, _signum, _frame) -> None:
        t0 = perf_counter()
        reference_unit()
        self.refs.append((t0, perf_counter() - t0))

    @contextlib.contextmanager
    def sampling(self):
        """Time a reference unit every :data:`REF_EVERY_S` inside the block."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn):
        """Run ``fn()``; return its result, start time, seconds without the
        host samples taken meanwhile, and the time of those samples."""
        first = len(self.refs)
        t0 = perf_counter()
        result = fn()
        t1 = perf_counter()
        sampled = sum(d for t, d in self.refs[first:] if t0 <= t < t1)
        return result, t0, t1 - t0 - sampled, sampled

    def _timed(self, fn):
        if self.tracer is None:
            return self.timed(fn)
        job = len(self.jobs)
        return self.timed(lambda: self.tracer.run_job(job, fn))

    def _finish(self, kind, group, amount, timing, out, error, check):
        if self.corrupt and not self.warm:
            self.corrupt = False
            out = "".join(out.splitlines(keepends=True)[:-1])
        if error is None:
            try:
                error = check(out)
            except Exception:  # a malformed output must count, not crash
                error = "oracle raised: " + traceback.format_exc(limit=1)
        start, seconds, sampled = timing
        self.jobs.append(Job(kind, start, group, amount, seconds, sampled, len(out),
                             error))
        return out

    def cli(self, kind, argv, check, group=None, amount=0) -> str:
        """Run ``otplab`` with ``argv``; the check sees stdout when exit is 0."""
        out, err = io.StringIO(), io.StringIO()
        main = self.ns.cli.main

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    return main(argv)
                except SystemExit as exc:  # argparse usage errors
                    return exc.code
                except Exception:  # a crash fails this job, not the run
                    traceback.print_exc(limit=2, file=err)
                    return "crash"

        rc, *timing = self._timed(call)
        error = None
        if rc != 0:
            error = f"exit {rc}: {err.getvalue().strip()[-300:]}"
        return self._finish(kind, group, amount, timing, out.getvalue(), error, check)

    def library(self, kind, fn, check) -> None:
        """Run a library call; the check sees its return value."""
        box = {}

        def call():
            try:
                box["value"] = fn()
            except Exception:
                box["error"] = traceback.format_exc(limit=2)

        _, *timing = self._timed(call)
        self._finish(kind, None, 0, timing, "", box.get("error"),
                     lambda _out: check(box.get("value")))


# -- verify: the statistical and exact checks ------------------------------

class Verify:
    """Kernel-bound Monte-Carlo and exact checks; almost all time is in
    ``_kernels``.  The library-path distinguisher runs the pad generator once
    per trial through ``reduction``/``rng``/``bitstring``."""

    KERNEL_BOUND = True  # the traced run checks that most time is in _kernels

    # (check, n, k, trials); census has no k or trials.
    CLI_JOBS = [
        ("distinguish", 8, 1, 1_000_000),
        ("distinguish", 12, 3, 200_000),
        ("eve", 10, 3, 200_000),
        ("reduction", 12, 4, 500_000),
        ("census", 20, None, None),
    ] + [("exact", n, k, None) for n in range(2, 5) for k in range(1, 3)
         if n >= k + (1 << (k - 1))]
    LIBRARY_JOBS = [(8, 1, 25_000), (12, 3, 25_000)]
    WARMUP_CLI = [("distinguish", 8, 1, 2_000), ("eve", 10, 3, 2_000),
                  ("reduction", 12, 4, 2_000), ("census", 8, None, None),
                  ("exact", 2, 1, None)]
    WARMUP_LIBRARY = [(8, 1, 200)]

    def __init__(self, seed: int, workdir, ns) -> None:
        rng = random.Random(seed)
        self.ns = ns
        self.cli_jobs = [job + (rng.getrandbits(64),) for job in self.CLI_JOBS]
        self.library_jobs = [job + (rng.getrandbits(64),)
                             for job in self.LIBRARY_JOBS]
        self.warm_cli = [job + (rng.getrandbits(64),) for job in self.WARMUP_CLI]
        self.warm_library = [job + (rng.getrandbits(64),)
                             for job in self.WARMUP_LIBRARY]

    def describe(self):
        return {
            "cli": [{"check": c, "n": n, "k": k, "trials": t}
                    for c, n, k, t, _ in self.cli_jobs],
            "library_distinguisher": [{"n": n, "k": k, "trials": t}
                                      for n, k, t, _ in self.library_jobs],
        }

    def warmup(self, run: Runner) -> None:
        self._jobs(run, self.warm_cli, self.warm_library)

    def run_pass(self, run: Runner) -> None:
        self._jobs(run, self.cli_jobs, self.library_jobs)

    def _jobs(self, run, cli_jobs, library_jobs):
        for check, n, k, trials, seed in cli_jobs:
            argv = ["analyze", check, "--n", str(n), "--seed", str(seed)]
            if k is not None:
                argv += ["--k", str(k)]
            if trials is not None:
                argv += ["--trials", str(trials)]
            group = "trials" if trials is not None else None
            run.cli(f"analyze {check}", argv,
                    lambda out, c=check, n=n, k=k, t=trials:
                        self._check(c, n, k, t, out),
                    group=group, amount=trials or 0)
        ns = self.ns
        for n, k, trials, seed in library_jobs:
            def call(n=n, k=k, trials=trials, seed=seed):
                cfg = ns.analysis.TrialConfig(
                    params=ns.reduction.ReductionParams(n, k), trials=trials,
                    seed=seed, m0=ns.bitstring.BitString.zeros(n),
                    m1=ns.bitstring.BitString.ones(n))
                return ns.analysis.distinguisher_test(
                    cfg, generator=ns.reduction.generate_reduced_pad)
            run.library("library distinguish", call,
                        lambda rep, n=n, t=trials: self._check_library(rep, n, t))

    @staticmethod
    def _check_library(report, n, trials):
        if not report.passed:
            return f"library distinguisher FAIL: tv={report.deviation}"
        h0, h1 = report.counts
        if report.trials != trials or sum(h0) != trials or sum(h1) != trials:
            return "library distinguisher histograms do not add up to trials"
        if len(h0) != 1 << n or len(h1) != 1 << n:
            return "library distinguisher histogram has the wrong size"
        return None

    @staticmethod
    def _check(check, n, k, trials, out):
        if check == "census":
            lines = ["check=census", f"n={n}", "pads_saving[0]=1"]
            lines += [f"pads_saving[{s}]={2 ** (n - s)}" for s in range(1, n + 1)]
            return _expect(out, "\n".join(lines) + "\n")
        if check == "exact":
            lines = ["mode=exact", f"n={n}", f"k={k}", "max_deviation=0",
                     "threshold=0", "result=PASS"]
            lines += [f"p[{v:0{n}b}]={Fraction(1, 1 << n)}" for v in range(1 << n)]
            return _expect(out, "\n".join(lines) + "\n")
        pairs = _keyvals(out)
        if pairs is None:
            return "report line without '='"
        keys = [key for key, _ in pairs]
        kv = dict(pairs)
        if check == "distinguish":
            want = ["mode", "n", "k", "trials", "tv_distance", "threshold", "result"]
            if keys != want:
                return f"report keys {keys}, expected {want}"
            threshold = 3.0 * math.sqrt((1 << n) / trials)
            if (kv["mode"], kv["n"], kv["k"], kv["trials"], kv["threshold"]) != (
                    "statistical", str(n), str(k), str(trials), f"{threshold:.6f}"):
                return "report header does not match the job"
            if kv["result"] != "PASS" or not float(kv["tv_distance"]) < threshold:
                return f"distinguisher FAIL: tv={kv['tv_distance']}"
            return None
        if check == "eve":
            want = ["check", "n", "k", "trials", "guess_rate", "expected"]
            if keys != want:
                return f"report keys {keys}, expected {want}"
            if (kv["check"], kv["n"], kv["k"], kv["trials"], kv["expected"]) != (
                    "eve", str(n), str(k), str(trials), "0.5"):
                return "report header does not match the job"
            # Each of the trials * k guessed bits is right with probability 1/2.
            tol = 6 * math.sqrt(0.25 / (trials * k)) + 1e-6
            if abs(float(kv["guess_rate"]) - 0.5) > tol:
                return f"guess rate {kv['guess_rate']} is not 1/2"
            return None
        # reduction
        lengths = list(range(n, n - k - 1, -1))
        want = (["check", "n", "k", "trials", "mean_saving", "expected_saving"]
                + [f"freq[{length}]" for length in lengths])
        if keys != want:
            return f"report keys {keys}, expected {want}"
        expected_saving = Fraction(k * (k + 1), 1 << (k + 1))
        if (kv["check"], kv["n"], kv["k"], kv["trials"], kv["expected_saving"]) != (
                "reduction", str(n), str(k), str(trials), str(expected_saving)):
            return "report header does not match the job"
        total = 0.0
        for length in lengths:
            p = (Fraction((1 << k) - k, 1 << k) if length == n
                 else Fraction(1, 1 << k))
            freq, _, note = kv[f"freq[{length}]"].partition(" ")
            if note != f"(expected {p})":
                return f"freq[{length}] states the wrong expectation"
            tol = 6 * math.sqrt(float(p * (1 - p)) / trials) + 1e-6
            if abs(float(freq) - float(p)) > tol:
                return f"freq[{length}]={freq} is far from {p}"
            total += float(freq)
        # Printed to 6 decimals, so each frequency carries at most 5e-7 error.
        if abs(total - 1.0) > (k + 1) * 5e-7 + 1e-12:
            return f"length frequencies add up to {total}, not 1"
        mean_sq = Fraction(sum(i * i for i in range(1, k + 1)), 1 << k)
        sd = math.sqrt(float(mean_sq - expected_saving ** 2) / trials)
        if abs(float(kv["mean_saving"]) - float(expected_saving)) > 6 * sd + 1e-6:
            return f"mean saving {kv['mean_saving']} is far from {expected_saving}"
        return None


# -- pad_io: the classical, compressed and reduced pad round trips ---------

class PadIO:
    """Chains keygen -> encrypt -> decrypt -> pad-compress -> pad-decompress
    -> reduce-keygen -> encrypt --reduced over messages of 1 kbit .. 1 Mbit.
    The work is bulk ``rng.bits``, OTPD writes and reads, and bulk BitString
    parse/XOR/``to01``; no kernel is called."""

    KERNEL_BOUND = False  # the traced run checks that no kernel runs

    LO, HI, STRATA, K = 1_000, 1_000_000, 16, 3

    def __init__(self, seed: int, workdir, ns) -> None:
        rng = random.Random(seed)
        self.workdir = workdir
        self.chains = [
            {"bits": n, "message": text(rng.getrandbits(n), n),
             "pad_seed": rng.getrandbits(64), "reduce_seed": rng.getrandbits(64)}
            for n in spread_lengths(rng, self.LO, self.HI, self.STRATA)
        ]
        self.warm_chain = {"bits": 1000, "message": text(rng.getrandbits(1000), 1000),
                           "pad_seed": rng.getrandbits(64),
                           "reduce_seed": rng.getrandbits(64)}

    def describe(self):
        return {"message_bits": [c["bits"] for c in self.chains], "k": self.K}

    def warmup(self, run: Runner) -> None:
        self._chain(run, self.warm_chain)

    def run_pass(self, run: Runner) -> None:
        for chain in self.chains:
            self._chain(run, chain)

    def _oracle(self, chain):
        if "pad" not in chain:
            n, k = chain["bits"], self.K
            pad = Stream(chain["pad_seed"]).bits(n)
            m = int(chain["message"], 2)
            if pad == 0:
                compressed = (0, n)
            else:
                drop = (pad & -pad).bit_length()
                compressed = (pad >> drop, n - drop)
            rvalue, rlength = reduced_pad(chain["reduce_seed"], n, k)
            chain.update(
                pad=digest(otpd(pad, n)),
                cipher=digest(text(m ^ pad, n) + "\n"),
                compressed=digest(otpd(*compressed)),
                reduced=digest(otpd(rvalue, rlength)),
                reduced_length=rlength,
                reduced_cipher=digest(
                    text(m ^ completed_pad(rvalue, rlength, n, k), n) + "\n"),
            )
        return chain

    def _chain(self, run: Runner, chain) -> None:
        n, m, k = chain["bits"], chain["message"], self.K
        bits, d = str(n), self.workdir
        pad, comp, back, short = (str(d / f) for f in
                                  ("pad.otpd", "pad.c.otpd", "pad.d.otpd", "pad.r.otpd"))
        o = self._oracle(chain)

        def file_is(path, expected, out, printed=""):
            with open(path, "rb") as fh:
                if digest(fh.read()) != expected:
                    return f"{path} differs from the oracle pad"
            return _expect(out, printed)

        run.cli("keygen", ["keygen", "--bits", bits, "--seed", str(chain["pad_seed"]),
                           "--out", pad],
                lambda out: file_is(pad, o["pad"], out,
                                    f"wrote {n}-bit pad to {pad}\n"),
                group="pad", amount=n)
        cipher = run.cli("encrypt", ["encrypt", "--pad", pad, "--in", m],
                         lambda out: _expect_digest(out, o["cipher"]), group="pad")
        run.cli("decrypt", ["decrypt", "--pad", pad, "--in", cipher.strip()],
                lambda out: _expect(out, m + "\n"), group="pad")
        run.cli("pad-compress", ["pad-compress", "--in", pad, "--out", comp],
                lambda out: file_is(comp, o["compressed"], out), group="pad")
        run.cli("pad-decompress", ["pad-decompress", "--in", comp, "--out", back,
                                   "--message-length", bits],
                lambda out: file_is(back, o["pad"], out), group="pad")
        length = o["reduced_length"]
        run.cli("reduce-keygen", ["reduce-keygen", "--message-bits", bits, "--k", str(k),
                                  "--seed", str(chain["reduce_seed"]), "--out", short],
                lambda out: file_is(short, o["reduced"], out,
                                    f"sampled length {length}\n"
                                    f"wrote {length}-bit pad to {short}\n"),
                group="pad")
        run.cli("encrypt --reduced", ["encrypt", "--pad", short, "--in", m, "--reduced",
                                      "--message-bits", bits, "--k", str(k)],
                lambda out: _expect_digest(out, o["reduced_cipher"]), group="pad")


# -- statements: the private-object and pq-system channels -----------------

_PQ = re.compile(r"(-+)p(-+)q(-+)")


class Statements:
    """``po-encode``/``po-decode`` round trips over 1 .. 40 kbit and
    ``facts-encode``/``facts-decode`` over 1 .. 20 kbit.  The work is per bit:
    BitString indexing and iteration, ``private_object``, ``facts``, many
    small ``rng.randbelow`` draws and line-oriented CLI I/O; no kernel."""

    KERNEL_BOUND = False  # the traced run checks that no kernel runs

    PO_LO, PO_HI, PO_STRATA = 1_000, 40_000, 6
    FACTS_LO, FACTS_HI, FACTS_STRATA = 1_000, 20_000, 6
    SIZE_BOUND = 24

    def __init__(self, seed: int, workdir, ns) -> None:
        rng = random.Random(seed)
        self.workdir = workdir
        jobs = [("po", n) for n in spread_lengths(rng, self.PO_LO, self.PO_HI,
                                                  self.PO_STRATA)]
        jobs += [("facts", n) for n in spread_lengths(rng, self.FACTS_LO,
                                                      self.FACTS_HI,
                                                      self.FACTS_STRATA)]
        rng.shuffle(jobs)
        self.jobs = [self._job(rng, i, kind, n) for i, (kind, n) in enumerate(jobs)]
        self.warm = [self._job(rng, len(jobs), "po", 1000),
                     self._job(rng, len(jobs) + 1, "facts", 1000)]
        # The shared pads are inputs: written once, by the benchmark's own
        # OTPD writer, from its own SplitMix64 stream.
        for job in self.jobs + self.warm:
            if job["kind"] == "po":
                pad = Stream(job["seed"]).bits(job["bits"])
                job["pad_value"] = pad
                with open(job["pad"], "wb") as fh:
                    fh.write(otpd(pad, job["bits"]))

    def _job(self, rng, i, kind, n):
        return {"kind": kind, "bits": n, "message": text(rng.getrandbits(n), n),
                "seed": rng.getrandbits(64), "pad": str(self.workdir / f"po-{i}.otpd"),
                "lines": str(self.workdir / f"{kind}-{i}.txt")}

    def describe(self):
        return {"po_message_bits": [j["bits"] for j in self.jobs if j["kind"] == "po"],
                "facts_message_bits": [j["bits"] for j in self.jobs
                                       if j["kind"] == "facts"],
                "size_bound": self.SIZE_BOUND}

    def warmup(self, run: Runner) -> None:
        for job in self.warm:
            self._run(run, job)

    def run_pass(self, run: Runner) -> None:
        for job in self.jobs:
            self._run(run, job)

    def _run(self, run: Runner, job) -> None:
        n, m = job["bits"], job["message"]
        if job["kind"] == "po":
            if "statements" not in job:
                claims = text(int(m, 2) ^ job["pad_value"], n)
                job["statements"] = digest("".join(
                    f"{j} {c} bit {j} of the OTP is {c}\n"
                    for j, c in enumerate(claims, start=1)))
            out = run.cli("po-encode", ["po-encode", "--pad", job["pad"], "--in", m],
                          lambda out: _expect_digest(out, job["statements"]),
                          group="stmt", amount=n)
            _write(job["lines"], out)
            run.cli("po-decode", ["po-decode", "--pad", job["pad"], "--in", job["lines"]],
                    lambda out: _expect(out, m + "\n"), group="stmt")
            return
        out = run.cli("facts-encode", ["facts-encode", "--seed", str(job["seed"]),
                                       "--size-bound", str(self.SIZE_BOUND), "--in", m],
                      lambda out: self._check_facts(out, m),
                      group="facts", amount=n)
        _write(job["lines"], out)
        run.cli("facts-decode", ["facts-decode", "--in", job["lines"]],
                lambda out: _expect(out, m + "\n"), group="facts")

    def _check_facts(self, out: str, m: str):
        lines = out.splitlines()
        if len(lines) != len(m):
            return f"{len(lines)} strings for {len(m)} bits"
        for j, (line, bit) in enumerate(zip(lines, m)):
            match = _PQ.fullmatch(line)
            if match is None or len(line) > self.SIZE_BOUND:
                return f"string {j} is not a well-formed string within the bound"
            x, y, z = (len(g) for g in match.groups())
            if (x + y == z) != (bit == "0"):
                return f"string {j} carries the wrong bit"
        return None


def _write(path: str, data: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(data)


WORKLOADS = {"verify": Verify, "pad_io": PadIO, "statements": Statements}
