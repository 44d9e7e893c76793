"""Span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of the ``otplab`` modules from
outside: nothing in the package is edited.  Several modules bind names at
import (``from .padfile import read_pad``, ``from ._kernels import
census_counts``, ...), so :meth:`Tracer.install` replaces a function in every
``otplab`` module namespace that holds it, not only where it is defined.

Each call of a wrapped function records one span: name, start, end, parent
span and job id, plus an input size used for the scaling fits.  Spans live in
flat arrays in memory and are written out once, when the run ends.  A span's
self time is its duration minus the part its children cover; calls are
single-threaded and properly nested, so the children cover exactly the sum of
their durations.

The scaling exponents come from a tracer that wraps only the fitted functions
(:data:`FIT_SPANS`), so that their times carry no tracing cost of callees.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# SplitMix64 advances its state by this odd constant per word, so the number
# of words a draw consumed is (state delta) * GAMMA^-1 mod 2**64.
_GAMMA = 0x9E3779B97F4A7C15
_GAMMA_INV = pow(_GAMMA, -1, 1 << 64)
_MASK64 = (1 << 64) - 1

# Scaling fits use calls with at least this many input bits, so that the
# fixed per-call cost does not flatten the curve.
FIT_MIN_BITS = 1024


# Input size, in bits (or trials), recorded with a span: (args, kwargs, result).
# distinguisher_test counts only library-path trials (a generator is passed);
# the kernel path is counted by _kernels.
SIZES = {
    "padfile.read_pad": lambda a, kw, r: r.length,
    "padfile.write_pad": lambda a, kw, r: a[1].length,
    "private_object.encode_statements": lambda a, kw, r: a[0].length,
    "private_object.verify_statements": lambda a, kw, r: r.length,
    "_kernels.distinguisher_counts": lambda a, kw, r: a[-1],
    "_kernels.eve_guess_correct": lambda a, kw, r: a[-1],
    "_kernels.reduction_length_counts": lambda a, kw, r: a[-1],
    "analysis.distinguisher_test": lambda a, kw, r: a[0].trials if kw.get("generator") else 0,
}


# Span name -> (module, attribute path).  The module names are the layers.
TRACED = {
    "_kernels.distinguisher_counts": ("_kernels", "distinguisher_counts"),
    "_kernels.eve_guess_correct": ("_kernels", "eve_guess_correct"),
    "_kernels.reduction_length_counts": ("_kernels", "reduction_length_counts"),
    "_kernels.census_counts": ("_kernels", "census_counts"),
    "analysis.distinguisher_test": ("analysis", "distinguisher_test"),
    "analysis.eve_guess_rate": ("analysis", "eve_guess_rate"),
    "analysis.reduction_stats": ("analysis", "reduction_stats"),
    "analysis.exhaustive_secrecy_check": ("analysis", "exhaustive_secrecy_check"),
    "analysis.secrecy_report_lines": ("analysis", "SecrecyReport.to_lines"),
    "analysis.reduction_stats_lines": ("analysis", "ReductionStats.to_lines"),
    "rng.bits": ("rng", "RandomSource.bits"),
    "rng.randbelow": ("rng", "RandomSource.randbelow"),
    "bitstring.init": ("bitstring", "BitString.__init__"),
    "bitstring.getitem": ("bitstring", "BitString.__getitem__"),
    "bitstring.xor": ("bitstring", "xor"),
    "bitstring.to01": ("bitstring", "BitString.to01"),
    "bitstring.bits_from_text": ("bitstring", "bits_from_text"),
    "padfile.write_pad": ("padfile", "write_pad"),
    "padfile.read_pad": ("padfile", "read_pad"),
    "otp.keygen": ("otp", "keygen"),
    "otp.encrypt": ("otp", "encrypt"),
    "otp.decrypt": ("otp", "decrypt"),
    "reduction.generate_reduced_pad": ("reduction", "generate_reduced_pad"),
    "reduction.effective_pad": ("reduction", "effective_pad"),
    "reduction.encrypt_reduced": ("reduction", "encrypt_reduced"),
    "reduction.decrypt_reduced": ("reduction", "decrypt_reduced"),
    "codec.compress_pad": ("codec", "compress_pad"),
    "codec.decompress_pad": ("codec", "decompress_pad"),
    "codec.codec_census": ("codec", "codec_census"),
    "private_object.encode_statements": ("private_object", "encode_statements"),
    "private_object.verify_statements": ("private_object", "verify_statements"),
    "private_object.feature": ("private_object", "PadObject.feature"),
    "private_object.statement_to_line": ("private_object", "statement_to_line"),
    "private_object.statement_from_line": ("private_object", "statement_from_line"),
    "facts.encode_bit": ("facts", "encode_bit"),
    "facts.decode_string": ("facts", "decode_string"),
}

PACKAGE = "otplab"
ROOT_SPAN = "cli"  # root span of a job: argparse, dispatch and stdout writes


class Tracer:
    """Records nested spans for calls of the wrapped ``spans`` (names of
    :data:`TRACED`); one instance per traced phase of a run."""

    def __init__(self, spans=tuple(TRACED)) -> None:
        self.traced = {name: TRACED[name] for name in spans}
        self.names = [ROOT_SPAN] + list(self.traced)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("H")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("i")
        # rng.bits: generator words consumed; padfile: bytes of the file.
        self.extra = array("i")
        self._stack = []
        self._job = -1
        self._patches = []

    # -- recording -------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.end)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job)
        self.end.append(0.0)
        self.size.append(0)
        self.extra.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def run_job(self, job_id: int, fn):
        """Run ``fn()`` as one job under a root span."""
        self._job = job_id
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)
            self._job = -1

    def _wrap(self, name: str, fn):
        sid = self._ids[name]
        tracer = self
        if name == "rng.bits":
            def wrapper(src, n):
                before = src._state
                idx = tracer._open(sid)
                try:
                    return fn(src, n)
                finally:
                    tracer._close(idx)
                    tracer.size[idx] = n
                    tracer.extra[idx] = ((src._state - before) * _GAMMA_INV) & _MASK64
        else:
            sizer = SIZES.get(name)
            on_disk = name.startswith("padfile.")

            def wrapper(*args, **kwargs):
                idx = tracer._open(sid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if sizer is not None:
                    tracer.size[idx] = sizer(args, kwargs, result)
                if on_disk:  # the byte count is the file's size, stat'ed outside the span
                    tracer.extra[idx] = os.stat(args[0]).st_size
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced callable wherever an ``otplab`` module binds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name, (module, path) in self.traced.items():
            owner = sys.modules[f"{PACKAGE}.{module}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def analyze(self, passes):
        """One sweep over the spans of the given passes (job index ranges).

        Returns per-pass stats {span name: {calls, self_s, incl_s, size,
        sized_incl_s, extra}}, the root span's duration of every job, and the
        number of spans recorded outside any job.  ``sized_incl_s`` is the
        inclusive time of the calls that recorded a nonzero size.
        """
        n = len(self.end)
        durations = [self.end[i] - self.start[i] for i in range(n)]
        selfs = list(durations)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                selfs[p] -= durations[i]
        pass_of = {}
        for k, (first, end) in enumerate(passes):
            for job in range(first, end):
                pass_of[job] = k
        stats = [{name: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "size": 0,
                         "sized_incl_s": 0.0, "extra": 0} for name in self.names}
                 for _ in passes]
        roots = defaultdict(list)
        stray = 0
        for i in range(n):
            job = self.job[i]
            if job < 0:
                stray += 1
                continue
            if self.parent[i] < 0:
                roots[job].append(durations[i])
            s = stats[pass_of[job]][self.names[self.name_id[i]]]
            s["calls"] += 1
            s["self_s"] += selfs[i]
            s["incl_s"] += durations[i]
            if self.size[i]:
                s["size"] += self.size[i]
                s["sized_incl_s"] += durations[i]
            s["extra"] += self.extra[i]
        return stats, roots, stray

    def fit_points(self):
        """The scaling-fit points of every :data:`EXPONENTS` entry: (input
        bits, seconds) per call, or per job where the entry says so, for
        inputs of at least :data:`FIT_MIN_BITS`."""
        fit_ids = {self._ids[span]: metric for metric, (span, _) in EXPONENTS.items()
                   if span in self._ids}
        points = {metric: [] for metric in EXPONENTS}
        job_sums = {metric: defaultdict(lambda: [0, 0.0]) for metric in EXPONENTS}
        for i in range(len(self.end)):
            metric = fit_ids.get(self.name_id[i])
            if metric is None:
                continue
            duration = self.end[i] - self.start[i]
            if EXPONENTS[metric][1]:
                acc = job_sums[metric][self.job[i]]
                acc[0] += 1
                acc[1] += duration
            else:
                points[metric].append((self.size[i], duration))
        for metric, per_job in job_sums.items():
            points[metric] += [tuple(v) for v in per_job.values()]
        return {metric: [(x, t) for x, t in pts if x >= FIT_MIN_BITS and t > 0]
                for metric, pts in points.items()}

    def write(self, path: str, count: int) -> None:
        """Write the first ``count`` spans: a JSON header line, then the raw
        field arrays, each ``count`` items long."""
        fields = ["name_id", "parent", "job", "start", "end", "size", "extra"]
        header = {"names": self.names, "count": count,
                  "fields": {f: getattr(self, f).typecode for f in fields},
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in fields:
                getattr(self, f)[:count].tofile(fh)


def loglog_slope(points):
    """Least-squares slope of log(time) against log(bits); 0.0 with < 2 sizes."""
    if len({x for x, _ in points}) < 2:
        return 0.0
    return statistics.linear_regression([math.log(x) for x, _ in points],
                                        [math.log(t) for _, t in points]).slope


TRIAL_KERNELS = ("_kernels.distinguisher_counts", "_kernels.eve_guess_correct",
                 "_kernels.reduction_length_counts")

# Exponent metric -> (span name, fit per job instead of per call).  encode_bit
# handles one bit per call, so its points are a job's total against its bits.
EXPONENTS = {
    "rng.bits.exponent": ("rng.bits", False),
    "private_object.encode_statements.exponent": ("private_object.encode_statements", False),
    "private_object.verify_statements.exponent": ("private_object.verify_statements", False),
    "padfile.read_pad.exponent": ("padfile.read_pad", False),
    "facts.encode_bit.exponent": ("facts.encode_bit", True),
}
FIT_SPANS = tuple(span for span, _ in EXPONENTS.values())

# A traced job's root span must match the runner's own time of the job to
# within this (the span is opened and closed inside the runner's timing).
ROOT_SLACK_S = 5e-4
# On a kernel-bound workload, the least share of the traced wall time that
# must be spent inside _kernels.
KERNEL_SHARE = 0.5


def _ratio(a, b):
    return a / b if b > 0 else 0.0


def layer_metrics(S, jobs):
    """Per-layer metrics of one traced pass as {name: (value, unit)}."""
    def self_s(name):
        return S[name]["self_s"]

    trial_s = sum(S[n]["incl_s"] for n in TRIAL_KERNELS)
    trials = sum(S[n]["size"] for n in TRIAL_KERNELS)
    library = S["analysis.distinguisher_test"]
    bits = S["rng.bits"]
    m = {
        "kernels.busy_s": (sum(S[n]["incl_s"] for n in S if n.startswith("_kernels.")), "s"),
        "kernels.distinguisher_counts.s": (self_s("_kernels.distinguisher_counts"), "s"),
        "kernels.eve_guess_correct.s": (self_s("_kernels.eve_guess_correct"), "s"),
        "kernels.reduction_length_counts.s": (self_s("_kernels.reduction_length_counts"), "s"),
        "kernels.census_counts.s": (self_s("_kernels.census_counts"), "s"),
        "kernels.trials": (trials, "count"),
        "kernels.trials_per_s": (_ratio(trials, trial_s), "trials/s"),
        "analysis.self_s": (sum(self_s(n) for n in S if n.startswith("analysis.")), "s"),
        "analysis.exact_s": (S["analysis.exhaustive_secrecy_check"]["incl_s"], "s"),
        "analysis.library_trials_per_s": (
            _ratio(library["size"], library["sized_incl_s"]), "trials/s"),
        "rng.bits.calls": (bits["calls"], "count"),
        "rng.bits.bits": (bits["size"], "bit"),
        "rng.bits.s": (bits["self_s"], "s"),
        "rng.bits.bits_per_s": (_ratio(bits["size"], bits["incl_s"]), "bit/s"),
        "rng.randbelow.calls": (S["rng.randbelow"]["calls"], "count"),
        "rng.randbelow.s": (self_s("rng.randbelow"), "s"),
        "rng.words": (bits["extra"], "count"),
        "bitstring.init.s": (self_s("bitstring.init"), "s"),
        "bitstring.getitem.calls": (S["bitstring.getitem"]["calls"], "count"),
        "bitstring.getitem.s": (self_s("bitstring.getitem"), "s"),
        "bitstring.xor.s": (self_s("bitstring.xor"), "s"),
        "bitstring.to01.s": (self_s("bitstring.to01"), "s"),
        "padfile.write_pad.s": (self_s("padfile.write_pad"), "s"),
        "padfile.write_bytes": (S["padfile.write_pad"]["extra"], "byte"),
        "padfile.read_pad.s": (self_s("padfile.read_pad"), "s"),
        "padfile.read_bytes": (S["padfile.read_pad"]["extra"], "byte"),
        "otp.keygen.s": (self_s("otp.keygen"), "s"),
        "otp.encrypt.s": (self_s("otp.encrypt") + self_s("otp.decrypt"), "s"),
        "reduction.generate_reduced_pad.calls": (S["reduction.generate_reduced_pad"]["calls"], "count"),
        "reduction.generate_reduced_pad.s": (self_s("reduction.generate_reduced_pad"), "s"),
        "reduction.effective_pad.calls": (S["reduction.effective_pad"]["calls"], "count"),
        "reduction.effective_pad.s": (self_s("reduction.effective_pad"), "s"),
        "codec.compress_pad.s": (self_s("codec.compress_pad"), "s"),
        "codec.decompress_pad.s": (self_s("codec.decompress_pad"), "s"),
        "codec.codec_census.s": (self_s("codec.codec_census"), "s"),
        "private_object.encode_statements.s": (self_s("private_object.encode_statements"), "s"),
        "private_object.verify_statements.s": (self_s("private_object.verify_statements"), "s"),
        "private_object.feature.calls": (S["private_object.feature"]["calls"], "count"),
        "private_object.statement_to_line.s": (self_s("private_object.statement_to_line"), "s"),
        "private_object.statement_from_line.s": (self_s("private_object.statement_from_line"), "s"),
        "facts.encode_bit.calls": (S["facts.encode_bit"]["calls"], "count"),
        "facts.encode_bit.s": (self_s("facts.encode_bit"), "s"),
        "facts.decode_string.calls": (S["facts.decode_string"]["calls"], "count"),
        "facts.decode_string.s": (self_s("facts.decode_string"), "s"),
        "cli.self_s": (self_s(ROOT_SPAN), "s"),
        "cli.out_bytes": (sum(j.out_bytes for j in jobs), "byte"),
        "cli.jobs": (len(jobs), "count"),
        "cli.failed": (sum(j.error is not None for j in jobs), "count"),
    }
    return m


def per_layer(tracer, fit_tracer, runner, seconds, untraced, traced, kernel_bound):
    """Per-layer metrics of a traced run, notes on its own checks, and
    whether those checks passed.

    ``tracer`` recorded the ``traced`` passes, ``fit_tracer`` the pass the
    exponents are fitted on; ``seconds`` is every job's time at nominal host
    speed.  Values are medians over the traced passes.  The checks: every
    traced job has one root span and it matches the runner's time of the
    job; no span lies outside a job (the oracles never call ``otplab``);
    ``rng.words`` and ``kernels.trials`` repeat exactly; and ``_kernels``
    takes most of the traced wall time on a ``kernel_bound`` workload and
    none at all on the others.
    """
    stats, roots, stray = tracer.analyze(traced)
    notes = []
    ok = True
    worst = 0.0
    for first, end in traced:
        for job in range(first, end):
            spans = roots.get(job, [])
            if len(spans) != 1:
                ok = False
                notes.append(f"FAILED job {job} has {len(spans)} root spans")
                break
            # The runner leaves the host samples out of a job's time; the
            # spans around them do not.
            elapsed = runner.jobs[job].seconds + runner.jobs[job].sampled
            gap = elapsed - spans[0]
            worst = max(worst, abs(gap))
            if not 0 <= gap <= ROOT_SLACK_S:
                ok = False
                notes.append(f"FAILED job {job}: root span {spans[0]:.6f} s, "
                             f"runner {elapsed:.6f} s")
                break
    if stray:
        ok = False
        notes.append(f"FAILED {stray} spans were recorded outside any job")
    if ok:
        notes.append(f"span accounting: one root span per job, within {worst:.2g} s "
                     f"of the runner's time, and no span outside a job")
    passes = [layer_metrics(S, runner.jobs[first:end])
              for S, (first, end) in zip(stats, traced)]
    for name in ("rng.words", "kernels.trials"):
        values = [p[name][0] for p in passes]
        if len(set(values)) != 1:
            ok = False
            notes.append(f"FAILED {name} differs between traced passes: {values}")
        else:
            notes.append(f"{name} repeats exactly over {len(values)} traced passes: {values[0]}")
    metrics = {name: (statistics.median(p[name][0] for p in passes), unit)
               for name, (_, unit) in passes[0].items()}
    for name, pts in fit_tracer.fit_points().items():
        metrics[name] = (loglog_slope(pts), "1")
        notes.append(f"{name}: fit over {len(pts)} points of >= {FIT_MIN_BITS} bits")

    def wall(ranges):
        return statistics.median(sum(seconds[a:b]) for a, b in ranges)

    traced_wall = wall(traced)
    metrics["trace_overhead"] = (traced_wall / wall(untraced) - 1, "ratio")
    busy = [p["kernels.busy_s"][0] / sum(j.seconds for j in runner.jobs[a:b])
            for p, (a, b) in zip(passes, traced)]
    share = min(busy)
    if kernel_bound and share < KERNEL_SHARE:
        ok = False
        notes.append(f"FAILED kernels.busy_s is only {share:.1%} of the traced wall "
                     f"time of a kernel-bound workload")
    elif not kernel_bound and max(busy) != 0:
        ok = False
        notes.append(f"FAILED kernels ran on a workload without kernel calls "
                     f"({max(busy):.1%} of the traced wall time)")
    else:
        notes.append(f"kernels.busy_s is {share:.1%} of the traced wall time")
    return metrics, notes, ok
