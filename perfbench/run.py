#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``otplab`` command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 36 --trace 0

The workload's inputs are made from ``--seed``; ``otplab`` is imported from
``src/`` of the same checkout and driven in-process through
``otplab.cli.main(argv)``, one job at a time.  Every job's output is checked
against an oracle.  Times are reported at a nominal host speed: each job and
set-up time is scaled by the reference units timed during and around it (see
:func:`at_nominal`), because the host's speed drifts by tens of percent
within a minute.  With ``--trace 0`` the run reports end-to-end metrics;
with ``--trace 1`` it first makes untraced passes, then traced ones, and
reports per-layer metrics from the spans.  The last line of standard output is
one JSON object; the line before it is the full, self-describing report.
The exit code is 0 only if every output was correct.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Runner  # noqa: E402

# Set-ups per run: the first few before the first pass, the rest spread over
# the measuring time, so that their median does not rest on the host's speed
# in one second of the run.
SETUP_FIRST = 5
SETUP_REPEATS = 25
# Nominal time of one reference unit: times are reported as if the host ran
# the reference unit in exactly this long.
REF_UNIT_S = 0.0007
# A job's host speed is the median of the reference samples taken during it
# and of this many on each side of it.
REF_NEIGHBOURS = 3
MODULES = ("cli", "analysis", "reduction", "bitstring", "_kernels")


def fresh_import():
    """Import ``otplab`` afresh, as a new process would."""
    for name in [m for m in sys.modules if m == "otplab" or m.startswith("otplab.")]:
        del sys.modules[name]
    pkg = importlib.import_module("otplab")
    ns = SimpleNamespace(otplab=pkg)
    for name in MODULES:
        setattr(ns, name.lstrip("_"), importlib.import_module(f"otplab.{name}"))
    return ns


def setup(workload_cls, seed, workdir, runner):
    """Import, select the kernel backend, make inputs and files, warm up.

    Returns (start, seconds, sampled) of the set-up (see
    :meth:`Runner.timed`) and the workload.
    """
    def build():
        runner.ns = fresh_import()
        workload = workload_cls(seed, workdir, runner.ns)
        runner.warm = True
        workload.warmup(runner)
        return workload

    workload, *timing = runner.timed(build)
    return timing, workload


def setup_again(workload_cls, seed, workdir, runner):
    """Time one more set-up, then put back the modules and runner state the
    passes use: the new modules and workload are dropped."""
    ns, warm = runner.ns, runner.warm
    saved = {name: m for name, m in sys.modules.items()
             if name == "otplab" or name.startswith("otplab.")}
    timing, _ = setup(workload_cls, seed, workdir, runner)
    for name in [m for m in sys.modules if m == "otplab" or m.startswith("otplab.")]:
        del sys.modules[name]
    sys.modules.update(saved)
    runner.ns, runner.warm = ns, warm
    return timing


def measure(workload, runner, seconds, min_passes, after_pass=None):
    """Repeat the job list while another pass is expected to fit in ``seconds``.

    ``after_pass``, if given, is called after each pass with the share of
    ``seconds`` used so far.  Returns one (first job index, end job index)
    range per pass.
    """
    runner.warm = False
    passes = []
    walls = []
    t0 = perf_counter()
    while True:
        gc.collect()
        first = len(runner.jobs)
        workload.run_pass(runner)
        passes.append((first, len(runner.jobs)))
        walls.append(sum(j.seconds for j in runner.jobs[first:]))
        if after_pass is not None:
            after_pass((perf_counter() - t0) / seconds)
        elapsed = perf_counter() - t0
        if len(passes) >= min_passes and elapsed + statistics.median(walls) > seconds:
            return passes


def at_nominal(refs, timings):
    """Scale (start, seconds, sampled) timings to the nominal host speed.

    Each timing is multiplied by ``REF_UNIT_S`` over the median of the
    reference samples taken during it and the ``REF_NEIGHBOURS`` before and
    after it, so that a host which runs everything 20 % slower for a while
    does not read as a 20 % slower program.  The reference unit never calls
    ``otplab``, so a slower program still reads slower.
    """
    starts = [t for t, _ in refs]
    scaled = []
    for start, seconds, sampled in timings:
        first = bisect.bisect_left(starts, start)
        end = bisect.bisect_left(starts, start + seconds + sampled, lo=first)
        near = [d for _, d in refs[max(0, first - REF_NEIGHBOURS):end + REF_NEIGHBOURS]]
        scaled.append(seconds * REF_UNIT_S / statistics.median(near))
    return scaled


def traced_passes(workload, runner, tracer, count):
    """``count`` passes with ``tracer`` installed; their job index ranges."""
    tracer.install()
    runner.tracer = tracer
    try:
        return measure(workload, runner, 0, count)
    finally:
        runner.tracer = None
        tracer.uninstall()


def rate(jobs, seconds, group):
    """Amount of work per second over the jobs of a group; 0.0 if none."""
    chosen = [(j, s) for j, s in zip(jobs, seconds) if j.group == group]
    total = sum(s for _, s in chosen)
    return sum(j.amount for j, _ in chosen) / total if total > 0 else 0.0


# Throughput metric -> (job group, unit); reported where the group has jobs.
THROUGHPUT = {
    "trials_per_s": ("trials", "trials/s"),
    "pad_bits_per_s": ("pad", "bit/s"),
    "stmt_bits_per_s": ("stmt", "bit/s"),
    "facts_bits_per_s": ("facts", "bit/s"),
}


def end_to_end(runner, seconds, passes, setups):
    """Every end-to-end metric of the run as {name: (value, unit)}.

    ``seconds`` holds every job's time at nominal host speed, ``setups`` every
    set-up as (start, seconds, sampled) as measured.
    """
    per_pass = [(runner.jobs[a:b], seconds[a:b]) for a, b in passes]
    latencies = sorted(s for _, secs in per_pass for s in secs)
    metrics = {
        "setup_s": (statistics.median(at_nominal(runner.refs, setups)), "s"),
        "wall_s": (statistics.median(sum(secs) for _, secs in per_pass), "s"),
        "job_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MiB"),
        # The same two times as measured, and the host's speed they were
        # scaled by: the median reference unit of the run.
        "setup_measured_s": (statistics.median(s for _, s, _ in setups), "s"),
        "wall_measured_s": (statistics.median(sum(j.seconds for j in jobs)
                                              for jobs, _ in per_pass), "s"),
        "ref_unit_ms": (1000 * statistics.median(d for _, d in runner.refs), "ms"),
    }
    # The p90 needs at least ten samples beyond it.
    if len(latencies) >= 100:
        metrics["job_p90_ms"] = (
            1000 * statistics.quantiles(latencies, n=10, method="inclusive")[8], "ms")
    for name, (group, unit) in THROUGHPUT.items():
        if any(j.group == group for j in per_pass[0][0]):
            metrics[name] = (statistics.median(rate(jobs, secs, group)
                                               for jobs, secs in per_pass), unit)
    attempted = len(runner.jobs)
    failed = sum(j.error is not None for j in runner.jobs)
    metrics["error_rate"] = (failed / attempted, "ratio")
    return metrics, len(latencies)


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def describe(args, ns, workload, runner, seconds, passes, setups):
    """What a reader needs to rerun the result and to judge it on its own."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_backend": ns.kernels.IMPL_NAME,
        "available_impls": list(ns.kernels.available_impls()),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "otplab_version": ns.otplab.__version__,
        "otplab_path": str(Path(ns.otplab.__file__).parent.relative_to(ROOT)),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "jobs": workload.describe(),
        "ref_unit_nominal_s": REF_UNIT_S,
        "pass_wall_s": [sum(seconds[a:b]) for a, b in passes],
        "setup_s_each": at_nominal(runner.refs, setups),
        "pass_wall_measured_s": [sum(j.seconds for j in runner.jobs[a:b])
                                 for a, b in passes],
        "setup_measured_s_each": [s for _, s, _ in setups],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: corrupt one job's output; the run must fail")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "otplab" / "__init__.py").is_file():
        print(f"error: no otplab package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    out_dir = HERE / "out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, out_dir, workdir) -> int:
    runner = Runner(corrupt=args.corrupt)
    with runner.sampling():
        return measure_and_report(args, out_dir, workdir, runner)


def measure_and_report(args, out_dir, workdir, runner) -> int:
    workload_cls = WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_FIRST):
        gc.collect()
        timing, workload = setup(workload_cls, args.seed, workdir, runner)
        setups.append(timing)
    ns = runner.ns

    def more_setups(share):
        while len(setups) < SETUP_FIRST + min(share, 1) * (SETUP_REPEATS - SETUP_FIRST):
            gc.collect()
            setups.append(setup_again(workload_cls, args.seed, workdir, runner))

    notes = []
    if args.trace == 0:
        passes = measure(workload, runner, args.seconds, 1, more_setups)
        more_setups(1)
        seconds = at_nominal(runner.refs, [(j.start, j.seconds, j.sampled)
                                           for j in runner.jobs])
        metrics, samples = end_to_end(runner, seconds, passes, setups)
        notes.append(f"job latency samples: {samples}")
        trace_ok = True
        section = "end_to_end"
    else:
        # Two traced passes, to check that the counts repeat exactly; the
        # untraced passes before them are the base of trace_overhead.  A last
        # pass wraps only the functions whose scaling is fitted, so that no
        # traced callee adds its tracing cost to their times.
        untraced = measure(workload, runner, args.seconds / 2, 1)
        tracer = tracing.Tracer()
        traced = traced_passes(workload, runner, tracer, 2)
        fit_tracer = tracing.Tracer(tracing.FIT_SPANS)
        fit = traced_passes(workload, runner, fit_tracer, 1)
        passes = untraced + traced + fit
        seconds = at_nominal(runner.refs, [(j.start, j.seconds, j.sampled)
                                           for j in runner.jobs])
        metrics, layer_notes, trace_ok = tracing.per_layer(
            tracer, fit_tracer, runner, seconds, untraced, traced,
            workload.KERNEL_BOUND)
        notes += layer_notes
        spans_path = out_dir / f"spans-{args.workload}.bin"
        # Spans are stored in job order.
        tracer.write(spans_path, bisect.bisect_left(tracer.job, traced[0][1]))
        notes.append(f"spans of the first traced pass written to "
                     f"{spans_path.relative_to(ROOT)}")
        section = "per_layer"

    wanted = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    for m in wanted:
        if metrics[m["name"]][1] != m["unit"]:
            raise ValueError(f"{m['name']} is measured in {metrics[m['name']][1]}, "
                             f"BENCHMARK.json says {m['unit']}")
    attempted = len(runner.jobs)
    failed = [j for j in runner.jobs if j.error is not None]
    correct = not failed and trace_ok
    report = {
        "meta": describe(args, ns, workload, runner, seconds, passes, setups),
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "failures": [f"{j.kind}: {j.error}" for j in failed[:10]],
    }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<11} {name:<44} {value:>16.6g} {unit}")
    for note in notes:
        print(f"note: {note}")
    for line in report["failures"]:
        print(f"FAILED {line}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
