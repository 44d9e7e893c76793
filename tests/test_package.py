"""The package's public surface."""

import contextlib
import importlib
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

import otplab
import otplab.cli
from otplab import analysis, reduction
from otplab.bitstring import BitString


def test_all_names_resolve_and_appear_once():
    names = otplab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(otplab, name) is not None, name


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_traced_names_resolve():
    # The benchmark's tracer wraps these names by lookup, as Tracer.install
    # does: a module function by getattr, a method in its class __dict__.
    tracer = _load_tracer()
    for name, (module, attr) in tracer.TRACED.items():
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(owner, cls_name)), name
        else:
            assert callable(getattr(owner, attr, None)), name
    assert set(tracer.SIZES) <= set(tracer.TRACED)


_TRACED_SETUP = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("perfbench_run", sys.argv[1])
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)
run.fresh_import()
tracer = run.tracing.Tracer()
tracer.install()
tracer.uninstall()
"""


def test_benchmark_traced_setup_runs_in_a_fresh_interpreter():
    # The traced run's set-up, in a new process: import otplab afresh as the
    # benchmark does, then wrap every traced name.  Tracer.install looks
    # each module up in sys.modules, so it fails when ``import otplab`` no
    # longer imports a traced module, which the test above cannot see.
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _TRACED_SETUP, str(root / "perfbench" / "run.py")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        timeout=60)
    assert proc.returncode == 0, proc.stderr


def _cli_jobs(d):
    # One tiny job of every command the benchmark's workloads send, in chain
    # order: later jobs read the files earlier ones write.
    m = "1011001110001111" * 4
    pad, short, strings, stmts = (str(d / f) for f in ("p.otpd", "r.otpd", "s.txt",
                                                       "st.txt"))
    jobs = [
        (["keygen", "--bits", "64", "--seed", "1", "--out", pad], None),
        (["encrypt", "--pad", pad, "--in", m], None),
        (["decrypt", "--pad", pad, "--in", m], None),
        (["pad-compress", "--in", pad, "--out", str(d / "c.otpd")], None),
        (["pad-decompress", "--in", str(d / "c.otpd"), "--out", str(d / "d.otpd"),
          "--message-length", "64"], None),
        (["reduce-keygen", "--message-bits", "64", "--k", "3", "--seed", "2",
          "--out", short], None),
        (["encrypt", "--pad", short, "--in", m, "--reduced", "--message-bits", "64",
          "--k", "3"], None),
        (["po-encode", "--pad", pad, "--in", m], stmts),
        (["po-decode", "--pad", pad, "--in", stmts], None),
        (["facts-encode", "--seed", "3", "--in", m], strings),
        (["facts-decode", "--in", strings], None),
    ]
    jobs += [(["analyze", check, "--n", "4", "--k", "2", "--trials", "2000"], None)
             for check in ("eve", "distinguish", "reduction", "census")]
    jobs.append((["analyze", "exact", "--n", "2", "--k", "1"], None))
    return jobs


def test_every_workload_command_runs_under_the_benchmark_tracer(tmp_path):
    # The traced benchmark run fails when a job raises inside the tracer's
    # wrappers, which bind by name and argument position.
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    jobs = _cli_jobs(tmp_path)
    codes = []

    def job(argv, out_path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes.append(otplab.cli.main(argv))
        if out_path is not None:
            Path(out_path).write_text(out.getvalue())

    tracer.install()
    try:
        for k in range(2 * len(jobs)):
            tracer.run_job(k, lambda: job(*jobs[k % len(jobs)]))
    finally:
        tracer.uninstall()
    assert codes == [0] * (2 * len(jobs))
    passes = [(0, len(jobs)), (len(jobs), 2 * len(jobs))]
    stats, roots, stray = tracer.analyze(passes)
    assert stray == 0
    assert sorted(roots) == list(range(2 * len(jobs)))
    assert all(len(spans) == 1 for spans in roots.values())
    words = [s["rng.bits"]["extra"] for s in stats]
    assert words[0] == words[1] > 0
    assert all(s["facts.decode_string"]["calls"] > 0 for s in stats)
    # po-encode and po-decode run the names the statement metrics trace.
    assert all(s[f"private_object.{name}"]["calls"] > 0 for s in stats
               for name in ("encode_statements", "verify_statements"))


def test_library_distinguisher_draws_every_word_through_bits():
    # Per trial: two pads, each a coin and its bits from one bits() call of
    # one word apiece (n <= 63), completed without a traced effective_pad.
    tracer = _load_tracer().Tracer()
    trials, n = 300, 12
    cfg = analysis.TrialConfig(reduction.ReductionParams(n, 3), trials, 5,
                               BitString.zeros(n), BitString.ones(n))
    tracer.install()
    try:
        tracer.run_job(0, lambda: analysis.distinguisher_test(
            cfg, generator=reduction.generate_reduced_pad))
    finally:
        tracer.uninstall()
    (stats,), _, _ = tracer.analyze([(0, 1)])
    assert stats["reduction.generate_reduced_pad"]["calls"] == 2 * trials
    assert stats["rng.bits"]["calls"] == 4 * trials
    assert stats["rng.bits"]["extra"] == 4 * trials  # generator words
    assert stats["reduction.effective_pad"]["calls"] == 0


_REIMPORT = """
import gc, io, contextlib, sys
for _ in range(3):
    for name in [m for m in sys.modules if m.split(".")[0] == "otplab"]:
        del sys.modules[name]
    import otplab.cli
    with contextlib.redirect_stdout(io.StringIO()):  # fills the lane cache
        otplab.cli.main(["analyze", "reduction", "--n", "10", "--k", "2",
                         "--trials", "3000"])
gc.collect()
print(sum(1 for o in gc.get_objects()
          if isinstance(o, type) and o.__name__ == "RandomSource"))
"""


def test_reimport_frees_the_earlier_modules():
    # A process that imports otplab afresh, as the benchmark's set-up does,
    # must not keep every earlier copy, with its caches, alive.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _REIMPORT], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def _python_m_otplab(*argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "otplab", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)


def test_python_dash_m_otplab_runs_the_cli(capsys):
    proc = _python_m_otplab("--version")
    assert (proc.returncode, proc.stdout) == (0, f"otplab {otplab.__version__}\n")
    argv = ["analyze", "exact", "--n", "2", "--k", "1"]
    proc = _python_m_otplab(*argv)
    assert otplab.cli.main(argv) == proc.returncode == 0
    assert proc.stdout == capsys.readouterr().out
    proc = _python_m_otplab("facts-encode", "--seed", "1", "--in", "0b1")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: bit string text may contain only '0' and '1'\n"
