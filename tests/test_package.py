"""The package's public surface."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import otplab


def test_all_names_resolve_and_appear_once():
    names = otplab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(otplab, name) is not None, name


def test_benchmark_traced_names_resolve():
    # The benchmark's tracer wraps these names by lookup, as Tracer.install
    # does: a module function by getattr, a method in its class __dict__.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name, (module, attr) in tracer.TRACED.items():
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(owner, cls_name)), name
        else:
            assert callable(getattr(owner, attr, None)), name
    assert set(tracer.SIZES) <= set(tracer.TRACED)


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
