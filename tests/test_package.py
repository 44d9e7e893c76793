"""The package's public surface."""

import importlib
import importlib.util
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
