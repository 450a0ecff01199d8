"""The package's public names, and the names the benchmark's tracer patches."""

import importlib
import importlib.util
from pathlib import Path

import r2xsim


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from r2xsim import *", namespace)
    assert sorted(set(r2xsim.__all__)) == sorted(r2xsim.__all__)
    for name in r2xsim.__all__:
        assert namespace[name] is getattr(r2xsim, name)


def test_traced_functions_resolve():
    """Every function the benchmark's tracer patches by name exists, so a
    change that drops or renames one fails here, not only in a traced run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPANS and tracing.COUNTS
    for name, module, attr in tracing.SPANS + tracing.COUNTS:
        assert module == "r2xsim" or module.startswith("r2xsim."), name
        owner = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{name}: {module}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{name}: {module}.{attr}"
