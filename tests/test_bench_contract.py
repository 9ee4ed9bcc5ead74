"""The benchmark's tracer wraps kernel functions by name; every name it
lists must still resolve, or the traced bench run breaks."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for layer, modname, attr in tracer.TRACED:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{layer}: {modname}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{layer}: {modname}.{attr}"
