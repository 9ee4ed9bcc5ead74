"""The benchmark's tracer wraps kernel functions by name and reads their
results; every name it lists must still resolve, and what it counts must
still be what the reducer did, or the traced bench run breaks or misleads."""
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import ptslab.term as term_module
from ptslab.codes import build_flat_machinery, church
from ptslab.encodings import definitions
from ptslab.paradox import build_hurkens
from ptslab.term import App, JRules

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_resolve():
    tracer = _load_tracer()
    assert tracer.TRACED
    for layer, modname, attr in tracer.TRACED:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{layer}: {modname}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{layer}: {modname}.{attr}"


def test_tracer_counts_the_contractions_of_the_trace():
    fj = definitions("f+j")
    start = App(App(fj["K"], fj["rho"]), fj["K"])
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        tr = term_module.normalize(start, 30, jrules=JRules())
    finally:
        tracer.uninstall()
    assert tr.step_count == 30
    # at the fuel limit normalize searches once more, to tell a normal form
    # from exhaustion, and drops the contraction it finds; the tracer counts
    # that search too
    _, last_path, last_rule = term_module.step_normal_order(tr.outcome.last,
                                                            JRules())
    rules = [s.rule for s in tr.steps] + [last_rule]
    paths = [s.position for s in tr.steps] + [last_path]
    assert tracer.contractions == Counter(rules)
    assert tracer.redex_depth_sum == sum(len(p) for p in paths)


def test_tracer_sees_one_substitution_per_beta_contraction():
    # the redex walk tests the beta pattern inline; it must still call the
    # module's substitute by name, or the traced substitution layer reads 0.
    # A run that keeps its steps runs on the walk; one that keeps nothing
    # runs on the environment machine, which substitutes nothing, and makes
    # the same contractions
    fm = build_flat_machinery()
    start = App(fm.flat, church(2))
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        tr = term_module.normalize(start, 100_000)
    finally:
        tracer.uninstall()
    assert type(tr.outcome) is term_module.NormalForm
    assert tracer.calls["term.substitute"] == tracer.contractions["beta"] \
        == tr.step_count == 401
    assert term_module.normalize(start, 100_000,
                                 keep_steps=False).step_count == 401


def test_cycle_table_calls_no_traced_reducer():
    # the cycle table probes and regrows on hashes alone: the tracer reads
    # the contractions plus the one search at the fuel limit
    start = build_hurkens()
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        tr = term_module.normalize(start, 3000, detect_cycles=True,
                                   keep_steps=False)
    finally:
        tracer.uninstall()
    assert type(tr.outcome) is term_module.FuelExhausted
    assert tracer.contractions["beta"] == tr.step_count + 1 == 3001
