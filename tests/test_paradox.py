import pytest

import ptslab.paradox as px

from ptslab.term import (App, CycleDetected, JRules, NormalForm, PrimJ,
                         normalize, normal_form_of)
from ptslab.systems import (EMPTY, NoAxiom, NoRule, SYSTEMS, TypingError,
                            infer, subject_reduction_probe)
from ptslab.syntax import parse, parse_term
from ptslab.encodings import definitions
from ptslab.paradox import (build_hurkens, build_loop, hurkens_source,
                            hurkens_type_checks)


F = definitions("f")


# --- the J loop ------------------------------------------------------------

def test_loop_cycles_back_to_itself():
    rep = build_loop()
    assert type(rep.trace.outcome) is CycleDetected
    assert rep.trace.outcome.witness == rep.start


def test_loop_start_is_K_rho_K():
    rep = build_loop()
    k = parse_term(r"/\Z. J {rho} {Z} Delta", F)
    assert rep.start == App(App(k, F["rho"]), k)


def test_loop_visits_the_displayed_checkpoints():
    rep = build_loop()
    k = parse_term(r"/\Z. J {rho} {Z} Delta", F)
    mid1 = App(parse_term("J {rho} {rho} Delta", F), k)
    mid2 = App(F["Delta"], k)
    assert rep.checkpoints == (mid1, mid2)
    assert list(rep.checkpoint_steps) == sorted(rep.checkpoint_steps)


def test_loop_period_is_stable():
    assert build_loop().period == build_loop().period


def test_loop_term_type_checks_at_rho():
    rep = build_loop()
    j = infer(SYSTEMS["f+j"], EMPTY, rep.start)
    assert j.type == F["rho"]


def test_loop_stuck_without_delta_rules():
    rep = build_loop()
    nf = normal_form_of(rep.start, 1000)  # plain beta only
    assert nf is not None
    heads = []
    stack = [nf]
    while stack:
        t = stack.pop()
        if type(t) is PrimJ:
            heads.append(t)
        if hasattr(t, "left"):
            stack.extend((t.left, t.right))
    assert heads, "the stuck form must still contain J"


def test_loop_probe_clean():
    rep = build_loop()
    out = subject_reduction_probe(SYSTEMS["f+j"], EMPTY, rep.start, steps=12)
    assert out.ok


# --- the Hurkens-style term ------------------------------------------------

def test_hurkens_inhabits_bottom():
    assert hurkens_type_checks()
    t = build_hurkens()
    j = infer(SYSTEMS["star"], EMPTY, t)
    assert j.type == parse_term("Pi a:V. a")


def test_hurkens_source_is_parsed_once(monkeypatch):
    parses = []
    monkeypatch.setattr(px, "parse",
                        lambda text: parses.append(text) or parse(text))
    px._hurkens_defs.cache_clear()
    px.build_hurkens()
    assert px.hurkens_type_checks()
    assert parses == [hurkens_source()]


def test_hurkens_does_not_normalize_quickly():
    t = build_hurkens()
    tr = normalize(t, 20_000, detect_cycles=True, keep_steps=False)
    assert type(tr.outcome) is not NormalForm
    assert type(tr.outcome) is not CycleDetected


def test_hurkens_rejected_by_lambda2():
    src = parse(hurkens_source())
    ok = False
    for name, term in src.definitions.items():
        try:
            infer(SYSTEMS["f"], EMPTY, term)
        except (NoAxiom, NoRule):
            ok = True
            break
        except TypingError:
            continue
    assert ok, "some prelude definition must hit the missing */BOX structure"


def test_hurkens_probe_prefix():
    t = build_hurkens()
    rep = subject_reduction_probe(SYSTEMS["star"], EMPTY, t, steps=100)
    assert rep.ok and rep.steps_taken == 100


def test_hurkens_source_is_stable():
    assert hurkens_source() == hurkens_source()
    assert "#system star" in hurkens_source()
