"""The nine headline acceptance checks, one test and one verdict line each.

Run with -s (or read the -v test names) to see the per-criterion lines.
"""
import random
import sys
import time

import pytest

from ptslab.term import (App, CycleDetected, FuelExhausted, JRules, Lam,
                         NormalForm, Pi, Sort, STAR_SORT, Var, app,
                         contract_at, normal_form_of, normalize,
                         redex_positions, substitute)
from ptslab.systems import (EMPTY, NoAxiom, NoRule, SYSTEMS, TypingError,
                            infer, subject_reduction_probe)
from ptslab.syntax import parse, parse_term, pretty
from ptslab.encodings import definitions, registry
from ptslab.erase import UNTYPED, erase, u_one_step_reachable
from ptslab.paradox import (build_hurkens, build_loop, hurkens_source,
                            hurkens_type_checks)
from ptslab import codes as cd
from ptslab.corpus import term_size, welltyped_corpus


F = definitions("f")


def report(n: int, label: str, ok: bool, detail: str) -> None:
    line = f"criterion {n} ({label}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_1_loop_witness():
    t0 = time.perf_counter()
    rep = build_loop()
    elapsed = time.perf_counter() - t0
    k = parse_term(r"/\Z. J {rho} {Z} Delta", F)
    start = App(App(k, F["rho"]), k)
    mid1 = App(parse_term("J {rho} {rho} Delta", F), k)
    mid2 = App(F["Delta"], k)
    ok = (type(rep.trace.outcome) is CycleDetected
          and rep.trace.outcome.witness == start
          and rep.checkpoints == (mid1, mid2)
          and elapsed < 1.0)
    report(1, "loop witness", ok,
           f"cycle period {rep.period}, checkpoints at steps "
           f"{list(rep.checkpoint_steps)}, {elapsed:.3f}s")


def test_criterion_2_paradox_witness():
    t0 = time.perf_counter()
    t = build_hurkens()
    typed = hurkens_type_checks()
    tr = normalize(t, 1_000_000, detect_cycles=True, keep_steps=False)
    diverged = type(tr.outcome) is FuelExhausted
    no_cycle = type(tr.outcome) is not CycleDetected
    rejected = False
    for name, term in parse(hurkens_source()).definitions.items():
        try:
            infer(SYSTEMS["f"], EMPTY, term)
        except (NoAxiom, NoRule):
            rejected = True
            break
        except TypingError:
            continue
    elapsed = time.perf_counter() - t0
    ok = typed and diverged and no_cycle and rejected and elapsed < 60.0
    report(2, "paradox witness", ok,
           f"typed at bot: {typed}, fuel 10^6 exhausted: {diverged}, "
           f"no cycle: {no_cycle}, lambda2 rejects: {rejected}, "
           f"{elapsed:.1f}s")


def test_criterion_3_normalization():
    failures = 0
    count = 0
    for e in registry():
        if e.system in ("f", "f+j"):
            jr = JRules() if e.system == "f+j" else None
            tr = normalize(e.term, 10_000, jrules=jr, keep_steps=False)
            count += 1
            failures += type(tr.outcome) is not NormalForm
    for t, _ in welltyped_corpus(500, seed=42):
        assert term_size(t) <= 20
        tr = normalize(t, 10_000, keep_steps=False)
        count += 1
        failures += type(tr.outcome) is not NormalForm
    report(3, "normalization", failures == 0,
           f"{count} terms within fuel 10^4, {failures} fuel exhaustions")


def test_criterion_4_subject_reduction():
    bad = []
    for e in registry():
        rep = subject_reduction_probe(SYSTEMS[e.system], EMPTY, e.term,
                                      steps=50)
        if not rep.ok:
            bad.append(e.name)
    hrep = subject_reduction_probe(SYSTEMS["star"], EMPTY, build_hurkens(),
                                   steps=1000, fuel=200_000)
    ok = not bad and hrep.ok and hrep.steps_taken == 1000
    report(4, "subject reduction", ok,
           f"registry clean: {not bad}{' ' + str(bad) if bad else ''}, "
           f"paradox prefix {hrep.steps_taken} steps clean: {hrep.ok}")


def test_criterion_5_genericity():
    rng = random.Random(13)
    from ptslab.corpus import random_type
    checked = failures = 0
    for e in registry():
        if e.system not in ("f", "star"):
            continue  # the J extension breaks uniformity by design
        ty = e.type
        if not (type(ty) is Pi and ty.left == STAR_SORT):
            continue
        taus = [F["Bool"], F["rho"], parse_term("Bool -> Bool", F),
                ty]  # the impredicative instance: the term's own type
        while len(taus) < 10:
            taus.append(random_type(rng, 2))
        generic = normalize(App(e.term, Var(0)), 100_000, keep_steps=False)
        assert type(generic.outcome) is NormalForm
        for tau in taus:
            lhs = normalize(App(e.term, tau), 100_000, keep_steps=False)
            assert type(lhs.outcome) is NormalForm
            checked += 1
            if lhs.outcome.term != substitute(generic.outcome.term, tau):
                failures += 1
    ok = failures == 0 and checked >= 100
    report(5, "genericity", ok,
           f"{checked} instantiations, {failures} failures")


def test_criterion_6_erasure_simulation():
    violations = 0
    steps = 0
    from ptslab.term import step_normal_order
    for t, _ in welltyped_corpus(500, seed=7):
        cur = t
        for _ in range(60):
            r = step_normal_order(cur)
            if r is None:
                break
            nxt = r[0]
            steps += 1
            if not u_one_step_reachable(erase(cur), erase(nxt)):
                violations += 1
            cur = nxt
    example = erase(parse_term("ID {rho} ID", F))
    example_ok = example == App(Lam(UNTYPED, Var(0)), Lam(UNTYPED, Var(0)))
    ok = violations == 0 and example_ok
    report(6, "erasure simulation", ok,
           f"{steps} typed steps over 500 terms, {violations} violations; "
           f"erase(ID{{rho}} ID) = (\\x. x)(\\x. x): {example_ok}")


def test_criterion_7_appendix_b():
    t0 = time.perf_counter()
    star = SYSTEMS["star"]
    d = cd.base_defs()
    fm = cd.build_flat_machinery()
    # cold re-check of every constructed piece
    from ptslab.systems import check
    check(star, EMPTY, fm.list_type, parse_term("V -> V"))
    check(star, EMPTY, fm.flat, parse_term("Nty -> V", d))
    infer(star, EMPTY, fm.delta)
    check(star, EMPTY, fm.prop1.F, parse_term("Nty -> List V", d))
    check(star, EMPTY, fm.prop2.T, parse_term("Nty -> Nty", d))
    check(star, EMPTY, fm.prop2.F, parse_term("Nty -> Nty", d))
    check(star, EMPTY, fm.prop2.A, parse_term("Nty -> V", d))
    # flat(#A) = A for the smallest registered type code, fuel 10^7
    smallest = min(cd.type_codes(fm.table))
    tr = normalize(App(fm.flat, cd.church(smallest)), 10_000_000,
                   keep_steps=False)
    decode_ok = (type(tr.outcome) is NormalForm
                 and tr.outcome.term == fm.table.term_of(smallest))
    # base cases by conversion
    f0 = normal_form_of(App(fm.prop1.f, cd.church(0)), 1_000_000)
    base1_ok = f0 == normal_form_of(fm.prop1.g)
    base2_ok = (cd.numeral_value(App(fm.prop2.T, cd.church(0)), 500_000) == 4
                and cd.numeral_value(App(fm.prop2.F, cd.church(0)),
                                     500_000) == 8)
    elapsed = time.perf_counter() - t0
    ok = decode_ok and base1_ok and base2_ok and elapsed < 300.0
    report(7, "appendix b", ok,
           f"flat({smallest}) decoded in {tr.step_count} steps: {decode_ok}, "
           f"f(0)=g: {base1_ok}, T(0)=2^2 and F(0)=2^3: {base2_ok}, "
           f"{elapsed:.1f}s")


def test_criterion_8_confluence():
    # every term along a corpus term's reduction path stays well-typed
    # (criterion 4); the intermediate forms supply the multi-redex states
    rng = random.Random(99)
    joins = divergent = 0
    batch = 0
    while joins + divergent < 1000:
        batch += 1
        for t, _ in welltyped_corpus(2000, seed=99 + batch):
            cur = t
            for _ in range(100):
                positions = redex_positions(cur)
                if not positions:
                    break
                if len(positions) >= 2 and joins + divergent < 1000:
                    p, q = rng.sample(positions, 2)
                    a = normal_form_of(contract_at(cur, p), 10_000)
                    b = normal_form_of(contract_at(cur, q), 10_000)
                    assert a is not None and b is not None
                    if a == b:
                        joins += 1
                    else:
                        divergent += 1
                cur = contract_at(cur, positions[0])
            if joins + divergent >= 1000:
                break
    report(8, "confluence", divergent == 0,
           f"{joins} two-path joins, {divergent} divergent pairs")


def test_criterion_9_roundtrip():
    bad = 0
    total = 0
    for e in registry():
        star = e.system == "star"
        total += 2
        bad += parse_term(pretty(e.term, star=star)) != e.term
        bad += parse_term(pretty(e.type, star=star)) != e.type
    from ptslab.corpus import random_wellscoped
    rng = random.Random(31)
    for _ in range(1000):
        t = random_wellscoped(rng, 25)
        total += 1
        bad += parse_term(pretty(t)) != t
    report(9, "surface round-trip", bad == 0,
           f"{total} terms reprinted and reparsed, {bad} mismatches")
