import random

import pytest

from ptslab.term import (App, Lam, STAR_SORT, Var, contract_at, normalize,
                         NormalForm, redex_positions, step_normal_order,
                         substitute)
from ptslab.erase import EraseError, UNTYPED, erase, u_one_step_reachable
from ptslab.syntax import parse_term, pretty
from ptslab.encodings import definitions
from ptslab.corpus import welltyped_corpus
from reference import reference_one_step_reachable


F = definitions("f")


def lam(body):
    return Lam(UNTYPED, body)


def test_erase_identity():
    assert erase(F["ID"]) == lam(Var(0))


def test_erase_self_application():
    got = erase(parse_term("ID {rho} ID", F))
    assert got == App(lam(Var(0)), lam(Var(0)))
    assert pretty(got) == "(\\x. x) (\\x. x)"


def test_erase_boolean():
    assert erase(F["T"]) == lam(lam(Var(1)))
    assert erase(F["F"]) == lam(lam(Var(0)))


def test_type_abstraction_and_application_vanish():
    t = parse_term(r"/\X. \x:X. \y:Bool. x", F)
    assert erase(t) == lam(lam(Var(1)))


def test_free_variables_keep_their_distance_past_the_term():
    # a free index drops only the type binders it crosses
    assert erase(Var(5)) == Var(5)
    assert pretty(erase(App(Var(0), Var(1)))) == "f0 f1"
    assert pretty(erase(Lam(STAR_SORT, Var(3)))) == "f2"


def test_erase_rejects_j():
    with pytest.raises(EraseError):
        erase(parse_term("J {rho} {rho} Delta", F))


def test_untyped_substitution():
    # (\x. x x)[y] plumbing, by the kernel's substitution
    assert substitute(App(Var(0), Var(1)), lam(Var(0))) == \
        App(lam(Var(0)), Var(0))


def test_untyped_contraction():
    t = App(lam(Var(0)), lam(lam(Var(0))))
    assert redex_positions(t) == [()]
    assert contract_at(t, ()) == lam(lam(Var(0)))


def test_one_step_reachable():
    t = App(lam(Var(0)), lam(Var(0)))
    assert u_one_step_reachable(t, t)               # zero steps
    assert u_one_step_reachable(t, lam(Var(0)))     # one beta step
    assert not u_one_step_reachable(t, Var(0))


def test_one_step_reachable_builds_each_contractum_once(monkeypatch):
    import ptslab.term as term_module
    calls = []
    real = term_module.substitute

    def counting(body, arg):
        calls.append(body)
        return real(body, arg)

    monkeypatch.setattr(term_module, "substitute", counting)
    i = lam(Var(0))
    t = App(i, App(i, App(i, i)))
    assert not u_one_step_reachable(t, Var(0))
    assert len(calls) == 3


def test_one_step_reachable_matches_two_pass_check():
    verdicts = []
    for t, _ in welltyped_corpus(300, seed=21, max_nodes=60):
        # an erased term's own normal-order reducts, up to three steps on
        path = [erase(t)]
        while len(path) < 12:
            r = step_normal_order(path[-1])
            if r is None:
                break
            path.append(r[0])
        for i, a in enumerate(path):
            for b in [Var(0), *path[i:i + 4]]:
                got = u_one_step_reachable(a, b)
                assert got == reference_one_step_reachable(a, b)
                verdicts.append(got)
    assert verdicts.count(False) > len(verdicts) // 4
    assert verdicts.count(True) > len(verdicts) // 4


def test_erasure_simulation():
    # each typed contraction maps to at most one untyped contraction
    violations = 0
    for t, _ in welltyped_corpus(500, seed=3):
        cur = t
        for _ in range(50):
            r = step_normal_order(cur)
            if r is None:
                break
            nxt = r[0]
            if not u_one_step_reachable(erase(cur), erase(nxt)):
                violations += 1
            cur = nxt
    assert violations == 0


def test_erased_normal_forms_agree():
    # normalize then erase == erase then normalize, sampled
    rng = random.Random(9)
    for t, _ in welltyped_corpus(100, seed=4):
        tr = normalize(t, 10_000, keep_steps=False)
        assert type(tr.outcome) is NormalForm
        u = erase(t)
        for _ in range(10_000):
            ps = redex_positions(u)
            if not ps:
                break
            u = contract_at(u, ps[0])
        assert u == erase(tr.outcome.term)
