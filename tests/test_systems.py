import random

import pytest

from ptslab.term import (App, Lam, Pi, Sort, STAR_SORT, Term, Var, app,
                         normalize, NormalForm, substitute)
from ptslab.systems import (ArgumentTypeMismatch, ConversionFuelExhausted,
                            Context, EMPTY, JNotEnabled,
                            J_TYPE, LAMBDA_ARROW, LAMBDA_STAR, LAMBDA_U_MINUS,
                            NoAxiom, NoRule, NotAFunction, SYSTEM_F,
                            SYSTEM_F_J, SYSTEMS, TypeMismatch, TypingError,
                            UnboundVariable, _Checker, check, convertible,
                            infer, subject_reduction_probe)
from ptslab.syntax import parse_term
from ptslab.encodings import definitions, registry


F_DEFS = definitions("f")
S_DEFS = definitions("star")


def tf(src):
    return parse_term(src, F_DEFS)


def ts(src):
    return parse_term(src, S_DEFS)


# --- system tables ---------------------------------------------------------

def test_builtin_specs():
    assert LAMBDA_ARROW.rule("*", "*") == "*"
    assert LAMBDA_ARROW.rule("BOX", "*") is None
    assert SYSTEM_F.rule("BOX", "*") == "*"
    assert SYSTEM_F.axiom("*") == "BOX"
    assert SYSTEM_F.axiom("BOX") is None
    assert LAMBDA_U_MINUS.rule("BOX", "BOX") == "BOX"
    assert LAMBDA_U_MINUS.rule("TRI", "BOX") == "BOX"
    assert LAMBDA_U_MINUS.axiom("BOX") == "TRI"
    assert LAMBDA_STAR.axiom("*") == "*"
    assert LAMBDA_STAR.sorts == frozenset({"*"})
    assert SYSTEM_F_J.with_j and not SYSTEM_F.with_j


def test_spec_tables_only_mention_declared_sorts():
    for spec in SYSTEMS.values():
        for a, b in spec.axioms:
            assert {a, b} <= spec.sorts
        for a, b, c in spec.rules:
            assert {a, b, c} <= spec.sorts


# --- infer -----------------------------------------------------------------

def test_star_sort_is_its_own_type():
    j = infer(LAMBDA_STAR, EMPTY, STAR_SORT)
    assert j.type == STAR_SORT


def test_id_has_the_polymorphic_identity_type():
    j = infer(SYSTEM_F, EMPTY, F_DEFS["ID"])
    assert j.type == tf("forall X. X -> X")


def test_id_applied_to_itself():
    j = infer(SYSTEM_F, EMPTY, tf("ID {rho} ID"))
    assert j.type == F_DEFS["rho"]
    # confirm by re-checking the judgment
    assert infer(SYSTEM_F, EMPTY, j.subject).type == j.type


def test_stlc_rejects_type_abstraction():
    with pytest.raises(NoRule):
        infer(LAMBDA_ARROW, EMPTY, tf(r"/\X. \x:X. x"))


def test_bottom_is_a_type_in_star():
    j = infer(LAMBDA_STAR, EMPTY, ts("Pi x:V. x"))
    assert j.type == STAR_SORT


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        infer(SYSTEM_F, EMPTY, Var(0))


def test_no_axiom_for_box_in_star():
    with pytest.raises(NoAxiom):
        infer(LAMBDA_STAR, EMPTY, Sort("BOX"))


def test_not_a_function():
    # x : A for a type variable A cannot be applied
    ctx = EMPTY.extend("A", STAR_SORT).extend("x", Var(0))
    with pytest.raises(NotAFunction):
        infer(SYSTEM_F, ctx, App(Var(0), Var(0)))


def test_argument_type_mismatch_carries_both_sides():
    with pytest.raises(ArgumentTypeMismatch) as ei:
        infer(SYSTEM_F, EMPTY, tf(r"(\b:Bool. b) ID"))
    assert ei.value.expected == F_DEFS["Bool"]
    assert ei.value.actual == F_DEFS["rho"]
    assert ei.value.position != None


def test_j_constant_needs_its_system():
    with pytest.raises(JNotEnabled):
        infer(SYSTEM_F, EMPTY, tf("J"))
    assert infer(SYSTEM_F_J, EMPTY, tf("J")).type == J_TYPE


def test_infer_in_context():
    ctx = EMPTY.extend("A", STAR_SORT).extend("x", Var(0))
    j = infer(SYSTEM_F, ctx, Var(0))
    assert j.type == Var(1)


def test_context_lookup_shifts():
    ctx = EMPTY.extend("A", STAR_SORT).extend("f", Pi(Var(0), Var(1)))
    assert infer(SYSTEM_F, ctx, Var(0)).type == Pi(Var(1), Var(2))
    assert infer(SYSTEM_F, ctx, Var(1)).type == STAR_SORT
    with pytest.raises(UnboundVariable):
        infer(SYSTEM_F, ctx, Var(5))


# --- check -----------------------------------------------------------------

def test_map_has_its_announced_type():
    check(SYSTEM_F, EMPTY, F_DEFS["Map"],
          tf("forall X. forall Y. (X -> Y) -> "
             "(forall Z. Z -> (X->Z->Z) -> Z) -> (forall Z. Z -> (Y->Z->Z) -> Z)"))


def test_powerset_function_checks_in_star():
    check(LAMBDA_STAR, EMPTY, ts(r"\x:V. x -> V"), ts("V -> V"))


def test_check_mismatch():
    with pytest.raises(TypeMismatch) as ei:
        check(SYSTEM_F, EMPTY, F_DEFS["ID"], F_DEFS["Bool"])
    assert ei.value.expected == F_DEFS["Bool"]


def test_check_is_up_to_conversion():
    # (\x:V. x -> x) bot converts to bot -> bot; type-level functions
    # only exist in star, where V : V makes them first class
    bot = ts("Pi x:V. x")
    ann = App(Lam(STAR_SORT, Pi(Var(0), Var(1))), bot)
    check(LAMBDA_STAR, EMPTY, Lam(bot, Var(0)), ann)


# --- convertible -----------------------------------------------------------

def test_convertible_one_beta_step():
    sigma = F_DEFS["Bool"]
    a = App(Lam(STAR_SORT, Pi(Var(0), Var(1))), sigma)
    assert convertible(SYSTEM_F, EMPTY, a, Pi(sigma, sigma)) == "convertible"


def test_convertible_reflexive():
    t = F_DEFS["rho"]
    assert convertible(SYSTEM_F, EMPTY, t, t) == "convertible"


def test_convertible_distinct():
    assert convertible(SYSTEM_F, EMPTY, F_DEFS["rho"], F_DEFS["Bool"]) == "distinct"


def test_convertible_fuel_exhausted():
    omega = App(Lam(STAR_SORT, App(Var(0), Var(0))),
                Lam(STAR_SORT, App(Var(0), Var(0))))
    assert convertible(LAMBDA_STAR, EMPTY, omega, STAR_SORT,
                       fuel=50) == "fuel-exhausted"


def test_whnf_fuel_counts_contractions():
    # (\X:*. X) Bool is one head step from its weak head normal form, so
    # fuel 1 reaches it; a term already in weak head normal form needs none
    bool_ty = F_DEFS["Bool"]
    redex = App(Lam(STAR_SORT, Var(0)), bool_ty)
    assert convertible(SYSTEM_F, EMPTY, redex, bool_ty, fuel=1) == "convertible"
    assert _Checker(SYSTEM_F, 0).whnf(bool_ty, ()) is bool_ty
    with pytest.raises(ConversionFuelExhausted):
        _Checker(SYSTEM_F, 0).whnf(redex, ())


def test_convertible_distinct_heads_under_divergent_argument():
    # x omega and y omega differ at the head; weak head comparison never
    # normalises the argument, so no fuel is spent on it
    omega = App(Lam(STAR_SORT, App(Var(0), Var(0))),
                Lam(STAR_SORT, App(Var(0), Var(0))))
    assert convertible(LAMBDA_STAR, EMPTY, App(Var(0), omega),
                       App(Var(1), omega), fuel=1000) == "distinct"


def test_convertible_gives_up_on_self_reproducing_weak_head_forms():
    # A A ->> \y:*. A A, and the same for A' A', so comparing the bodies
    # yields the pair (A A, A' A') again; no normal form exists on either side
    xx = App(Var(1), Var(1))
    a = Lam(STAR_SORT, Lam(STAR_SORT, xx))
    a2 = Lam(Sort("BOX"), Lam(STAR_SORT, xx))
    assert convertible(LAMBDA_STAR, EMPTY, App(a, a), App(a2, a2),
                       fuel=1000) == "fuel-exhausted"


def test_convertible_closes_j_type_argument_by_reduction():
    # \y:*. J{(\x:*. Bool) y}{Bool} M: the first type argument is open but
    # reduces to the closed Bool, so J{Bool}{Bool} M -> M applies
    bool_ty, m = F_DEFS["Bool"], F_DEFS["rho"]
    s = App(Lam(STAR_SORT, bool_ty), Var(0))
    a = Lam(STAR_SORT, app(tf("J"), s, bool_ty, m))
    assert convertible(SYSTEM_F_J, EMPTY, a, Lam(STAR_SORT, m)) == "convertible"
    # J{y}{Bool} M stays stuck: y is open in every reduct
    stuck = Lam(STAR_SORT, app(tf("J"), Var(0), bool_ty, m))
    assert convertible(SYSTEM_F_J, EMPTY, stuck, Lam(STAR_SORT, m)) == "distinct"


def deep_spine(a: Term) -> Term:
    r"""((\x:*. x) a) a ... a, 5000 applications deep."""
    return app(App(Lam(STAR_SORT, Var(0)), a), *[a] * 4999)


def test_whnf_on_deep_spine():
    a = Var(0)
    assert _Checker(SYSTEM_F).whnf(deep_spine(a), ()) == app(a, *[a] * 4999)


def test_convertible_on_deep_spines():
    assert convertible(SYSTEM_F, EMPTY, deep_spine(Var(0)),
                       deep_spine(Var(1))) == "distinct"


# --- subject reduction probe -----------------------------------------------

def test_probe_on_identity_chain():
    t = tf("ID {rho} (ID {rho} ID)")
    rep = subject_reduction_probe(SYSTEM_F, EMPTY, t, steps=10)
    assert rep.ok and rep.violation_step is None
    assert rep.steps_taken > 0


def test_probe_registry_smoke():
    for e in list(registry())[:8]:
        rep = subject_reduction_probe(SYSTEMS[e.system], EMPTY, e.term, steps=10)
        assert rep.ok, e.name


# --- containment and embedding ---------------------------------------------

def test_stlc_judgments_hold_in_f():
    # simply typed terms over a base type in context keep their type in f
    ctx = EMPTY.extend("A", STAR_SORT)
    samples = [
        Lam(Var(0), Var(0)),                       # \x:A. x
        Lam(Pi(Var(0), Var(1)), Lam(Var(1), App(Var(1), Var(0)))),
    ]
    for t in samples:
        j1 = infer(LAMBDA_ARROW, ctx, t)
        j2 = infer(SYSTEM_F, ctx, t)
        assert j1.type == j2.type


def test_f_judgments_embed_in_star():
    # reading forall X as Pi x:V is the identity on this representation
    for name in ("ID", "T", "F", "nil", "conc", "Map", "Delta"):
        e = F_DEFS[name]
        jf = infer(SYSTEM_F, EMPTY, e)
        js = infer(LAMBDA_STAR, EMPTY, e)
        assert jf.type == js.type


# --- genericity ------------------------------------------------------------

def test_genericity_on_id():
    # nf(M{tau}) == nf(M{X})[tau/X] for polymorphic M
    m = F_DEFS["ID"]
    for tau in (F_DEFS["Bool"], F_DEFS["rho"], tf("Bool -> Bool")):
        lhs = normalize(App(m, tau)).outcome
        generic = normalize(App(m, Var(0))).outcome
        assert type(lhs) is NormalForm and type(generic) is NormalForm
        assert lhs.term == substitute(generic.term, tau)


# --- decidability boundary -------------------------------------------------

def test_no_fuel_exhaustion_in_normalizing_systems():
    for e in registry():
        if e.system in ("stlc", "f", "f+j", "uminus"):
            infer(SYSTEMS[e.system], EMPTY, e.term)  # must not raise


def test_recheck_idempotence():
    for e in list(registry())[:12]:
        j = infer(SYSTEMS[e.system], EMPTY, e.term)
        assert infer(SYSTEMS[e.system], EMPTY, j.subject).type == j.type
