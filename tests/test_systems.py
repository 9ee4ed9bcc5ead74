import functools
import hashlib
import random
import tracemalloc

import pytest

from ptslab.term import (App, JRules, Lam, Pi, Sort, STAR_SORT, Term, Var,
                         app, normalize, NormalForm, substitute, weak_head)
from ptslab.systems import (ArgumentTypeMismatch, ConversionFuelExhausted,
                            Context, EMPTY, JNotEnabled,
                            J_TYPE, LAMBDA_ARROW, LAMBDA_STAR, LAMBDA_U_MINUS,
                            NoAxiom, NoRule, NotAFunction, SYSTEM_F,
                            SYSTEM_F_J, SYSTEMS, SystemSpec, TypeMismatch,
                            TypingError, UnboundVariable, _Checker, check,
                            convertible, infer, subject_reduction_probe)
from ptslab.corpus import random_wellscoped, welltyped_corpus
from ptslab.syntax import parse_term, pretty
from ptslab.encodings import definitions, registry
from ptslab.paradox import build_hurkens
from reference import reference_whnf


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


# each entry point that takes a context, on x : #5 (ill-scoped) and on
# y : x (a term, not a type)
_CONTEXT_ENTRIES = {
    "infer": lambda ctx: infer(SYSTEM_F, ctx, Var(0)),
    "check": lambda ctx: check(SYSTEM_F, ctx, Var(0), Var(6)),
    "subject_reduction_probe": lambda ctx: subject_reduction_probe(
        SYSTEM_F, ctx, Var(0), 3),
}


@pytest.mark.parametrize("entry", sorted(_CONTEXT_ENTRIES))
def test_ill_formed_context_is_rejected(entry):
    with pytest.raises(UnboundVariable):
        _CONTEXT_ENTRIES[entry](Context((("x", Var(5)),)))
    ctx = EMPTY.extend("A", STAR_SORT).extend("x", Var(0)).extend("y", Var(0))
    with pytest.raises(NoRule, match="declaration of y is not a type"):
        _CONTEXT_ENTRIES[entry](ctx)


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


def test_every_axiom_checks():
    # s : s' for each axiom, the top sorts BOX (stlc, f, f+j) and TRI
    # (uminus), which have no type, included
    for spec in SYSTEMS.values():
        for s, top in spec.axioms:
            check(spec, EMPTY, Sort(s), Sort(top))


def test_check_judges_the_expected_type_as_a_type():
    # ID is well typed but no type, so T : ID is no mismatch of two types
    with pytest.raises(NoRule, match="expected type is not a type"):
        check(SYSTEM_F, EMPTY, F_DEFS["T"], F_DEFS["ID"])


def test_check_reports_the_subject_first():
    # both the subject and the expected type are ill typed
    with pytest.raises(UnboundVariable):
        check(SYSTEM_F, EMPTY, Var(0), App(STAR_SORT, STAR_SORT))


# --- the triple ------------------------------------------------------------

@pytest.mark.parametrize("axioms, rules, what", [
    ({("*", "TRI")}, set(), "names no sort"),
    (set(), {("*", "*", "TRI")}, "names no sort"),
    ({("*", "BOX"), ("*", "*")}, set(), "two axioms"),
    ({("*", "BOX")}, {("*", "*", "*"), ("*", "*", "BOX")}, "two rules")])
def test_system_spec_rejects_a_bad_triple(axioms, rules, what):
    # ValueError, not assert, so that python -O keeps the check; two axioms
    # for a sort or two rules for a pair would leave axiom() or rule() to
    # pick one by frozenset order
    with pytest.raises(ValueError, match=what):
        SystemSpec("bad", frozenset({"*", "BOX"}), frozenset(axioms),
                   frozenset(rules))


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


def test_whnf_returns_non_applications_at_once():
    # weak_head never rewrites a term that is not an application, so whnf
    # returns it as it is and caches nothing; an application is cached
    ck = _Checker(SYSTEM_F)
    for t in (F_DEFS["Bool"], STAR_SORT, Var(3)):
        assert ck.whnf(t, ()) is t
    assert ck.whnfs == {}
    redex = App(Lam(STAR_SORT, Var(0)), F_DEFS["Bool"])
    assert ck.whnf(redex, ()) == F_DEFS["Bool"]
    assert ck.whnfs[redex] == F_DEFS["Bool"]


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


def test_whnf_fuel_counts_closing_j_arguments():
    # J{(\x:*. Bool) y}{Bool} rho: closing the open type argument is one
    # step and the J rule a second, so fuel 1 gives up and fuel 2 reaches rho
    bool_ty, rho = F_DEFS["Bool"], F_DEFS["rho"]
    t = app(tf("J"), App(Lam(STAR_SORT, bool_ty), Var(0)), bool_ty, rho)
    with pytest.raises(ConversionFuelExhausted):
        _Checker(SYSTEM_F_J, 1).whnf(t, ())
    assert _Checker(SYSTEM_F_J, 2).whnf(t, ()) == rho


def deep_spine(a: Term, n: int = 5000) -> Term:
    r"""((\x:*. x) a) a ... a, n applications deep."""
    return app(App(Lam(STAR_SORT, Var(0)), a), *[a] * (n - 1))


def test_whnf_on_deep_spine():
    a = Var(0)
    assert _Checker(SYSTEM_F).whnf(deep_spine(a), ()) == app(a, *[a] * 4999)


def test_convertible_on_deep_spines():
    assert convertible(SYSTEM_F, EMPTY, deep_spine(Var(0)),
                       deep_spine(Var(1))) == "distinct"


def test_convertible_on_spines_deeper_than_the_pair_cap():
    # the spines differ at the head, one pair apart, though each has 2*10^4
    # function parts, twice the default fuel's pair cap
    assert convertible(SYSTEM_F, EMPTY, deep_spine(Var(0), 20_000),
                       deep_spine(Var(1), 20_000)) == "distinct"


_IDENT = Lam(STAR_SORT, Var(0))

# every entry point that takes a fuel, called with fuel -1
_NEGATIVE_FUEL = {
    "normalize": lambda: normalize(App(_IDENT, _IDENT), -1),
    "weak_head": lambda: weak_head(App(_IDENT, _IDENT), -1),
    "JRules": lambda: JRules(-1),
    "_Checker": lambda: _Checker(SYSTEM_F, -1),
    "infer": lambda: infer(SYSTEM_F, EMPTY, _IDENT, fuel=-1),
    "check": lambda: check(SYSTEM_F, EMPTY, _IDENT, Pi(STAR_SORT, STAR_SORT),
                           fuel=-1),
    "convertible": lambda: convertible(SYSTEM_F, EMPTY, Var(0), Var(1),
                                       fuel=-1),
    "subject_reduction_probe": lambda: subject_reduction_probe(
        SYSTEM_F_J, EMPTY, _IDENT, 3, fuel=-1),
}


@pytest.mark.parametrize("entry", sorted(_NEGATIVE_FUEL))
def test_negative_fuel_is_rejected(entry):
    with pytest.raises(ValueError, match="fuel must be >= 0"):
        _NEGATIVE_FUEL[entry]()


def test_negative_probe_steps_are_rejected():
    with pytest.raises(ValueError, match="steps must be >= 0"):
        subject_reduction_probe(SYSTEM_F, EMPTY, F_DEFS["ID"], -5)


def count_matcher_calls(monkeypatch):
    """A list whose length is the number of term._match_redex calls made
    after this one."""
    from ptslab import term
    calls = []
    match = term._match_redex

    def counting(node, jrules):
        calls.append(None)
        return match(node, jrules)

    monkeypatch.setattr(term, "_match_redex", counting)
    return calls


def test_conv_on_deep_spines_is_linear(monkeypatch):
    # each weak head form is found once, and conv walks its spine once to
    # pair heads and arguments, so the spine is walked a bounded number of
    # times, not n times
    calls = count_matcher_calls(monkeypatch)
    n = 5000
    assert convertible(SYSTEM_F, EMPTY, deep_spine(Var(0)),
                       deep_spine(Var(1))) == "distinct"
    assert len(calls) < 5 * n


def test_whnf_is_linear_along_a_spine(monkeypatch):
    # I I ... I takes n head steps; walking the spine from the root at each
    # step would call the matcher n(n+1)/2 times
    calls = count_matcher_calls(monkeypatch)
    ident = Lam(STAR_SORT, Var(0))
    n = 2000
    assert _Checker(SYSTEM_F, 10**6).whnf(app(ident, *[ident] * n), ()) == ident
    assert len(calls) < 2 * n


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


def test_probe_weak_heads_match_reference(monkeypatch):
    # every (term, fuel) the checker hands to weak_head during a Hurkens
    # probe and a J-loop probe, replayed through the spine walk from the root
    import ptslab.systems as systems_module
    calls = []
    real = systems_module.weak_head

    def recording(t, fuel, jrules=None):
        w = real(t, fuel, jrules)
        calls.append((t, fuel, jrules, w))
        return w

    monkeypatch.setattr(systems_module, "weak_head", recording)
    fj = definitions("f+j")
    assert subject_reduction_probe(LAMBDA_STAR, EMPTY, build_hurkens(), 200,
                                   200_000).ok
    assert subject_reduction_probe(SYSTEM_F_J, EMPTY,
                                   App(App(fj["K"], fj["rho"]), fj["K"]),
                                   300).ok
    # the J loop's reducts keep a type equal to the original, so conv hands
    # weak_head nothing there; test_weak_head_matches_reference_on_j_terms
    # covers J heads
    assert len(calls) > 500
    for t, fuel, jrules, w in calls:
        assert w == reference_whnf(t, fuel, jrules)


def test_probe_memory_is_bounded():
    # the probe's docstring bound: about 4.4 MiB at 600 steps with the
    # sweep, 10.4 MiB with caches that keep every reduct's subterms
    t = build_hurkens()
    tracemalloc.start()
    try:
        rep = subject_reduction_probe(LAMBDA_STAR, EMPTY, t, 600, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.steps_taken == 600
    assert peak <= 6 * 2**20


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


# --- outcomes pinned -------------------------------------------------------

def _outcome(spec, t):
    try:
        return pretty(infer(spec, EMPTY, t, fuel=2000).type)
    except TypingError as exc:
        return f"{type(exc).__name__} {exc.position} {exc}"


@functools.lru_cache(maxsize=1)
def _pinned_terms() -> tuple[Term, ...]:
    # most random terms are ill-typed somewhere
    rng = random.Random(7)
    terms = [random_wellscoped(rng, rng.randint(3, 25)) for _ in range(1000)]
    terms += [t for t, _ in welltyped_corpus(300, seed=7)]
    return tuple(terms)


def test_checker_outcomes_are_pinned():
    # each term's inferred type or error (class, position, message) in all
    # five systems, pinned so that a rewrite of the checker must decide
    # exactly as before
    rows = [_outcome(spec, t) for t in _pinned_terms()
            for spec in SYSTEMS.values()]
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == (
        "7dcbdaee222c0a9dc036ef2cece7600e994b4211ff6a7cdcc036bb08606f7014")


def test_check_accepts_every_inferred_type():
    # on the pinned terms and their closed subterms, among them * : BOX in
    # stlc, f and f+j, where the top sort BOX has no type
    seen, todo = set(), list(_pinned_terms())
    while todo:
        t = todo.pop()
        if t not in seen:
            seen.add(t)
            if type(t) in (App, Lam, Pi):
                todo += (t.left, t.right)
    for t in (t for t in seen if t.fvb == 0):
        for spec in SYSTEMS.values():
            try:
                ty = infer(spec, EMPTY, t, fuel=2000).type
            except TypingError:
                continue
            check(spec, EMPTY, t, ty, fuel=2000)
