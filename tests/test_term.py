import random
import time
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

import ptslab.term as term_module
from ptslab.term import (App, CycleDetected, FuelExhausted, J, JRules, Lam,
                         NormalForm, Pi, PrimJ, Sort, STAR_SORT, Term, Var,
                         app, contract_at, normal_form_of, normalize,
                         redex_positions, reducts, shift, step_normal_order,
                         substitute, weak_head)
from ptslab.syntax import parse_term
from ptslab.encodings import definitions
from ptslab.corpus import random_wellscoped, welltyped_corpus
from ptslab.paradox import build_hurkens
from ptslab.codes import build_flat_machinery, church
from reference import (_NODES, contract_by_descent, has_no_redex_or_j,
                       node_paths, reference_normalize, reference_positions,
                       reference_step, reference_whnf)


DEFS = definitions("f")


def T(src):
    return parse_term(src, DEFS)


# --- substitution ----------------------------------------------------------

def test_substitute_identity():
    arrow = T("Bool -> Bool")
    assert substitute(Var(0), arrow) == arrow


def test_substitute_instantiates_delta_domain():
    # (x -> x) with x := rho gives rho -> rho
    rho = DEFS["rho"]
    body = Pi(Var(0), Var(1))
    assert substitute(body, rho) == Pi(rho, shift(rho, 1))


def test_substitute_shifts_under_binder():
    # [\y. x0] with x0 := z1 must become \y. z2 inside the binder
    body = Lam(STAR_SORT, Var(1))
    assert substitute(body, Var(1)) == Lam(STAR_SORT, Var(2))


def test_substitute_into_a_shared_dag_stays_linear():
    # t_{k+1} = t_k t_k has 17 distinct nodes at depth 16 but 2^17 - 1 as a
    # tree; substitution memoises on node identity past 64 interior nodes,
    # so it builds a DAG too, not the 2^16 - 1 applications of the tree
    def tower(leaf, depth):
        for _ in range(depth):
            leaf = App(leaf, leaf)
        return leaf

    depth, arg = 16, Lam(STAR_SORT, App(Var(0), Var(1)))
    got = substitute(tower(Var(0), depth), arg)
    assert got == tower(arg, depth)
    seen, todo = set(), [got]
    while todo:
        n = todo.pop()
        if id(n) not in seen:
            seen.add(id(n))
            if type(n) is App:
                todo += n.left, n.right
    assert len(seen) <= 64 + 2 * depth


# named-variable oracle: an independent substituter over named trees

class NVar:
    def __init__(self, n): self.n = n
    def __eq__(self, o): return type(o) is NVar and o.n == self.n


class NBind:
    def __init__(self, tag, x, a, b): self.tag, self.x, self.a, self.b = tag, x, a, b
    def __eq__(self, o):
        return type(o) is NBind and (o.tag, o.x, o.a, o.b) == (self.tag, self.x, self.a, self.b)


class NApp:
    def __init__(self, f, a): self.f, self.a = f, a
    def __eq__(self, o): return type(o) is NApp and o.f == self.f and o.a == self.a


class NSort:
    def __init__(self, s): self.s = s
    def __eq__(self, o): return type(o) is NSort and o.s == self.s


_counter = [0]


def _fresh():
    _counter[0] += 1
    return f"v{_counter[0]}"


def to_named(t, env):
    if type(t) is Var:
        return NVar(env[t.index])
    if type(t) is Sort:
        return NSort(t.name)
    if type(t) in (Lam, Pi):
        x = _fresh()
        tag = "lam" if type(t) is Lam else "pi"
        return NBind(tag, x, to_named(t.left, env), to_named(t.right, [x] + env))
    return NApp(to_named(t.left, env), to_named(t.right, env))


def named_subst(t, x, s):
    if type(t) is NVar:
        return s if t.n == x else t
    if type(t) is NSort:
        return t
    if type(t) is NApp:
        return NApp(named_subst(t.f, x, s), named_subst(t.a, x, s))
    # always rename the binder: global freshness makes capture impossible
    y = _fresh()
    body = named_subst(t.b, t.x, NVar(y))
    return NBind(t.tag, y, named_subst(t.a, x, s), named_subst(body, x, s))


def from_named(t, env):
    if type(t) is NVar:
        return Var(env.index(t.n))
    if type(t) is NSort:
        return Sort(t.s)
    if type(t) is NApp:
        return App(from_named(t.f, env), from_named(t.a, env))
    cls = Lam if t.tag == "lam" else Pi
    return cls(from_named(t.a, env), from_named(t.b, [t.x] + env))


def test_substitute_matches_named_oracle():
    rng = random.Random(2024)
    free = ["f0", "f1", "f2"]
    for _ in range(1000):
        body = random_wellscoped(rng, rng.randint(1, 30), free=4)
        arg = random_wellscoped(rng, rng.randint(1, 10), free=3)
        got = substitute(body, arg)
        x = _fresh()
        nb = to_named(body, [x] + free)
        na = to_named(arg, free)
        want = from_named(named_subst(nb, x, na), free)
        assert got == want


# --- single steps ----------------------------------------------------------

def test_step_id_instantiation():
    t = T("ID {Bool}")
    r = step_normal_order(t)
    assert r is not None
    reduct, pos, rule = r
    assert reduct == T(r"\x:Bool. x")
    assert pos == () and rule == "beta"


def test_normal_form_has_no_step():
    assert step_normal_order(T(r"\x:Bool. x")) is None


def test_leftmost_outermost_is_chosen():
    # both the outer application and the argument contain redexes; the
    # outermost one must fire first
    inner = App(Lam(STAR_SORT, Var(0)), DEFS["Bool"])
    t = App(Lam(STAR_SORT, STAR_SORT), inner)
    positions = redex_positions(t)
    assert positions == [(), (1,)]
    _, pos, _ = step_normal_order(t)
    assert pos == min(positions)


def test_contract_at_on_deep_spine():
    # ((\x:*. x) a) a ... a, 5000 applications deep: no recursion limit
    a = Var(0)
    t = app(App(Lam(STAR_SORT, Var(0)), a), *[a] * 4999)
    p = redex_positions(t)[0]
    assert p == (0,) * 4999
    assert contract_at(t, p) == app(a, *[a] * 4999)


def test_contract_at_rejects_paths_that_reach_no_redex():
    # redexes at () and (1,); index 2 must not be read as "right"
    ident = Lam(STAR_SORT, Var(0))
    t = App(ident, App(ident, Var(0)))
    for path in [(2,), (1, 1), (1, 1, 0), (0,), (0, 0), (1, 0)]:
        with pytest.raises(ValueError, match="no redex at position"):
            contract_at(t, path)
    assert contract_at(t, (1,)) == App(ident, Var(0))
    # J{rho}{rho} M is a redex only under J rules; its type arguments hold none
    t = parse_term(r"J {rho} {rho} Delta", DEFS)
    assert contract_at(t, (), JRules()) == DEFS["Delta"]
    with pytest.raises(ValueError, match="no redex at position"):
        contract_at(t, ())
    for jrules in (None, JRules()):
        for path in [(0,), (0, 0), (0, 0, 1), (0, 1), (0, 1, 1), (2,)]:
            with pytest.raises(ValueError, match="no redex at position"):
                contract_at(t, path, jrules)


# --- one redex walk: the same answers as the two walks it replaced ---------

def unmarked_copy(t, memo=None):
    """t rebuilt by the constructors; shared subtrees stay shared and
    leaves are reused.  Normality is fixed at construction, so the copy
    carries the same exact flags as t."""
    if type(t) not in _NODES:
        return t
    memo = {} if memo is None else memo
    if id(t) not in memo:
        memo[id(t)] = type(t)(unmarked_copy(t.left, memo),
                              unmarked_copy(t.right, memo))
    return memo[id(t)]


def nf_bits(t):
    """The normality flags of t's distinct nodes, in preorder; a walk
    writes none, so a term and its copies give the same list."""
    out, seen, stack = [], set(), [t]
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen.add(id(n))
            out.append(n.nf)
            if type(n) in _NODES:
                stack += (n.right, n.left)
    return out


def assert_walk_matches_reference(t, jrules=None):
    """Compare one step, the normality flags after it (the walks write
    none), every redex position and their contractions with the reference
    walks; t may have been walked before.  Returns the reduct, or None."""
    a, b = unmarked_copy(t), unmarked_copy(t)
    want = reference_step(a, jrules)
    got = step_normal_order(b, jrules)
    assert got == want
    assert nf_bits(b) == nf_bits(a)
    assert step_normal_order(t, jrules) == want
    positions = redex_positions(t, jrules)
    assert positions == reference_positions(t, jrules)
    if want is None:
        assert positions == []
        return None
    assert type(got[1]) is tuple
    assert got[1] == positions[0]
    assert contract_at(t, got[1], jrules) == got[0]
    for p in positions:
        contract_at(t, p, jrules)
    return got[0]


def assert_reduction_matches_reference(t, steps, jrules=None):
    cur = t
    for _ in range(steps):
        cur = assert_walk_matches_reference(cur, jrules)
        if cur is None:
            break


def test_walk_matches_reference_on_corpus():
    for t, _ in welltyped_corpus(200, seed=12, max_nodes=60):
        assert_reduction_matches_reference(t, 40)


def test_walk_matches_reference_on_wellscoped_terms():
    rng = random.Random(13)
    for _ in range(300):
        assert_reduction_matches_reference(random_wellscoped(rng, 25), 20)


def test_walk_matches_reference_on_j_loop():
    fj = definitions("f+j")
    start = App(App(fj["K"], fj["rho"]), fj["K"])
    assert_reduction_matches_reference(start, 12, JRules())
    assert_reduction_matches_reference(start, 12)


def test_walk_matches_reference_on_hurkens_prefix():
    assert_reduction_matches_reference(build_hurkens(), 40)


def test_walk_matches_reference_after_normalize():
    # normalize leaves no marks on the subterms it scanned (normality is
    # fixed when a node is built); walking t again after it must give the
    # same answers, and the reference walk of positions skips nothing
    for t, _ in welltyped_corpus(100, seed=14, max_nodes=60):
        normalize(t, 3, keep_steps=False)
        assert_walk_matches_reference(t)
        normalize(t, 10_000, keep_steps=False)
        assert_walk_matches_reference(t)
        assert_walk_matches_reference(t, JRules())
    fj = definitions("f+j")
    loop = App(App(fj["K"], fj["rho"]), fj["K"])
    normalize(loop, 2, jrules=JRules())
    assert_reduction_matches_reference(loop, 6, JRules())


def test_walk_contracts_only_the_redex_used(monkeypatch):
    calls = []
    real = term_module.substitute

    def counting(body, arg):
        calls.append(body)
        return real(body, arg)

    monkeypatch.setattr(term_module, "substitute", counting)
    i = Lam(STAR_SORT, Var(0))
    t = App(i, App(i, App(i, i)))
    assert redex_positions(t) == [(), (1,), (1, 1)]
    assert calls == []
    assert step_normal_order(t) == (App(i, App(i, i)), (), "beta")
    assert len(calls) == 1


def test_reducts_are_the_contractions_at_redex_positions():
    branching = 0
    for t, _ in welltyped_corpus(200, seed=15, max_nodes=60):
        got = list(reducts(t))
        assert got == [contract_at(t, p) for p in redex_positions(t)]
        branching += len(got) >= 2
    assert branching > 20
    # under J rules, on the J loop and its first 10 reducts; every other
    # path, to a node or to none, raises
    fj = definitions("f+j")
    t, jrules, rules = App(App(fj["K"], fj["rho"]), fj["K"]), JRules(), set()
    for _ in range(11):
        positions = redex_positions(t, jrules)
        got = [contract_at(t, p, jrules) for p in positions]
        assert got == [contract_by_descent(t, p, jrules) for p in positions]
        for p in node_paths(t):
            if p not in positions:
                assert contract_by_descent(t, p, jrules) is None
                with pytest.raises(ValueError, match="no redex at position"):
                    contract_at(t, p, jrules)
        reduct, _, rule = step_normal_order(t, jrules)
        assert got[0] == reduct
        t = reduct
        rules.add(rule)
    assert rules == {"beta", "deltaJ-eq"}


# --- normality fixed at construction: the walks read, never write ---------

def distinct_nodes(*terms):
    """Every distinct node (by identity) of the given terms."""
    seen, stack = {}, list(terms)
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen[id(n)] = n
            if type(n) in _NODES:
                stack += (n.left, n.right)
    return list(seen.values())


def _walked_terms():
    """(term, jrules) pairs for the invariant tests: the Hurkens prefix,
    flat(#2), the J loop with and without J rules (without them its
    reduct's J applications are normal but unflagged) and 50 corpus
    terms."""
    fm, fj = build_flat_machinery(), definitions("f+j")
    yield build_hurkens(), None
    yield App(fm.flat, church(2)), None
    loop = App(App(fj["K"], fj["rho"]), fj["K"])
    yield loop, JRules()
    yield loop, None
    for t, _ in welltyped_corpus(50, seed=23, max_nodes=60):
        yield t, None


def _walk_everything(t, jrules):
    """Run every redex walk on t; return the terms they built."""
    redex_positions(t, jrules)
    built = list(reducts(t))
    r = step_normal_order(t, jrules)
    if r is not None:
        built.append(r[0])
    for tr in (normalize(t, 300, keep_steps=False, jrules=jrules),
               normalize(t, 300, detect_cycles=True, jrules=jrules)):
        o = tr.outcome
        built.append(o.term if type(o) is NormalForm
                     else o.last if type(o) is FuelExhausted else o.witness)
    return built


def test_walks_write_nothing():
    for t, jrules in _walked_terms():
        nodes = distinct_nodes(t)
        before = [(n.nf, n.fvb, n._hash) for n in nodes]
        _walk_everything(t, jrules)
        assert [(n.nf, n.fvb, n._hash) for n in nodes] == before


def test_normality_flag_matches_reference():
    terms = []
    for t, jrules in _walked_terms():
        terms += [t, *_walk_everything(t, jrules)]
    rng = random.Random(24)
    terms += [random_wellscoped(rng, 25) for _ in range(300)]
    memo = {}
    nodes = distinct_nodes(*terms)
    assert len(nodes) > 10_000
    assert sum(n.nf for n in nodes) and not all(n.nf for n in nodes)
    for n in nodes:
        assert n.nf == has_no_redex_or_j(n, memo)


# --- hashed on construction: every reduct hashes and compares as built -----

def constructor_copies(terms):
    """Rebuild each term from scratch by the constructors, leaves included,
    so that no copy shares a node with the originals, and check as each
    node is copied that it carries its copy's hash and normality flag.
    Each physical node is copied once, however many terms share it.
    Yields (term, copy)."""
    memo = {}   # id(node) -> (node, copy); holding node keeps its id unique
    for t in terms:
        stack = [t]
        while stack:
            node = stack[-1]
            if id(node) in memo:
                stack.pop()
                continue
            tn = type(node)
            if tn is Var:
                copy = Var(node.index)
            elif tn is Sort:
                copy = Sort(node.name)
            elif tn is PrimJ:
                copy = PrimJ()
            else:
                todo = [c for c in (node.right, node.left) if id(c) not in memo]
                if todo:
                    stack += todo
                    continue
                copy = tn(memo[id(node.left)][1], memo[id(node.right)][1])
            assert node._hash == copy._hash
            assert node.nf == copy.nf
            memo[id(node)] = (node, copy)
            stack.pop()
        yield t, memo[id(t)][1]


def assert_hashed_as_built(terms, compare=True):
    """Every node of every term hashes and is flagged normal as its
    constructor-built copy, and, if compare, each term equals its copy
    both ways; returns how many terms."""
    n = 0
    for t, copy in constructor_copies(terms):
        assert hash(t) == hash(copy)
        if compare:
            assert t == copy and copy == t
        n += 1
    return n


def test_rebuilt_reducts_hash_as_built_on_flat():
    fm = build_flat_machinery()
    for k in range(1, 9):
        start = App(fm.flat, church(k))
        # a focused run rebuilds its stale ancestors for the final term
        done = normalize(start, 100_000, keep_steps=False)
        cut = normalize(start, done.step_count // 2, keep_steps=False).outcome
        assert type(done.outcome) is NormalForm and type(cut) is FuelExhausted
        assert_hashed_as_built([done.outcome.term, cut.last])
        tr = normalize(start, 100_000)
        assert tr.step_count == done.step_count
        assert cut.last == tr.steps[tr.step_count // 2 - 1].after
        assert tr.outcome.term == done.outcome.term
        # every node of every reduct hashes as its copy; comparing each of
        # the ~19000 reducts of flat(#5..#8) with its copy would take ~15 s
        assert assert_hashed_as_built((s.after for s in tr.steps),
                                      compare=k <= 4) == tr.step_count


def test_rebuilt_reducts_hash_as_built_on_hurkens_prefix():
    tr = normalize(build_hurkens(), 2000)
    assert assert_hashed_as_built(s.after for s in tr.steps) == 2000


def test_rebuilt_reducts_hash_as_built_on_j_loop():
    fj = definitions("f+j")
    tr = normalize(App(App(fj["K"], fj["rho"]), fj["K"]), 60, jrules=JRules())
    assert {s.rule for s in tr.steps} > {"beta"}
    assert assert_hashed_as_built(s.after for s in tr.steps) == 60


def test_every_kind_of_reduct_hashes_as_built():
    built = []
    for t, _ in welltyped_corpus(80, seed=21, max_nodes=60):
        built += reducts(t)
        built += [contract_at(t, p) for p in redex_positions(t)]
        w = weak_head(t, 200)
        assert w is not None
        built += [w, shift(t, 2)]
        if type(t) is Lam:
            built.append(substitute(t.right, T("Bool -> Bool")))
    assert len(built) > 300
    assert_hashed_as_built(built)
    fj = definitions("f+j")
    loop = App(App(fj["K"], fj["rho"]), fj["K"])
    jrules = JRules()
    # the loop diverges in weak head; K rho reaches Delta by a J-eq step
    delta = weak_head(App(fj["K"], fj["rho"]), 10, jrules)
    assert delta == fj["Delta"]
    assert_hashed_as_built([delta,
                            *(contract_at(loop, p, jrules)
                              for p in redex_positions(loop, jrules))])


def test_equality_compares_shared_subterms_once():
    # 2^24 leaves as a tree, 25 nodes as a DAG; the copy shares nothing
    # with the tower and differs from it in sharing and, for other, in its
    # last leaf, forged to hash as the tower's so that == must walk to it
    def tower(k, last):
        t, u = Var(0), last
        for _ in range(k):
            t, u = App(t, t), App(t, u)
        return t, u

    a, _ = tower(24, Var(0))
    _, b = tower(24, Var(0))
    forged = Var(1)
    forged._hash = Var(0)._hash
    _, other = tower(24, forged)
    assert hash(other) == hash(a)
    start = time.perf_counter()
    assert a == b and b == a
    assert a != other and other != a
    assert time.perf_counter() - start < 1


def test_deep_rebuilt_spine_hashes_compares_and_rewrites():
    # a beta redex at the bottom of a 10^4-deep left spine of free variables
    t = App(Lam(STAR_SORT, App(Var(0), Var(1))), Var(2))
    for i in range(10_000):
        t = App(t, Var(i % 3))
    r, path, _ = step_normal_order(t)
    assert len(path) == 10_000
    [(_, copy)] = constructor_copies([r])
    assert hash(r) == hash(copy)
    assert r == copy
    assert substitute(r, Var(7)) == substitute(copy, Var(7))
    assert shift(r, 2) == shift(copy, 2)


# --- normalize -------------------------------------------------------------

def test_bool_projection():
    a, b = DEFS["rho"], DEFS["Bool"]
    t = app(DEFS["T"], DEFS["Bool"], App(DEFS["ID"], a), App(DEFS["ID"], b))
    # T{Bool} picks its first argument
    assert normal_form_of(t) == normal_form_of(App(DEFS["ID"], a))


def test_numeral_unfolds():
    two = T(r"/\X. \f:X->X. \x:X. f (f x)")
    t = parse_term(r"two {Bool} (\b:Bool. b)", {**DEFS, "two": two})
    nf = normal_form_of(t)
    assert nf == parse_term(r"\x:Bool. (\b:Bool. b) ((\b:Bool. b) x)",
                            DEFS) or nf is not None


def test_fuel_exhaustion_is_in_band():
    omega = App(Lam(STAR_SORT, App(Var(0), Var(0))),
                Lam(STAR_SORT, App(Var(0), Var(0))))
    tr = normalize(omega, 50)
    assert tr.step_count == 50
    assert tr.outcome.fuel == 50


def test_cycle_detection_on_self_application():
    omega = App(Lam(STAR_SORT, App(Var(0), Var(0))),
                Lam(STAR_SORT, App(Var(0), Var(0))))
    tr = normalize(omega, 50, detect_cycles=True)
    assert type(tr.outcome) is CycleDetected
    assert tr.outcome.period == 1



# --- focused normalisation: the same run as a search from the root ---------

def assert_focus_matches_root(t, fuels):
    """At each fuel, normalize without kept steps (the strong machine) stops
    after the same number of steps and with the same outcome as normalize
    with kept steps (the walk, which searches each reduct from the root)."""
    for fuel in fuels:
        want = normalize(t, fuel)
        got = normalize(t, fuel, keep_steps=False)
        assert got.step_count == want.step_count, fuel
        assert type(got.outcome) is type(want.outcome), fuel
        assert got.outcome == want.outcome, fuel


SHORT_FUELS = (0, 1, 2, 3, 5, 8, 13, 21, 500)


def test_focus_matches_root_on_wellscoped_terms():
    rng = random.Random(31)
    for _ in range(300):
        assert_focus_matches_root(random_wellscoped(rng, 25), SHORT_FUELS)


def test_focus_matches_root_on_corpus():
    for t, _ in welltyped_corpus(200, seed=32, max_nodes=60):
        n = normalize(t, 500, keep_steps=False).step_count
        assert_focus_matches_root(t, {*SHORT_FUELS, n - 1, n, n + 1} - {-1})


def test_focus_matches_root_on_flat():
    fm = build_flat_machinery()
    for k, n in [(1, 182), (2, 401), (4, 1217), (7, 3746), (8, 5033)]:
        # every cut but the last stops inside flat's application spine
        assert_focus_matches_root(App(fm.flat, church(k)),
                                  (n // 3, n // 2 + 1, n - 1, n, n + 1))


def test_focus_matches_root_on_hurkens_prefix():
    assert_focus_matches_root(build_hurkens(), (1000, 2001))


def test_focus_matches_root_on_j_loop_without_j_rules():
    fj = definitions("f+j")
    start = App(App(fj["K"], fj["rho"]), fj["K"])
    assert_focus_matches_root(start, range(0, 40, 3))
    assert type(normalize(start, 10_000, keep_steps=False).outcome) \
        is NormalForm


IDENT = Lam(STAR_SORT, Var(0))


@pytest.mark.parametrize("t,steps,nf", [
    # ((\x:*. x) (\y:*. y)) z: the contractum is a lambda in function
    # position, so its parent becomes the next redex
    (App(App(IDENT, IDENT), Var(0)), 2, Var(0)),
    # the same one level down: the second contraction is at the focus's
    # own root, and the search climbs to a normal root
    (app(App(IDENT, IDENT), Var(0), Var(1)), 2, App(Var(0), Var(1))),
    # f ((\a:*. a) x) ((\y:*. y) z): after the first step the focus f x is
    # normal, and the next redex is in its right sibling
    (app(Var(2), App(IDENT, Var(1)), App(IDENT, Var(0))), 2,
     app(Var(2), Var(1), Var(0))),
    # x ((\a:*. a) y) y ... y ((\b:*. b) z): the normal focus climbs 31
    # levels of normal arguments to the next redex
    (app(Var(0), App(IDENT, Var(1)), *[Var(1)] * 30, App(IDENT, Var(2))), 2,
     app(Var(0), *[Var(1)] * 31, Var(2))),
])
def test_focus_climbs_where_it_must(t, steps, nf):
    tr = normalize(t, 100, keep_steps=False)
    assert tr.step_count == steps and tr.outcome == NormalForm(nf)
    assert_focus_matches_root(t, range(steps + 2))


def test_focus_fuel_cut_inside_a_spine():
    # I I ... I contracts its innermost application first; after 10 steps
    # the spine has lost 10 of them, and the whole term is rebuilt
    t = app(IDENT, *[IDENT] * 50)
    tr = normalize(t, 10, keep_steps=False)
    assert tr.step_count == 10
    assert tr.outcome == FuelExhausted(app(IDENT, *[IDENT] * 40), 10)
    assert_focus_matches_root(t, (0, 1, 10, 49, 50, 51))


def test_focused_spine_rebuilds_linearly(monkeypatch):
    # the strong machine's beta steps build nothing; reading the spine back
    # at a fuel cut builds each of its applications once (a search from the
    # root rebuilds ~n^2/2 nodes)
    n = 2000
    t = app(IDENT, *[IDENT] * n)
    half = app(IDENT, *[IDENT] * (n // 2))
    built = 0

    def counting(init):
        def count(self, *args):
            nonlocal built
            built += 1
            init(self, *args)
        return count

    for cls in (App, Lam):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    tr = normalize(t, 10 * n, keep_steps=False)
    assert tr.step_count == n and tr.outcome == NormalForm(IDENT)
    cut = normalize(t, n // 2, keep_steps=False)
    assert built <= 4 * n
    assert cut.outcome == FuelExhausted(half, n // 2)


# --- strong machine: the walk's run, contraction for contraction -----------

def assert_machine_matches_walk(t):
    """At every fuel from 0 to n + 1, where n is the walk's step count,
    normalize without kept steps (the strong machine) gives the outcome,
    step count and term of normalize with kept steps (the walk)."""
    n = normalize(t, 100_000, keep_steps=False).step_count
    for fuel in range(n + 2):
        want = normalize(t, fuel)
        got = normalize(t, fuel, keep_steps=False)
        assert got.step_count == want.step_count, fuel
        assert type(got.outcome) is type(want.outcome), fuel
        assert got.outcome == want.outcome, fuel
    return n


def test_machine_matches_walk_on_flat():
    fm = build_flat_machinery()
    assert [assert_machine_matches_walk(App(fm.flat, church(k)))
            for k in (1, 2)] == [182, 401]


def test_machine_matches_walk_on_church_arithmetic():
    star = definitions("star")
    assert [assert_machine_matches_walk(t) for t in (
        App(star["pred"], star["n5"]),
        app(star["exp"], star["n2"], star["n5"]))] == [67, 96]


def assert_machine_cuts_match_one_walk(t, fuels):
    """normalize without kept steps (the strong machine), at each fuel,
    gives the outcome, step count and term of one walk with kept steps cut
    after that many steps: its reduct there, or its normal form."""
    walk = normalize(t, max(fuels))
    terms = [t, *(s.after for s in walk.steps)]
    for fuel in fuels:
        got = normalize(t, fuel, keep_steps=False)
        want = (FuelExhausted(terms[fuel], fuel)
                if fuel < walk.step_count
                or type(walk.outcome) is FuelExhausted else walk.outcome)
        assert type(got.outcome) is type(want), fuel
        assert got.outcome == want, fuel
        assert got.step_count == min(fuel, walk.step_count), fuel


def test_machine_matches_walk_past_hundreds_of_steps():
    # long runs, cut at and around multiples of 512 and far from them
    assert_machine_cuts_match_one_walk(
        build_hurkens(), (0, 1, 511, 512, 513, 1024, 1025, 4097))
    star = definitions("star")
    t = app(star["exp"], star["n4"], star["n5"])
    assert normalize(t, 2000, keep_steps=False).step_count == 1026
    assert_machine_cuts_match_one_walk(
        t, {*range(0, 1028, 9), *range(510, 515), *range(1022, 1028)})


def test_machine_matches_reference_on_open_wellscoped_terms():
    rng = random.Random(41)
    for _ in range(1000):
        t = random_wellscoped(rng, 30, free=2)
        for fuel in range(14):
            want = reference_normalize(t, fuel, keep_steps=False)
            got = normalize(t, fuel, keep_steps=False)
            assert got == want, (t, fuel)


def test_machine_memory_does_not_grow_with_fuel():
    # closures that kept the whole environment they were made in would keep
    # every closure the run made reachable: ~1.7 MiB at 10^4 steps and ~6.7
    # MiB at 4 * 10^4; trimmed, both read ~0.1 MiB
    t = build_hurkens()
    peaks = []
    for fuel in (10_000, 40_000):
        tracemalloc.start()
        try:
            tr = normalize(t, fuel, keep_steps=False)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert type(tr.outcome) is FuelExhausted and tr.step_count == fuel
    assert abs(peaks[1] - peaks[0]) <= 0.5 * 2**20


def test_machine_memory_is_bounded_on_a_divergent_run():
    # a closure keeps only the entries of its environment that its term can
    # see, so the closures the run made do not stay reachable once the state
    # no longer mentions them: ~0.2 MiB here, ~3.3 MiB if they kept all
    t = build_hurkens()
    tracemalloc.start()
    try:
        tr = normalize(t, 20_000, keep_steps=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert type(tr.outcome) is FuelExhausted and tr.step_count == 20_000
    assert peak <= 1.5 * 2**20


def test_machine_on_a_deep_binder_nest():
    # a redex under 10^4 binders, contracted and, at fuel 0, read back
    n = 10_000

    def nest(body):
        for _ in range(n):
            body = Lam(STAR_SORT, body)
        return body

    t = nest(App(IDENT, Var(0)))
    walk = normalize(t, 10)
    tr = normalize(t, 10, keep_steps=False)
    assert tr.step_count == walk.step_count == 1
    assert tr.outcome == walk.outcome == NormalForm(nest(Var(0)))
    assert normalize(t, 0, keep_steps=False).outcome == FuelExhausted(t, 0)


def test_machine_enters_a_deep_binder_nest_in_linear_time():
    # entering a binder copies only the environment entries it can see, so
    # 10^5 binders over a redex take well under a second; copying the whole
    # environment at each binder takes time quadratic in the depth (20-40 s)
    n = 100_000
    t, nf = App(IDENT, Var(0)), Var(0)
    for _ in range(n):
        t, nf = Lam(STAR_SORT, t), Lam(STAR_SORT, nf)
    start = time.perf_counter()
    tr = normalize(t, 10, keep_steps=False)
    assert time.perf_counter() - start < 5
    assert tr.step_count == 1 and tr.outcome == NormalForm(nf)


def test_machine_on_a_long_identity_spine():
    n = 10_000
    t = app(IDENT, *[IDENT] * n)
    tr = normalize(t, 2 * n, keep_steps=False)
    assert tr.step_count == n and tr.outcome == NormalForm(IDENT)
    cut = normalize(t, n - 3, keep_steps=False)
    assert cut.outcome == FuelExhausted(app(IDENT, *[IDENT] * 3), n - 3)


def test_machine_reads_back_a_long_chain_of_bound_variables():
    # (\x1. (\x2. ... (\xn. y xn) x(n-1) ...) x1) a: cut one step before
    # the end, the head's environment holds n - 1 entries, all read back
    n = 10_000
    a = Lam(STAR_SORT, Var(0))
    body = App(Var(n), Var(0))
    for _ in range(n - 1):
        body = App(Lam(STAR_SORT, body), Var(0))
    t = App(Lam(STAR_SORT, body), a)
    tr = normalize(t, n, keep_steps=False)
    assert tr.step_count == n and tr.outcome == NormalForm(App(Var(0), a))
    cut = normalize(t, n - 1, keep_steps=False)
    assert cut.outcome == FuelExhausted(
        App(Lam(STAR_SORT, App(Var(1), Var(0))), a), n - 1)


# --- cycle table: same outcome as a table of whole terms -------------------

def assert_same_as_reference(t, jrules=None):
    """Compare normalize with the reference on t at fuel mu+lambda-1,
    mu+lambda and mu+lambda+1, where mu+lambda is the step count at which
    the reference stops, with and without kept steps."""
    n = reference_normalize(t, 10_000, True, jrules).step_count
    for fuel in (f for f in (n - 1, n, n + 1) if f >= 0):
        for keep in (True, False):
            want = reference_normalize(t, fuel, True, jrules, keep)
            got = normalize(t, fuel, detect_cycles=True, jrules=jrules,
                            keep_steps=keep)
            assert type(got.outcome) is type(want.outcome)
            assert got.outcome == want.outcome
            assert got.step_count == want.step_count
            assert got.steps == want.steps
    return want


OMEGA = App(Lam(STAR_SORT, App(Var(0), Var(0))),
            Lam(STAR_SORT, App(Var(0), Var(0))))


def test_cycle_table_matches_reference_on_omega():
    tr = assert_same_as_reference(OMEGA)
    assert tr.outcome == CycleDetected(1, OMEGA)


def test_cycle_table_matches_reference_after_a_prefix():
    # the first recurrence is at step 1: Omega, reached after one step
    t = App(Lam(STAR_SORT, Var(0)), OMEGA)
    tr = assert_same_as_reference(t)
    assert tr.step_count == 2
    assert tr.outcome == CycleDetected(1, OMEGA)


def test_cycle_table_matches_reference_on_j_loop():
    fj = definitions("f+j")
    start = App(App(fj["K"], fj["rho"]), fj["K"])
    tr = assert_same_as_reference(start, JRules())
    assert tr.outcome == CycleDetected(3, start)


def test_cycle_table_matches_reference_on_corpus():
    for t, _ in welltyped_corpus(60, seed=5):
        assert_same_as_reference(t)


def _forged_reducer(monkeypatch, back_to):
    """Patch the reducer to run a, b, c, d, then back to c or a, where c is
    a term distinct from a that carries a's hash."""
    a, b, d = Var(0), Var(1), Var(3)

    def forged():
        c = Var(2)
        c._hash = a._hash
        return c

    def step(t, jrules=None):
        if t == a:
            return b, (), "beta"
        if t == b:
            return forged(), (), "beta"
        if t == d:
            return (forged() if back_to == "c" else a), (), "beta"
        return d, (), "beta"

    monkeypatch.setattr(term_module, "step_normal_order", step)
    return a


@pytest.mark.parametrize("back_to,period", [("c", 2), ("a", 4)])
def test_cycle_table_survives_a_forged_hash_collision(monkeypatch, back_to,
                                                      period):
    a = _forged_reducer(monkeypatch, back_to)
    for fuel in (1, 2, 3, 4, 5, 10):
        for keep in (True, False):
            want = reference_normalize(a, fuel, True, keep_steps=keep)
            got = normalize(a, fuel, detect_cycles=True, keep_steps=keep)
            assert got.step_count == want.step_count
            assert got.outcome == want.outcome
            assert got.steps == want.steps
            if fuel < 4:
                # step 2 hits a's hash but is no recurrence
                assert type(got.outcome) is FuelExhausted
    assert got.step_count == 4
    assert got.outcome.period == period


CYCLE = 9000
FORGED_AT = 8500


def _cycling_reducer(monkeypatch, forged_at=None, back_to=0):
    """Patch the reducer to run through CYCLE distinct Vars and then back to
    the term after back_to steps; the term after forged_at steps, if given,
    is distinct from the first but carries its hash."""
    first = Var(0)

    def after(j):
        if j == forged_at:
            forged = Var(CYCLE)
            forged._hash = first._hash
            return forged
        return Var(j)

    def step(t, jrules=None):
        j = forged_at if t.index == CYCLE else t.index
        return after(j + 1 if j + 1 < CYCLE else back_to), (), "beta"

    monkeypatch.setattr(term_module, "step_normal_order", step)
    return first


@pytest.mark.parametrize("forged_at,back_to", [(None, 0), (FORGED_AT, 0),
                                               (FORGED_AT, FORGED_AT)])
def test_cycle_table_finds_recurrences_across_regrowths(monkeypatch, forged_at,
                                                        back_to):
    # the first occurrence is in the slot table before every regrowth; the
    # forged collision comes after the third
    grown = []
    build = term_module._slot_table

    def spy(fps, fuel):
        grown.append(len(fps))
        return build(fps, fuel)

    monkeypatch.setattr(term_module, "_slot_table", spy)
    start = _cycling_reducer(monkeypatch, forged_at, back_to)
    tr = assert_same_as_reference(start)
    assert tr.step_count == CYCLE
    assert tr.outcome.period == CYCLE - back_to
    regrown = sorted({n for n in grown if n})
    assert regrown == [512, 2048, 8192]


@pytest.mark.parametrize("fuel,size,code", [(10**9, 32768, "i"),
                                            (4000, 8192, "i"),
                                            (2**31, 32768, "q")])
def test_slot_table_maps_each_hash_to_its_first_step(fuel, size, code):
    # 8 slots per hash, or fewer when the fuel caps the table; 8-byte slots
    # once a step index may not fit in 4
    rng = random.Random(3)
    hashes = [rng.getrandbits(64) - 2**63 for _ in range(3000)]
    # runs of equal homes, one of them wrapping past the last slot, and
    # repeated hashes
    hashes += [k << 20 for k in range(50)] + [(k << 20) - 1 for k in range(50)]
    hashes += hashes[::7]
    first = {}
    for c, h in enumerate(hashes):
        first.setdefault(h, c)
    fps = array("q", hashes)
    slots = term_module._slot_table(fps, fuel)
    mask = len(slots) - 1
    assert (len(slots), slots.typecode) == (size, code)
    assert sum(c >= 0 for c in slots) == len(first)
    for h, c in first.items():
        i = h & mask
        while slots[i] >= 0 and fps[slots[i]] != h:
            i = (i + 1) & mask
        assert slots[i] == c


def test_cycle_table_memory_is_bounded():
    # about 0.50 MiB (26 bytes per step); the dict of hashes took 1.93 MiB
    # here and the term-keyed table ~11.7 MiB
    t = build_hurkens()
    tracemalloc.start()
    try:
        tr = normalize(t, 20_000, detect_cycles=True, keep_steps=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert type(tr.outcome) is FuelExhausted
    assert peak <= 2**20


# --- weak head machine: same as the spine walk from the root --------------

FJ = definitions("f+j")


def assert_weak_head_matches_reference(t):
    for jrules in (None, JRules(50)):
        for fuel in (0, 1, 2, 3, 200):
            assert weak_head(t, fuel, jrules) == reference_whnf(t, fuel, jrules)


def _closing(ty, i):
    r"""(\x:*. ty) #i: an open type argument that one beta step closes."""
    return App(Lam(STAR_SORT, ty), Var(i))


# I, K and self-application
_LAMS = [IDENT, Lam(STAR_SORT, Lam(STAR_SORT, Var(1))),
         Lam(STAR_SORT, App(Var(0), Var(0)))]
_TYPES = st.sampled_from([FJ["Bool"], FJ["rho"], STAR_SORT, Var(0), Var(1),
                          _closing(FJ["Bool"], 0), _closing(FJ["rho"], 1),
                          App(IDENT, FJ["Bool"])])
_LEAVES = _TYPES | st.sampled_from([J, FJ["K"], FJ["ID"], FJ["Delta"], *_LAMS])


def _spines(args):
    """Applications of a Lam, J, K or variable head to args, and J spines
    whose type arguments may be open, closed, or closed by reduction."""
    heads = (st.sampled_from([*_LAMS, J, FJ["K"], Var(0), Var(1)])
             | st.builds(Lam, _TYPES, args))
    return (st.builds(lambda h, xs: app(h, *xs), heads,
                      st.lists(args, max_size=5))
            | st.builds(lambda s, t, xs: app(J, s, t, *xs), _TYPES, _TYPES,
                        st.lists(args, min_size=1, max_size=3)))


@settings(max_examples=300)
@given(st.recursive(_LEAVES, _spines, max_leaves=16))
def test_weak_head_matches_reference_on_generated_spines(t):
    assert_weak_head_matches_reference(t)


def test_weak_head_matches_reference_on_hurkens_reducts():
    for s in normalize(build_hurkens(), 300).steps:
        assert_weak_head_matches_reference(s.before)


def test_weak_head_matches_reference_on_j_terms():
    # the J loop, which diverges in weak head, and a J that closes its type
    # argument by reduction, alone and applied
    loop = App(App(FJ["K"], FJ["rho"]), FJ["K"])
    closing = app(J, _closing(FJ["Bool"], 0), FJ["Bool"], FJ["rho"])
    for t in (loop, closing, App(closing, Var(1))):
        assert_weak_head_matches_reference(t)
    assert weak_head(loop, 200, JRules()) is None


def test_weak_head_builds_no_contraction_past_its_fuel(monkeypatch):
    # I I ... I (ten arguments) needs ten steps: fuel 3 contracts three
    # redexes and finds a fourth, which it reports as exhaustion; the
    # machine's beta steps substitute nothing, and nothing is read back
    calls = []
    real = term_module._rewrite

    def counting(t, vals, by):
        calls.append(t)
        return real(t, vals, by)

    monkeypatch.setattr(term_module, "_rewrite", counting)
    assert weak_head(app(IDENT, *[IDENT] * 10), 3) is None
    assert calls == []
    assert weak_head(app(IDENT, *[IDENT] * 10), 10) is IDENT


def test_weak_head_on_a_long_chain_of_bound_variables():
    # (\x1. (\x2. ... (\xn. y xn) x(n-1) ...) x1) a: each argument is the
    # variable the step before bound, so the closure of xn reaches a through
    # n environments; the weak head normal form is y a
    n = 10_000
    a = Lam(STAR_SORT, Var(0))
    body = App(Var(n), Var(0))
    for _ in range(n - 1):
        body = App(Lam(STAR_SORT, body), Var(0))
    t = App(Lam(STAR_SORT, body), a)
    assert weak_head(t, n) == App(Var(0), a)
    assert weak_head(t, n - 1) is None
    # with g x(k-1) for each argument, the closures form a chain that is
    # read back from an explicit stack: y (g (g ... (g a)))
    n = 3000
    body = App(Var(n), Var(0))
    for k in range(n - 1, 0, -1):
        body = App(Lam(STAR_SORT, body), App(Var(k + 1), Var(0)))
    want = a
    for _ in range(n - 1):
        want = App(Var(1), want)
    assert weak_head(App(Lam(STAR_SORT, body), a), n) == App(Var(0), want)


def test_weak_head_reads_back_a_deep_binder_nest():
    # (\x. \y1. x (\y2. x (... \yn. x))) #5: the body mentions x under
    # every binder, so the read-back rewrites the whole nest, at n cutoffs
    n = 10_000

    def nest(x):
        t = Lam(STAR_SORT, x(n))
        for k in range(n - 1, 0, -1):
            t = Lam(STAR_SORT, App(x(k), t))
        return t

    t = App(Lam(STAR_SORT, nest(Var)), Var(5))
    assert weak_head(t, 1) == nest(lambda k: Var(k + 5))
    assert weak_head(t, 0) is None


def test_trace_chains():
    t = T("ID {Bool} (ID {rho})")
    tr = normalize(t)
    for a, b in zip(tr.steps, tr.steps[1:]):
        assert a.after == b.before
    assert type(tr.outcome) is NormalForm


def test_normalize_is_deterministic():
    t = T("Map {Bool} {rho} (T {rho}) (nil {Bool})")
    t1 = normalize(t)
    t2 = normalize(t)
    assert t1.step_count == t2.step_count
    assert t1.outcome == t2.outcome
    assert [s.position for s in t1.steps] == [s.position for s in t2.steps]


def test_normal_form_soundness_sampled():
    rng = random.Random(11)
    for _ in range(200):
        t = random_wellscoped(rng, 20)
        tr = normalize(t, 500, keep_steps=False)
        if type(tr.outcome) is NormalForm:
            assert step_normal_order(tr.outcome.term) is None


def test_confluence_sampling_wellscoped():
    # two-path joins must agree whenever both sides reach a normal form
    rng = random.Random(5)
    joins = 0
    for _ in range(1000):
        t = random_wellscoped(rng, 25)
        positions = redex_positions(t)
        if len(positions) < 2:
            continue
        p, q = rng.sample(positions, 2)
        a = normal_form_of(contract_at(t, p), 10_000)
        b = normal_form_of(contract_at(t, q), 10_000)
        if a is not None and b is not None:
            assert a == b
            joins += 1
    assert joins > 100


def test_generator_respects_size_cap():
    rng = random.Random(77)
    from ptslab.corpus import term_size
    for _ in range(500):
        n = rng.randint(1, 30)
        assert term_size(random_wellscoped(rng, n, free=2)) <= n


# --- J delta rules ---------------------------------------------------------

def test_j_fires_on_equal_closed_types():
    t = parse_term(r"J {rho} {rho} Delta", DEFS)
    reduct, _, rule = step_normal_order(t, JRules())
    assert rule == "deltaJ-eq"
    assert reduct == DEFS["Delta"]


def test_j_rewrites_to_identity_on_distinct_types():
    t = parse_term(r"J {rho} {Bool} Delta", DEFS)
    reduct, _, rule = step_normal_order(t, JRules())
    assert rule == "deltaJ-neq"
    assert reduct == parse_term(r"\x:Bool. x", DEFS)


def test_j_equality_is_up_to_conversion():
    # the first type argument is a redex that normalizes to rho
    redex = App(Lam(STAR_SORT, Var(0)), DEFS["rho"])
    t = app(parse_term("J", DEFS), redex, DEFS["rho"], DEFS["Delta"])
    reduct, _, rule = step_normal_order(t, JRules())
    assert rule == "deltaJ-eq"


def test_j_waits_for_open_types():
    # under a binder the type arguments are open; no delta rule fires
    body = app(parse_term("J", DEFS), Var(0), DEFS["rho"], DEFS["Delta"])
    t = Lam(STAR_SORT, body)
    assert step_normal_order(t, JRules()) is None


def test_j_ignored_without_rules():
    t = parse_term(r"J {rho} {rho} Delta", DEFS)
    assert step_normal_order(t) is None
