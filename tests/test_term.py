import random
import tracemalloc
from array import array

import pytest

import ptslab.term as term_module
from ptslab.term import (App, CycleDetected, FuelExhausted, JRules, Lam,
                         NormalForm, Pi, ReductionTrace, Sort, STAR_SORT, Step,
                         Term, Var, app, contract_at, normal_form_of, normalize,
                         redex_positions, reducts, shift, step_normal_order,
                         substitute)
from ptslab.syntax import parse_term
from ptslab.encodings import definitions
from ptslab.corpus import random_wellscoped, welltyped_corpus
from ptslab.paradox import build_hurkens
from ptslab.codes import build_flat_machinery, church


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


# --- one redex walk: the same answers as the two walks it replaced ---------

_NODES = (Lam, App, Pi)


def reference_step(t, jrules=None):
    """The frame-list search that step_normal_order replaced, with its
    inline rebuild and its normality marking."""
    beta, betaj = term_module._NF_BETA, term_module._NF_BETAJ
    want = betaj if jrules is not None else beta
    mark = (beta | betaj) if jrules is not None else beta
    frames = [[t, -1]]
    while frames:
        f = frames[-1]
        node = f[0]
        if f[1] == -1:
            if node.nf & want:
                frames.pop()
                continue
            rule = term_module._match_redex(node, jrules)
            if rule is not None:
                res = term_module._contract(node, rule)
                path = tuple(fr[1] - 1 for fr in frames[:-1])
                for fr in reversed(frames[:-1]):
                    parent, idx = fr[0], fr[1] - 1
                    if idx == 0:
                        res = type(parent)(res, parent.right)
                    else:
                        res = type(parent)(parent.left, res)
                return res, path, rule
            f[1] = 0
        ch = (node.left, node.right) if type(node) in _NODES else ()
        if f[1] < len(ch):
            f[1] += 1
            frames.append([ch[f[1] - 1], -1])
        else:
            node.nf |= mark
            frames.pop()
    return None


def reference_positions(t, jrules=None):
    """The walk that redex_positions replaced: every node, whatever its
    normality bits, then sorted."""
    out = []
    stack = [(t, ())]
    while stack:
        node, path = stack.pop()
        if term_module._match_redex(node, jrules) is not None:
            out.append(path)
        if type(node) in _NODES:
            stack.append((node.right, path + (1,)))
            stack.append((node.left, path + (0,)))
    return sorted(out)


def unmarked_copy(t, memo=None):
    """t rebuilt with no normality bits set; shared subtrees stay shared,
    and leaves, which always carry both bits, are reused."""
    if type(t) not in _NODES:
        return t
    memo = {} if memo is None else memo
    if id(t) not in memo:
        memo[id(t)] = type(t)(unmarked_copy(t.left, memo),
                              unmarked_copy(t.right, memo))
    return memo[id(t)]


def nf_bits(t):
    """The normality bits of t's distinct nodes, in preorder."""
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
    """Compare one step, the normality marks it leaves, every redex
    position and their contractions with the reference walks; t may carry
    marks from earlier work.  Returns the reduct, or None."""
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
    # normalize leaves normality bits on the subterms it scanned; the walk
    # skips them, the reference walk of positions does not
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


# --- hashes on demand: rebuilt ancestors hash and compare as built ones ----

def constructor_copy(t):
    """t with every node whose hash is unset rebuilt bottom-up by the
    constructors, which hash on construction; hashed subtrees are shared,
    so the copy costs what the unhashed part of t costs."""
    memo = {}
    stack = [t]
    while stack:
        node = stack[-1]
        if node._hash is not None or id(node) in memo:
            stack.pop()
            continue
        todo = [c for c in (node.right, node.left)
                if c._hash is None and id(c) not in memo]
        if todo:
            stack += todo
            continue
        stack.pop()
        memo[id(node)] = type(node)(memo.get(id(node.left), node.left),
                                    memo.get(id(node.right), node.right))
    return memo.get(id(t), t)


def assert_steps_hash_as_built(tr):
    """Every reduct of the trace equals, and hashes as, its copy built by
    the constructors; returns how many reducts had their hash left unset."""
    lazy = 0
    for s in tr.steps:
        lazy += s.after._hash is None
        copy = constructor_copy(s.after)
        assert copy._hash is not None
        assert s.after == copy          # hashes still unset on one side
        assert hash(s.after) == hash(copy)
        assert s.after == copy and copy == s.after
    return lazy


def test_rebuilt_reducts_hash_as_built_on_flat():
    fm = build_flat_machinery()
    for k in range(1, 9):
        tr = normalize(App(fm.flat, church(k)), 100_000)
        assert type(tr.outcome) is NormalForm
        # flat's redexes sit under the spine, so most reducts are rebuilt
        assert assert_steps_hash_as_built(tr) > tr.step_count // 2


def test_rebuilt_reducts_hash_as_built_on_hurkens_prefix():
    tr = normalize(build_hurkens(), 2000)
    assert assert_steps_hash_as_built(tr) > 0


def test_rebuilt_reducts_hash_as_built_on_j_loop():
    fj = definitions("f+j")
    tr = normalize(App(App(fj["K"], fj["rho"]), fj["K"]), 60, jrules=JRules())
    assert {s.rule for s in tr.steps} > {"beta"}
    assert assert_steps_hash_as_built(tr) > 0


def test_deep_rebuilt_spine_hashes_compares_and_rewrites():
    # a beta redex at the bottom of a 10^4-deep left spine of free variables
    t = App(Lam(STAR_SORT, App(Var(0), Var(1))), Var(2))
    for i in range(10_000):
        t = App(t, Var(i % 3))
    r, path, _ = step_normal_order(t)
    assert len(path) == 10_000 and r._hash is None
    copy = constructor_copy(r)
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



# --- cycle table: same outcome as a table of whole terms -------------------

def reference_normalize(t, fuel, detect_cycles=False, jrules=None,
                        keep_steps=True):
    """The term-keyed cycle table that the hash table replaced: every term
    seen is kept.  The reducer is looked up at call time so that a patched
    one applies here too."""
    steps = []
    seen = {} if detect_cycles else None
    cur, count = t, 0
    while True:
        if seen is not None:
            first = seen.get(cur)
            if first is not None:
                return ReductionTrace(tuple(steps),
                                      CycleDetected(count - first, cur), count)
            seen[cur] = count
        r = term_module.step_normal_order(cur, jrules)
        if r is None:
            return ReductionTrace(tuple(steps), NormalForm(cur), count)
        if count >= fuel:
            return ReductionTrace(tuple(steps), FuelExhausted(cur, fuel), count)
        nxt, path, rule = r
        if keep_steps:
            steps.append(Step(path, rule, cur, nxt))
        cur = nxt
        count += 1


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
