"""Shared term language: de Bruijn terms, substitution, beta/delta reduction.

Terms are immutable values: structural equality on the de Bruijn
representation is alpha-equivalence, and every node fixes at construction an
upper bound on its free indices (``fvb``), its normality flag (``nf``) and
its hash.  ``t.nf`` is true iff no node of t is a beta redex or an
application of J: exact normality for J-free terms, conservative under J
rules.  That is what makes long reduction runs (the paradox demos burn
through 10^6 contractions) affordable in pure Python: closed subtrees are
shared, never copied, and the one normal-order redex walk, which writes
nothing, skips every subtree flagged normal.  The walk yields redexes, not
contracta: one matcher (_match_redex) says what is a redex, one contractor
(_contract) builds every contractum, and step_normal_order, redex_positions,
reducts and contract_at share both.  weak_head, the checker's weak-head
reducer, and normalize's runs that keep nothing share one environment
machine, whose beta steps build nothing; it reads its state back by the one
substitution walk (_rewrite).

Every node carries its hash from construction: Lam, App and Pi hash as
hash((tag, left hash, right hash)) over their children's cached hashes, so
hash() reads a field, a term hashes the same however it was built, and ==
rejects two terms at once when their hashes differ.  Past its first 64
interior pairs, == compares each pair of distinct interior nodes once, so
equal terms that share subterms are compared as DAGs, not as trees.

Reduction positions are tuples of 0/1: 0 selects fun/domain, 1 selects
arg/body/codomain.
"""
from __future__ import annotations

from array import array
from collections import namedtuple

STAR = "*"
BOX = "BOX"
TRIANGLE = "TRI"

DEFAULT_FUEL = 10_000


class Term:
    __slots__ = ("_hash", "fvb", "nf")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        if self._hash != other._hash:
            return False
        stack = [(self, other)]
        # a memo of compared interior pairs bounds the walk by the pairs of
        # nodes, not of paths; it starts after 64 pairs, more than most
        # calls compare, so they build no memo
        unrecorded = 64
        while stack:
            x, y = stack.pop()
            if x is y:
                continue
            if x._hash != y._hash:
                return False
            tx = type(x)
            if tx is not type(y):
                return False
            if tx is Var:
                if x.index != y.index:
                    return False
            elif tx is Sort:
                if x.name != y.name:
                    return False
            elif tx is PrimJ:
                pass
            else:
                if unrecorded:
                    unrecorded -= 1
                    if not unrecorded:
                        seen = set()
                else:
                    pair = (id(x), id(y))
                    if pair in seen:
                        continue
                    seen.add(pair)
                stack.append((x.right, y.right))
                stack.append((x.left, y.left))
        return True

    def __repr__(self):
        from .syntax import pretty
        try:
            return f"<{type(self).__name__} {pretty(self)}>"
        except Exception:
            return f"<{type(self).__name__}>"


class Var(Term):
    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 0:
            raise ValueError("negative de Bruijn index")
        self.index = index
        self.fvb = index + 1
        self.nf = True
        self._hash = hash((0x56A1, index))


class Sort(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.fvb = 0
        self.nf = True
        self._hash = hash((0x50B2, name))


class PrimJ(Term):
    """The non-uniform polymorphism constant; a normal form on its own."""
    __slots__ = ()

    def __init__(self):
        self.fvb = 0
        self.nf = True
        self._hash = hash((0x4A00,))


class Lam(Term):
    __slots__ = ("left", "right")

    def __init__(self, domain: Term, body: Term):
        self.left = domain
        self.right = body
        a, b = domain.fvb, body.fvb - 1
        self.fvb = a if a > b else b
        self.nf = domain.nf and body.nf
        self._hash = hash((0x4C33, domain._hash, body._hash))


class App(Term):
    __slots__ = ("left", "right")

    def __init__(self, fun: Term, arg: Term):
        self.left = fun
        self.right = arg
        a, b = fun.fvb, arg.fvb
        self.fvb = a if a > b else b
        tf = type(fun)
        self.nf = tf is not Lam and tf is not PrimJ and fun.nf and arg.nf
        self._hash = hash((0x4155, fun._hash, arg._hash))


class Pi(Term):
    __slots__ = ("left", "right")

    def __init__(self, domain: Term, codomain: Term):
        self.left = domain
        self.right = codomain
        a, b = domain.fvb, codomain.fvb - 1
        self.fvb = a if a > b else b
        self.nf = domain.nf and codomain.nf
        self._hash = hash((0x5044, domain._hash, codomain._hash))


J = PrimJ()
STAR_SORT = Sort(STAR)
# the domain of every erased binder; closed, so substitution never enters it
UNTYPED = Sort("untyped")


def app(fun: Term, *args: Term) -> Term:
    for a in args:
        fun = App(fun, a)
    return fun


# ---------------------------------------------------------------------------
# index arithmetic

def _rewrite(t: Term, vals: tuple[Term, ...] | list[Term], by: int) -> Term:
    """Rebuild t, replacing every Var whose index i is at least the local
    cutoff c (the number of binders above it): by vals[i - c] shifted by c
    when i - c < len(vals), else by Var(i + by).  Subtrees without such
    variables are returned as-is."""
    n = len(vals)
    out: list[Term] = []
    emit, take = out.append, out.pop
    # reduction shares subtrees heavily; memoise on node identity so each
    # physical subtree is rebuilt once per cutoff instead of once per path.
    # As in Term.__eq__ the memo starts after 64 interior nodes, more than
    # most calls rebuild, so they build none
    memo: dict[tuple[int, int], Term] | None = None
    unrecorded = 64
    stack: list[tuple[Term, int, bool]] = [(t, 0, False)]
    push, pop = stack.append, stack.pop
    while stack:
        node, cut, done = pop()
        if done:
            b = take()
            a = take()
            res = node if a is node.left and b is node.right else type(node)(a, b)
            if memo is not None:
                memo[id(node), cut] = res
            emit(res)
        elif node.fvb <= cut:
            emit(node)
        elif type(node) is Var:
            i = node.index
            if i - cut < n:
                v = vals[i - cut]
                emit(v if not v.fvb else shift(v, cut))
            else:
                emit(Var(i + by))
        else:
            if memo is not None:
                hit = memo.get((id(node), cut))
                if hit is not None:
                    emit(hit)
                    continue
            elif unrecorded:
                unrecorded -= 1
            else:
                memo = {}
            push((node, cut, True))
            push((node.right, cut if type(node) is App else cut + 1, False))
            push((node.left, cut, False))
    return out[0]


def shift(t: Term, by: int) -> Term:
    """Add `by` to every free index."""
    if by == 0 or t.fvb == 0:
        return t
    return _rewrite(t, (), by)


def substitute(body: Term, arg: Term) -> Term:
    """Capture-avoiding substitution of arg for the outermost bound variable
    of a binder scope; remaining free indices are re-adjusted."""
    if body.fvb == 0:
        return body
    return _rewrite(body, (arg,), -1)


# ---------------------------------------------------------------------------
# reduction

class JRules(namedtuple("JRules", "type_fuel")):
    """Delta rules for J: J{s}{t} M -> M when s,t closed and equal up to
    normalization, J{s}{t} M -> \\x:t. x when closed and distinct."""
    __slots__ = ()

    def __new__(cls, type_fuel: int = DEFAULT_FUEL):
        if type_fuel < 0:
            raise ValueError("fuel must be >= 0")
        return super().__new__(cls, type_fuel)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)     # so that _replace checks too


RULE_BETA = "beta"
RULE_J_EQ = "deltaJ-eq"
RULE_J_NEQ = "deltaJ-neq"


def _j_args(node: Term):
    """(s, t, M) when node is J{s}{t} M, else None."""
    if type(node) is App:
        f = node.left
        if type(f) is App and type(f.left) is App and type(f.left.left) is PrimJ:
            return f.left.right, f.right, node.right
    return None


def _match_redex(node: Term, jrules: JRules | None) -> str | None:
    """The rule by which node itself is a redex, or None."""
    if type(node) is App and type(node.left) is Lam:
        return RULE_BETA
    args = _j_args(node) if jrules is not None else None
    if args is None or args[0].fvb or args[1].fvb:
        return None
    ns = normal_form_of(args[0], jrules.type_fuel)
    nt = normal_form_of(args[1], jrules.type_fuel)
    if ns is None or nt is None:
        return None
    return RULE_J_EQ if ns == nt else RULE_J_NEQ


def _contract(node: Term, rule: str) -> Term:
    """The contractum of the redex node by rule (see _match_redex)."""
    if rule == RULE_BETA:
        # by the module's name for it, which the bench tracer wraps
        return substitute(node.left.right, node.right)
    _, t, m = _j_args(node)
    return m if rule == RULE_J_EQ else Lam(t, Var(0))


def _redexes(t: Term, jrules: JRules | None):
    """Yield (parents, path, node, rule) for each redex node of t in
    preorder (a node, then its left subtree, then its right), which on
    applications is normal order and on positions lexicographic order.
    Nothing is contracted, and nothing written: the caller builds what it
    needs with _contract.

    parents and path are the walk's live lists: parents[i] is the node at
    depth i and path[i] the child taken from it.  Subtrees flagged normal
    (nf) are skipped; they hold no beta redex and no application of J, so
    no redex under any rules.
    """
    parents: list[Term] = []
    path: list[int] = []
    down, turn = parents.append, path.append
    node = t
    while True:
        if not node.nf:
            # leaves are flagged, so node has children; the beta test and
            # _j_args's head test are inline: _match_redex sees only J heads
            if type(node) is App:
                f = node.left
                if type(f) is Lam:
                    yield parents, path, node, RULE_BETA
                elif (jrules is not None and type(f) is App
                      and type(f.left) is App and type(f.left.left) is PrimJ):
                    rule = _match_redex(node, jrules)
                    if rule is not None:
                        yield parents, path, node, rule
            down(node)
            turn(0)
            node = node.left
            continue
        while parents:
            if path[-1] == 0:
                path[-1] = 1
                node = parents[-1].right
                break
            path.pop()
            parents.pop()
        else:
            return


def step_normal_order(t: Term, jrules: JRules | None = None):
    """Contract the leftmost-outermost redex.

    Returns (reduct, position, rule) or None when t is a normal form.
    """
    for parents, path, node, rule in _redexes(t, jrules):
        return _rebuild(parents, path, _contract(node, rule)), tuple(path), rule
    return None


Step = namedtuple("Step", "position rule before after")
NormalForm = namedtuple("NormalForm", "term")
FuelExhausted = namedtuple("FuelExhausted", "last fuel")
CycleDetected = namedtuple("CycleDetected", "period witness")
# outcome is a NormalForm, FuelExhausted or CycleDetected
ReductionTrace = namedtuple("ReductionTrace", "steps outcome step_count")


def normalize(t: Term, fuel: int = DEFAULT_FUEL, detect_cycles: bool = False,
              jrules: JRules | None = None, keep_steps: bool = True) -> ReductionTrace:
    """Normal-order normalization with an explicit step budget.

    Divergence is reported in-band: FuelExhausted when the budget runs out,
    CycleDetected when the same term (up to alpha) recurs and detect_cycles
    is set.

    A run that keeps no steps and has no cycle table and no J rules runs on
    a strong environment machine (_machine, after Cregut's KN machine): one
    beta step is one normal-order contraction.  From a weak head normal form
    it goes, in preorder, into a Lam's or Pi's domain, then its body under a
    fresh level, or into a neutral head's arguments.  A level l is an
    environment entry that reads as Var(D - l - 1) at output depth D; an
    environment that holds just the levels of the binders above it is a
    tuple, and a normal part under it is output as it is.  Every
    _COLLAPSE_EVERY steps the machine reads its state back and restarts from
    that reduct, so a divergent run keeps few closures.  The other runs
    search each reduct from the root with step_normal_order: a run that
    records or hashes every reduct builds it anyway, and a J rule can turn
    any ancestor into a redex once reduction closes its type arguments.

    The cycle table keeps no terms, only two packed arrays: ``fps[c]`` is
    the cached hash of the term after c steps, and an open-addressing table
    of step indices (see _slot_table), probed linearly, maps each distinct
    hash to the first step that had it.  Its load stays at most 0.5: when
    the steps so far fill half of it, it is rebuilt from fps at four times
    the size, but no larger than the run's fuel can fill.  That is 2 to 8
    slots per step, of 4 bytes while fuel is below 2^31 (else 8), plus 8
    bytes for fps: 16 to 40 bytes per step, 48 while a rebuild holds both
    tables.  tracemalloc measured a peak of 26 bytes per step over 2*10^4
    Hurkens steps and 21 over 10^5 on CPython 3.11.  Growing four-fold
    rather than two-fold re-inserts about a third as many hashes (0.6
    against 0.75 us of table work per Hurkens step of ~10 us) for emptier
    slots; the cap bounds that cost: ``ptslab demo hurkens`` peaks at 33 MB
    at 10^6 steps, as with two-fold growth, and at 41 MB without the cap.
    A hit is confirmed by structural equality against the earlier term,
    recomputed by replaying ``first`` steps from t (the reducer is
    deterministic): at most ``first`` extra steps, and only on a hash hit.
    A hit that fails confirmation is a hash collision; its count joins a
    side list for that hash, which later hits on the hash also check
    (replaying up to its last count), and reduction goes on, so the outcome
    is the one a table of whole terms would give.
    """
    if fuel < 0:
        raise ValueError("fuel must be >= 0")
    if not keep_steps and not detect_cycles and jrules is None:
        count, last, done = _machine(t, fuel, None, True)
        return ReductionTrace((), NormalForm(last) if done
                              else FuelExhausted(last, fuel), count)
    steps: list[Step] = []
    fps = array("q") if detect_cycles else None
    if fps is not None:
        slots = _slot_table(fps, fuel)
        mask = len(slots) - 1
        full = len(slots) // 2 - 1   # the count whose insertion fills half
        remember = fps.append
    clashes: dict[int, list[int]] = {}
    cur = t
    count = 0
    while True:
        if fps is not None:
            h = cur._hash
            remember(h)
            i = _probe(slots, mask, fps, h)
            first = slots[i]
            if first < 0:
                slots[i] = count
                if count >= full:
                    slots = _slot_table(fps, fuel)
                    mask = len(slots) - 1
                    full = len(slots) // 2 - 1
            else:
                earlier = [first, *clashes.get(h, ())]
                first = _recurrence(t, cur, earlier, jrules)
                if first is not None:
                    return ReductionTrace(tuple(steps),
                                          CycleDetected(count - first, cur), count)
                clashes.setdefault(h, []).append(count)
        r = step_normal_order(cur, jrules)
        if r is None:
            return ReductionTrace(tuple(steps), NormalForm(cur), count)
        if count >= fuel:
            return ReductionTrace(tuple(steps), FuelExhausted(cur, fuel), count)
        nxt, path, rule = r
        if keep_steps:
            steps.append(Step(path, rule, cur, nxt))
        cur = nxt
        count += 1


_INT_MAX = 2 ** (8 * array("i").itemsize - 1) - 1


def _slot_table(fps: array, fuel: int) -> array:
    """The slot table of normalize's cycle table, built from fps: the least
    power of two of at least 1024 that is at least 8 * len(fps) or more than
    2 * (fuel + 1).  A run of that fuel adds at most fuel + 1 hashes, so a
    table of the second size never fills half and is never rebuilt.  Slots
    hold step indices, at most fuel: 4 bytes each when that fits, else 8.
    For each distinct hash h in fps, the first index c with fps[c] == h sits
    in the first free slot from h & (size - 1) on (linear probing); the
    other slots hold -1."""
    size = 1024
    while size < 8 * len(fps) and size <= 2 * (fuel + 1):
        size *= 2
    slots = array("i" if fuel <= _INT_MAX else "q", [-1]) * size
    mask = size - 1
    for c, h in enumerate(fps):
        i = _probe(slots, mask, fps, h)
        if slots[i] < 0:
            slots[i] = c
    return slots


def _probe(slots: array, mask: int, fps: array, h: int) -> int:
    """The slot for hash h: the first from h & mask on (linearly, wrapping)
    that is free (-1) or holds a step c with fps[c] == h."""
    i = h & mask
    c = slots[i]
    while c >= 0 and fps[c] != h:
        i = (i + 1) & mask
        c = slots[i]
    return i


def _recurrence(t: Term, cur: Term, counts: list[int],
                jrules: JRules | None) -> int | None:
    """The step count among counts (ascending) whose term equals cur, or
    None.  Each earlier term is recomputed by replaying the reduction of t,
    which is deterministic."""
    at, n = t, 0
    for c in counts:
        while n < c:
            at, n = step_normal_order(at, jrules)[0], n + 1
        if at == cur:
            return c
    return None


def normal_form_of(t: Term, fuel: int = DEFAULT_FUEL) -> Term | None:
    """Normal form, or None when the budget does not suffice."""
    tr = normalize(t, fuel, keep_steps=False)
    if type(tr.outcome) is NormalForm:
        return tr.outcome.term
    return None


def _rebuild(parents: list[Term], path: list[int] | tuple[int, ...],
             new: Term) -> Term:
    """Put new in place of the subterm reached from parents[0] along path;
    parents[i] is the node at depth i, path[i] the child taken from it."""
    for k in range(len(parents) - 1, -1, -1):
        parent = parents[k]
        if path[k]:
            new = type(parent)(parent.left, new)
        else:
            new = type(parent)(new, parent.right)
    return new


def weak_head(t: Term, fuel: int, jrules: JRules | None = None) -> Term | None:
    """Weak head normal form of t within fuel steps (t itself if it takes
    none), else None.  A step contracts the redex at the head of t's spine
    or closes the type arguments of a J there (_close_j_args).  The steps
    run on the environment machine (_machine)."""
    if fuel < 0:
        raise ValueError("fuel must be >= 0")
    return _machine(t, fuel, jrules, False)[1]


_COLLAPSE_EVERY = 512   # steps between the strong machine's read-backs


def _machine(t: Term, fuel: int, jrules: JRules | None, strong: bool):
    """(steps, term, done) for t run to weak head normal form, or if strong
    to normal form (see normalize), within fuel steps; when a step past the
    fuel is due, done is false and term is the state read back, or None if
    not strong.  A closure (u, env) stands for u with each index i <
    len(env) bound to env[i] and the others lowered by len(env).  The head
    is a term under an environment, the spine a stack of argument closures;
    a beta step moves the top one to the head's environment and builds
    nothing, and a variable head steps into its closure.  todo stacks the
    parts still to normalise, each a closure and its depth, under the
    constructors that join them; out holds the parts done."""
    spine, out, todo = [], [], []
    h, env, depth, steps = t, (), 0, 0
    pause = min(fuel, _COLLAPSE_EVERY) if strong else fuel
    if strong and t.nf:
        return 0, t, True
    while True:
        th = type(h)
        if th is App:
            a = h.right  # a variable bound to a closure is pushed as it
            e = env[a.index] if type(a) is Var and a.index < len(env) else a
            spine.append(e if type(e) is tuple else (a, env if a.fvb else ()))
            h = h.left
        elif th is Var and h.index < len(env) and type(env[h.index]) is tuple:
            h, env = env[h.index]
        elif th is Lam and spine:
            if steps == pause:  # the weak machine reads nothing back
                h = (_read_state(h, env, spine, depth, out, todo) if strong
                     else None)
                if steps == fuel:
                    return steps, h, False
                pause = min(fuel, steps + _COLLAPSE_EVERY)
                spine, env, depth = [], (), 0
                continue
            h, env = h.right, [spine.pop(), *env]
            steps += 1
        elif th is PrimJ and jrules is not None and len(spine) >= 3:
            redex = app(J, *[_read_back(c, 0, {}) for c in spine[:-4:-1]])
            rule = _match_redex(redex, jrules)
            new = (_contract(redex, rule) if rule is not None
                   else _close_j_args(redex, jrules))
            if new is None:
                break
            if steps == fuel:
                return steps, None, False
            del spine[-3:]
            h, env = new, ()
            steps += 1
        elif not strong:
            break
        else:
            for c in spine:
                todo += App, (c, depth)
            spine.clear()
            if th is Lam or th is Pi:
                top = type(env) is tuple and len(env) == depth
                inner = (depth, *env) if top else [depth, *env]
                todo += (th, ((h.right, inner), depth + 1),
                         ((h.left, env), depth))
            elif th is Var:  # bound to a level, or free in t
                i, n = h.index, len(env)
                out.append(Var(i - n + depth if i >= n
                               else depth - env[i] - 1))
            else:
                out.append(h)
            while todo:
                task = todo.pop()
                if type(task) is not tuple:
                    out[-2:] = [task(*out[-2:])]
                    continue
                (h, env), depth = task
                if not (h.nf and (not h.fvb or type(env) is tuple
                                  and len(env) == depth)):
                    break
                out.append(h)
            else:
                return steps, out[0], True
    return steps, _read_state(h, env, spine, 0, out, todo) if steps else t, True


def _read_state(h: Term, env, spine, depth: int, out, todo) -> Term:
    """The term a machine state stands for: the head under env applied to
    the spine at depth, and every part still in todo, read back and joined
    to the parts done in out."""
    memo: dict = {}
    for c in spine:
        todo += App, (c, depth)
    todo.append(((h, env), depth))
    while todo:
        task = todo.pop()
        if type(task) is tuple:
            out.append(_read_back(*task, memo))
        else:
            out[-2:] = [task(*out[-2:])]
    return out.pop()


def _read_back(c, depth: int, memo: dict) -> Term:
    """The value of closure c at output depth, by one parallel substitution
    (_rewrite) after the closures of its environment, on an explicit stack;
    memo maps (id, depth) of each closure read back to it and its value, so
    none is read back twice at one depth."""
    todo = [c]
    while todo:
        d = todo[-1]
        u, env = d
        if (id(d), depth) in memo:
            todo.pop()
        elif not u.fvb or type(env) is tuple and len(env) == depth:
            memo[id(d), depth] = d, u
        else:
            vals = env[:u.fvb]
            waiting = [e for e in vals
                       if type(e) is tuple and (id(e), depth) not in memo]
            todo += waiting
            if not waiting:
                vals = [Var(depth - e - 1) if type(e) is int
                        else memo[id(e), depth][1] for e in vals]
                memo[id(d), depth] = d, _rewrite(u, vals, depth - len(env))
    return memo[id(c), depth][1]


def _close_j_args(node: Term, jrules: JRules | None) -> Term | None:
    """J{s}{t} M with an open type argument that normalising closes (weak
    head steps never reduce inside s or t): the application with s and t
    normalised, so the J rule applies next; else None."""
    args = _j_args(node) if jrules is not None else None
    if args is None or not (args[0].fvb or args[1].fvb):
        return None  # not J, or the J rule decided already or ran out of fuel
    s, t, m = args
    ns = normal_form_of(s, jrules.type_fuel)
    nt = normal_form_of(t, jrules.type_fuel)
    if ns is None or nt is None or ns.fvb or nt.fvb:
        return None
    return App(App(App(J, ns), nt), m)


# full-beta contraction, used by the confluence sampler and erasure

def redex_positions(t: Term, jrules: JRules | None = None) -> list[tuple[int, ...]]:
    """Every redex position of t, in lexicographic (preorder) order."""
    return [tuple(path) for _, path, _, _ in _redexes(t, jrules)]


def reducts(t: Term):
    """Yield every one-step beta reduct of t, in redex_positions order;
    each is built only when asked for."""
    for parents, path, node, rule in _redexes(t, None):
        yield _rebuild(parents, path, _contract(node, rule))


def contract_at(t: Term, path: tuple[int, ...], jrules: JRules | None = None) -> Term:
    """t with the redex at path contracted; ValueError when the walk yields
    no redex there (so also for a path through index 2 or past a leaf)."""
    want = list(path)
    for parents, at, node, rule in _redexes(t, jrules):
        if at == want:
            return _rebuild(parents, at, _contract(node, rule))
    raise ValueError("no redex at position")
