"""Shared term language: de Bruijn terms, substitution, beta/delta reduction.

Terms are immutable; structural equality on the de Bruijn representation is
alpha-equivalence.  Every node caches its hash, an upper bound on its free
indices (``fvb``) and a normality bitmask, which is what makes long reduction
runs (the paradox demos burn through 10^6 contractions) affordable in pure
Python: closed subtrees are shared, never copied, and the one normal-order
redex walk, behind both step_normal_order and redex_positions, skips every
subtree whose normality bit is set.  head_step, the weak-head step of the
checker, walks the application spine only.

Reduction positions are tuples of 0/1: 0 selects fun/domain, 1 selects
arg/body/codomain.
"""
from __future__ import annotations

from dataclasses import dataclass

STAR = "*"
BOX = "BOX"
TRIANGLE = "TRI"

_NF_BETA = 1      # no beta redex in the subtree
_NF_BETAJ = 2     # additionally no J delta redex

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
        stack = [(self, other)]
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
        self.nf = _NF_BETA | _NF_BETAJ
        self._hash = hash((0x56A1, index))


class Sort(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.fvb = 0
        self.nf = _NF_BETA | _NF_BETAJ
        self._hash = hash((0x50B2, name))


class PrimJ(Term):
    """The non-uniform polymorphism constant; a normal form on its own."""
    __slots__ = ()

    def __init__(self):
        self.fvb = 0
        self.nf = _NF_BETA | _NF_BETAJ
        self._hash = hash((0x4A00,))


class Lam(Term):
    __slots__ = ("left", "right")

    def __init__(self, domain: Term, body: Term):
        self.left = domain
        self.right = body
        self.fvb = max(domain.fvb, body.fvb - 1)
        self.nf = 0
        self._hash = hash((0x4C33, domain._hash, body._hash))


class App(Term):
    __slots__ = ("left", "right")

    def __init__(self, fun: Term, arg: Term):
        self.left = fun
        self.right = arg
        self.fvb = max(fun.fvb, arg.fvb)
        self.nf = 0
        self._hash = hash((0x4155, fun._hash, arg._hash))


class Pi(Term):
    __slots__ = ("left", "right")

    def __init__(self, domain: Term, codomain: Term):
        self.left = domain
        self.right = codomain
        self.fvb = max(domain.fvb, codomain.fvb - 1)
        self.nf = 0
        self._hash = hash((0x5044, domain._hash, codomain._hash))


J = PrimJ()
STAR_SORT = Sort(STAR)
BOX_SORT = Sort(BOX)
# the domain of every erased binder; closed, so substitution never enters it
UNTYPED = Sort("untyped")


def app(fun: Term, *args: Term) -> Term:
    for a in args:
        fun = App(fun, a)
    return fun


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Decompose nested applications into head and argument list."""
    args: list[Term] = []
    while type(t) is App:
        args.append(t.right)
        t = t.left
    args.reverse()
    return t, args


# ---------------------------------------------------------------------------
# index arithmetic

def _rewrite(t: Term, cutoff: int, on_var):
    """Rebuild t applying on_var(index, cutoff) to every Var with index >= the
    local cutoff.  Subtrees without such variables are returned as-is."""
    out: list[Term] = []
    # reduction shares subtrees heavily; memoise on node identity so each
    # physical subtree is rebuilt once per cutoff instead of once per path
    memo: dict[tuple[int, int], Term] = {}
    stack: list[tuple[Term, int, int]] = [(t, cutoff, 0)]
    while stack:
        node, cut, stage = stack.pop()
        if stage == 0:
            if node.fvb <= cut:
                out.append(node)
                continue
            hit = memo.get((id(node), cut))
            if hit is not None:
                out.append(hit)
                continue
            tn = type(node)
            if tn is Var:
                out.append(on_var(node.index, cut))
            else:
                stack.append((node, cut, 1))
                bump = 0 if tn is App else 1
                stack.append((node.right, cut + bump, 0))
                stack.append((node.left, cut, 0))
        else:
            b = out.pop()
            a = out.pop()
            if a is node.left and b is node.right:
                res = node
            else:
                res = type(node)(a, b)
            memo[(id(node), cut)] = res
            out.append(res)
    return out[0]


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Add `by` to every free index >= cutoff."""
    if by == 0 or t.fvb <= cutoff:
        return t
    return _rewrite(t, cutoff, lambda i, c: Var(i + by))


def substitute(body: Term, arg: Term) -> Term:
    """Capture-avoiding substitution of arg for the outermost bound variable
    of a binder scope; remaining free indices are re-adjusted."""
    closed = arg.fvb == 0

    def on_var(i: int, cut: int) -> Term:
        if i == cut:
            return arg if closed else shift(arg, cut)
        return Var(i - 1)

    return _rewrite(body, 0, on_var)


# ---------------------------------------------------------------------------
# reduction

@dataclass(frozen=True)
class JRules:
    """Delta rules for J: J{s}{t} M -> M when s,t closed and equal up to
    normalization, J{s}{t} M -> \\x:t. x when closed and distinct."""
    type_fuel: int = DEFAULT_FUEL


RULE_BETA = "beta"
RULE_J_EQ = "deltaJ-eq"
RULE_J_NEQ = "deltaJ-neq"


def _match_redex(node: Term, jrules: JRules | None):
    """Return (rule, contractum) when node itself is a redex."""
    if type(node) is not App:
        return None
    f = node.left
    if type(f) is Lam:
        return RULE_BETA, substitute(f.right, node.right)
    if jrules is not None and type(f) is App:
        g = f.left
        if type(g) is App and type(g.left) is PrimJ:
            s, t, m = g.right, f.right, node.right
            if s.fvb == 0 and t.fvb == 0:
                ns = normalize(s, jrules.type_fuel, keep_steps=False)
                nt = normalize(t, jrules.type_fuel, keep_steps=False)
                if type(ns.outcome) is NormalForm and type(nt.outcome) is NormalForm:
                    if ns.outcome.term == nt.outcome.term:
                        return RULE_J_EQ, m
                    return RULE_J_NEQ, Lam(t, Var(0))
    return None


def _redexes(t: Term, jrules: JRules | None):
    """Yield (parents, path, (rule, contractum)) for each redex of t in
    preorder (a node, then its left subtree, then its right), which on
    applications is normal order and on positions lexicographic order.

    parents and path are the walk's live lists: parents[i] is the node at
    depth i and path[i] the child taken from it.  Subtrees whose normality
    bit is set are skipped; until the first yield, each subtree left behind
    gets that bit, since no redex was found in it.
    """
    want = _NF_BETAJ if jrules is not None else _NF_BETA
    mark = (_NF_BETA | _NF_BETAJ) if jrules is not None else _NF_BETA
    parents: list[Term] = []
    path: list[int] = []
    node = t
    while True:
        if not node.nf & want:
            # leaves carry both bits, so node has children
            red = _match_redex(node, jrules)
            if red is not None:
                mark = 0    # node and its ancestors are not normal
                yield parents, path, red
            parents.append(node)
            path.append(0)
            node = node.left
            continue
        while parents:
            if path[-1] == 0:
                path[-1] = 1
                node = parents[-1].right
                break
            path.pop()
            parents.pop().nf |= mark
        else:
            return


def step_normal_order(t: Term, jrules: JRules | None = None):
    """Contract the leftmost-outermost redex.

    Returns (reduct, position, rule) or None when t is a normal form.
    """
    for parents, path, (rule, contractum) in _redexes(t, jrules):
        return _rebuild(parents, path, contractum), tuple(path), rule
    return None


@dataclass(frozen=True)
class Step:
    position: tuple[int, ...]
    rule: str
    before: Term
    after: Term


@dataclass(frozen=True)
class NormalForm:
    term: Term


@dataclass(frozen=True)
class FuelExhausted:
    last: Term
    fuel: int


@dataclass(frozen=True)
class CycleDetected:
    period: int
    witness: Term


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[Step, ...]
    outcome: NormalForm | FuelExhausted | CycleDetected
    step_count: int


def normalize(t: Term, fuel: int = DEFAULT_FUEL, detect_cycles: bool = False,
              jrules: JRules | None = None, keep_steps: bool = True) -> ReductionTrace:
    """Normal-order normalization with an explicit step budget.

    Divergence is reported in-band: FuelExhausted when the budget runs out,
    CycleDetected when the same term (up to alpha) recurs and detect_cycles
    is set.

    The cycle table keeps no terms: it maps each term's cached hash to the
    step count ``first`` at which that hash first appeared, so it holds
    ints only (at most ~256 bytes per step; ~105 measured on CPython 3.11).
    A hit is confirmed by structural equality against the earlier term,
    read from the kept steps, or else recomputed by replaying ``first``
    steps from t (the reducer is deterministic): at most ``first`` extra
    steps, and only on a hash hit.  A hit that fails confirmation is a
    hash collision; its count joins a side list for that hash, which later
    hits on the hash also check (replaying up to its last count), and
    reduction goes on, so the outcome is the one a table of whole terms
    would give.
    """
    if fuel < 0:
        raise ValueError("fuel must be >= 0")
    steps: list[Step] = []
    seen: dict[int, int] | None = {} if detect_cycles else None
    clashes: dict[int, list[int]] = {}
    cur = t
    count = 0
    while True:
        if seen is not None:
            h = cur._hash
            first = seen.setdefault(h, count)
            if first != count:
                earlier = [first, *clashes.get(h, ())]
                first = _recurrence(t, cur, earlier, steps if keep_steps else None,
                                    jrules)
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


def _recurrence(t: Term, cur: Term, counts: list[int], steps: list[Step] | None,
                jrules: JRules | None) -> int | None:
    """The step count among counts (ascending) whose term equals cur, or
    None.  Earlier terms come from steps when kept, else from replaying the
    reduction of t."""
    at, n = t, 0
    for c in counts:
        if steps is not None:
            at = steps[c].before
        else:
            for _ in range(c - n):
                at = step_normal_order(at, jrules)[0]
            n = c
        if at == cur:
            return c
    return None


def normal_form_of(t: Term, fuel: int = DEFAULT_FUEL, jrules: JRules | None = None) -> Term | None:
    """Normal form, or None when the budget does not suffice."""
    tr = normalize(t, fuel, jrules=jrules, keep_steps=False)
    if type(tr.outcome) is NormalForm:
        return tr.outcome.term
    return None


def _rebuild(parents: list[Term], path: list[int] | tuple[int, ...],
             new: Term) -> Term:
    """Put new in place of the subterm reached from parents[0] along path;
    parents[i] is the node at depth i, path[i] the child taken from it."""
    for parent, i in zip(reversed(parents), reversed(path)):
        if i == 0:
            new = type(parent)(new, parent.right)
        else:
            new = type(parent)(parent.left, new)
    return new


def head_step(t: Term, jrules: JRules | None = None) -> Term | None:
    """Contract the outermost redex on t's application spine, or close the
    type arguments of a J application on it; None when t is in weak head
    normal form."""
    parents: list[Term] = []
    while type(t) is App:
        red = _match_redex(t, jrules)
        new = red[1] if red is not None else _close_j_args(t, jrules)
        if new is not None:
            return _rebuild(parents, (0,) * len(parents), new)
        parents.append(t)
        t = t.left
    return None


def _close_j_args(node: Term, jrules: JRules | None) -> Term | None:
    """J{s}{t} M with an open type argument that normalising closes (weak
    head steps never reduce inside s or t): the application with s and t
    normalised, so the J rule applies next; else None."""
    f = node.left
    if jrules is None or type(f) is not App or type(f.left) is not App \
            or type(f.left.left) is not PrimJ:
        return None
    s, t = f.left.right, f.right
    if s.fvb == 0 and t.fvb == 0:
        return None  # the J rule decided already, or ran out of fuel
    ns = normal_form_of(s, jrules.type_fuel)
    nt = normal_form_of(t, jrules.type_fuel)
    if ns is None or nt is None or ns.fvb or nt.fvb:
        return None
    return App(App(App(J, ns), nt), node.right)


# full-beta contraction, used by the confluence sampler and erasure

def redex_positions(t: Term, jrules: JRules | None = None) -> list[tuple[int, ...]]:
    """Every redex position of t, in lexicographic (preorder) order."""
    return [tuple(path) for _, path, _ in _redexes(t, jrules)]


def contract_at(t: Term, path: tuple[int, ...], jrules: JRules | None = None) -> Term:
    parents: list[Term] = []
    for i in path:
        if i not in (0, 1) or type(t) not in (Lam, App, Pi):
            raise ValueError("no redex at position")
        parents.append(t)
        t = t.right if i else t.left
    red = _match_redex(t, jrules)
    if red is None:
        raise ValueError("no redex at position")
    return _rebuild(parents, path, red[1])
