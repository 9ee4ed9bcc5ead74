"""Shared term language: de Bruijn terms, substitution, beta/delta reduction.

Terms are immutable; structural equality on the de Bruijn representation is
alpha-equivalence.  Every node caches an upper bound on its free indices
(``fvb``), a normality bitmask and its hash, which is what makes long
reduction runs (the paradox demos burn through 10^6 contractions)
affordable in pure Python: closed subtrees are shared, never copied, and
the one normal-order redex walk skips every subtree whose normality bit is
set.  The walk yields redexes, not contracta: one matcher (_match_redex)
says what is a redex, one contractor (_contract) builds every contractum,
and step_normal_order, redex_positions, reducts, contract_at and head_step
share both.  head_step, the weak-head step of the checker, walks the
application spine only.

Hashes are cached on construction, except on the ancestors that _rebuild
puts above a contractum (and on nodes built over such an ancestor): a step
rebuilds its whole path to the root, and nothing reads those hashes unless
the term goes into a hash table.  hash() fills a missing hash on demand,
children first, with the same formula, so a term hashes the same however
it was built.

Reduction positions are tuples of 0/1: 0 selects fun/domain, 1 selects
arg/body/codomain.
"""
from __future__ import annotations

from array import array
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
        h = self._hash
        return h if h is not None else _fill_hash(self)

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
            hx, hy = x._hash, y._hash
            if hx != hy and hx is not None and hy is not None:
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


# Lam, App and Pi hash as hash((tag, left hash, right hash)); a node with an
# unhashed child stays unhashed until hash() asks (_fill_hash).

class Lam(Term):
    __slots__ = ("left", "right")
    tag = 0x4C33

    def __init__(self, domain: Term, body: Term):
        self.left = domain
        self.right = body
        a, b = domain.fvb, body.fvb - 1
        self.fvb = a if a > b else b
        self.nf = 0
        a, b = domain._hash, body._hash
        self._hash = (None if a is None or b is None
                      else hash((0x4C33, a, b)))


class App(Term):
    __slots__ = ("left", "right")
    tag = 0x4155

    def __init__(self, fun: Term, arg: Term):
        self.left = fun
        self.right = arg
        a, b = fun.fvb, arg.fvb
        self.fvb = a if a > b else b
        self.nf = 0
        a, b = fun._hash, arg._hash
        self._hash = (None if a is None or b is None
                      else hash((0x4155, a, b)))


class Pi(Term):
    __slots__ = ("left", "right")
    tag = 0x5044

    def __init__(self, domain: Term, codomain: Term):
        self.left = domain
        self.right = codomain
        a, b = domain.fvb, codomain.fvb - 1
        self.fvb = a if a > b else b
        self.nf = 0
        a, b = domain._hash, codomain._hash
        self._hash = (None if a is None or b is None
                      else hash((0x5044, a, b)))


def _fill_hash(t: Term) -> int:
    """Compute and cache the missing hashes of t's subtree, children first;
    leaves always carry theirs."""
    stack = [t]
    while stack:
        node = stack[-1]
        a, b = node.left._hash, node.right._hash
        if a is None:
            stack.append(node.left)
        elif b is None:
            stack.append(node.right)
        else:
            node._hash = hash((node.tag, a, b))
            stack.pop()
    return t._hash


J = PrimJ()
STAR_SORT = Sort(STAR)
BOX_SORT = Sort(BOX)
# the domain of every erased binder; closed, so substitution never enters it
UNTYPED = Sort("untyped")


def app(fun: Term, *args: Term) -> Term:
    for a in args:
        fun = App(fun, a)
    return fun


# ---------------------------------------------------------------------------
# index arithmetic

def _rewrite(t: Term, arg: Term | None, by: int) -> Term:
    """Rebuild t, replacing every Var whose index i is at least the local
    cutoff c (the number of binders above it): by arg shifted by c when
    arg is given and i == c, else by Var(i + by).  Subtrees without such
    variables are returned as-is."""
    closed = arg is not None and arg.fvb == 0
    out: list[Term] = []
    emit, take = out.append, out.pop
    # reduction shares subtrees heavily; memoise on node identity so each
    # physical subtree is rebuilt once per cutoff instead of once per path
    memo: dict[tuple[int, int], Term] = {}
    stack: list[tuple[Term, int, bool]] = [(t, 0, False)]
    push, pop = stack.append, stack.pop
    while stack:
        node, cut, done = pop()
        if done:
            b = take()
            a = take()
            res = node if a is node.left and b is node.right else type(node)(a, b)
            memo[id(node), cut] = res
            emit(res)
        elif node.fvb <= cut:
            emit(node)
        elif type(node) is Var:
            i = node.index
            if i != cut or arg is None:
                emit(Var(i + by))
            else:
                emit(arg if closed else shift(arg, cut))
        else:
            hit = memo.get((id(node), cut))
            if hit is not None:
                emit(hit)
            else:
                push((node, cut, True))
                push((node.right, cut if type(node) is App else cut + 1,
                      False))
                push((node.left, cut, False))
    return out[0]


def shift(t: Term, by: int) -> Term:
    """Add `by` to every free index."""
    if by == 0 or t.fvb == 0:
        return t
    return _rewrite(t, None, by)


def substitute(body: Term, arg: Term) -> Term:
    """Capture-avoiding substitution of arg for the outermost bound variable
    of a binder scope; remaining free indices are re-adjusted."""
    if body.fvb == 0:
        return body
    return _rewrite(body, arg, -1)


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
    Nothing is contracted: the caller builds what it needs with _contract.

    parents and path are the walk's live lists: parents[i] is the node at
    depth i and path[i] the child taken from it.  Subtrees whose normality
    bit is set are skipped; until the first yield, each subtree left behind
    gets that bit, since no redex was found in it.
    """
    want = _NF_BETAJ if jrules is not None else _NF_BETA
    mark = (_NF_BETA | _NF_BETAJ) if jrules is not None else _NF_BETA
    parents: list[Term] = []
    path: list[int] = []
    down, turn = parents.append, path.append
    node = t
    while True:
        if not node.nf & want:
            # leaves carry both bits, so node has children; the beta test and
            # _j_args's head test are inline: _match_redex sees only J heads
            if type(node) is App:
                f = node.left
                if type(f) is Lam:
                    mark = 0    # node and its ancestors are not normal
                    yield parents, path, node, RULE_BETA
                elif (jrules is not None and type(f) is App
                      and type(f.left) is App and type(f.left.left) is PrimJ):
                    rule = _match_redex(node, jrules)
                    if rule is not None:
                        mark = 0
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
            parents.pop().nf |= mark
        else:
            return


def step_normal_order(t: Term, jrules: JRules | None = None):
    """Contract the leftmost-outermost redex.

    Returns (reduct, position, rule) or None when t is a normal form.
    """
    for parents, path, node, rule in _redexes(t, jrules):
        return _rebuild(parents, path, _contract(node, rule)), tuple(path), rule
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
            if h is None:
                h = _fill_hash(cur)
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


_new = object.__new__


def _rebuild(parents: list[Term], path: list[int] | tuple[int, ...],
             new: Term) -> Term:
    """Put new in place of the subterm reached from parents[0] along path;
    parents[i] is the node at depth i, path[i] the child taken from it.
    Each rebuilt ancestor gets the fields its constructor would give it but
    the hash, which stays unset until hash() asks for it."""
    for k in range(len(parents) - 1, -1, -1):
        parent = parents[k]
        if path[k]:
            left, right = parent.left, new
        else:
            left, right = new, parent.right
        cls = type(parent)
        new = _new(cls)
        new.left = left
        new.right = right
        a = left.fvb
        b = right.fvb if cls is App else right.fvb - 1
        new.fvb = a if a > b else b
        new.nf = 0
        new._hash = None
    return new


def head_step(t: Term, jrules: JRules | None = None) -> Term | None:
    """Contract the outermost redex on t's application spine, or close the
    type arguments of a J application on it; None when t is in weak head
    normal form."""
    parents: list[Term] = []
    while type(t) is App:
        rule = _match_redex(t, jrules)
        new = _contract(t, rule) if rule is not None else _close_j_args(t, jrules)
        if new is not None:
            return _rebuild(parents, (0,) * len(parents), new)
        parents.append(t)
        t = t.left
    return None


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
    parents: list[Term] = []
    for i in path:
        if i not in (0, 1) or type(t) not in (Lam, App, Pi):
            raise ValueError("no redex at position")
        parents.append(t)
        t = t.right if i else t.left
    rule = _match_redex(t, jrules)
    if rule is None:
        raise ValueError("no redex at position")
    return _rebuild(parents, path, _contract(t, rule))
