"""PTS instances and the type checker.

A system is a triple (sorts, axioms, rules); one checker serves the simply
typed calculus, System F, System U minus and Type:Type, only the triple
changes.  It infers types by one sort judgement and one product rule, which
types a Pi and, through its Pi, a lambda; `check` adds the sort judgement of
the expected type, unless it is the inferred one, and a conversion.  The
one conversion algorithm compares weak head normal forms level by level;
term.weak_head computes each on an environment machine.  Fuel bounds each
weak head normalisation and the pairs a comparison visits, so in Type:Type
the checker gives up instead of hanging; a negative fuel raises ValueError.
Each declaration of a context must be a type in the context before it.

The subject-reduction probe sweeps its checker's caches every 200 steps
down to what the current reduct can still reach, so its memory follows the
reduct and its subterms' types, not every term the run met (Hurkens: a
traced peak of 4.39 MiB at 600 steps, 10.4 MiB unswept; see its docstring).
"""
from __future__ import annotations

from collections import namedtuple

from .term import (App, DEFAULT_FUEL, JRules, Lam, Pi, PrimJ, Sort, Term,
                   Var, shift, step_normal_order, substitute, weak_head, BOX,
                   STAR, TRIANGLE, STAR_SORT)


class SystemSpec(namedtuple("SystemSpec", "name sorts axioms rules with_j")):
    __slots__ = ()

    def __new__(cls, name: str, sorts: frozenset[str],
                axioms: frozenset[tuple[str, str]],
                rules: frozenset[tuple[str, str, str]], with_j: bool = False):
        # axiom() and rule() are functions only if no sort has two axioms
        # and no (s1, s2) two rules; else frozenset order would pick one
        if not {s for r in axioms | rules for s in r} <= sorts:
            raise ValueError(f"{name}: an axiom or rule names no sort")
        if len({s for s, _ in axioms}) < len(axioms):
            raise ValueError(f"{name}: a sort has two axioms")
        if len({(a, b) for a, b, _ in rules}) < len(rules):
            raise ValueError(f"{name}: an (s1, s2) has two rules")
        return super().__new__(cls, name, sorts, axioms, rules, with_j)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)     # so that _replace checks too

    def axiom(self, s: str) -> str | None:
        for a, b in self.axioms:
            if a == s:
                return b
        return None

    def rule(self, s1: str, s2: str) -> str | None:
        for a, b, c in self.rules:
            if a == s1 and b == s2:
                return c
        return None


LAMBDA_ARROW = SystemSpec(
    "stlc", frozenset({STAR, BOX}), frozenset({(STAR, BOX)}),
    frozenset({(STAR, STAR, STAR)}))

SYSTEM_F = SystemSpec(
    "f", frozenset({STAR, BOX}), frozenset({(STAR, BOX)}),
    frozenset({(STAR, STAR, STAR), (BOX, STAR, STAR)}))

SYSTEM_F_J = SystemSpec(
    "f+j", SYSTEM_F.sorts, SYSTEM_F.axioms, SYSTEM_F.rules, with_j=True)

LAMBDA_U_MINUS = SystemSpec(
    "uminus", frozenset({STAR, BOX, TRIANGLE}),
    frozenset({(STAR, BOX), (BOX, TRIANGLE)}),
    frozenset({(STAR, STAR, STAR), (BOX, STAR, STAR),
               (BOX, BOX, BOX), (TRIANGLE, BOX, BOX)}))

LAMBDA_STAR = SystemSpec(
    "star", frozenset({STAR}), frozenset({(STAR, STAR)}),
    frozenset({(STAR, STAR, STAR)}))

SYSTEMS: dict[str, SystemSpec] = {
    s.name: s for s in (LAMBDA_ARROW, SYSTEM_F, SYSTEM_F_J,
                        LAMBDA_U_MINUS, LAMBDA_STAR)}

# J : forall X. forall Y. (X -> X) -> (Y -> Y)
J_TYPE = Pi(STAR_SORT, Pi(STAR_SORT,
            Pi(Pi(Var(1), Var(2)), Pi(Var(1), Var(2)))))


class Context(namedtuple("Context", "decls", defaults=((),))):
    """Typing context; declarations listed outermost first."""
    __slots__ = ()

    def extend(self, name: str, ty: Term) -> "Context":
        return Context(self.decls + ((name, ty),))


EMPTY = Context()


Judgment = namedtuple("Judgment", "context subject type system")


class TypingError(Exception):
    def __init__(self, message: str, position: tuple[int, ...] = (),
                 subterm: Term | None = None):
        super().__init__(message)
        self.position = position
        self.subterm = subterm


class UnboundVariable(TypingError):
    pass


class NoAxiom(TypingError):
    pass


class NoRule(TypingError):
    pass


class NotAFunction(TypingError):
    pass


class ArgumentTypeMismatch(TypingError):
    def __init__(self, message, position, subterm, expected: Term, actual: Term):
        super().__init__(message, position, subterm)
        self.expected = expected
        self.actual = actual


class TypeMismatch(TypingError):
    def __init__(self, message, expected: Term, actual: Term):
        super().__init__(message)
        self.expected = expected
        self.actual = actual


class ConversionFuelExhausted(TypingError):
    pass


class JNotEnabled(TypingError):
    pass


class _Checker:
    """One checking session; caches inferred types and normal forms across
    the shared subtrees that reduction sequences produce."""

    def __init__(self, spec: SystemSpec, fuel: int = DEFAULT_FUEL):
        if fuel < 0:
            raise ValueError("fuel must be >= 0")
        self.spec = spec
        self.fuel = fuel
        self.jrules = JRules(fuel) if spec.with_j else None
        self.types: dict[tuple[Term, tuple[Term, ...]], Term] = {}
        self.whnfs: dict[Term, Term] = {}

    def whnf(self, t: Term, pos: tuple[int, ...]) -> Term:
        """Weak head normal form, fuel bounded.  Only applications reduce
        (weak_head never rewrites anything else), so only they are cached."""
        if type(t) is not App:
            return t
        cached = self.whnfs.get(t)
        if cached is not None:
            return cached
        w = weak_head(t, self.fuel, self.jrules)
        if w is None:
            raise ConversionFuelExhausted(
                f"conversion ran out of fuel ({self.fuel}) in {self.spec.name}",
                pos, t)
        self.whnfs[t] = self.whnfs[w] = w
        return w

    def conv(self, a: Term, b: Term, pos: tuple[int, ...]) -> bool:
        """Beta(-delta) convertibility, comparing weak head forms level by
        level so shared subtrees short-circuit syntactically.  Applications
        are compared as spines: heads, then arguments first to last, depth
        first.  At most `fuel` pairs that are not syntactically equal are
        compared, a spine counting once: a term whose weak head form
        contains itself would otherwise yield new pairs forever."""
        todo = [(a, b)]
        budget = self.fuel
        while todo:
            a, b = todo.pop()
            if a == b:
                continue
            if budget == 0:
                raise ConversionFuelExhausted(
                    f"conversion compared {self.fuel} pairs in "
                    f"{self.spec.name} without reaching a verdict", pos, a)
            budget -= 1
            wa, wb = self.whnf(a, pos), self.whnf(b, pos)
            while type(wa) is App and type(wb) is App:
                todo.append((wa.right, wb.right))
                wa, wb = wa.left, wb.left
            if wa == wb:
                continue
            ta = type(wa)
            if ta is not type(wb) or ta in (Var, Sort, PrimJ):
                return False  # structural equality already failed
            todo.append((wa.right, wb.right))
            todo.append((wa.left, wb.left))
        return True

    def sweep(self, roots: tuple[Term, ...]) -> None:
        """Forget what no subterm of roots can ask for: a types entry whose
        term is unreachable from roots, and a whnfs entry whose term is
        neither reachable nor a kept type.  Marking does not follow the
        cached values, which span far more nodes than the keys."""
        live: set[int] = set()
        todo = list(roots)
        while todo:
            n = todo.pop()
            if id(n) not in live:
                live.add(id(n))
                if type(n) in (Lam, App, Pi):
                    todo += n.left, n.right
        self.types = {k: v for k, v in self.types.items() if id(k[0]) in live}
        live.update(id(v) for v in self.types.values())
        self.whnfs = {k: v for k, v in self.whnfs.items() if id(k) in live}

    def infer(self, env: tuple[Term, ...], t: Term, pos: tuple[int, ...]) -> Term:
        # only the part of the context that t can see matters for its type
        key = (t, env[:t.fvb])
        hit = self.types.get(key)
        if hit is not None:
            return hit
        ty = self._infer(env, t, pos)
        self.types[key] = ty
        return ty

    def sort(self, env: tuple[Term, ...], t: Term, pos: tuple[int, ...],
             what: str) -> str:
        """Name of the sort t's type reduces to; NoRule if t is no type."""
        w = self.whnf(self.infer(env, t, pos), pos)
        if type(w) is not Sort:
            raise NoRule(f"{what} is not a type", pos, t)
        return w.name

    def _infer(self, env: tuple[Term, ...], t: Term, pos: tuple[int, ...]) -> Term:
        # env[0] is the innermost binder's domain, at its binding depth
        tt = type(t)
        if tt is Var:
            if t.index >= len(env):
                raise UnboundVariable(f"unbound variable #{t.index}", pos, t)
            return shift(env[t.index], t.index + 1)
        if tt is Sort:
            target = self.spec.axiom(t.name)
            if target is None:
                raise NoAxiom(f"sort {t.name} has no type in {self.spec.name}",
                              pos, t)
            return Sort(target)
        if tt is PrimJ:
            if not self.spec.with_j:
                raise JNotEnabled(f"J is not a constant of {self.spec.name}",
                                  pos, t)
            return J_TYPE
        if tt is Pi or tt is Lam:
            # product rule for Pi x:A. B, and for \x:A. b with B the type of b
            s1 = self.sort(env, t.left, pos + (0,),
                           "Pi domain" if tt is Pi else "binder annotation")
            inner = (t.left,) + env
            cod = t.right if tt is Pi else self.infer(inner, t.right, pos + (1,))
            s2 = self.sort(inner, cod, pos + (1,), "Pi codomain")
            s3 = self.spec.rule(s1, s2)
            if s3 is None:
                raise NoRule(
                    f"no rule ({s1},{s2},_) in {self.spec.name}", pos, t)
            return Sort(s3) if tt is Pi else Pi(t.left, cod)
        if tt is App:
            w = self.whnf(self.infer(env, t.left, pos + (0,)), pos + (0,))
            if type(w) is not Pi:
                raise NotAFunction("application of a non-function", pos, t.left)
            arg_ty = self.infer(env, t.right, pos + (1,))
            if not self.conv(arg_ty, w.left, pos + (1,)):
                raise ArgumentTypeMismatch(
                    "argument type mismatch", pos + (1,), t.right,
                    expected=w.left, actual=arg_ty)
            return substitute(w.right, t.right)
        raise TypingError(f"cannot type {tt.__name__}", pos, t)


def _env_of(ck: _Checker, ctx: Context) -> tuple[Term, ...]:
    """ctx as the checker's environment, innermost (highest index in decls)
    first; each declaration must be a type in the context before it."""
    env: tuple[Term, ...] = ()
    for name, ty in ctx.decls:
        ck.sort(env, ty, (), f"declaration of {name}")
        env = (ty,) + env
    return env


def infer(spec: SystemSpec, ctx: Context, t: Term,
          fuel: int = DEFAULT_FUEL) -> Judgment:
    ck = _Checker(spec, fuel)
    ty = ck.infer(_env_of(ck, ctx), t, ())
    return Judgment(ctx, t, ty, spec.name)


def check(spec: SystemSpec, ctx: Context, t: Term, expected: Term,
          fuel: int = DEFAULT_FUEL) -> Judgment:
    """t : expected.  t's type is inferred first; when it equals `expected`
    that is the judgement, and `expected` needs none of its own (so a top
    sort, such as BOX in f, which has no type, can be expected).  Otherwise
    `expected` must be a type (the sort judgement, else NoRule) convertible
    with t's type (else TypeMismatch)."""
    ck = _Checker(spec, fuel)
    env = _env_of(ck, ctx)
    ty = ck.infer(env, t, ())
    if ty != expected:
        ck.sort(env, expected, (), "expected type")
        if not ck.conv(ty, expected, ()):
            raise TypeMismatch("type mismatch", expected=expected, actual=ty)
    return Judgment(ctx, t, expected, spec.name)


def convertible(spec: SystemSpec, ctx: Context, a: Term, b: Term,
                fuel: int = DEFAULT_FUEL) -> str:
    """Verdict: 'convertible', 'distinct' or 'fuel-exhausted', decided by
    the checker's conversion; fuel bounds each weak head normalisation and
    the number of pairs compared."""
    try:
        same = _Checker(spec, fuel).conv(a, b, ())
    except ConversionFuelExhausted:
        return "fuel-exhausted"
    return "convertible" if same else "distinct"


ProbeReport = namedtuple(
    "ProbeReport", "steps_taken ok violation_step expected actual reason",
    defaults=(None, None, None, None))


# steps between two sweeps of the probe's checker caches; sweeping more
# often bounds memory tighter but recomputes more (every 50 steps: x1.2-1.5
# time on the Hurkens probe)
_SWEEP_EVERY = 200


def subject_reduction_probe(spec: SystemSpec, ctx: Context, t: Term,
                            steps: int, fuel: int = DEFAULT_FUEL) -> ProbeReport:
    """Reduce t and re-infer after each contraction; the type must stay
    convertible with the original one.

    One checker serves the whole run, so a reduct reuses the types of the
    subterms it shares with earlier ones.  Every _SWEEP_EVERY steps the
    checker's caches are swept down to what the current reduct, the original
    type and the context can still reach.  The peak is then what one window
    of steps allocates plus about 115 bytes per DAG node kept, that is, of
    the reduct and of its subterms' cached types.  On the Hurkens term
    (Python 3.11) a window allocates 3-6 MiB; over 4000 steps the reduct
    stays at 200-450 nodes, while the kept types grow from 2.4k nodes at
    step 200 to 30k (3.4 MiB) at step 4000.  The tracemalloc peak is 4.39
    MiB at 600 steps (tested at <= 6 MiB) and 10.56 MiB at 4000; without
    the sweep it was 10.4 and 98.5 MiB."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    ck = _Checker(spec, fuel)
    env = _env_of(ck, ctx)
    ty0 = ck.infer(env, t, ())
    cur = t
    for i in range(steps):
        if i and i % _SWEEP_EVERY == 0:
            ck.sweep((cur, ty0) + env)
        r = step_normal_order(cur, ck.jrules)
        if r is None:
            return ProbeReport(i, True)
        cur = r[0]
        try:
            ty = ck.infer(env, cur, ())
            same = ck.conv(ty, ty0, ())
        except TypingError as exc:
            return ProbeReport(i + 1, False, i + 1, ty0, None,
                               f"{type(exc).__name__}: {exc}")
        if not same:
            return ProbeReport(i + 1, False, i + 1, ty0, ty, "type changed")
    return ProbeReport(steps, True)
