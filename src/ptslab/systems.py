"""PTS instances and the type checker.

A system is a triple (sorts, axioms, rules).  The same checker serves the
simply typed calculus, System F, System U minus and the Type:Type calculus;
only the triple changes.  There is one conversion algorithm, the checker's:
it compares weak head normal forms level by level.  The fuel budget bounds
both each weak head normalisation and the number of pairs one comparison
visits, so checking in the Type:Type system can honestly report that it gave
up instead of hanging.  `convertible` returns its verdict.
"""
from __future__ import annotations

from dataclasses import dataclass

from .term import (App, DEFAULT_FUEL, JRules, Lam, Pi, PrimJ, Sort, Term,
                   Var, head_step, shift, step_normal_order, substitute, BOX,
                   STAR, TRIANGLE, STAR_SORT)


@dataclass(frozen=True)
class SystemSpec:
    name: str
    sorts: frozenset[str]
    axioms: frozenset[tuple[str, str]]
    rules: frozenset[tuple[str, str, str]]
    with_j: bool = False

    def __post_init__(self):
        for s, t in self.axioms:
            assert s in self.sorts and t in self.sorts
        for a, b, c in self.rules:
            assert {a, b, c} <= self.sorts

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


@dataclass(frozen=True)
class Context:
    """Typing context; declarations listed outermost first."""
    decls: tuple[tuple[str, Term], ...] = ()

    def extend(self, name: str, ty: Term) -> "Context":
        return Context(self.decls + ((name, ty),))


EMPTY = Context()


@dataclass(frozen=True)
class Judgment:
    context: Context
    subject: Term
    type: Term
    system: str


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
        self.spec = spec
        self.fuel = fuel
        self.jrules = JRules(fuel) if spec.with_j else None
        self.types: dict[tuple[Term, tuple[Term, ...]], Term] = {}
        self.whnfs: dict[Term, Term] = {}

    def whnf(self, t: Term, pos: tuple[int, ...]) -> Term:
        """Weak head normal form, fuel bounded."""
        cached = self.whnfs.get(t)
        if cached is not None:
            return cached
        orig = t
        # fuel contractions, then one more head_step to tell a weak head
        # normal form from exhaustion
        for _ in range(self.fuel + 1):
            r = head_step(t, self.jrules)
            if r is None:
                break
            t = r
        else:
            raise ConversionFuelExhausted(
                f"conversion ran out of fuel ({self.fuel}) in {self.spec.name}",
                pos, orig)
        self.whnfs[orig] = t
        self.whnfs[t] = t
        return t

    def conv(self, a: Term, b: Term, pos: tuple[int, ...]) -> bool:
        """Beta(-delta) convertibility, comparing weak head forms level by
        level so shared subtrees short-circuit syntactically.  Pairs are
        compared depth first, left before right.  At most `fuel` pairs that
        are not syntactically equal are compared: a term whose weak head form
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
            if wa == wb:
                continue
            ta = type(wa)
            if ta is not type(wb) or ta in (Var, Sort, PrimJ):
                return False  # structural equality already failed
            todo.append((wa.right, wb.right))
            todo.append((wa.left, wb.left))
        return True

    def sort_of_type(self, ty: Term, pos: tuple[int, ...]) -> str | None:
        """ty is an inferred type; name of the sort it reduces to, if any."""
        w = ty if type(ty) is Sort else self.whnf(ty, pos)
        return w.name if type(w) is Sort else None

    def infer(self, env: tuple[Term, ...], t: Term, pos: tuple[int, ...]) -> Term:
        # only the part of the context that t can see matters for its type
        key = (t, env[:t.fvb])
        hit = self.types.get(key)
        if hit is not None:
            return hit
        ty = self._infer(env, t, pos)
        self.types[key] = ty
        return ty

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
        if tt is Pi:
            s1 = self.sort_of_type(self.infer(env, t.left, pos + (0,)), pos + (0,))
            if s1 is None:
                raise NoRule("Pi domain is not a type", pos + (0,), t.left)
            s2 = self.sort_of_type(
                self.infer((t.left,) + env, t.right, pos + (1,)), pos + (1,))
            if s2 is None:
                raise NoRule("Pi codomain is not a type", pos + (1,), t.right)
            s3 = self.spec.rule(s1, s2)
            if s3 is None:
                raise NoRule(
                    f"no rule ({s1},{s2},_) in {self.spec.name}", pos, t)
            return Sort(s3)
        if tt is Lam:
            s1 = self.sort_of_type(self.infer(env, t.left, pos + (0,)), pos + (0,))
            if s1 is None:
                raise NoRule("binder annotation is not a type", pos + (0,), t.left)
            body_ty = self.infer((t.left,) + env, t.right, pos + (1,))
            pi = Pi(t.left, body_ty)
            s2 = self.sort_of_type(
                self.infer((t.left,) + env, body_ty, pos + (1,)), pos + (1,))
            if s2 is None or self.spec.rule(s1, s2) is None:
                raise NoRule(
                    f"no rule ({s1},{s2},_) in {self.spec.name}", pos, t)
            return pi
        if tt is App:
            fun_ty = self.infer(env, t.left, pos + (0,))
            w = fun_ty if type(fun_ty) is Pi else self.whnf(fun_ty, pos + (0,))
            if type(w) is not Pi:
                raise NotAFunction("application of a non-function", pos, t.left)
            arg_ty = self.infer(env, t.right, pos + (1,))
            if not self.conv(arg_ty, w.left, pos + (1,)):
                raise ArgumentTypeMismatch(
                    "argument type mismatch", pos + (1,), t.right,
                    expected=w.left, actual=arg_ty)
            return substitute(w.right, t.right)
        raise TypingError(f"cannot type {tt.__name__}", pos, t)


def _env_of(ctx: Context) -> tuple[Term, ...]:
    # innermost (highest index in decls) first
    return tuple(ty for _, ty in reversed(ctx.decls))


def infer(spec: SystemSpec, ctx: Context, t: Term,
          fuel: int = DEFAULT_FUEL) -> Judgment:
    ty = _Checker(spec, fuel).infer(_env_of(ctx), t, ())
    return Judgment(ctx, t, ty, spec.name)


def check(spec: SystemSpec, ctx: Context, t: Term, expected: Term,
          fuel: int = DEFAULT_FUEL) -> Judgment:
    ck = _Checker(spec, fuel)
    env = _env_of(ctx)
    ck.infer(env, expected, ())
    ty = ck.infer(env, t, ())
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


@dataclass(frozen=True)
class ProbeReport:
    steps_taken: int
    ok: bool
    violation_step: int | None = None
    expected: Term | None = None
    actual: Term | None = None
    reason: str | None = None


def subject_reduction_probe(spec: SystemSpec, ctx: Context, t: Term,
                            steps: int, fuel: int = DEFAULT_FUEL) -> ProbeReport:
    """Reduce t and re-infer after each contraction; the type must stay
    convertible with the original one."""
    ck = _Checker(spec, fuel)
    env = _env_of(ctx)
    ty0 = ck.infer(env, t, ())
    cur = t
    for i in range(steps):
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
