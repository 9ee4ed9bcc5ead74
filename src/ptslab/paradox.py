r"""The two normalization counterexamples.

build_loop: the J extension of System F has a closed well-typed term that
reduces back to itself.  With J : forall X. forall Y. (X->X) -> (Y->Y),
rho = forall X. X->X, Delta = \x:rho. x{rho}x and K = /\Z. J{rho}{Z} Delta,
the term K{rho} K cycles:

    K{rho} K  ->  (J{rho}{rho} Delta) K  ->  Delta K  ->  K{rho} K

build_hurkens: a closed term of type (Pi x:V. x) in the Type:Type system
that never reaches a normal form, after Hurkens' compact version of
Girard's paradox.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .term import App, CycleDetected, JRules, Term, normalize
from .syntax import parse
from .systems import LAMBDA_STAR, EMPTY, infer
from .encodings import entry


# checkpoints: the displayed intermediate configurations;
# period: raw contraction count of one full cycle
LoopReport = namedtuple("LoopReport",
                        "start trace checkpoints checkpoint_steps period")


def build_loop(fuel: int = 100) -> LoopReport:
    """Run K{rho} K to its recurrence and locate the two intermediate
    configurations of the displayed chain."""
    rho = entry("rho").term
    delta = entry("Delta").term
    K = entry("K").term
    start = App(App(K, rho), K)
    trace = normalize(start, fuel, detect_cycles=True, jrules=JRules())
    from .term import J as Jconst
    mid1 = App(App(App(App(Jconst, rho), rho), delta), K)
    mid2 = App(delta, K)
    steps = []
    for want in (mid1, mid2):
        hit = next((i for i, s in enumerate(trace.steps) if s.after == want), None)
        steps.append(hit)
    checkpoints = (mid1, mid2)
    period = trace.outcome.period if type(trace.outcome) is CycleDetected else 0
    return LoopReport(start, trace, checkpoints,
                      tuple(s if s is not None else -1 for s in steps), period)


# Hurkens' term.  U is the "universe" of covariant powerset algebras;
# sigma and tau form a retraction-like pair whose mismatch produces the
# non-normalizing inhabitant of bot.
_HURKENS_SRC = r"""
#system star
bot := Pi a:V. a;
U := Pi x:V. ((((x->V)->V) -> x) -> ((x->V)->V));
tau := \t:((U->V)->V). \x:V. \f:(((x->V)->V)->x). \p:(x->V).
       t (\y:U. p (f (y x f)));
sigma := \s:U. s U (\t:((U->V)->V). tau t);
Delta := \y:U. (Pi p:(U->V). sigma y p -> p (tau (sigma y))) -> bot;
Omega := tau (\p:(U->V). Pi x:U. sigma x p -> p x);
lem1 := \p:(U->V). \h:(Pi x:U. sigma x p -> p x).
        h Omega (\x:U. h (tau (sigma x)));
arg1 := \x:U. \h2:(sigma x Delta).
        \h3:(Pi p:(U->V). sigma x p -> p (tau (sigma x))).
        (h3 Delta h2) (\p:(U->V). h3 (\y:U. p (tau (sigma y))));
arg2 := \p:(U->V). lem1 (\y:U. p (tau (sigma y)));
paradox := lem1 Delta arg1 arg2;
"""


def hurkens_source() -> str:
    return _HURKENS_SRC


@lru_cache(maxsize=1)
def _hurkens_defs() -> dict[str, Term]:
    """The definitions of _HURKENS_SRC, parsed once per process; callers
    read it and never change it."""
    return parse(_HURKENS_SRC).definitions


def build_hurkens() -> Term:
    """The paradoxical term, closed and well-typed at bot in the Type:Type
    system (citation: Hurkens 1995)."""
    return _hurkens_defs()["paradox"]


def hurkens_type_checks() -> bool:
    src = _hurkens_defs()
    j = infer(LAMBDA_STAR, EMPTY, src["paradox"])
    return j.type == src["bot"]
