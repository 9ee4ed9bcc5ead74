"""Erasure to untyped lambda terms (the Curry-style reading of System F).

|x| = x, |M N| = |M| |N|, |\\x:s. M| = \\x. |M|, and both type abstraction
and type application vanish.  Untyped terms live in the kernel's term
language: an erased binder is Lam(UNTYPED, body), so the kernel's
substitution, redex search and contraction serve them unchanged.
"""
from __future__ import annotations

from .term import (App, Lam, Pi, PrimJ, Sort, Term, Var, STAR, UNTYPED,
                   reducts)


class EraseError(Exception):
    pass


def _is_type(t: Term, type_binders: list[bool]) -> bool:
    # System F types are sorts, Pi/forall types and type variables.
    if type(t) in (Sort, Pi):
        return True
    if type(t) is Var:
        return t.index < len(type_binders) and type_binders[t.index]
    return False


def erase(t: Term) -> Term:
    """Delete annotations, type abstractions and type applications from a
    well-typed System F term.  Terms containing J are rejected: J has no
    uniform untyped meaning."""
    def go(t: Term, env: list[bool]) -> Term:
        tt = type(t)
        if tt is PrimJ:
            raise EraseError("J cannot be erased to an untyped term")
        if tt is Var:
            if t.index < len(env) and env[t.index]:
                raise EraseError("type variable in term position")
            # drop the type binders it crosses (all of env for a free index)
            return Var(t.index - sum(env[:t.index]))
        if tt is Lam:
            if type(t.left) is Sort and t.left.name == STAR:
                return go(t.right, [True] + env)
            return Lam(UNTYPED, go(t.right, [False] + env))
        if tt is App:
            if _is_type(t.right, env):
                return go(t.left, env)
            return App(go(t.left, env), go(t.right, env))
        raise EraseError(f"cannot erase {type(t).__name__} in term position")

    return go(t, [])


def u_one_step_reachable(a: Term, b: Term) -> bool:
    """True when the erased term b is a by zero steps or by one beta
    contraction.  Each reduct is built once, and only until b turns up."""
    return a == b or b in reducts(a)
