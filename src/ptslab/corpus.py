"""Random term generation for the property suites.

Two generators: raw well-scoped trees (for substitution and confluence
probes on the untyped fragment of the syntax) and well-typed System F terms,
built by wrapping known inhabitants in type-preserving expansions so that
every emitted term carries its type with it.
"""
from __future__ import annotations

import random
from functools import lru_cache

from .term import (App, Lam, Pi, STAR_SORT, Term, Var, app, shift)
from .encodings import definitions
from .codes import church


def term_size(t: Term) -> int:
    n = 0
    stack = [t]
    while stack:
        x = stack.pop()
        n += 1
        if type(x) in (Lam, App, Pi):
            stack.append(x.left)
            stack.append(x.right)
    return n


def random_wellscoped(rng: random.Random, size: int, free: int = 0) -> Term:
    """A random term with at most `size` nodes and free indices < free."""
    if size <= 2:
        if free and rng.random() < 0.85:
            return Var(rng.randrange(free))
        return STAR_SORT
    r = rng.random()
    if r < 0.35:
        left = rng.randint(1, size - 2)
        return App(random_wellscoped(rng, left, free),
                   random_wellscoped(rng, size - 1 - left, free))
    if r < 0.75:
        dom = random_wellscoped(rng, min(3, size - 2), free)
        return Lam(dom, random_wellscoped(rng, size - 1 - term_size(dom), free + 1))
    dom = random_wellscoped(rng, min(3, size - 2), free)
    return Pi(dom, random_wellscoped(rng, size - 1 - term_size(dom), free + 1))


def random_type(rng: random.Random, depth: int = 2, tvars: int = 0) -> Term:
    """A closed System F type (when tvars = 0)."""
    r = rng.random()
    if depth <= 0 or r < 0.3:
        if tvars and rng.random() < 0.6:
            return Var(rng.randrange(tvars))
        base = definitions("f")
        return rng.choice([base["Bool"], base["rho"]])
    if r < 0.7:
        return Pi(random_type(rng, depth - 1, tvars),
                  shift(random_type(rng, depth - 1, tvars), 1))
    return Pi(STAR_SORT, random_type(rng, depth - 1, tvars + 1))


@lru_cache(maxsize=None)
def _seeds(max_nodes: int) -> tuple[tuple[Term, Term], ...]:
    """Small closed well-typed terms with their types, those of at most
    `max_nodes` nodes, in a fixed order."""
    from .syntax import parse_term
    defs = definitions("f")
    pairs = [
        ("ID", "rho"),
        ("T", "Bool"),
        ("F", "Bool"),
        (r"\b:Bool. b", "Bool -> Bool"),
        (r"/\X. \f:X->X. \x:X. f (f x)", "forall X. (X->X) -> X -> X"),
        (r"\x:Bool. \y:Bool. x", "Bool -> Bool -> Bool"),
        ("nil {Bool}", "forall Y. Y -> (Bool->Y->Y) -> Y"),
    ]
    seeds = [(parse_term(a, defs), parse_term(b, defs)) for a, b in pairs]
    smallest = min(term_size(a) for a, _ in seeds)
    if max_nodes < smallest:
        raise ValueError(f"max_nodes must be >= {smallest}, the smallest seed")
    return tuple(s for s in seeds if term_size(s[0]) <= max_nodes)


def random_welltyped(rng: random.Random, max_nodes: int = 20) -> tuple[Term, Term]:
    """A closed well-typed System F term and its type.

    Starts from a seed and applies root-level type-preserving expansions:
    identity redexes, ID instantiation, vacuous type application, and
    numeral-driven iteration of the identity."""
    t, ty = rng.choice(_seeds(max_nodes))
    defs = definitions("f")
    for _ in range(rng.randrange(4)):
        move = rng.randrange(4)
        if move == 0:
            cand = App(Lam(ty, Var(0)), t)
        elif move == 1:
            cand = app(defs["ID"], ty, t)
        elif move == 2:
            tau = random_type(rng, 1)
            cand = App(Lam(STAR_SORT, shift(t, 1)), tau)
        else:
            k = rng.randrange(3)
            cand = app(church(k), ty, Lam(ty, Var(0)), t)
        if term_size(cand) > max_nodes:
            break
        t = cand
    return t, ty


def welltyped_corpus(n: int, seed: int = 0, max_nodes: int = 20) -> list[tuple[Term, Term]]:
    rng = random.Random(seed)
    return [random_welltyped(rng, max_nodes) for _ in range(n)]
