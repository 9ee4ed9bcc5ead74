"""The shared corpus of named terms: Church encodings, the loop ingredients,
and the Type:Type basics.  Every entry carries its expected type and a
citation; the registry invariant (each entry checks at its stated type) is
enforced by the test suite.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from types import MappingProxyType

from .term import Term
from .syntax import parse_term


EncodingEntry = namedtuple("EncodingEntry", "name system term type citation")


# Each block is (system, [(name, term-text, type-text, citation)]).
# Definitions may refer to earlier names in the same block.

_F_BLOCK = [
    ("ID", r"/\X. \x:X. x",
     "forall X. X -> X",
     "Girard (1972); Reynolds (1974)"),
    ("Bool", "forall Z. Z -> Z -> Z",
     "*",
     "Church (1941)"),
    ("T", r"/\Z. \x:Z. \y:Z. x",
     "Bool",
     "Church (1941)"),
    ("F", r"/\Z. \x:Z. \y:Z. y",
     "Bool",
     "Church (1941)"),
    ("nil", r"/\X. /\Y. \n:Y. \c:X->Y->Y. n",
     "forall X. forall Y. Y -> (X->Y->Y) -> Y",
     "Boehm and Berarducci (1985)"),
    ("conc", r"/\X. \l:(forall Y. Y->(X->Y->Y)->Y). \a:X. "
             r"/\Y. \n:Y. \c:X->Y->Y. l Y (c a n) c",
     "forall X. (forall Y. Y->(X->Y->Y)->Y) -> X -> (forall Y. Y->(X->Y->Y)->Y)",
     "Boehm and Berarducci (1985)"),
    ("Map", r"/\X. /\Y. \f:X->Y. \l:(forall Z. Z->(X->Z->Z)->Z). "
            r"/\Z. \n:Z. \c:Y->Z->Z. l Z n (\a:X. \r:Z. c (f a) r)",
     "forall X. forall Y. (X->Y) -> (forall Z. Z->(X->Z->Z)->Z)"
     " -> (forall Z. Z->(Y->Z->Z)->Z)",
     "Strachey (1967)"),
    ("rho", "forall X. X -> X",
     "*",
     "Girard (1972)"),
    ("Delta", r"\x:rho. x {rho} x",
     "rho -> rho",
     "Girard (1972)"),
]

_FJ_BLOCK = [
    ("K", r"/\Z. (J {rho} {Z}) Delta",
     "rho",
     "Girard (1972)"),
]

_STAR_BLOCK = [
    ("bot", "Pi x:V. x",
     "V",
     "Martin-Loef (1971)"),
    ("P", r"\x:V. x -> V",
     "V -> V",
     "Martin-Loef (1971)"),
    ("N", "forall X. (X->X) -> (X->X)",
     "V",
     "Church (1941); Martin-Loef (1971)"),
    ("n0", r"/\X. \f:X->X. \x:X. x", "N", "Church (1941)"),
    ("n1", r"/\X. \f:X->X. \x:X. f x", "N", "Church (1941)"),
    ("n2", r"/\X. \f:X->X. \x:X. f (f x)", "N", "Church (1941)"),
    ("n3", r"/\X. \f:X->X. \x:X. f (f (f x))", "N", "Church (1941)"),
    ("n4", r"/\X. \f:X->X. \x:X. f (f (f (f x)))", "N", "Church (1941)"),
    ("n5", r"/\X. \f:X->X. \x:X. f (f (f (f (f x))))", "N", "Church (1941)"),
    ("n6", r"/\X. \f:X->X. \x:X. f (f (f (f (f (f x)))))", "N", "Church (1941)"),
    ("succ", r"\n:N. /\X. \f:X->X. \x:X. f (n X f x)", "N -> N",
     "Church (1941)"),
    ("plus", r"\m:N. \n:N. /\X. \f:X->X. \x:X. m X f (n X f x)", "N -> N -> N",
     "Church (1941)"),
    ("mult", r"\m:N. \n:N. /\X. \f:X->X. m X (n X f)", "N -> N -> N",
     "Church (1941)"),
    ("exp", r"\m:N. \n:N. /\X. n (X->X) (m X)", "N -> N -> N",
     "Church (1941)"),
    ("PairN", "forall Z. (N->N->Z) -> Z", "V",
     "Church (1941)"),
    ("pairN", r"\a:N. \b:N. /\Z. \p:N->N->Z. p a b", "N -> N -> PairN",
     "Church (1941)"),
    ("fstN", r"\p:PairN. p {N} (\a:N. \b:N. a)", "PairN -> N",
     "Church (1941)"),
    ("sndN", r"\p:PairN. p {N} (\a:N. \b:N. b)", "PairN -> N",
     "Church (1941)"),
    ("pred", r"\n:N. fstN (n {PairN} "
             r"(\p:PairN. pairN (sndN p) (succ (sndN p))) (pairN n0 n0))",
     "N -> N",
     "Kleene (1936)"),
    ("BoolV", "forall Z. Z -> Z -> Z", "V", "Church (1941)"),
    ("trueV", r"/\Z. \x:Z. \y:Z. x", "BoolV", "Church (1941)"),
    ("falseV", r"/\Z. \x:Z. \y:Z. y", "BoolV", "Church (1941)"),
    ("iszero", r"\n:N. n {BoolV} (\b:BoolV. falseV) trueV", "N -> BoolV",
     "Kleene (1936)"),
    ("List", r"\X:V. Pi x:V. x -> (X->x->x) -> x", "V -> V",
     "Boehm and Berarducci (1985); Martin-Loef (1971)"),
]

_BLOCKS = [("f", _F_BLOCK), ("f+j", _FJ_BLOCK), ("star", _STAR_BLOCK)]


@lru_cache(maxsize=1)
def registry() -> tuple[EncodingEntry, ...]:
    entries: list[EncodingEntry] = []
    f_defs: dict[str, Term] = {}
    for system, block in _BLOCKS:
        # the f entries are in scope for the other blocks
        defs = dict(f_defs)
        if system == "f":
            defs = f_defs
        for name, src, type_src, citation in block:
            term = parse_term(src, defs)
            ty = parse_term(type_src, defs)
            defs[name] = term
            entries.append(EncodingEntry(name, system, term, ty, citation))
    return tuple(entries)


@lru_cache(maxsize=None)
def definitions(system: str) -> MappingProxyType[str, Term]:
    """Read-only name -> term map of one system, a parser prelude."""
    out: dict[str, Term] = {}
    for e in registry():
        if e.system == system or (system == "f+j" and e.system == "f") \
                or (system == "star" and e.system == "f"):
            out[e.name] = e.term
    return MappingProxyType(out)


def entry(name: str, system: str | None = None) -> EncodingEntry:
    for e in registry():
        if e.name == name and (system is None or e.system == system):
            return e
    raise KeyError(name)
