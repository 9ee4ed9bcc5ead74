r"""Concrete syntax for `.ipl` files and single terms.

Grammar (binders extend maximally right; `->` is right associative and binds
looser than application):

    file  := [pragma] item*
    pragma:= '#system' system          a name in systems.SYSTEMS
    item  := name ':=' term ';'        definition (expanded as a closed macro)
           | name ':' term ';'         type check of an earlier definition
    term  := '\' name ':' term '.' term
           | '/\' name '.' term        sugar for \X:*.
           | 'Pi' name ':' term '.' term
           | 'forall' name '.' term    sugar for Pi X:*.
           | arrow
    arrow := app ('->' term)?
    app   := atom+
    atom  := name | sort | 'J' | '(' term ')' | '{' term '}'
    sort  := a sort of the calculi ('*', 'BOX', 'TRI'), 'V' for '*'

`{t}` is ordinary application after parsing; comments run from `--` to the
end of the line.  BOX, TRI, V and J are reserved words.
"""
from __future__ import annotations

import re
from collections import namedtuple

from .term import (App, Lam, Pi, PrimJ, J, Sort, STAR, STAR_SORT, Term,
                   UNTYPED, Var)
from .systems import SYSTEMS


class ParseError(Exception):
    def __init__(self, line: int, column: int, expected: str):
        super().__init__(f"{line}:{column}: expected {expected}")
        self.line = line
        self.column = column
        self.expected = expected


_TOKEN = re.compile(r"""
    (?P<ws>\s+|--[^\n]*)
  | (?P<op>:=|->|/\\|[\\.:;(){}*+]|\#system)
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

# binder token -> (node, whether the bound name carries a ':' domain);
# an untyped binder binds a type variable (domain *)
_BINDERS = {"\\": (Lam, True), "/\\": (Lam, False),
            "Pi": (Pi, True), "forall": (Pi, False)}
# every sort the calculi declare (*, BOX, TRI), V for *, and J
_CONSTANTS = {s: Sort(s) for spec in SYSTEMS.values() for s in spec.sorts}
_CONSTANTS |= {STAR: STAR_SORT, "V": STAR_SORT, "J": J}
_BRACKETS = {"(": ")", "{": "}"}
_KEYWORDS = {w for w in (*_BINDERS, *_CONSTANTS) if w.isalpha()}


def _error(text: str, offset: int, expected: str) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    return ParseError(line, offset - text.rfind("\n", 0, offset), expected)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) triples ending with an 'eof' token.  The kind of
    an operator or keyword is its own text; others are 'name' and 'eof'."""
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        chunk = m.group()
        if kind == "bad":
            raise _error(text, m.start(), f"a token (found {chunk!r})")
        if kind == "op" or chunk in _KEYWORDS:
            kind = chunk
        out.append((kind, chunk, m.start()))
    out.append(("eof", "", len(text)))
    return out


Definition = namedtuple("Definition", "name term")
Check = namedtuple("Check", "name type")


class SourceFile(namedtuple("SourceFile", "system items")):
    """A parsed file: the system its pragma names (or None), and its
    Definitions and Checks in source order."""
    __slots__ = ()

    @property
    def definitions(self) -> dict[str, Term]:
        return {d.name: d.term for d in self.items if type(d) is Definition}


class _Parser:
    def __init__(self, text: str, defs: dict[str, Term] | None = None):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.defs = dict(defs) if defs else {}

    def fail(self, expected: str) -> ParseError:
        return _error(self.text, self.toks[self.pos][2], expected)

    def expect(self, kind: str) -> str:
        """Consume a token of `kind` and return its text; a word kind
        ('name', 'eof') is reported bare, an operator quoted."""
        tok = self.toks[self.pos]
        if tok[0] != kind:
            raise self.fail(kind if kind.isalpha() else f"'{kind}'")
        self.pos += 1
        return tok[1]

    # terms -----------------------------------------------------------------

    def term(self, env: list[str]) -> Term:
        """A binder form, or an application spine with an optional '->'."""
        binder = _BINDERS.get(self.toks[self.pos][0])
        if binder is not None:
            node, typed = binder
            self.pos += 1
            name = self.expect("name")
            dom = STAR_SORT
            if typed:
                self.expect(":")
                dom = self.term(env)
            self.expect(".")
            return node(dom, self.term([name] + env))
        t = self.atom(env)
        while True:
            kind = self.toks[self.pos][0]
            if kind == "name" or kind in _CONSTANTS or kind in _BRACKETS:
                t = App(t, self.atom(env))
            elif kind == "->":
                self.pos += 1
                return Pi(t, self.term(["_"] + env))
            else:
                return t

    def atom(self, env: list[str]) -> Term:
        kind, text, _ = self.toks[self.pos]
        if kind in _CONSTANTS:
            self.pos += 1
            return _CONSTANTS[kind]
        if kind in _BRACKETS:
            self.pos += 1
            inner = self.term(env)
            self.expect(_BRACKETS[kind])
            return inner
        if kind != "name":
            raise self.fail("a term")
        if text in env:
            self.pos += 1
            return Var(env.index(text))
        if text in self.defs:
            self.pos += 1
            return self.defs[text]
        raise self.fail(f"a bound variable or defined name ({text!r} is neither)")

    # files -----------------------------------------------------------------

    def pragma(self) -> str | None:
        """The system named by a leading '#system' pragma, or None."""
        if self.toks[self.pos][0] != "#system":
            return None
        self.pos += 1
        at = self.toks[self.pos][2]
        name = self.expect("name")
        if self.toks[self.pos][0] == "+":  # f+j
            self.pos += 1
            name += "+" + self.expect("name")
        if name not in SYSTEMS:
            raise _error(self.text, at, "a system name")
        return name

    def file(self) -> SourceFile:
        system = self.pragma()
        items: list[Definition | Check] = []
        while self.toks[self.pos][0] != "eof":
            at = self.toks[self.pos][2]
            name = self.expect("name")
            kind = self.toks[self.pos][0]
            if kind != ":=" and kind != ":":
                raise self.fail("':=' or ':'")
            self.pos += 1
            body = self.term([])
            self.expect(";")
            if kind == ":":
                items.append(Check(name, body))
                continue
            if body.fvb != 0:
                raise _error(self.text, at, "a closed definition body")
            self.defs[name] = body
            items.append(Definition(name, body))
        return SourceFile(system, tuple(items))


def parse(text: str, defs: dict[str, Term] | None = None) -> SourceFile:
    return _Parser(text, defs).file()


def pragma(text: str) -> str | None:
    """The system a file's '#system' pragma names, read without parsing the
    rest of the file (whose names depend on that system's prelude)."""
    return _Parser(text).pragma()


def parse_term(text: str, defs: dict[str, Term] | None = None) -> Term:
    p = _Parser(text, defs)
    t = p.term([])
    p.expect("eof")
    return t


# pretty printing ------------------------------------------------------------

def _mentions_bound(t: Term, cutoff: int = 0) -> bool:
    """Does t use the variable with index `cutoff` free in t?"""
    stack = [(t, cutoff)]
    while stack:
        t, cutoff = stack.pop()
        if t.fvb <= cutoff:
            continue
        tt = type(t)
        if tt is Var:
            if t.index == cutoff:
                return True
        elif tt is App:
            stack.append((t.right, cutoff))
            stack.append((t.left, cutoff))
        elif tt in (Lam, Pi):
            stack.append((t.right, cutoff + 1))
            stack.append((t.left, cutoff))
    return False


_TYPE_NAMES = "XYZ"
_TERM_NAMES = "xyzuvw"


def _fresh(pool: str, taken: set[str], counters: dict[str, int]) -> str:
    for c in pool:
        if c not in taken:
            return c
    n = counters.get(pool, 0)
    while True:
        n += 1
        cand = pool[0] + str(n)
        if cand not in taken:
            counters[pool] = n
            return cand


_ATOM, _APP, _ARROW = 0, 1, 2   # precedence levels, tightest first
# (node, typed) -> binder head, from the parser's table: \x:T. /\X. Pi x:T. forall X.
_HEADS = {b: kw + " " * kw.isalpha() for kw, b in _BINDERS.items()}


def pretty(t: Term, star: bool = False,
           fold: dict[Term, str] | None = None) -> str:
    """Canonical text for t.  `fold` maps closed terms to display names;
    dangling indices print as f0, f1, ... (innermost first)."""
    counters: dict[str, int] = {}

    def go(t: Term, env: list[str], level: int) -> str:
        if fold and t.fvb == 0:
            name = fold.get(t)
            if name is not None:
                return name
        tt = type(t)
        if tt is Var:
            if t.index < len(env):
                return env[t.index]
            return f"f{t.index - len(env)}"
        if tt is Sort:
            if t.name == STAR:
                return "V" if star else "*"
            return t.name
        if tt is PrimJ:
            return "J"
        if tt is App:
            s = f"{go(t.left, env, _APP)} {go(t.right, env, _ATOM)}"
            return f"({s})" if level < _APP else s
        if tt is Pi and not _mentions_bound(t.right):
            s = f"{go(t.left, env, _APP)} -> {go(t.right, ['_'] + env, _ARROW)}"
        else:  # a binder: name, then domain, then body (the name counters see this order)
            typed = not (t.left is STAR_SORT or t.left == STAR_SORT)
            x = _fresh(_TERM_NAMES if typed else _TYPE_NAMES, set(env), counters)
            dom = ""
            if typed and not (tt is Lam and (t.left is UNTYPED or t.left == UNTYPED)):
                dom = ":" + go(t.left, env, _ARROW)
            s = f"{_HEADS[tt, typed]}{x}{dom}. {go(t.right, [x] + env, _ARROW)}"
        return f"({s})" if level < _ARROW else s

    return go(t, [], _ARROW)
