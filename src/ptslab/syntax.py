r"""Concrete syntax for `.ipl` files and single terms.

Grammar (binders extend maximally right; `->` is right associative and binds
looser than application):

    file  := [pragma] item*
    pragma:= '#system' ('stlc' | 'f' | 'f+j' | 'star' | 'uminus')
    item  := name ':=' term ';'        definition (expanded as a closed macro)
           | name ':' term ';'         type check of an earlier definition
    term  := '\' name ':' term '.' term
           | '/\' name '.' term        sugar for \X:*.
           | 'Pi' name ':' term '.' term
           | 'forall' name '.' term    sugar for Pi X:*.
           | arrow
    arrow := app ('->' term)?
    app   := atom+
    atom  := name | '*' | 'V' | 'BOX' | 'J' | '(' term ')' | '{' term '}'

`{t}` is ordinary application after parsing; comments run from `--` to the
end of the line.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .term import (App, BOX_SORT, Lam, Pi, PrimJ, J, Sort, STAR,
                   STAR_SORT, Term, UNTYPED, Var)


class ParseError(Exception):
    def __init__(self, line: int, column: int, expected: str):
        super().__init__(f"{line}:{column}: expected {expected}")
        self.line = line
        self.column = column
        self.expected = expected


_TOKEN = re.compile(r"""
    (?P<ws>\s+|--[^\n]*)
  | (?P<op>:=|->|/\\|[\\.:;(){}*+])
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<pragma>\#system)
""", re.VERBOSE)

_KEYWORDS = {"Pi", "forall", "BOX", "V", "J"}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    out = []
    line, col, i = 1, 1, 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if m is None:
            raise ParseError(line, col, f"a token (found {text[i]!r})")
        chunk = m.group(0)
        if m.lastgroup != "ws":
            kind = m.lastgroup
            if kind == "name" and chunk in _KEYWORDS:
                kind = chunk
            out.append(Token(kind, chunk, line, col))
        nl = chunk.count("\n")
        if nl:
            line += nl
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        i = m.end()
    out.append(Token("eof", "", line, col))
    return out


@dataclass(frozen=True)
class Definition:
    name: str
    term: Term


@dataclass(frozen=True)
class Check:
    name: str
    type: Term


@dataclass(frozen=True)
class SourceFile:
    system: str | None
    items: tuple[Definition | Check, ...]

    @property
    def definitions(self) -> dict[str, Term]:
        return {d.name: d.term for d in self.items if type(d) is Definition}


class _Parser:
    def __init__(self, toks: list[Token], defs: dict[str, Term] | None = None):
        self.toks = toks
        self.pos = 0
        self.defs = dict(defs) if defs else {}

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind == kind:
            return self.next()
        raise ParseError(t.line, t.column, kind)

    def expect_op(self, text: str) -> Token:
        t = self.peek()
        if t.kind in ("op", "pragma") and t.text == text:
            return self.next()
        raise ParseError(t.line, t.column, f"'{text}'")

    def at_op(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "op" and t.text == text

    # terms -----------------------------------------------------------------

    def term(self, env: list[str]) -> Term:
        t = self.peek()
        if t.kind == "op" and t.text == "\\":
            self.next()
            name = self.expect("name").text
            self.expect_op(":")
            dom = self.term(env)
            self.expect_op(".")
            body = self.term([name] + env)
            return Lam(dom, body)
        if t.kind == "op" and t.text == "/\\":
            self.next()
            name = self.expect("name").text
            self.expect_op(".")
            body = self.term([name] + env)
            return Lam(STAR_SORT, body)
        if t.kind == "Pi":
            self.next()
            name = self.expect("name").text
            self.expect_op(":")
            dom = self.term(env)
            self.expect_op(".")
            cod = self.term([name] + env)
            return Pi(dom, cod)
        if t.kind == "forall":
            self.next()
            name = self.expect("name").text
            self.expect_op(".")
            cod = self.term([name] + env)
            return Pi(STAR_SORT, cod)
        return self.arrow(env)

    def arrow(self, env: list[str]) -> Term:
        left = self.application(env)
        if self.at_op("->"):
            self.next()
            right = self.term(["_"] + env)
            return Pi(left, right)
        return left

    _ATOM_STARTS = {"name", "BOX", "V", "J"}

    def application(self, env: list[str]) -> Term:
        t = self.atom(env)
        while True:
            nxt = self.peek()
            if nxt.kind in self._ATOM_STARTS or \
               (nxt.kind == "op" and nxt.text in ("(", "{", "*")):
                t = App(t, self.atom(env))
            else:
                return t

    def atom(self, env: list[str]) -> Term:
        t = self.peek()
        if t.kind == "op" and t.text == "*":
            self.next()
            return STAR_SORT
        if t.kind == "V":
            self.next()
            return STAR_SORT
        if t.kind == "BOX":
            self.next()
            return BOX_SORT
        if t.kind == "J":
            self.next()
            return J
        if t.kind == "op" and t.text in ("(", "{"):
            close = ")" if t.text == "(" else "}"
            self.next()
            inner = self.term(env)
            self.expect_op(close)
            return inner
        if t.kind == "name":
            self.next()
            if t.text in env:
                return Var(env.index(t.text))
            if t.text in self.defs:
                return self.defs[t.text]
            raise ParseError(t.line, t.column,
                             f"a bound variable or defined name ({t.text!r} is neither)")
        raise ParseError(t.line, t.column, "a term")

    # files -----------------------------------------------------------------

    def pragma(self) -> str | None:
        """The system named by a leading '#system' pragma, or None."""
        if self.peek().kind != "pragma":
            return None
        self.next()
        t = self.expect("name")
        name = t.text
        if self.at_op("+"):  # f+j
            self.next()
            name += "+" + self.expect("name").text
        if name not in ("stlc", "f", "f+j", "star", "uminus"):
            raise ParseError(t.line, t.column, "a system name")
        return name

    def file(self) -> SourceFile:
        system = self.pragma()
        items: list[Definition | Check] = []
        while self.peek().kind != "eof":
            name_tok = self.expect("name")
            if self.at_op(":="):
                self.next()
                body = self.term([])
                self.expect_op(";")
                if body.fvb != 0:
                    raise ParseError(name_tok.line, name_tok.column,
                                     "a closed definition body")
                self.defs[name_tok.text] = body
                items.append(Definition(name_tok.text, body))
            elif self.at_op(":"):
                self.next()
                ty = self.term([])
                self.expect_op(";")
                items.append(Check(name_tok.text, ty))
            else:
                t = self.peek()
                raise ParseError(t.line, t.column, "':=' or ':'")
        return SourceFile(system, tuple(items))


def parse(text: str, defs: dict[str, Term] | None = None) -> SourceFile:
    return _Parser(_tokenize(text), defs).file()


def pragma(text: str) -> str | None:
    """The system a file's '#system' pragma names, read without parsing the
    rest of the file (whose names depend on that system's prelude)."""
    return _Parser(_tokenize(text)).pragma()


def parse_term(text: str, defs: dict[str, Term] | None = None) -> Term:
    p = _Parser(_tokenize(text), defs)
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


def pretty(t: Term, star: bool = False,
           fold: dict[Term, str] | None = None,
           free_names: list[str] | None = None) -> str:
    """Canonical text for t.  `fold` maps closed terms to display names;
    `free_names` names any dangling indices (innermost first)."""
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
        taken = set(env)
        if tt is Lam:
            if t.left is STAR_SORT or t.left == STAR_SORT:
                x = _fresh(_TYPE_NAMES, taken, counters)
                s = f"/\\{x}. {go(t.right, [x] + env, _ARROW)}"
            elif t.left is UNTYPED or t.left == UNTYPED:
                x = _fresh(_TERM_NAMES, taken, counters)
                s = f"\\{x}. {go(t.right, [x] + env, _ARROW)}"
            else:
                x = _fresh(_TERM_NAMES, taken, counters)
                s = f"\\{x}:{go(t.left, env, _ARROW)}. {go(t.right, [x] + env, _ARROW)}"
            return f"({s})" if level < _ARROW else s
        # Pi
        if not _mentions_bound(t.right):
            s = f"{go(t.left, env, _APP)} -> {go(t.right, ['_'] + env, _ARROW)}"
            return f"({s})" if level < _ARROW else s
        if t.left is STAR_SORT or t.left == STAR_SORT:
            x = _fresh(_TYPE_NAMES, taken, counters)
            s = f"forall {x}. {go(t.right, [x] + env, _ARROW)}"
        else:
            x = _fresh(_TERM_NAMES, taken, counters)
            s = f"Pi {x}:{go(t.left, env, _ARROW)}. {go(t.right, [x] + env, _ARROW)}"
        return f"({s})" if level < _ARROW else s

    return go(t, list(free_names or []), _ARROW)
