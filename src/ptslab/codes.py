r"""Recursion on codes in the Type:Type system.

A finite Goedel numbering of registered closed terms (CodeTable), the list
type List[X] = Pi x:V. x -> (X->x->x) -> x with its selector delta, and the
two course-of-values recursion builders:

 * build_prop1: given g and h, produce f with
       f(x,0)   = g(x)
       f(x,y+1) = h(x, y+1, f(x,k1(y+1)), ..., f(x,km(y+1)))
   via an accumulated list F(x,y) = <f(x,0), ..., f(x,y)> and
   f(x,y) = delta(y+1, F(x,y)).

 * build_prop2: the mutually recursive T/F pair packaging codes as
   prime-product numerals, T(0) = 2^#C, T(y+1) = T(y) * pi(y+1)^#D(...),
   and the decoded type family A(y) = flat(delta(y+1, codes of T)).

 * flat : N -> V with flat(#A) convertible to A for table entries, obtained
   as the Proposition 1 instance at A = V.

The in-range cases of delta never touch its default branch, which is the
paradoxical inhabitant (discarded unreduced under normal order); prime
enumeration is a bounded table, wide enough for the eight registered codes.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .term import (App, Lam, Pi, STAR_SORT, Term, Var, normal_form_of,
                   DEFAULT_FUEL)
from .syntax import parse_term
from .systems import (LAMBDA_STAR, EMPTY, TypingError, check)
from .encodings import definitions, entry


class IllTypedIngredient(Exception):
    pass


class GuardViolation(Exception):
    pass


def church(k: int) -> Term:
    """The numeral k as a normal-form term."""
    body: Term = Var(0)
    for _ in range(k):
        body = App(Var(1), body)
    return Lam(STAR_SORT, Lam(Pi(Var(0), Var(1)), Lam(Var(1), body)))


def numeral_value(t: Term, fuel: int = DEFAULT_FUEL) -> int | None:
    """Decode a term to the integer its normal form represents, if any."""
    nf = normal_form_of(t, fuel)
    if nf is None:
        return None
    if type(nf) is not Lam or type(nf.right) is not Lam \
            or type(nf.right.right) is not Lam:
        return None
    body = nf.right.right.right
    n = 0
    while type(body) is App and body.left == Var(1):
        n += 1
        body = body.right
    return n if body == Var(0) else None


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)   # pi(0) .. pi(7)


@lru_cache(maxsize=1)
def _base_defs() -> dict[str, Term]:
    from .paradox import build_hurkens
    defs = dict(definitions("star"))
    defs["paradox"] = build_hurkens()
    for k in range(0, 20):
        defs.setdefault(f"c{k}", church(k))
    src = [
        ("Nty", "forall X. (X->X) -> (X->X)"),
        ("Pair", r"\A:V. \B:V. Pi Z:V. (A->B->Z) -> Z"),
        ("mkpair", r"/\A. /\B. \a:A. \b:B. /\Z. \p:A->B->Z. p a b"),
        ("pfst", r"/\A. /\B. \q:Pair A B. q {A} (\a:A. \b:B. a)"),
        ("psnd", r"/\A. /\B. \q:Pair A B. q {B} (\a:A. \b:B. b)"),
        ("sel", r"/\X. \k:Nty. \a:X. \b:X. k X (\v:X. b) a"),
        ("delta", r"/\X. \i:Nty. \l:List X. "
                  r"l (Nty->X) (\k:Nty. paradox X) "
                  r"(\a:X. \r:Nty->X. \k:Nty. k X (\v:X. r (pred k)) a) "
                  r"(pred i)"),
    ]
    for name, text in src:
        defs[name] = parse_term(text, defs)
    # bounded prime enumeration, 0-based: pi(0)=2 ... pi(7)=19
    chain = f"c{PRIMES[-1]}"
    for j in range(len(PRIMES) - 2, -1, -1):
        preds = "n"
        for _ in range(j):
            preds = f"(pred {preds})"
        chain = f"sel {{Nty}} {preds} c{PRIMES[j]} ({chain})"
    defs["pi"] = parse_term(rf"\n:Nty. {chain}", defs)
    return defs


def base_defs() -> dict[str, Term]:
    return dict(_base_defs())


def _ascending_chain(cases: dict[int, str], default: str, var: str = "n",
                     ty: str = "V") -> str:
    """sel-chain text dispatching on var = 1, 2, ... in order.  The test for
    case c is pred^c(var) == 0, which is exact only when every smaller value
    was already caught, so gaps are filled with the default branch."""
    text = default
    for c in range(max(cases), 0, -1):
        preds = var
        for _ in range(c):
            preds = f"(pred {preds})"
        text = f"sel {{{ty}}} {preds} ({cases.get(c, default)}) ({text})"
    return text


@dataclass(frozen=True)
class CodeTable:
    """Finite injective coding of closed terms.  Application codes
    multiply: #(a b) = #a * #b for the registered pair."""
    terms: tuple[tuple[int, str, Term], ...]
    typ: tuple[tuple[int, int], ...]

    def code_of(self, t: Term) -> int | None:
        for code, _, u in self.terms:
            if u == t:
                return code
        return None

    def term_of(self, code: int) -> Term:
        for c, _, u in self.terms:
            if c == code:
                return u
        raise KeyError(code)

    def name_of(self, code: int) -> str:
        for c, name, _ in self.terms:
            if c == code:
                return name
        raise KeyError(code)

    @property
    def codes(self) -> list[int]:
        return [c for c, _, _ in self.terms]

    def typ_code(self, code: int) -> int | None:
        return dict(self.typ).get(code)

    def typ_term(self) -> Term:
        defs = _base_defs()
        cases = {c: f"c{t}" for c, t in self.typ}
        return parse_term(r"\n:Nty. " + _ascending_chain(cases, "c1", ty="Nty"), defs)


@lru_cache(maxsize=1)
def default_code_table() -> CodeTable:
    d = _base_defs()
    star = definitions("star")
    terms = (
        (1, "V", STAR_SORT),
        (2, "Bool", star["BoolV"]),
        (3, "ID", star["ID"]),
        (4, "bot", star["bot"]),
        (5, "P", star["P"]),
        (6, "ID Bool", App(star["ID"], star["BoolV"])),
        (7, "N", star["N"]),
        (8, "rho", star["rho"]),
    )
    # type codes, where the type is itself registered: V:V, Bool:V, ID:rho,
    # bot:V, N:V, rho:V.  P and ID Bool have unregistered types.
    typ = ((1, 1), (2, 1), (3, 8), (4, 1), (7, 1), (8, 1))
    return CodeTable(terms, typ)


def _check_ingredient(name: str, t: Term, ty: Term) -> None:
    try:
        check(LAMBDA_STAR, EMPTY, t, ty)
    except TypingError as exc:
        raise IllTypedIngredient(f"{name}: {exc}") from exc


def _check_guards(ks: list[Term], span: int = 8) -> None:
    for i, k in enumerate(ks):
        for x in range(span):
            v = numeral_value(App(k, church(x + 1)))
            if v is None or v >= x + 1:
                raise GuardViolation(
                    f"k{i + 1}({x + 1}) = {v}, not below {x + 1}")


def _arrow_ty(defs, *parts: str) -> Term:
    return parse_term(" -> ".join(parts), defs)


@dataclass(frozen=True)
class Prop1:
    """f, its course-of-values list F, and the base case g it was built
    from.  f x1..xp y : A."""
    f: Term
    F: Term
    g: Term


def build_prop1(A: Term, g: Term, h: Term, ks: list[Term], p: int = 0) -> Prop1:
    """Course-of-values recursion over N, one accumulated list per call.

    Types expected: A : V closed; g : N^p -> A; h : N^p -> N -> A^m -> A;
    each k : N -> N with k(x+1) < x+1 (checked on numerals 1..8).
    """
    defs = base_defs()
    defs["Aty"], defs["g"], defs["h"] = A, g, h
    m = len(ks)
    for i, k in enumerate(ks):
        defs[f"k{i + 1}"] = k

    nn = ["Nty"] * p
    _check_ingredient("A", A, parse_term("V", defs))
    _check_ingredient("g", g, _arrow_ty(defs, *nn, "Aty"))
    _check_ingredient("h", h, _arrow_ty(defs, *nn, "Nty", *["Aty"] * m, "Aty"))
    for i, k in enumerate(ks):
        _check_ingredient(f"k{i + 1}", k, _arrow_ty(defs, "Nty", "Nty"))
    _check_guards(ks)

    xs = "".join(f"\\x{i}:Nty. " for i in range(1, p + 1))
    xargs = "".join(f" x{i}" for i in range(1, p + 1))
    defs["St"] = parse_term("Pair Nty (List Aty)", defs)
    fst_s = "(pfst {Nty} {List Aty} s)"
    snd_s = "(psnd {Nty} {List Aty} s)"
    picks = "".join(
        f" (delta {{Aty}} (succ (k{i + 1} (succ {fst_s}))) {snd_s})"
        for i in range(m))
    defs["step"] = parse_term(
        rf"\s:St. mkpair {{Nty}} {{List Aty}} (succ {fst_s}) "
        rf"(conc {{Aty}} {snd_s} (h{xargs} (succ {fst_s}){picks}))", defs)
    defs["base"] = parse_term(
        rf"mkpair {{Nty}} {{List Aty}} c0 (conc {{Aty}} (nil {{Aty}}) (g{xargs}))",
        defs)
    Ffun = parse_term(
        rf"{xs}\y:Nty. psnd {{Nty}} {{List Aty}} (y {{St}} step base)", defs)
    defs["Ffun"] = Ffun
    ffun = parse_term(
        rf"{xs}\y:Nty. delta {{Aty}} (succ y) (Ffun{xargs} y)", defs)
    return Prop1(ffun, Ffun, g)


def type_codes(table: CodeTable) -> list[int]:
    """Codes whose registered term is itself a type (checks at V)."""
    out = []
    for c in table.codes:
        try:
            check(LAMBDA_STAR, EMPTY, table.term_of(c), STAR_SORT)
        except TypingError:
            continue
        out.append(c)
    return out


@lru_cache(maxsize=1)
def build_flat() -> Prop1:
    """flat : N -> V decoding table codes, flat(#A) convertible to A for
    every type-valued entry A.  Codes of non-type entries fall through to
    the course-of-values argument."""
    table = default_code_table()
    defs = base_defs()
    cases = {}
    for c in type_codes(table):
        defs[f"tbl{c}"] = table.term_of(c)
        cases[c] = f"tbl{c}"
    chain = _ascending_chain(cases, "v", "y")
    h = parse_term(rf"\y:Nty. \v:V. {chain}", defs)
    return build_prop1(STAR_SORT, STAR_SORT, h, [defs["pred"]])


@dataclass(frozen=True)
class Prop2:
    """The mutual T/F recursion of prime-product codes (the code lists are
    carried explicitly alongside the products), and the decoded type family
    A(y) = flat(delta(y+1, T-codes))."""
    T: Term
    F: Term
    A: Term


def build_prop2(Ccode: int, gcode: int, dcode: Term, hcode: Term,
                ks: list[Term], p: int = 0) -> Prop2:
    """Ingredient types: dcode, hcode : N^p -> N -> N^m -> N (the coding
    functions #D and #h of the statement, on codes); k : N -> N guarded.

    The paper's delta on a prime product is realized on the carried exponent
    list; the products themselves satisfy the displayed equations."""
    defs = base_defs()
    m = len(ks)
    defs["dcode"], defs["hcode"] = dcode, hcode
    for i, k in enumerate(ks):
        defs[f"k{i + 1}"] = k
    nn = ["Nty"] * p
    arity = _arrow_ty(defs, *nn, "Nty", *["Nty"] * m, "Nty")
    _check_ingredient("dcode", dcode, arity)
    _check_ingredient("hcode", hcode, arity)
    for i, k in enumerate(ks):
        _check_ingredient(f"k{i + 1}", k, _arrow_ty(defs, "Nty", "Nty"))
    _check_guards(ks)

    for name, text in [
            ("LN", "List Nty"),
            ("R3", "Pair LN LN"),
            ("R2", "Pair Nty R3"),
            ("R1", "Pair Nty R2"),
            ("St2", "Pair Nty R1")]:
        defs[name] = parse_term(text, defs)
    acc = {
        "yof": "pfst {Nty} {R1} s",
        "Tof": "pfst {Nty} {R2} (psnd {Nty} {R1} s)",
        "Fof": "pfst {Nty} {R3} (psnd {Nty} {R2} (psnd {Nty} {R1} s))",
        "ACof": "pfst {LN} {LN} (psnd {Nty} {R3} (psnd {Nty} {R2} (psnd {Nty} {R1} s)))",
        "FCof": "psnd {LN} {LN} (psnd {Nty} {R3} (psnd {Nty} {R2} (psnd {Nty} {R1} s)))",
    }
    for name, body in acc.items():
        defs[name] = parse_term(rf"\s:St2. {body}", defs)

    xs = "".join(f"\\x{i}:Nty. " for i in range(1, p + 1))
    xargs = "".join(f" x{i}" for i in range(1, p + 1))
    picks = "".join(
        f" (delta {{Nty}} (succ (k{i + 1} (succ (yof s)))) (FCof s))"
        for i in range(m))
    defs["ac"] = parse_term(
        rf"\s:St2. dcode{xargs} (succ (yof s)){picks}", defs)
    defs["fc"] = parse_term(
        rf"\s:St2. hcode{xargs} (succ (yof s)){picks}", defs)
    defs["step2"] = parse_term(
        r"\s:St2. mkpair {Nty} {R1} (succ (yof s)) "
        r"(mkpair {Nty} {R2} (mult (Tof s) (exp (pi (succ (yof s))) (ac s))) "
        r"(mkpair {Nty} {R3} (mult (Fof s) (exp (pi (succ (yof s))) (fc s))) "
        r"(mkpair {LN} {LN} (conc {Nty} (ACof s) (ac s)) "
        r"(conc {Nty} (FCof s) (fc s)))))", defs)
    defs["base2"] = parse_term(
        rf"mkpair {{Nty}} {{R1}} c0 "
        rf"(mkpair {{Nty}} {{R2}} (exp c2 c{Ccode}) "
        rf"(mkpair {{Nty}} {{R3}} (exp c2 c{gcode}) "
        rf"(mkpair {{LN}} {{LN}} (conc {{Nty}} (nil {{Nty}}) c{Ccode}) "
        rf"(conc {{Nty}} (nil {{Nty}}) c{gcode}))))", defs)
    defs["run"] = parse_term(rf"{xs}\y:Nty. y {{St2}} step2 base2", defs)
    T = parse_term(rf"{xs}\y:Nty. Tof (run{xargs} y)", defs)
    F = parse_term(rf"{xs}\y:Nty. Fof (run{xargs} y)", defs)
    defs["ACfun"] = parse_term(rf"{xs}\y:Nty. ACof (run{xargs} y)", defs)
    defs["flatf"] = build_flat().f
    Aty = parse_term(
        rf"{xs}\y:Nty. flatf (delta {{Nty}} (succ y) (ACfun{xargs} y))", defs)
    return Prop2(T, F, Aty)


@dataclass(frozen=True)
class FlatMachinery:
    table: CodeTable
    list_type: Term
    delta: Term
    flat: Term
    prop1: Prop1
    prop2: Prop2


def build_flat_machinery() -> FlatMachinery:
    """Everything `demo flat` shows: the table, List and delta, flat built
    by the Proposition 1 recursion, and a small Proposition 2 instance
    (C = Bool, g = ID, one course-of-values argument)."""
    defs = base_defs()
    p1 = build_flat()
    dcode = parse_term(r"\y:Nty. \v:Nty. c1", defs)
    hcode = parse_term(r"\y:Nty. \v:Nty. v", defs)
    p2 = build_prop2(2, 3, dcode, hcode, [defs["pred"]])
    return FlatMachinery(default_code_table(), entry("List", "star").term,
                         _base_defs()["delta"], p1.f, p1, p2)
