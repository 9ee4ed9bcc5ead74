r"""Recursion on codes in the Type:Type system.

A finite Goedel numbering of registered closed terms (CodeTable), the list
type List[X] = Pi x:V. x -> (X->x->x) -> x with its selector delta, and the
two course-of-values recursion builders:

 * build_prop1: given g and h, produce f with
       f(0)   = g
       f(y+1) = h(y+1, f(k1(y+1)), ..., f(km(y+1)))
   via an accumulated list F(y) = <f(0), ..., f(y)> and
   f(y) = delta(y+1, F(y)).

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

from collections import namedtuple
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
    if k < 0:
        raise ValueError("numeral must be >= 0")
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
    cases = {j: f"c{q}" for j, q in enumerate(PRIMES[:-1])}
    chain = _ascending_chain(cases, f"c{PRIMES[-1]}", ty="Nty", first=0)
    defs["pi"] = parse_term(rf"\n:Nty. {chain}", defs)
    return defs


def base_defs() -> dict[str, Term]:
    return dict(_base_defs())


def _ascending_chain(cases: dict[int, str], default: str, var: str = "n",
                     ty: str = "V", first: int = 1) -> str:
    """sel-chain text dispatching on var = first, first + 1, ... in order.
    The test for case c is pred^c(var) == 0, which is exact only when every
    smaller value was already caught, so gaps are filled with the default
    branch."""
    text = default
    for c in range(max(cases), first - 1, -1):
        preds = "(pred " * c + var + ")" * c
        text = f"sel {{{ty}}} {preds} ({cases.get(c, default)}) ({text})"
    return text


class CodeTable(namedtuple("CodeTable", "terms typ")):
    """Finite injective coding of closed terms.  Application codes
    multiply: #(a b) = #a * #b for the registered pair."""
    __slots__ = ()

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


@lru_cache(maxsize=64)
def _guard_failure(k: Term) -> tuple[int, int | None] | None:
    """The first (x, k(x)) on numerals 1..8 with k(x) not below x, if any.
    Cached: build_flat and build_prop2 both guard pred."""
    for x in range(1, 9):
        v = numeral_value(App(k, church(x)))
        if v is None or v >= x:
            return x, v
    return None


def _ingredients(defs: dict[str, Term], named: list[tuple[str, Term, str]],
                 ks: list[Term]) -> None:
    """Bind each (name, term, type text) ingredient and k1..km in defs,
    check each at its type in star (k_i at Nty -> Nty), then check the
    guard k_i(x+1) < x+1 on the numerals 1..8."""
    ks_named = [(f"k{i}", k, "Nty -> Nty") for i, k in enumerate(ks, 1)]
    for name, t, ty in named + ks_named:
        defs[name] = t
        try:
            check(LAMBDA_STAR, EMPTY, t, parse_term(ty, defs))
        except TypingError as exc:
            raise IllTypedIngredient(f"{name}: {exc}") from exc
    for i, k in enumerate(ks, 1):
        bad = _guard_failure(k)
        if bad is not None:
            x, v = bad
            raise GuardViolation(f"k{i}({x}) = {v}, not below {x}")


def _picks(ty: str, y: str, values: str, m: int) -> str:
    """The course-of-values arguments f(k1(y+1)) .. f(km(y+1)), each picked
    from the list of values f(0) .. f(y) of type List ty."""
    return "".join(f" (delta {{{ty}}} (succ (k{i} (succ {y}))) {values})"
                   for i in range(1, m + 1))


class Prop1(namedtuple("Prop1", "f F g")):
    """f, its course-of-values list F, and the base case g it was built
    from.  f y : A."""
    __slots__ = ()


def build_prop1(A: Term, g: Term, h: Term, ks: list[Term]) -> Prop1:
    """Course-of-values recursion over N, one accumulated list per call.

    Types expected: A : V closed; g : A; h : N -> A^m -> A; each
    k : N -> N with k(x+1) < x+1 (checked on numerals 1..8).
    """
    defs = base_defs()
    h_ty = " -> ".join(["Nty"] + ["A"] * (len(ks) + 1))
    _ingredients(defs, [("A", A, "V"), ("g", g, "A"), ("h", h, h_ty)], ks)

    defs["St"] = parse_term("Pair Nty (List A)", defs)
    fst_s = "(pfst {Nty} {List A} s)"
    snd_s = "(psnd {Nty} {List A} s)"
    picks = _picks("A", fst_s, snd_s, len(ks))
    defs["step"] = parse_term(
        rf"\s:St. mkpair {{Nty}} {{List A}} (succ {fst_s}) "
        rf"(conc {{A}} {snd_s} (h (succ {fst_s}){picks}))", defs)
    defs["base"] = parse_term(
        r"mkpair {Nty} {List A} c0 (conc {A} (nil {A}) g)", defs)
    defs["Ffun"] = parse_term(
        r"\y:Nty. psnd {Nty} {List A} (y {St} step base)", defs)
    f = parse_term(r"\y:Nty. delta {A} (succ y) (Ffun y)", defs)
    return Prop1(f, defs["Ffun"], g)


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


class Prop2(namedtuple("Prop2", "T F A")):
    """The mutual T/F recursion of prime-product codes (the code lists are
    carried explicitly alongside the products), and the decoded type family
    A(y) = flat(delta(y+1, T-codes))."""
    __slots__ = ()


def build_prop2(Ccode: int, gcode: int, dcode: Term, hcode: Term,
                ks: list[Term]) -> Prop2:
    """Ingredient types: dcode, hcode : N -> N^m -> N (the coding
    functions #D and #h of the statement, on codes); k : N -> N guarded.

    The paper's delta on a prime product is realized on the carried exponent
    list; the products themselves satisfy the displayed equations."""
    defs = base_defs()
    arity = " -> ".join(["Nty"] * (len(ks) + 2))
    _ingredients(defs, [("dcode", dcode, arity), ("hcode", hcode, arity)], ks)

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

    picks = _picks("Nty", "(yof s)", "(FCof s)", len(ks))
    defs["ac"] = parse_term(rf"\s:St2. dcode (succ (yof s)){picks}", defs)
    defs["fc"] = parse_term(rf"\s:St2. hcode (succ (yof s)){picks}", defs)
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
    defs["run"] = parse_term(r"\y:Nty. y {St2} step2 base2", defs)
    T, F, defs["ACfun"] = (parse_term(rf"\y:Nty. {part} (run y)", defs)
                           for part in ("Tof", "Fof", "ACof"))
    defs["flatf"] = build_flat().f
    A = parse_term(r"\y:Nty. flatf (delta {Nty} (succ y) (ACfun y))", defs)
    return Prop2(T, F, A)


FlatMachinery = namedtuple("FlatMachinery",
                           "table list_type delta flat prop1 prop2")


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
