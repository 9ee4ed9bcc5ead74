import pytest

from ptslab.term import App, STAR_SORT, app, normal_form_of
from ptslab.systems import EMPTY, SYSTEMS, check, infer
from ptslab.syntax import parse_term
from ptslab.encodings import definitions
from ptslab.codes import (CodeTable, GuardViolation, IllTypedIngredient,
                          PRIMES, base_defs, build_flat, build_flat_machinery,
                          build_prop1, build_prop2, church, default_code_table,
                          numeral_value, type_codes)


STAR = SYSTEMS["star"]
S = definitions("star")


def nv(t, fuel=200_000):
    return numeral_value(t, fuel)


# --- numerals --------------------------------------------------------------

def test_church_agrees_with_registry():
    for k in range(7):
        assert church(k) == S[f"n{k}"]


def test_numeral_value_roundtrip():
    for k in (0, 1, 5, 12, 64, 65, 200):
        assert nv(church(k)) == k
    assert nv(S["BoolV"]) is None


# --- code table ------------------------------------------------------------

def test_table_is_injective():
    table = default_code_table()
    codes = table.codes
    assert len(codes) == len(set(codes))
    terms = [table.term_of(c) for c in codes]
    assert len(terms) == len(set(terms))
    assert len(codes) <= 8 and all(1 <= c <= 8 for c in codes)


def test_every_registered_term_typechecks():
    table = default_code_table()
    for c in table.codes:
        infer(STAR, EMPTY, table.term_of(c))


def test_app_coding_agrees_with_syntax():
    table = default_code_table()
    a = table.code_of(S["ID"])
    b = table.code_of(S["BoolV"])
    ab = table.code_of(App(S["ID"], S["BoolV"]))
    assert a * b == ab


def test_app_coding_in_theory():
    # the ITT_V App-coding term on numerals matches the meta-level codes
    table = default_code_table()
    a = table.code_of(S["ID"])
    b = table.code_of(S["BoolV"])
    t = app(S["mult"], church(a), church(b))
    assert nv(t) == a * b <= 64


def test_typ_coding():
    table = default_code_table()
    cid = table.code_of(S["ID"])
    crho = table.code_of(S["rho"])
    assert table.typ_code(cid) == crho
    t = App(table.typ_term(), church(cid))
    assert nv(t) == crho


def test_pi_enumerates_primes():
    for i in range(4):
        assert nv(App(base_defs()["pi"], church(i))) == PRIMES[i]


# --- List and delta --------------------------------------------------------

def test_list_type_checks():
    check(STAR, EMPTY, S["List"], parse_term("V -> V"))
    lst = App(S["List"], S["BoolV"])
    assert infer(STAR, EMPTY, lst).type == STAR_SORT


def test_delta_selects_singleton():
    d = base_defs()
    t = parse_term(
        "delta {BoolV} c1 (conc {BoolV} (nil {BoolV}) trueV)", d)
    assert normal_form_of(t, 10_000) == S["trueV"]


def test_delta_is_one_based():
    d = base_defs()
    two = ("conc {BoolV} (conc {BoolV} (nil {BoolV}) trueV) falseV")
    t1 = parse_term(f"delta {{BoolV}} c1 ({two})", d)
    t2 = parse_term(f"delta {{BoolV}} c2 ({two})", d)
    assert normal_form_of(t1, 10_000) == S["trueV"]
    assert normal_form_of(t2, 10_000) == S["falseV"]


# --- Proposition 1 / flat --------------------------------------------------

def test_flat_type_checks():
    f = build_flat().f
    check(STAR, EMPTY, f, parse_term("Nty -> V", base_defs()))


def test_flat_decodes_every_type_entry():
    table = default_code_table()
    f = build_flat().f
    for c in type_codes(table):
        got = normal_form_of(App(f, church(c)), 100_000)
        assert got == table.term_of(c), f"code {c}"


def test_prop1_base_case():
    # f(0) = g by conversion
    p1 = build_flat()
    got = normal_form_of(App(p1.f, church(0)), 100_000)
    assert got == normal_form_of(p1.g)


def test_prop1_cov_list_grows():
    # F(y) is the list of the first y+1 values
    d = base_defs()
    p1 = build_flat()
    d["Ffun"] = p1.F
    one = parse_term("delta {V} c1 (Ffun c2)", d)
    assert normal_form_of(one, 200_000) == normal_form_of(p1.g)


def test_prop1_rejects_ill_typed_g():
    d = base_defs()
    with pytest.raises(IllTypedIngredient):
        build_prop1(STAR_SORT, d["succ"], parse_term(r"\y:Nty. \v:V. v", d),
                    [d["pred"]])


def test_prop1_rejects_unguarded_k():
    d = base_defs()
    with pytest.raises(GuardViolation):
        build_prop1(STAR_SORT, STAR_SORT,
                    parse_term(r"\y:Nty. \v:V. v", d), [d["succ"]])


def test_identity_k_is_also_rejected():
    # k(x+1) must be strictly below x+1
    d = base_defs()
    with pytest.raises(GuardViolation):
        build_prop1(STAR_SORT, STAR_SORT,
                    parse_term(r"\y:Nty. \v:V. v", d),
                    [parse_term(r"\n:Nty. n", d)])


# --- Proposition 2 ---------------------------------------------------------

@pytest.fixture(scope="module")
def machinery():
    return build_flat_machinery()


def test_prop2_type_checks(machinery):
    d = base_defs()
    nty_nty = parse_term("Nty -> Nty", d)
    check(STAR, EMPTY, machinery.prop2.T, nty_nty)
    check(STAR, EMPTY, machinery.prop2.F, nty_nty)
    check(STAR, EMPTY, machinery.prop2.A, parse_term("Nty -> V", d))


def test_prop2_base_products(machinery):
    # T(0) = 2^#C and F(0) = 2^#g with #C = 2, #g = 3
    assert nv(App(machinery.prop2.T, church(0))) == 4
    assert nv(App(machinery.prop2.F, church(0))) == 8


def test_prop2_step_products(machinery):
    # step multiplies by pi(1)^code: dcode yields 1, hcode copies delta pick
    assert nv(App(machinery.prop2.T, church(1))) == 4 * 3 ** 1
    assert nv(App(machinery.prop2.F, church(1)), 500_000) == 8 * 3 ** 3


def test_prop2_decoded_family(machinery):
    # A(0) decodes code 2 (Bool); A(1) decodes code 1 (V)
    a0 = normal_form_of(App(machinery.prop2.A, church(0)), 500_000)
    assert a0 == S["BoolV"]
    a1 = normal_form_of(App(machinery.prop2.A, church(1)), 500_000)
    assert a1 == STAR_SORT


def test_prop2_rejects_bad_ingredients():
    d = base_defs()
    with pytest.raises(IllTypedIngredient):
        build_prop2(2, 3, d["succ"], d["succ"], [d["pred"]])
    with pytest.raises(GuardViolation):
        build_prop2(2, 3, parse_term(r"\y:Nty. \v:Nty. c1", d),
                    parse_term(r"\y:Nty. \v:Nty. v", d), [d["succ"]])


# --- machinery bundle ------------------------------------------------------

def test_machinery_parts_typecheck_cold(machinery):
    d = base_defs()
    check(STAR, EMPTY, machinery.list_type, parse_term("V -> V"))
    check(STAR, EMPTY, machinery.flat, parse_term("Nty -> V", d))
    infer(STAR, EMPTY, machinery.delta)
