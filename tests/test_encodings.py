import pytest

from ptslab.term import app, normal_form_of, normalize, NormalForm
from ptslab.systems import EMPTY, SYSTEMS, check, infer
from ptslab.syntax import parse_term
from ptslab.encodings import EncodingEntry, definitions, entry, registry


F = definitions("f")
S = definitions("star")


def test_registry_invariant():
    # every entry checks against its announced type in its own system
    for e in registry():
        check(SYSTEMS[e.system], EMPTY, e.term, e.type)


def test_expected_names_present():
    names = {(e.name, e.system) for e in registry()}
    for n in ("ID", "Bool", "T", "F", "nil", "conc", "Map", "rho", "Delta"):
        assert (n, "f") in names
    assert ("K", "f+j") in names
    for n in ("bot", "P", "N", "succ", "plus", "mult", "exp", "pred",
              "BoolV", "trueV", "falseV", "iszero", "List"):
        assert (n, "star") in names


def test_entry_lookup():
    e = entry("ID", "f")
    assert e.term == F["ID"]
    assert e.citation
    with pytest.raises(KeyError):
        entry("nope", "f")


def test_every_lambda2_entry_normalizes():
    for e in registry():
        if e.system in ("f", "f+j"):
            assert normal_form_of(e.term, 10_000) is not None


def test_false_projects_second():
    t = parse_term("F {Bool} T F", F)
    assert normal_form_of(t) == normal_form_of(F["F"])


def test_true_projects_first():
    t = parse_term("T {Bool} T F", F)
    assert normal_form_of(t) == normal_form_of(F["T"])


def test_map_on_empty_list():
    t = parse_term(r"Map {Bool} {rho} (\b:Bool. ID) (nil {Bool})", F)
    assert normal_form_of(t) == normal_form_of(parse_term("nil {rho}", F))


def test_map_on_singleton():
    # Map f [a] = [f a]; the one-element list is conc a nil
    one = parse_term("conc {Bool} (nil {Bool}) T", F)
    t = parse_term(r"Map {Bool} {Bool} (\b:Bool. F) {one}",
                   {**F, "one": one})
    want = parse_term("conc {Bool} (nil {Bool}) F", F)
    assert normal_form_of(t) == normal_form_of(want)


def test_numeral_homomorphism():
    # n{sigma} f x unfolds to n applications of f, for n up to 6
    for n in range(7):
        num = S[f"n{n}"]
        t = app(num, S["BoolV"], parse_term(r"\b:Bool. b", {"Bool": S["BoolV"]}),
                S["trueV"])
        body = S["trueV"]
        f_ = parse_term(r"\b:Bool. b", {"Bool": S["BoolV"]})
        for _ in range(n):
            body = app(f_, body)
        assert normal_form_of(t) == normal_form_of(body)


def test_arithmetic_on_numerals():
    cases = [("plus n2 n3", 5), ("mult n2 n3", 6), ("exp n2 n2", 4),
             ("pred n3", 2), ("pred n0", 0)]
    for src, k in cases:
        t = parse_term(src, S)
        assert normal_form_of(t, 10_000) == normal_form_of(S[f"n{k}"], 10_000)


def test_iszero():
    assert normal_form_of(parse_term("iszero n0", S)) == S["trueV"]
    assert normal_form_of(parse_term("iszero n4", S), 10_000) == S["falseV"]


def test_definitions_star_includes_f_names():
    assert "ID" in S and "bot" in S


def test_registry_is_stable():
    a = [e.name for e in registry()]
    b = [e.name for e in registry()]
    assert a == b
