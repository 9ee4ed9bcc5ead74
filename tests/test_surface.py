import random

import pytest

from ptslab.term import App, Lam, Pi, Sort, STAR_SORT, Var
from ptslab.syntax import (Check, Definition, ParseError, SourceFile,
                           _mentions_bound, parse, parse_term, pretty)
from ptslab.encodings import definitions, registry
from ptslab.corpus import random_wellscoped, welltyped_corpus


F = definitions("f")


# --- grammar ---------------------------------------------------------------

def test_parse_identity():
    assert parse_term(r"/\X. \x:X. x") == Lam(STAR_SORT, Lam(Var(0), Var(0)))


def test_arrow_is_right_associative():
    assert parse_term("* -> * -> *") == \
        Pi(STAR_SORT, Pi(STAR_SORT, STAR_SORT))


def test_application_binds_tighter_than_arrow():
    t = parse_term(r"(\x:*. x) * -> *")
    assert type(t) is Pi and type(t.left) is App


def test_application_is_left_associative():
    a = Lam(STAR_SORT, Var(0))
    t = parse_term("f f f", {"f": a})
    assert t == App(App(a, a), a)


def test_braces_are_plain_application():
    assert parse_term("ID {Bool}", F) == App(F["ID"], F["Bool"])


def test_forall_and_pi():
    assert parse_term("forall X. X -> X") == Pi(STAR_SORT, Pi(Var(0), Var(1)))
    assert parse_term("Pi x:V. x") == Pi(STAR_SORT, Var(0))


def test_comments_and_whitespace():
    src = "-- a comment\n  \\x : * . x  -- trailing\n"
    assert parse_term(src) == Lam(STAR_SORT, Var(0))


def test_sorts():
    assert parse_term("*") == STAR_SORT
    assert parse_term("V") == STAR_SORT
    assert parse_term("BOX") == Sort("BOX")


# --- files -----------------------------------------------------------------

def test_source_file_items():
    src = """#system f
idb := ID {Bool};
idb : Bool -> Bool;
"""
    sf = parse(src, F)
    assert sf.system == "f"
    assert [type(i) for i in sf.items] == [Definition, Check]
    assert sf.definitions["idb"] == App(F["ID"], F["Bool"])


def test_definitions_expand_in_later_items():
    src = "a := \\x:*. x;\nb := a a;\n"
    sf = parse(src)
    a = Lam(STAR_SORT, Var(0))
    assert sf.definitions["b"] == App(a, a)


def test_open_definition_rejected():
    with pytest.raises(ParseError):
        parse("a := x;\n")


# --- errors ----------------------------------------------------------------

def test_error_position_is_reported():
    with pytest.raises(ParseError) as ei:
        parse_term("\\x:*. (x")
    assert ei.value.line == 1
    assert ei.value.column == 9


def test_error_on_line_two():
    with pytest.raises(ParseError) as ei:
        parse("a := \\x:*. x;\nb := ;\n")
    assert ei.value.line == 2


def test_unknown_name():
    with pytest.raises(ParseError):
        parse_term("mystery")


def test_bad_character():
    with pytest.raises(ParseError):
        parse_term("\\x:*. x @ x")


# --- printing --------------------------------------------------------------

def test_pretty_identity():
    assert pretty(parse_term(r"/\X. \x:X. x")) == r"/\X. \x:X. x"


def test_pretty_arrow():
    assert pretty(parse_term("forall X. X -> X")) == "forall X. X -> X"


def test_pretty_star_mode():
    assert pretty(STAR_SORT, star=True) == "V"
    # a dependent product over V keeps a binder form and re-parses
    s = pretty(Pi(STAR_SORT, Var(0)), star=True)
    assert parse_term(s) == Pi(STAR_SORT, Var(0))


def test_pretty_folds_definitions():
    s = pretty(App(F["ID"], F["Bool"]), fold={F["ID"]: "ID", F["Bool"]: "Bool"})
    assert s == "ID Bool"


def test_pretty_free_variables():
    assert pretty(Var(2)) == "f2"


def test_mentions_bound_on_deep_spine():
    # the printer asks whether a Pi's codomain uses its binder; a deep
    # codomain once raised RecursionError
    spine = Var(1)
    for _ in range(10_000):
        spine = App(spine, Var(1))
    assert not _mentions_bound(spine, 0)
    assert _mentions_bound(App(spine, Var(0)), 0)
    assert _mentions_bound(App(Var(0), spine), 0)
    assert _mentions_bound(Lam(spine, spine), 1)


# --- round trips -----------------------------------------------------------

def test_roundtrip_registry():
    for e in registry():
        star = e.system == "star"
        assert parse_term(pretty(e.term, star=star)) == e.term
        assert parse_term(pretty(e.type, star=star)) == e.type


def test_roundtrip_generated_wellscoped():
    rng = random.Random(21)
    for _ in range(500):
        t = random_wellscoped(rng, 25)
        assert parse_term(pretty(t)) == t


def test_roundtrip_generated_welltyped():
    for t, ty in welltyped_corpus(500, seed=8):
        assert parse_term(pretty(t)) == t
        assert parse_term(pretty(ty)) == ty
