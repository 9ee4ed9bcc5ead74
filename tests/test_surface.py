import hashlib
import os
import random
import subprocess
import sys

import pytest

import ptslab
from ptslab.term import (App, CycleDetected, FuelExhausted, JRules, Lam,
                         NormalForm, Pi, ReductionTrace, Sort, STAR, STAR_SORT,
                         Step, Var)
from ptslab.syntax import (Check, Definition, ParseError, SourceFile,
                           _mentions_bound, parse, parse_term, pragma, pretty)
from ptslab.systems import (Context, Judgment, ProbeReport, SYSTEMS,
                            SystemSpec)
from ptslab.codes import CodeTable, FlatMachinery, Prop1, Prop2
from ptslab.encodings import EncodingEntry, definitions, registry
from ptslab.corpus import random_wellscoped, welltyped_corpus
from ptslab.paradox import LoopReport


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
    assert parse_term("TRI") == Sort("TRI")


@pytest.mark.parametrize("star", [False, True])
def test_every_sort_of_the_calculi_parses_back(star):
    # under star=True, * prints as V, which parses back to *
    for spec in SYSTEMS.values():
        for s in spec.sorts:
            assert parse_term(pretty(Sort(s), star=star)) == Sort(s)


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


PARSE_ERRORS = {
    # id: (parser, text, line, column, expected), one row per raise site
    "bad-character": ("term", "\\x:*. x @ x", 1, 9, "a token (found '@')"),
    "missing-name": ("term", "\\:*. x", 1, 2, "name"),
    "missing-colon": ("term", "\\x *. x", 1, 4, "':'"),
    "missing-dot": ("term", "/\\X X", 1, 5, "'.'"),
    "missing-paren": ("term", "\\x:*. (x", 1, 9, "')'"),
    "missing-brace": ("term", "ID {Bool", 1, 9, "'}'"),
    "unknown-name": ("term", "mystery", 1, 1,
                     "a bound variable or defined name ('mystery' is neither)"),
    "no-term": ("term", "\\x:*. ;", 1, 7, "a term"),
    "bad-system": ("file", "#system g\nx := *;\n", 1, 9, "a system name"),
    "no-item": ("file", "#system f\na b;\n", 2, 3, "':=' or ':'"),
    # `open` is a prelude name bound to an open term (below)
    "open-body": ("file", "ok := *;\nbad := open;\n", 2, 1,
                  "a closed definition body"),
    "trailing-input": ("term", "* *)", 1, 4, "eof"),
    "line-3-paren": ("term", "-- comment\n\\x:*.\n\t(x -- unclosed", 3, 16,
                     "')'"),
    "line-3-character": ("file", "a := *;\n-- comment\n\tb := \\x:*. x @;\n",
                         3, 15, "a token (found '@')"),
}


@pytest.mark.parametrize("parser,text,line,column,expected",
                         list(PARSE_ERRORS.values()), ids=list(PARSE_ERRORS))
def test_parse_error_sites(parser, text, line, column, expected):
    defs = dict(F, open=Var(0))
    with pytest.raises(ParseError) as ei:
        (parse_term if parser == "term" else parse)(text, defs)
    assert (ei.value.line, ei.value.column, ei.value.expected) == \
        (line, column, expected)
    assert str(ei.value) == f"{line}:{column}: expected {expected}"


def test_pragma_names_every_system():
    for name in SYSTEMS:
        assert pragma(f"#system {name}") == name


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


# sha256 of the printed corpus, one "term\ntype\n" pair per item; the
# acceptance criteria and the benchmark's corpus workload read this corpus
CORPUS_DIGESTS = {
    (0, 20): "90399fcf2ba4ded00a06b07a02b2f116aae7d59a88da16c02870c44752fbb7b3",
    (0, 60): "d3a8d0a1ddfc487b637c301983627dd2892b81de2fada6bf7eccf36194b23a92",
    (99, 20): "593d28333da8a916af34850226d03cef750d5ca04786f69506fe9ccacf8ebc68",
    (99, 60): "f1188ad485169694a1e3c22ce247105714699ef7354cf0531806d003a1d27e01",
}


@pytest.mark.parametrize("seed,max_nodes", sorted(CORPUS_DIGESTS))
def test_welltyped_corpus_text_is_pinned(seed, max_nodes):
    h = hashlib.sha256()
    for t, ty in welltyped_corpus(500, seed=seed, max_nodes=max_nodes):
        h.update(f"{pretty(t)}\n{pretty(ty)}\n".encode())
    assert h.hexdigest() == CORPUS_DIGESTS[seed, max_nodes]


def test_welltyped_corpus_rejects_max_nodes_below_every_seed():
    # the smallest seed, ID, has 5 nodes
    with pytest.raises(ValueError, match="max_nodes must be >= 5"):
        welltyped_corpus(3, max_nodes=4)
    assert len(welltyped_corpus(3, max_nodes=5)) == 3


# --- records: immutable named tuples, and no dataclass at import ------------

def _loaded_after(flags, modules):
    """Which of dataclasses and typing a fresh interpreter run with flags
    has loaded after importing modules."""
    prog = ("import sys, importlib\n"
            f"for m in {modules!r}: importlib.import_module(m)\n"
            "print('dataclasses' in sys.modules, 'typing' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(ptslab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, *flags, "-c", prog], env=env,
                         check=True, capture_output=True, text=True).stdout
    return dict(zip(("dataclasses", "typing"), out.split()))


def test_import_builds_no_dataclass():
    got = _loaded_after([], ("ptslab", "ptslab.cli", "ptslab.codes",
                             "ptslab.corpus", "ptslab.paradox"))
    assert got["dataclasses"] == "False"
    # -S: no site, which preloads typing on some installs; ptslab and the
    # eight perfbench MODULES then load neither typing nor dataclasses
    got = _loaded_after(["-S"], ("ptslab",) + tuple(
        f"ptslab.{m}" for m in ("term", "systems", "syntax", "erase",
                                "encodings", "codes", "corpus", "paradox")))
    assert got == {"dataclasses": "False", "typing": "False"}


def _t():
    """A fresh term, so that two records share no field object."""
    return App(Var(0), Var(1))


def _trace():
    return ReductionTrace((Step((0,), "beta", _t(), _t()),), NormalForm(_t()), 1)


# each record class with a function that builds one from fresh fields
RECORDS = {
    Step: lambda: Step((0, 1), "beta", _t(), _t()),
    NormalForm: lambda: NormalForm(_t()),
    FuelExhausted: lambda: FuelExhausted(_t(), 3),
    CycleDetected: lambda: CycleDetected(2, _t()),
    ReductionTrace: _trace,
    JRules: lambda: JRules(7),
    SystemSpec: lambda: SystemSpec("s", frozenset({STAR}),
                                   frozenset({(STAR, STAR)}), frozenset()),
    Context: lambda: Context((("x", _t()),)),
    Judgment: lambda: Judgment(Context(), _t(), _t(), "f"),
    ProbeReport: lambda: ProbeReport(3, False, 3, _t(), None, "type changed"),
    Definition: lambda: Definition("x", _t()),
    Check: lambda: Check("x", _t()),
    SourceFile: lambda: SourceFile("f", (Definition("x", _t()),
                                         Check("x", _t()))),
    CodeTable: lambda: CodeTable(((1, "V", STAR_SORT),), ((1, 1),)),
    Prop1: lambda: Prop1(_t(), _t(), _t()),
    Prop2: lambda: Prop2(_t(), _t(), _t()),
    FlatMachinery: lambda: FlatMachinery(
        RECORDS[CodeTable](), _t(), _t(), _t(), Prop1(_t(), _t(), _t()),
        Prop2(_t(), _t(), _t())),
    EncodingEntry: lambda: EncodingEntry("x", "f", _t(), _t(), "cite"),
    LoopReport: lambda: LoopReport(_t(), _trace(), (_t(),), (1,), 3),
}

# each record class with its field names and its defaults
RECORD_FIELDS = {
    Step: ("position rule before after", {}),
    NormalForm: ("term", {}),
    FuelExhausted: ("last fuel", {}),
    CycleDetected: ("period witness", {}),
    ReductionTrace: ("steps outcome step_count", {}),
    JRules: ("type_fuel", {}),
    SystemSpec: ("name sorts axioms rules with_j", {}),
    Context: ("decls", {"decls": ()}),
    Judgment: ("context subject type system", {}),
    ProbeReport: ("steps_taken ok violation_step expected actual reason",
                  dict.fromkeys(("violation_step", "expected", "actual",
                                 "reason"))),
    Definition: ("name term", {}),
    Check: ("name type", {}),
    SourceFile: ("system items", {}),
    CodeTable: ("terms typ", {}),
    Prop1: ("f F g", {}),
    Prop2: ("T F A", {}),
    FlatMachinery: ("table list_type delta flat prop1 prop2", {}),
    EncodingEntry: ("name system term type citation", {}),
    LoopReport: ("start trace checkpoints checkpoint_steps period", {}),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_fields_and_defaults_are_pinned(cls):
    fields, defaults = RECORD_FIELDS[cls]
    assert cls._fields == tuple(fields.split())
    assert cls._field_defaults == defaults
    assert RECORD_FIELDS.keys() == RECORDS.keys()


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_are_immutable_values(cls):
    a, b = RECORDS[cls](), RECORDS[cls]()
    assert type(a) is cls
    assert a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], b[0])
    with pytest.raises(AttributeError):
        a.extra = None


def test_replace_runs_the_constructor_checks():
    with pytest.raises(ValueError, match="fuel must be >= 0"):
        JRules()._replace(type_fuel=-1)
    with pytest.raises(ValueError, match="two axioms"):
        SYSTEMS["f"]._replace(axioms=frozenset({(STAR, "BOX"), (STAR, STAR)}))
    assert JRules()._replace(type_fuel=3) == JRules(3)
