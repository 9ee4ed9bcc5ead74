import json

import pytest

from ptslab.cli import main


GOOD = """#system f
idb := ID {Bool};
two := /\\X. \\f:X->X. \\x:X. f (f x);
idb : Bool -> Bool;
"""

BAD_TYPE = """#system f
idb := ID {Bool};
idb : Bool;
"""

BAD_PARSE = "idb := ;\n"

STLC_FORALL = """#system stlc
bad := /\\X. \\x:X. x;
"""


@pytest.fixture()
def good(tmp_path):
    p = tmp_path / "good.ipl"
    p.write_text(GOOD)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- check -----------------------------------------------------------------

def test_check_ok(capsys, good):
    code, out, _ = run(capsys, "check", good)
    assert code == 0
    assert "idb : Bool -> Bool" in out


def test_check_json(capsys, good):
    code, out, _ = run(capsys, "--json", "check", good)
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "check"
    assert payload["outcome"] == "ok"
    assert "steps" in payload and "type" in payload


def test_check_type_failure(capsys, tmp_path):
    p = tmp_path / "bad.ipl"
    p.write_text(BAD_TYPE)
    code, out, _ = run(capsys, "--json", "check", str(p))
    assert code == 1
    payload = json.loads(out)
    assert payload["outcome"] == "error"
    assert payload["error"] == "TypeMismatch"


def test_check_stlc_rejects_forall(capsys, tmp_path):
    p = tmp_path / "stlc.ipl"
    p.write_text(STLC_FORALL)
    code, out, _ = run(capsys, "--json", "check", str(p))
    assert code == 1
    assert json.loads(out)["error"] == "NoRule"


@pytest.mark.parametrize("text, line", [
    ("#system f\nS := *;\nS : BOX;\n", "S : BOX"),
    ("#system stlc\nS := *;\nS : BOX;\n", "S : BOX"),
    ("#system uminus\nK := BOX;\nK : TRI;\n", "K : TRI")])
def test_check_accepts_a_top_sort(capsys, tmp_path, text, line):
    # the top sort has no type of its own, and TRI parses like BOX
    p = tmp_path / "top.ipl"
    p.write_text(text)
    code, out, _ = run(capsys, "check", str(p))
    assert code == 0
    assert out.splitlines() == [line, line]


def test_check_of_undefined_name(capsys, tmp_path):
    p = tmp_path / "undefined.ipl"
    p.write_text("#system f\nfoo : Bool -> Bool;\n")
    code, out, err = run(capsys, "--json", "check", str(p))
    assert code == 1
    assert json.loads(out) == {
        "command": "check", "outcome": "error", "name": "foo",
        "error": "UndefinedName", "detail": "check of undefined name foo",
        "position": []}
    code, out, err = run(capsys, "check", str(p))
    assert code == 1
    assert (out, err) == ("", "error: check of undefined name foo\n")


def test_parse_error_exits_2(capsys, tmp_path):
    p = tmp_path / "broken.ipl"
    p.write_text(BAD_PARSE)
    with pytest.raises(SystemExit) as ei:
        main(["check", str(p)])
    assert ei.value.code == 2


@pytest.mark.parametrize("name,text,err", [
    ("bad.ipl", "#system nope\nx := Bool;\n",
     "bad.ipl:1:9: expected a system name\n"),
    ("bad2.ipl", "#system f\nx := ;\n", "bad2.ipl:2:6: expected a term\n"),
], ids=["pragma", "parse"])
def test_parse_error_message(capsys, tmp_path, monkeypatch, name, text, err):
    # a bad pragma and a bad definition take the same path to stderr
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text)
    with pytest.raises(SystemExit) as ei:
        main(["check", name])
    assert ei.value.code == 2
    assert capsys.readouterr() == ("", err)


DEEP_PARENS = "#system f\nx := " + "(" * 2000 + "Bool" + ")" * 2000 + ";\n"
DEEP_CHAIN = "#system f\nd0 := \\x:Bool. x;\n" + "".join(
    f"d{k} := \\x:Bool. d{k - 1} (d{k - 1} x);\n" for k in range(1, 400))


@pytest.mark.parametrize("text", [DEEP_PARENS, DEEP_CHAIN],
                         ids=["parser", "checker"])
def test_deep_input_exits_2(capsys, tmp_path, text):
    # the parser overflows the stack on the first file, infer on the second
    p = tmp_path / "deep.ipl"
    p.write_text(text)
    with pytest.raises(SystemExit) as ei:
        main(["check", str(p)])
    assert ei.value.code == 2
    assert capsys.readouterr().err == "error: input nested too deeply\n"


def test_missing_file_exits_2(capsys, tmp_path):
    with pytest.raises(SystemExit) as ei:
        main(["check", str(tmp_path / "nope.ipl")])
    assert ei.value.code == 2


@pytest.mark.parametrize("argv", [["check"], ["normalize", "--term", "x"],
                                  ["erase", "--term", "x"]],
                         ids=lambda argv: argv[0])
def test_file_not_in_utf8_exits_2(capsys, tmp_path, argv):
    p = tmp_path / "latin.ipl"
    p.write_bytes(b"#system f\nx := \xff\xfe;\n")
    with pytest.raises(SystemExit) as ei:
        main([argv[0], str(p), *argv[1:]])
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p} is not UTF-8: ")
    assert "Traceback" not in err


# --- normalize -------------------------------------------------------------

def test_normalize_id_bool(capsys, good):
    code, out, _ = run(capsys, "normalize", good, "--term", "idb")
    assert code == 0
    assert out.strip() == r"\x:Bool. x"


def test_normalize_json_schema(capsys, good):
    code, out, _ = run(capsys, "--json", "normalize", good, "--term", "idb")
    payload = json.loads(out)
    assert payload["command"] == "normalize"
    assert payload["outcome"] == "normal-form"
    assert payload["steps"] >= 1


def test_normalize_trace(capsys, good):
    code, out, _ = run(capsys, "normalize", good, "--term", "two", "--trace")
    assert code == 0


def test_normalize_json_trace(capsys, good):
    # --json keeps the steps --trace asked for; the text trace is unchanged
    code, out, _ = run(capsys, "--json", "normalize", good, "--term", "idb",
                       "--trace")
    assert code == 0
    payload = json.loads(out)
    assert payload["trace"] == [{"position": [], "rule": "beta",
                                 "term": r"\x:Bool. x"}]
    assert payload["steps"] == 1
    code, out, _ = run(capsys, "normalize", good, "--term", "idb", "--trace")
    assert out.splitlines() == [r"   0 beta       at []: \x:Bool. x",
                                r"\x:Bool. x"]
    code, out, _ = run(capsys, "--json", "normalize", good, "--term", "idb")
    assert "trace" not in json.loads(out)


def test_normalize_fuel_flag(capsys, tmp_path):
    p = tmp_path / "loop.ipl"
    p.write_text("#system f\nw := (\\x:*. x x) (\\x:*. x x);\n")
    code, out, _ = run(capsys, "--json", "normalize", str(p),
                       "--term", "w", "--fuel", "10")
    assert code == 1
    assert json.loads(out)["outcome"] == "fuel-exhausted"


def test_normalize_cycle_flag(capsys, tmp_path):
    p = tmp_path / "loop.ipl"
    p.write_text("#system f\nw := (\\x:*. x x) (\\x:*. x x);\n")
    code, out, _ = run(capsys, "--json", "normalize", str(p),
                       "--term", "w", "--fuel", "50", "--cycles")
    assert code == 1
    assert json.loads(out)["outcome"] == "cycle"


def test_normalize_unknown_name_exits_2(capsys, good):
    with pytest.raises(SystemExit) as ei:
        main(["normalize", good, "--term", "missing"])
    assert ei.value.code == 2


@pytest.mark.parametrize("argv", [
    ["normalize", "{file}", "--term", "idb", "--fuel", "-1"],
    ["demo", "hurkens", "--fuel", "-1"],
    ["demo", "loop", "--fuel", "-1"],
])
def test_negative_fuel_exits_2(capsys, good, argv):
    with pytest.raises(SystemExit) as ei:
        main([a.format(file=good) for a in argv])
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert err == "error: --fuel must be >= 0, got -1\n"


@pytest.mark.parametrize("value,message", [
    ("abc", "error: PTSLAB_FUEL must be an integer, got 'abc'\n"),
    ("-5", "error: PTSLAB_FUEL must be >= 0, got -5\n"),
])
def test_bad_fuel_variable_exits_2(capsys, monkeypatch, good, value,
                                   message):
    monkeypatch.setenv("PTSLAB_FUEL", value)
    for argv in (["normalize", good, "--term", "idb"], ["demo", "hurkens"]):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 2
        assert capsys.readouterr().err == message


def test_fuel_variable_sets_the_budget(capsys, monkeypatch, tmp_path):
    p = tmp_path / "loop.ipl"
    p.write_text("#system f\nw := (\\x:*. x x) (\\x:*. x x);\n")
    monkeypatch.setenv("PTSLAB_FUEL", "7")
    code, out, _ = run(capsys, "--json", "normalize", str(p), "--term", "w")
    assert code == 1
    assert json.loads(out)["steps"] == 7


def test_pragma_f_plus_j(capsys, tmp_path):
    p = tmp_path / "loop.ipl"
    p.write_text("#system f+j\nloop := K {rho} K;\n")
    code, out, _ = run(capsys, "--json", "normalize", str(p), "--term",
                       "loop", "--cycles")
    assert code == 1
    payload = json.loads(out)
    assert payload["outcome"] == "cycle" and payload["period"] == 3


def test_pragma_selects_the_prelude(capsys, tmp_path):
    # succ and n1 exist only in star's prelude
    p = tmp_path / "two.ipl"
    p.write_text("#system star\nx := succ n1;\n")
    code, out, _ = run(capsys, "--json", "check", str(p))
    assert code == 0
    assert json.loads(out)["outcome"] == "ok"


# --- erase -----------------------------------------------------------------

def test_erase(capsys, good):
    code, out, _ = run(capsys, "erase", good, "--term", "two")
    assert code == 0
    assert out.strip() == r"\x. \y. x (x y)"


def test_erase_json(capsys, good):
    code, out, _ = run(capsys, "--json", "erase", good, "--term", "idb")
    payload = json.loads(out)
    assert payload["outcome"] == "ok"
    assert payload["term"] == r"\x. x"


# --- registry --------------------------------------------------------------

def test_registry_lists_entries(capsys):
    code, out, _ = run(capsys, "registry")
    assert code == 0
    assert "ID" in out and "Girard" not in out.split("ID")[0]
    assert "rho" in out


def test_registry_json(capsys):
    code, out, _ = run(capsys, "--json", "registry")
    payload = json.loads(out)
    names = {e["name"] for e in payload["entries"]}
    assert {"ID", "Bool", "Map", "K", "bot"} <= names
    assert all(e["citation"] for e in payload["entries"])


# --- demos -----------------------------------------------------------------

def test_demo_loop(capsys):
    code, out, _ = run(capsys, "demo", "loop")
    assert code == 0
    assert "cycle" in out


def test_demo_loop_json(capsys):
    code, out, _ = run(capsys, "--json", "demo", "loop")
    payload = json.loads(out)
    assert payload["outcome"] == "cycle"
    assert payload["steps"] == 3  # the recurrence, period 3, at step 3


def test_demo_loop_honours_fuel(capsys):
    # one step short of the recurrence at step 3
    code, out, _ = run(capsys, "--json", "demo", "loop", "--fuel", "2")
    assert code == 1
    payload = json.loads(out)
    assert payload["outcome"] == "unexpected"
    assert payload["steps"] == 2  # the contractions made, not the period


def test_demo_loop_without_a_cycle_says_so(capsys):
    code, out, _ = run(capsys, "demo", "loop", "--fuel", "2")
    assert code == 1
    assert out.splitlines()[-1] == "no cycle within 2 steps"
    assert "cycle period" not in out


def test_demo_hurkens_small_fuel(capsys):
    # the full run is exercised in the acceptance suite; a small fuel
    # already shows the fuel-exhaustion verdict
    code, out, _ = run(capsys, "demo", "hurkens", "--fuel", "2000")
    assert code == 0
    assert "type checks: True" in out
