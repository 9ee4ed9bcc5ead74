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


def test_missing_file_exits_2(capsys, tmp_path):
    with pytest.raises(SystemExit) as ei:
        main(["check", str(tmp_path / "nope.ipl")])
    assert ei.value.code == 2


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


def test_demo_loop_honours_fuel(capsys):
    # one step short of the recurrence at step 3
    code, out, _ = run(capsys, "--json", "demo", "loop", "--fuel", "2")
    assert code == 1
    assert json.loads(out)["outcome"] == "unexpected"


def test_demo_hurkens_small_fuel(capsys):
    # the full run is exercised in the acceptance suite; a small fuel
    # already shows the fuel-exhaustion verdict
    code, out, _ = run(capsys, "demo", "hurkens", "--fuel", "2000")
    assert code == 0
    assert "type checks: True" in out
