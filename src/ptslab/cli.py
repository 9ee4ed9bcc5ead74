"""Command line driver.

Exit codes: 0 success / expected demo outcome, 1 check or verdict failure,
2 I/O and parse errors.  Every subcommand takes --json for machine-readable
output with the shape {command, outcome, steps, type, ...}.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NoReturn

from .term import (App, CycleDetected, DEFAULT_FUEL, FuelExhausted, JRules,
                   NormalForm, normalize)
from .syntax import Definition, ParseError, parse, pragma, pretty
from .systems import EMPTY, SYSTEMS, TypingError, check, infer
from .encodings import definitions, registry
from .erase import EraseError, erase as erase_term
from . import codes as cd
from . import paradox as px

FUEL_LOOP = 100
FUEL_DEMO = 1_000_000
FUEL_FLAT = 10_000_000


def _fuel(given: int | None, default: int) -> int:
    """--fuel when given, else PTSLAB_FUEL when set, else default; a value
    that is not a non-negative integer ends the run with exit code 2."""
    source, value = "--fuel", given
    if given is None:
        env = os.environ.get("PTSLAB_FUEL")
        if env is None:
            return default
        source = "PTSLAB_FUEL"
        try:
            value = int(env)
        except ValueError:
            _usage_error(f"PTSLAB_FUEL must be an integer, got {env!r}")
    if value < 0:
        _usage_error(f"{source} must be >= 0, got {value}")
    return value


def _usage_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _emit(args, payload: dict, text: str, file=None) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(text, file=file)


def _load(path: str, system_flag: str | None):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        _usage_error(str(exc))
    except UnicodeDecodeError as exc:
        _usage_error(f"{path} is not UTF-8: {exc}")
    try:
        system = system_flag or pragma(text) or "f"
        src = parse(text, definitions(system))
    except ParseError as exc:
        print(f"{path}:{exc}", file=sys.stderr)
        raise SystemExit(2)
    return src, SYSTEMS[system]


def _printer(spec):
    """pretty for output in spec: star's sort prints as V, and registry
    terms print as their names."""
    star = spec.name == "star"
    fold = {t: n for n, t in definitions(spec.name).items()}
    return lambda t: pretty(t, star=star, fold=fold)


def _check_error(name: str, error: str, detail: str, position) -> dict:
    return {"command": "check", "outcome": "error", "name": name,
            "error": error, "detail": detail, "position": list(position)}


def cmd_check(args) -> int:
    src, spec = _load(args.file, args.system)
    show = _printer(spec)
    results = []
    defs: dict = {}
    for item in src.items:
        try:
            if type(item) is Definition:
                j = infer(spec, EMPTY, item.term)
                defs[item.name] = item.term
                results.append({"name": item.name, "type": show(j.type)})
            else:
                if item.name not in defs:
                    detail = f"check of undefined name {item.name}"
                    _emit(args, _check_error(item.name, "UndefinedName",
                                             detail, ()),
                          f"error: {detail}", sys.stderr)
                    return 1
                check(spec, EMPTY, defs[item.name], item.type)
                results.append({"name": item.name, "checked": True,
                                "type": show(item.type)})
        except TypingError as exc:
            _emit(args, _check_error(item.name, type(exc).__name__, str(exc),
                                     exc.position),
                  f"{args.file}: {item.name}: {type(exc).__name__}: {exc}"
                  f" at {list(exc.position)}")
            return 1
    lines = "\n".join(
        f"{r['name']} : {r['type']}" for r in results)
    _emit(args, {"command": "check", "outcome": "ok", "steps": len(results),
                 "type": None, "results": results}, lines)
    return 0


def _find_term(src, name: str):
    d = src.definitions
    if name not in d:
        print(f"error: no definition named {name!r}", file=sys.stderr)
        raise SystemExit(2)
    return d[name]


def cmd_normalize(args) -> int:
    src, spec = _load(args.file, args.system)
    show = _printer(spec)
    t = _find_term(src, args.term)
    fuel = _fuel(args.fuel, DEFAULT_FUEL)
    jrules = JRules() if spec.with_j else None
    tr = normalize(t, fuel, detect_cycles=args.cycles, jrules=jrules,
                   keep_steps=args.trace)
    trace = [{"position": list(s.position), "rule": s.rule,
              "term": show(s.after)} for s in tr.steps]
    if args.trace and not args.json:
        for i, s in enumerate(trace):
            print(f"{i:4d} {s['rule']:10s} at {s['position']}: {s['term']}")
    extra = {"trace": trace} if args.trace else {}
    out = tr.outcome
    if type(out) is NormalForm:
        _emit(args, {"command": "normalize", "outcome": "normal-form",
                     "steps": tr.step_count, "type": None,
                     "term": show(out.term), **extra},
              show(out.term))
        return 0
    if type(out) is CycleDetected:
        _emit(args, {"command": "normalize", "outcome": "cycle",
                     "steps": tr.step_count, "period": out.period,
                     "type": None, "term": show(out.witness), **extra},
              f"cycle of period {out.period}: {show(out.witness)}")
        return 1
    _emit(args, {"command": "normalize", "outcome": "fuel-exhausted",
                 "steps": tr.step_count, "type": None, **extra},
          f"no normal form within {out.fuel} steps")
    return 1


def cmd_erase(args) -> int:
    src, spec = _load(args.file, args.system)
    t = _find_term(src, args.term)
    try:
        u = erase_term(t)
    except EraseError as exc:
        _emit(args, {"command": "erase", "outcome": "error",
                     "steps": 0, "type": None, "error": str(exc)},
              f"error: {exc}")
        return 1
    _emit(args, {"command": "erase", "outcome": "ok", "steps": 0,
                 "type": None, "term": pretty(u)}, pretty(u))
    return 0


def cmd_registry(args) -> int:
    rows = [{"name": e.name, "system": e.system,
             "type": pretty(e.type, star=e.system == "star"),
             "citation": e.citation}
            for e in registry()]
    text = "\n".join(f"{r['system']:5s} {r['name']:8s} : {r['type']}"
                     f"   [{r['citation']}]" for r in rows)
    _emit(args, {"command": "registry", "outcome": "ok", "steps": len(rows),
                 "type": None, "entries": rows}, text)
    return 0


def cmd_demo(args) -> int:
    if args.what == "loop":
        fuel = _fuel(args.fuel, FUEL_LOOP)
        rep = px.build_loop(fuel)
        show = _printer(SYSTEMS["f+j"])
        ok = (type(rep.trace.outcome) is CycleDetected
              and rep.trace.outcome.witness == rep.start
              and all(s >= 0 for s in rep.checkpoint_steps))
        lines = [f"start: {show(rep.start)}"]
        for s in rep.trace.steps[:rep.period]:
            lines.append(f"  --{s.rule}--> {show(s.after)}")
        lines.append(f"cycle period {rep.period} (raw contractions)"
                     if type(rep.trace.outcome) is CycleDetected
                     else f"no cycle within {fuel} steps")
        _emit(args, {"command": "demo", "outcome":
                     "cycle" if ok else "unexpected",
                     "steps": rep.trace.step_count,
                     "type": "rho", "term": show(rep.start)},
              "\n".join(lines))
        return 0 if ok else 1
    if args.what == "hurkens":
        fuel = _fuel(args.fuel, FUEL_DEMO)
        t = px.build_hurkens()
        typed = px.hurkens_type_checks()
        tr = normalize(t, fuel, detect_cycles=True, keep_steps=False)
        diverged = type(tr.outcome) is FuelExhausted
        ok = typed and diverged
        _emit(args, {"command": "demo", "outcome":
                     "fuel-exhausted" if ok else "unexpected",
                     "steps": tr.step_count, "type": "bot"},
              f"paradox : bot = Pi a:V. a  (type checks: {typed})\n"
              f"normalization: {type(tr.outcome).__name__} "
              f"after {tr.step_count} steps, no cycle")
        return 0 if ok else 1
    # flat
    fuel = _fuel(args.fuel, FUEL_FLAT)
    fm = cd.build_flat_machinery()
    table = fm.table
    smallest = min(cd.type_codes(table))
    want = table.term_of(smallest)
    tr = normalize(App(fm.flat, cd.church(smallest)), fuel, keep_steps=False)
    got = tr.outcome.term if type(tr.outcome) is NormalForm else None
    j = infer(SYSTEMS["star"], EMPTY, fm.flat)
    ok = got == want
    _emit(args, {"command": "demo", "outcome": "converted" if ok else
                 "unexpected", "steps": tr.step_count,
                 "type": pretty(j.type, star=True),
                 "term": pretty(got, star=True) if got else None},
          f"flat : {pretty(j.type, star=True)}\n"
          f"flat({smallest}) = {pretty(got, star=True) if got else '??'} "
          f"== {table.name_of(smallest)} "
          f"in {tr.step_count} steps: {ok}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="ptslab")
    ap.add_argument("--json", action="store_true")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check")
    p.add_argument("file")
    p.add_argument("--system", choices=sorted(SYSTEMS))
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("normalize")
    p.add_argument("file")
    p.add_argument("--term", required=True)
    p.add_argument("--system", choices=sorted(SYSTEMS))
    p.add_argument("--fuel", type=int)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--cycles", action="store_true")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("erase")
    p.add_argument("file")
    p.add_argument("--term", required=True)
    p.add_argument("--system", choices=sorted(SYSTEMS))
    p.set_defaults(fn=cmd_erase)

    p = sub.add_parser("registry")
    p.set_defaults(fn=cmd_registry)

    p = sub.add_parser("demo")
    p.add_argument("what", choices=["loop", "hurkens", "flat"])
    p.add_argument("--fuel", type=int)
    p.set_defaults(fn=cmd_demo)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except RecursionError:
        _usage_error("input nested too deeply")


if __name__ == "__main__":
    raise SystemExit(main())
