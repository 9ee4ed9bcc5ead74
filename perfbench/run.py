"""Run one ptslab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hurkens --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and nowhere else.  One process is one run: it builds the
inputs, then submits passes in a closed loop until ``--seconds`` have gone
by.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import copy
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "traces"

# an untraced run sets up this many times and reports the median as setup_s
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, load  # noqa: E402

SETUP_LAYERS = ("codes.build_flat_machinery", "corpus.welltyped_corpus",
                "paradox.build_hurkens", "paradox.hurkens_type_checks")
CALL_LAYERS = ("term.normalize", "term.substitute", "term.shift",
               "term.step_normal_order", "term.redex_positions",
               "term.contract_at", "erase.erase", "erase.u_one_step_reachable",
               "syntax.parse", "syntax.pretty", "systems.infer",
               "systems.whnf", "systems.conv", "systems.check",
               "systems.subject_reduction_probe")
RULES = ("beta", "deltaJ-eq", "deltaJ-neq")


class SourceMissing(Exception):
    pass


def use_source() -> None:
    """Put the checkout's ``src/`` first on the path and make sure the
    library comes from there, not from an installed copy."""
    if not (SRC / "ptslab" / "__init__.py").is_file():
        raise SourceMissing(f"no ptslab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ptslab
    if Path(ptslab.__file__).resolve().parent != SRC / "ptslab":
        raise SourceMissing(f"ptslab imported from {ptslab.__file__}")


def set_up(workload, seed: int):
    """Import the library anew and build the inputs: (seconds, tally).
    Dropping ``ptslab`` from ``sys.modules`` makes the import run again and
    gives fresh ``lru_cache``s, so every set-up starts cold."""
    for name in [n for n in sys.modules
                 if n == "ptslab" or n.startswith("ptslab.")]:
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    use_source()
    tally = workload.setup(seed)
    return time.perf_counter() - t0, tally


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run.  Passes go on until `seconds` have gone by; a traced run
    alternates an untraced and a traced pass, and needs one of each."""
    tracer = Tracer() if trace else None
    if tracer is None:
        # the earlier set-ups build into copies that are thrown away, so
        # one set of inputs is alive at a time
        setups = [set_up(copy.copy(workload), seed)[0]
                  for _ in range(SETUP_REPEATS - 1)]
        setup_s, tally = set_up(workload, seed)
        setups.append(setup_s)
    else:
        use_source()
        load()
        tracer.install()
        try:
            tally = workload.setup(seed)
        finally:
            tracer.uninstall()
        setup_layers = {f"{layer}.s": tracer.inclusive_s(layer)
                        for layer in SETUP_LAYERS}
        setup_layers["syntax.parse.setup_s"] = tracer.self_s.get("syntax.parse", 0.0)
        tracer.reset()

    walls = {False: [], True: []}
    rates = []     # (steps/s, items/s) of untraced passes
    start = time.perf_counter()
    traced = False
    while (time.perf_counter() - start < seconds or not walls[False]
           or (trace and not walls[True])):
        gc.collect()
        if traced:
            tracer.install()
        try:
            a = time.perf_counter()
            done = workload.run_pass()
            wall = time.perf_counter() - a
        finally:
            if traced:
                tracer.uninstall()
        if not traced:
            rates.append((done.steps / wall, done.items / wall))
        walls[traced].append(wall)
        tally.items += done.items
        tally.failed += done.failed
        traced = trace and not traced

    result = {"correct": tally.failed == 0, "attempted": tally.items,
              "failed": tally.failed}
    if tracer is None:
        result["metrics"] = {
            "wall_s": (statistics.median(walls[False]), "s"),
            "steps_per_s": (statistics.median(r[0] for r in rates), "1/s"),
            "terms_per_s": (statistics.median(r[1] for r in rates), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    else:
        result["metrics"] = layer_metrics(tracer, walls, setup_layers)
        write_spans(tracer, workload.name, seed, len(walls[True]))
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in result["metrics"].items()}
    result["passes"] = len(walls[False]) + len(walls[True])
    return result


def layer_metrics(tracer: Tracer, walls: dict, setup_layers: dict) -> dict:
    """Per-layer metrics, each per traced pass."""
    n = len(walls[True])
    out = {"gc.pause_s": (tracer.gc_pause_s / n, "s"),
           "gc.collections": (tracer.gc_collections / n, "count")}
    for layer in CALL_LAYERS:
        out[f"{layer}.calls"] = (tracer.calls.get(layer, 0) / n, "count")
        out[f"{layer}.self_s"] = (tracer.self_s.get(layer, 0.0) / n, "s")
    out["term.normalize.nested_calls"] = (tracer.nested_normalize / n, "count")
    contractions = sum(tracer.contractions.values())
    out["term.redex_depth.mean"] = (
        tracer.redex_depth_sum / contractions if contractions else 0.0, "nodes")
    for rule in RULES:
        out[f"term.contractions.{rule}"] = (tracer.contractions.get(rule, 0) / n,
                                            "count")
    parse_s = tracer.self_s.get("syntax.parse", 0.0)
    out["syntax.parse.chars_per_s"] = (
        tracer.parse_chars / parse_s if parse_s else 0.0, "chars/s")
    out["syntax.pretty.chars_out"] = (tracer.pretty_chars / n, "chars")
    for name, seconds in setup_layers.items():
        out[name] = (seconds, "s")
    wall = statistics.fmean(walls[True])
    out["trace.wall_s"] = (wall, "s")
    # the remainder is the benchmark's own loop plus the tracer's own work
    out["trace.remainder_s"] = (
        wall - (sum(tracer.self_s.values()) + tracer.gc_pause_s) / n, "s")
    out["trace.tracer_s"] = (tracer.tracer_s / n, "s")
    out["trace.overhead"] = (statistics.median(walls[True])
                             / statistics.median(walls[False]), "ratio")
    return out


def write_spans(tracer: Tracer, name: str, seed: int, passes: int) -> None:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{name}-seed{seed}.json"
    path.write_text(json.dumps({"workload": name, "seed": seed,
                                "traced_passes": passes,
                                "spans": tracer.spans()}, indent=1) + "\n")


def print_result(name: str, result: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"{name:10s} {metric:40s} {m['value']:>16.6g} {m['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"{name:10s} {'failed_share':40s} {share:>16.6g} "
          f"({result['failed']} of {result['attempted']} verdicts, "
          f"{result['passes']} passes)")


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload, each in a fresh process, one after another."""
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        *table, last = proc.stdout.strip().splitlines()
        print("\n".join(table))
        ok = ok and json.loads(last)["correct"]
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        workload = WORKLOADS[args.workload]()
        result = measure(workload, args.seed, args.seconds, bool(args.trace))
    except SourceMissing as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    print_result(args.workload, result)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
