"""Check that the benchmark is steady: two sets of runs per workload.

    python3 perfbench/steadiness.py                  # 2 sets of 10 runs
    python3 perfbench/steadiness.py --runs 5 --workload flat

Runs ``run.py --trace 0`` once per seed, one run at a time, each in a fresh
process, ``run_seconds`` of ``BENCHMARK.json`` long: every workload in the
first set, then every workload in the second, each run with its own seed.  For every end-to-end metric it reports
per set the median and the spread (first to third quartile as a share of
the median) and how much worse the second median is than the first, as a
share of the first, next to the metric's bound in ``BENCHMARK.json``.  The
raw metrics of every run are written to ``perfbench/results/steadiness.json``
(replacing what was there).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


SETS = 2
OUT = HERE / "results" / "steadiness.json"


def one_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed")
    return {k: m["value"] for k, m in result["metrics"].items()}


def summary(runs: list[dict]) -> dict:
    out = {}
    for metric in runs[0]:
        values = [r[metric] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[metric] = {"median": median, "spread": (q3 - q1) / median}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    runs = {w: [] for w in names}
    seed = 1
    for n in range(SETS):
        for w in names:
            runs[w].append([])
            for _ in range(args.runs):
                runs[w][n].append({"seed": seed, **one_run(w, seed)})
                print(w, n + 1, runs[w][n][-1], flush=True)
                seed += 1

    report = {"python": platform.python_version(), "machine": platform.machine(),
              "cpus": len(os.sched_getaffinity(0)),
              "seconds": SPEC["run_seconds"], "runs": args.runs,
              "workloads": {}}
    ok = True
    for w in names:
        sets = [summary([{k: v for k, v in r.items() if k != "seed"} for r in s])
                for s in runs[w]]
        compare = {}
        for m in SPEC["end_to_end"]:
            first, last = sets[0][m["name"]]["median"], sets[-1][m["name"]]["median"]
            worse = (last - first if m["better"] == "lower" else first - last) / first
            spread = max(s[m["name"]]["spread"] for s in sets)
            passed = worse <= m["bound"] and (m["name"] == "setup_s"
                                              or spread <= m["bound"])
            ok = ok and passed
            compare[m["name"]] = {"bound": m["bound"], "worse": worse,
                                  "max_spread": spread, "ok": passed}
            print(f"{w:10s} {m['name']:12s} medians "
                  + " ".join(f"{s[m['name']]['median']:.5g}" for s in sets)
                  + " spreads " + " ".join(f"{s[m['name']]['spread']:.3f}" for s in sets)
                  + f" worse {worse:+.3f} bound {m['bound']}")
        report["workloads"][w] = {"sets": [{"runs": r, "summary": s}
                                           for r, s in zip(runs[w], sets)],
                                  "compare": compare}
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
