"""Reference record of the ROADMAP baseline rows; not a gated workload.

    python3 perfbench/baseline.py          # writes perfbench/results/baseline.json

Each row runs in a fresh process, so its peak RSS is its own.  The rows:
Hurkens at 10^6 steps with and without cycle detection, the flat(#A) step
counts of the registered type codes, and a cold build_flat_machinery.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import use_source  # noqa: E402
from workloads import FLAT_FUEL, load  # noqa: E402

OUT = HERE / "results" / "baseline.json"
HURKENS_FUEL = 1_000_000

# the figures ROADMAP.md recorded at its re-anchor, for comparison
ROADMAP = {
    "hurkens_cycles": {"wall_s": 9.4, "peak_rss_mb": 690},
    "hurkens_plain": {"wall_s": 4.2, "peak_rss_mb": 16},
    "flat_steps": {"1": 182, "2": 401, "4": 1217, "7": 3746, "8": 5033},
    "build_flat_machinery": {"wall_s": 0.014},
}


def row(name: str) -> dict:
    use_source()
    m = load()
    tm = m["term"]
    if name.startswith("hurkens"):
        cycles = name == "hurkens_cycles"
        t = m["paradox"].build_hurkens()
        a = time.perf_counter()
        tr = tm.normalize(t, HURKENS_FUEL, detect_cycles=cycles,
                          keep_steps=False)
        wall = time.perf_counter() - a
        out = {"wall_s": wall, "steps_per_s": tr.step_count / wall,
               "outcome": type(tr.outcome).__name__,
               "step_count": tr.step_count}
    elif name == "build_flat_machinery":
        a = time.perf_counter()
        m["codes"].build_flat_machinery()
        out = {"wall_s": time.perf_counter() - a}
    else:
        cd = m["codes"]
        fm = cd.build_flat_machinery()
        steps = {}
        for k in cd.type_codes(fm.table):
            a = time.perf_counter()
            tr = tm.normalize(tm.App(fm.flat, cd.church(k)), FLAT_FUEL,
                              keep_steps=False)
            steps[str(k)] = {"steps": tr.step_count,
                             "wall_s": time.perf_counter() - a,
                             "decoded": tr.outcome.term == fm.table.term_of(k)}
        out = {"codes": steps}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--row":
        print(json.dumps(row(sys.argv[2])))
        return 0
    rows = {}
    for name in ("hurkens_cycles", "hurkens_plain", "flat_steps",
                 "build_flat_machinery"):
        proc = subprocess.run([sys.executable, __file__, "--row", name],
                              capture_output=True, text=True, check=True,
                              timeout=600)
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    record = {
        "machine": {"python": platform.python_version(),
                    "machine": platform.machine(), "cpus": os.cpu_count()},
        "rows": rows,
        "roadmap": ROADMAP,
    }
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
