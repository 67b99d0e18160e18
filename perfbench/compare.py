#!/usr/bin/env python3
"""Compare saved benchmark runs of two commits, metric by metric.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the captured stdout of untraced runs (``*.out``), whose
last two lines are the provenance record and the result.  Runs pair up by
workload and seed.  For every workload and end-to-end metric it prints both
medians and quartiles, the share of pairs the change wins, and a verdict
against the metric's bound in ``BENCHMARK.json``.  It refuses (exit 2) to
compare runs whose kernel backend differs.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_runs(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.out"))):
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        prov = json.loads(lines[-2])["provenance"]
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"{path}: run is not correct; nothing to compare")
        runs[(prov["workload"], prov["seed"])] = (prov, result["metrics"])
    return runs


def main(base_dir, change_dir):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as h:
        spec = {m["name"]: m for m in json.load(h)["end_to_end"]}
    base, change = read_runs(base_dir), read_runs(change_dir)
    backends = {prov["backend"] for prov, _ in [*base.values(), *change.values()]}
    if len(backends) > 1:
        print(f"refusing to compare: kernel backends differ {sorted(backends)}",
              file=sys.stderr)
        return 2
    for workload in sorted({w for w, _ in base} | {w for w, _ in change}):
        seeds = sorted(s for w, s in base if w == workload
                       and (w, s) in change)
        print(f"{workload}: {len(seeds)} paired seeds")
        for name, m in spec.items():
            lower = m["better"] == "lower"
            b = [base[(workload, s)][1][name]["value"] for s in seeds]
            c = [change[(workload, s)][1][name]["value"] for s in seeds]
            if len(seeds) < 2:
                continue
            bq, cq = statistics.quantiles(b, n=4), statistics.quantiles(c, n=4)
            bmed, cmed = statistics.median(b), statistics.median(c)
            wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
            worse = (cmed - bmed if lower else bmed - cmed) / bmed
            spread = (bq[2] - bq[0]) / bmed
            if spread > m["bound"] and not all(
                    (y < min(b)) if lower else (y > max(b)) for y in c):
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
            else:
                verdict = "within bound"
            print(f"  {name:16s} base {bmed:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
                  f"  change {cmed:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]"
                  f"  wins {wins}/{len(seeds)}  {verdict}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
