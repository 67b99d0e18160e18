#!/usr/bin/env python3
"""Replay a benchmark run in process and name the op at its tail rank.

    python3 tools/tail_ops.py [--workload catalog] --seed N --seconds S

``perfbench/run.py`` reports end-to-end metrics without op labels.  This
script runs the same closed loop (the workload's seeded passes, as many as
fit in ``--seconds``, cleared caches between ops) through perfbench's own
modules, checks every output, and prints:

* the passes and samples of the run, as ``run.py`` would count them;
* per op label, the sample count and median latency, slowest first;
* the samples at and above the tail rank (the (n-10)-th smallest), so the
  op that ``latency_tail_s`` lands on is named.

The last stdout line is the same summary as one JSON record.  Run from the
repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
from collections import defaultdict

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import load  # noqa: E402
import run  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="catalog", choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(run.SRC, "moondec", "__init__.py")):
        print("error: run from the repository root (no src/moondec here)",
              file=sys.stderr)
        return 2
    with open(run.GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    work = os.path.join(run.WORK_ROOT,
                        f"tail-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        workload = run.WORKLOADS[args.workload](work, args.seed, golden)
        workload.write_inputs()
        sys.path.insert(0, run.SRC)
        inputs = load.load(args.workload, work)
        if hasattr(workload, "loaded"):
            workload.loaded(inputs)
        results, wall, passes = run.closed_loop(workload, args.seconds)
        failed = run.check_all(results)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    by_label = defaultdict(list)
    for op, latency, _ in results:
        by_label[op.label].append(latency)
    medians = sorted(((statistics.median(v), len(v), label)
                      for label, v in by_label.items()), reverse=True)
    ordered = sorted(((latency, op.label) for op, latency, _ in results),
                     reverse=True)
    percentile, tail_value = run.tail([latency for latency, _ in ordered])
    top = ordered[:11]  # the tail rank is the 11th largest sample

    print(f"workload {args.workload} seed {args.seed}: {passes} passes, "
          f"{len(results)} samples, {failed} failed, {wall:.2f} s, "
          f"{(len(results) - failed) / wall:.2f} ops/s")
    print("median_s  count  op")
    for median, count, label in medians:
        print(f"{median:8.4f}  {count:5d}  {label}")
    print(f"tail rank: the {len(results) - 10}-th smallest of {len(results)} "
          f"(p{percentile:.1f}) = {tail_value:.4f} s; samples from the top:")
    for rank, (latency, label) in enumerate(top, 1):
        mark = "  <- tail" if rank == len(top) else ""
        print(f"{rank:3d}  {latency:8.4f}  {label}{mark}")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "passes": passes,
        "samples": len(results), "failed": failed,
        "ops_per_s": (len(results) - failed) / wall,
        "latency_tail_s": tail_value, "tail_op": top[-1][1],
        "medians_s": {label: median for median, _, label in medians}}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
