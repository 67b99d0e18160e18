#!/usr/bin/env python3
"""Capture ``golden.json``: the outputs the benchmark's checks compare with.

    python3 perfbench/golden.py

Run from the repository root.  It records the relations that
``relate --all-r`` finds on the 20 catalog pairs with a natural area
quotient (``decompose`` and the derivations in ``catalog`` take their
functions from them), and the exit code and output digest of every
``catalog`` CLI op and of ``decompose --chains`` on each relation function.
The library promises byte-identical stdout, so re-capture only when an
output is meant to change.
"""

import json
import os
import shutil
import sys

import gen
import run


def main():
    sys.path.insert(0, run.SRC)
    work = os.path.join(run.WORK_ROOT, "golden")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    golden = {"relations": [], "catalog": {}, "decompose": {}}
    catalog = run.Catalog(work, 0, golden)
    catalog.write_inputs()
    for a, b in run.natural_pairs():
        _, stdout, _, _ = run.cli(["relate", "--catalog", catalog.catalog,
                                   "--from", a, "--to", b, "--all-r"])
        for rel in run.relation_lines(stdout):
            golden["relations"].append({"from": a, "to": b, "r": int(rel["r"]),
                                        "e": int(rel["e"]), "f": rel["f"]})
    for op in catalog.next_pass():
        if op.label.startswith("derive "):
            continue  # checked against the eta products, not golden
        if op.label == run.GRAPH_OP:
            results = zip(("graph-build", "graph-refine"), op.run())
        else:
            results = [(op.label, op.run())]
        for label, (code, _, dig, _) in results:
            golden["catalog"][label] = [code, dig]
    for x in gen.decompose_inputs(0, golden["relations"]):
        if x["kind"] == "relation":
            code, _, dig, _ = run.cli(["decompose", x["text"], "--chains"])
            golden["decompose"][x["key"]] = [code, dig]
    shutil.rmtree(work)
    with open(run.GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {run.GOLDEN}: {len(golden['relations'])} relations, "
          f"{len(golden['catalog'])} catalog ops, "
          f"{len(golden['decompose'])} decompositions")


if __name__ == "__main__":
    main()
