"""Load a workload's generated inputs through moondec's own loaders.

Run as a script in a fresh interpreter it is the set-up probe: its wall
time, from interpreter start through ``import moondec`` to the loaded
inputs, is the ``setup_s`` metric.  Generating the inputs is not part of it.

    PYTHONPATH=src python3 perfbench/load.py WORKLOAD WORK_DIR
"""

import os
import sys


def load(workload: str, work: str):
    import moondec

    def catalog(name):
        with open(os.path.join(work, name), "rb") as handle:
            return moondec.load_catalog(handle)

    def functions(name):
        with open(os.path.join(work, name), encoding="utf-8") as handle:
            return [moondec.parse_ratfun(line)
                    for line in handle.read().splitlines()]

    if workload == "catalog":
        return catalog("catalog.jsonl"), functions("derive.txt")
    if workload == "decompose":
        return functions("decompose.txt")
    raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    load(sys.argv[1], sys.argv[2])
