#!/usr/bin/env python3
"""moondec benchmark: seeded workloads, checked outputs, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.  Each
workload is a closed loop with one client, in this process, with
``--jobs 1``:

* ``decompose``: ``decompose <f> --chains`` on the catalog's relation
  functions (all but one, see HEAVY), seeded compositions of prime-degree
  components and seeded prime-degree functions.  Candidate enumeration and
  the outer-component solve dominate; ``series``, ``relations`` and
  ``graph`` never run.
* ``catalog``: a CLI session over the generated catalog (1A and eight
  Gamma0(N) hauptmoduln through q^120): ``relate --all-r --verify`` on the
  20 pairs with a natural area quotient, ``modpoly`` per hauptmodul,
  ``graph-build``, ``graph-refine``, ``chains`` for all 72 ordered pairs
  and both exports, plus ``inner_series_solve`` recovering each T_N from
  ``1A(q^N) = f(T_N(q))`` with j truncated where the seed says, in a
  seeded order.

A run measures whole passes over the workload's operations: at least one
and at least MIN_SAMPLES operations, and more while the next pass, as long
as the last, fits in ``--seconds``.
Outputs are checked after the timed loop.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics; with ``--trace 1`` one pass is
timed untraced, then repeated with every layer wrapped (see tracer.py),
and the line carries the per-layer metrics.  The line before it records
provenance: kernel backend, Python, CPU count, seed, commit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import load  # noqa: E402
import tracer as tracing  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
GOLDEN = os.path.join(HERE, "golden.json")
SETUP_REPEATS = 5
# A run has at least this many samples, so the tail rank, n - 10, is at or
# above the 89th percentile.
MIN_SAMPLES = 90
FLAGSHIP = "1A->9B r=3"
FLAGSHIP_DEGREES = [(3, 2, 2), (4, 3), (4, 3)]
# The relation function 1A->25B r=5 (degree 30, about 1400 candidate inner
# components) is left out of decompose: one run of it takes 20-30 s, longer
# than five passes over all other inputs, so a run would hold one sample of
# it.
HEAVY = "1A->25B r=5"
# The catalog session has ten multi-second ops (eight modpoly, the graph op,
# relate 1A->25B); with one run of each, its tail rank falls on one sample of
# the next op.  Four runs of its slowest relate put the rank inside the
# cluster of multi-second samples spread over the session.
SLOW_RELATE = ("1A", "25B")
SLOW_RELATE_REPEATS = 4
# Refined catalog graph: refinement keeps series that differ from a catalog
# node only by an additive constant as new synthetic nodes.
REFINED_SYNTHETIC = {"X1": ("5B", "-65/11"), "X2": ("2B", "-32"),
                     "X3": ("3B", "-9")}
REFINED_SIZE = (12, 14)
GRAPH_OP = "graph-build+graph-refine"

# Layers each workload is stated to use; a traced run fails its self-test
# when one of them records no call (e.g. a missed import site).
_ALGEBRA = {"kernels.poly_mul", "kernels.row_echelon",
            "polynomials.mul_fraction_seqs", "polynomials.poly_gcd",
            "linalg.nullspace", "factorization.factor", "ratfun.compose",
            "ratfun.to_normal_form", "parsing.parse_ratfun",
            "decompose.decompose_one_level", "decompose.candidate_components",
            "decompose.left_component", "cli.main"}
EXPECTED_LAYERS = {
    # only inputs with two inequivalent decompositions reach unit_linking
    "decompose": _ALGEBRA | {"decompose.unit_linking"},
    "catalog": _ALGEBRA | {
        "series.laurent_mul", "series.laurent_div",
        "series.eval_ratfun_at_series", "series.inner_series_solve",
        "linalg.solve_unique", "relations.find_relation",
        "relations.find_all_relations", "relations.solve_linear",
        "graph.build_graph", "graph.refine_graph", "graph.maximal_chains",
        "graph.modular_polynomial", "graph.eval_modular_polynomial",
        "graph.load_catalog", "graph.load_graph", "graph.export_graph",
        "bivariate.PolyOverPoly.content_reduced"},
}
assert set().union(*EXPECTED_LAYERS.values()) == \
    {t[0] for t in tracing.TARGETS}, "every wrapped layer needs a workload"


class Op:
    """One operation: ``run`` is timed, ``check`` returns an error or None."""

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


def cli(argv, files=()):
    """moondec.cli.main in process; returns the exit code, stdout, a digest
    of stdout and the named output files, and those files' bytes."""
    import moondec.cli
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", newline="\n")
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = moondec.cli.main(argv)
        out.flush()
    data = raw.getvalue()
    out.detach()
    contents = []
    for path in files:
        with open(path, "rb") as handle:
            contents.append(handle.read())
    return code, data.decode("utf-8"), digest(data, *contents), contents


def golden_check(golden, label):
    def check(result):
        code, _, dig, _ = result
        if [code, dig] != golden.get(label):
            return f"exit {code} / output {dig[:12]} differ from golden record"
        return None
    return check


# ----------------------------------------------------------------------
# workloads


def natural_pairs():
    """Ordered catalog pairs whose area quotient is a natural number."""
    return [(a, b) for a in gen.CATALOG_NAMES for b in gen.CATALOG_NAMES
            if a != b and gen.area(b) % gen.area(a) == 0]


def expected_powers(src, dst):
    """Powers r with src(q^r) = f(dst(q)): the divisors of N_dst/N_src
    when N_src divides N_dst (1A has N = 1), none otherwise."""
    n_src = 1 if src == "1A" else gen.HAUPTMODULN[src][0]
    n_dst = gen.HAUPTMODULN[dst][0]
    if n_dst % n_src:
        return []
    return [r for r in range(1, n_dst // n_src + 1) if (n_dst // n_src) % r == 0]


def relation_lines(stdout):
    """``r=.. e=.. verified_to=.. f=..`` lines -> list of field dicts."""
    return [dict(w.split("=", 1) for w in line.split(" "))
            for line in stdout.splitlines() if line.startswith("r=")]


class Catalog:
    slow_repeats = SLOW_RELATE_REPEATS

    def __init__(self, work, seed, golden):
        self.work = work
        self.golden = golden
        self.catalog = os.path.join(work, "catalog.jsonl")
        self.graph = os.path.join(work, "graph.jsonl")
        self.refined = os.path.join(work, "refined.jsonl")
        self.rng = random.Random(f"catalog-{seed}")
        self.derive_rng = random.Random(f"derive-{seed}")
        self.relations = gen.derive_relations(golden["relations"])
        self.reference = {r["to"]: gen.series(r["to"], gen.REFERENCE_PREC)
                          for r in self.relations}
        self.j = self.functions = None

    def write_inputs(self):
        with open(self.catalog, "wb") as handle:
            handle.write(gen.jsonl(gen.catalog_records()))
        with open(os.path.join(self.work, "derive.txt"), "w",
                  encoding="utf-8") as handle:
            handle.write("".join(r["f"] + "\n" for r in self.relations))

    def loaded(self, inputs):
        catalog, functions = inputs
        self.j = catalog[0].series
        self.functions = {r["to"]: f for r, f in zip(self.relations, functions)}

    def next_pass(self) -> list[Op]:
        """All ops in seeded order, except that the graph op comes before
        the ops that read the refined graph."""
        g = self.golden["catalog"]
        cat = self.catalog
        ops = []
        for a, b in natural_pairs():
            label = f"relate {a}->{b}"
            op = Op(label, lambda a=a, b=b: cli(
                ["relate", "--catalog", cat, "--from", a, "--to", b,
                 "--all-r", "--verify"]),
                self._relate_check(label, a, b))
            ops += [op] * (self.slow_repeats if (a, b) == SLOW_RELATE else 1)
        ops += self._derive_ops()
        for name in gen.HAUPTMODULN:
            label = f"modpoly {name}"
            ops.append(Op(label, lambda name=name: cli(
                ["modpoly", "--catalog", cat, "--target", name,
                 "--emax", "8"]), golden_check(g, label)))
        build_report = os.path.join(self.work, "build-report.jsonl")
        refine_report = os.path.join(self.work, "refine-report.jsonl")
        # Build and refine are one op: the tail rank (11th largest) then falls
        # on the close pair of relate 1A->13B/1A->9B below the ten heavy ops,
        # not on whichever of build and refine is faster in that run.
        graph = Op(GRAPH_OP, lambda: (
            cli(["graph-build", "--catalog", cat, "--out", self.graph,
                 "--emax", "30", "--jobs", "1", "--report", build_report],
                [self.graph, build_report]),
            cli(["graph-refine", "--in", self.graph, "--out", self.refined,
                 "--report", refine_report], [self.refined, refine_report])),
            self._graph_check)
        readers = []
        for a in gen.CATALOG_NAMES:
            for b in gen.CATALOG_NAMES:
                if a != b:
                    label = f"chains {a}->{b}"
                    readers.append(Op(label, lambda a=a, b=b: cli(
                        ["chains", "--in", self.refined, "--from", a,
                         "--to", b]), golden_check(g, label)))
        for fmt in ("dot", "jsonlines"):
            label = f"export {fmt}"
            readers.append(Op(label, lambda fmt=fmt: cli(
                ["export", "--in", self.refined, "--format", fmt]),
                golden_check(g, label)))
        self.rng.shuffle(ops)
        self.rng.shuffle(readers)
        dependent = [graph] + readers
        slots = [True] * len(ops) + [False] * len(dependent)
        self.rng.shuffle(slots)
        ops, dependent = iter(ops), iter(dependent)
        return [next(ops) if slot else next(dependent) for slot in slots]

    def _derive_ops(self):
        """inner_series_solve recovers each T_N from 1A(q^N) = f(T_N(q)),
        as tools/build_catalogs.py does for 9B, with j truncated where the
        seed says."""
        from moondec import series
        ops = []
        for t in gen.derive_pass(self.derive_rng, self.relations):
            def run(t=t):
                target = series.substitute_power(self.j.truncate(t["p"]),
                                                 t["n"])
                return series.inner_series_solve(self.functions[t["name"]],
                                                 target)
            ops.append(Op(f"derive {t['name']} p={t['p']}", run,
                          lambda s, t=t: self._derive_check(t, s)))
        return ops

    def _derive_check(self, t, s):
        reach = gen.derive_reach(t["n"], t["p"])
        ref = self.reference[t["name"]]
        if len(s.coeffs) != reach + 1 or list(s.coeffs) != ref[:reach + 1]:
            return f"derived {t['name']} differs from the eta product"
        return None

    def _relate_check(self, label, src, dst):
        golden = golden_check(self.golden["catalog"], label)

        def check(result):
            code, stdout, _, _ = result
            powers = [int(rel["r"]) for rel in relation_lines(stdout)]
            want = expected_powers(src, dst)
            if powers != want or code != (0 if want else 3):
                return f"relation powers {powers} (exit {code}), want {want}"
            return golden(result)
        return check

    def _graph_check(self, result):
        build, refine = result
        error = golden_check(self.golden["catalog"], "graph-build")(build)
        return error or self._refine_check(refine)

    def _refine_check(self, result):
        records = [json.loads(line) for line in result[3][0].splitlines()]
        nodes = {r["name"]: r["coeffs"] for r in records if r["type"] == "node"}
        edges = [r for r in records if r["type"] == "edge"]
        if (len(nodes), len(edges)) != REFINED_SIZE:
            return f"refined graph has {len(nodes)} nodes, {len(edges)} edges"
        for name, (base, const) in REFINED_SYNTHETIC.items():
            if nodes.get(name) != [const] + nodes[base][1:]:
                return f"synthetic node {name} is not {base} {const}"
        return golden_check(self.golden["catalog"], "graph-refine")(result)


class Decompose:
    def __init__(self, work, seed, golden):
        self.golden = golden
        self.path = os.path.join(work, "decompose.txt")
        self.inputs = [x for x in gen.decompose_inputs(seed, golden["relations"])
                       if x.get("key") != HEAVY]
        self.rng = random.Random(f"decompose-order-{seed}")

    def write_inputs(self):
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write("".join(x["text"] + "\n" for x in self.inputs))

    def next_pass(self) -> list[Op]:
        """Every input once, in seeded order."""
        ops = [Op(x.get("key", x["kind"]),
                  lambda x=x: cli(["decompose", x["text"], "--chains"]),
                  lambda result, x=x: self.check(x, result))
               for x in self.inputs]
        self.rng.shuffle(ops)
        return ops

    def check(self, x, result):
        code, stdout, dig, _ = result
        if code != 0:
            return f"exit {code}"
        chains = checks.parse_chains(stdout)
        degrees = [d for d, _ in chains]
        for d, components in chains:
            if math.prod(d) != x["degree"]:
                return f"chain degrees {d} do not multiply to {x['degree']}"
            if not checks.recomposes(x["text"], components):
                return f"chain {d} does not recompose to the input"
        if x["kind"] == "relation":
            if x["key"] == FLAGSHIP and degrees != FLAGSHIP_DEGREES:
                return f"flagship chains {degrees}"
            if [code, dig] != self.golden["decompose"][x["key"]]:
                return "output differs from golden record"
        elif x["kind"] == "composition":
            if tuple(x["shape"]) not in degrees:
                return f"planted chain {x['shape']} missing from {degrees}"
        elif degrees != [(x["degree"],)]:
            return f"prime-degree input gave chains {degrees}"
        return None


WORKLOADS = {"decompose": Decompose, "catalog": Catalog}


# ----------------------------------------------------------------------
# measurement


def clear_state():
    """A CLI invocation starts cold: drop the chains cache before each op."""
    from moondec import decompose
    decompose._chains_cached.cache_clear()


def run_pass(ops, results, trace=None):
    clock = time.perf_counter
    for op in ops:
        clear_state()
        if trace is not None:
            trace.op = len(results)
        start = clock()
        try:
            value = op.run()
        except Exception as exc:  # a failed operation, reported below
            value = exc
        results.append((op, clock() - start, value))


def closed_loop(workload, seconds):
    """Whole passes, until there are MIN_SAMPLES operations and the next
    pass would not fit; returns the results, wall time and pass count."""
    results = []
    clock = time.perf_counter
    begin = clock()
    passes = 0
    while True:
        start = clock()
        run_pass(workload.next_pass(), results)
        passes += 1
        now = clock()
        if len(results) >= MIN_SAMPLES and now - begin + (now - start) > seconds:
            return results, now - begin, passes


def check_all(results):
    failed = 0
    for op, _, value in results:
        if isinstance(value, Exception):
            error = f"{type(value).__name__}: {value}"
        else:
            try:
                error = op.check(value)
            except Exception as exc:  # malformed output
                error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            failed += 1
            print(f"FAILED {op.label}: {error}", file=sys.stderr)
    return failed


def tail(latencies):
    """The highest percentile with 10 samples beyond it, as (percentile,
    value): the (n-10)-th smallest of n >= MIN_SAMPLES latencies."""
    ordered = sorted(latencies)
    rank = len(ordered) - 10
    return 100 * rank / len(ordered), ordered[rank - 1]


def setup_seconds(workload_name, work):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    probe = os.path.join(HERE, "load.py")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, probe, workload_name, work],
                       env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def provenance(args, extra):
    import moondec._kernels
    commit = None  # not a git checkout
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "moondec"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".pyx", ".jsonl")):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    h.update(handle.read())
    return {"backend": moondec._kernels.BACKEND,
            "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "seed": args.seed, "workload": args.workload, "commit": commit,
            "source_sha256": h.hexdigest(), **extra}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "moondec", "__init__.py")):
        print("error: run from the repository root (no src/moondec here)",
              file=sys.stderr)
        return 2
    if not gen.matches_bundled(os.path.join(SRC, "moondec", "data",
                                            "moonshine.jsonl")):
        print("error: generated 1A/9B differ from the bundled catalog",
              file=sys.stderr)
        return 2
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        workload = WORKLOADS[args.workload](work, args.seed, golden)
        workload.write_inputs()
        setup = None if args.trace else setup_seconds(args.workload, work)
        sys.path.insert(0, SRC)
        inputs = load.load(args.workload, work)
        if hasattr(workload, "loaded"):
            workload.loaded(inputs)
        if args.trace:
            return traced_run(args, workload)
        results, wall, passes = closed_loop(workload, args.seconds)
        failed = check_all(results)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    latencies = [lat for _, lat, _ in results]
    attempted = len(results)
    percentile, tail_value = tail(latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_value, "s"),
        "ops_per_s": ((attempted - failed) / wall, "1/s"),
        "setup_s": (setup, "s"),
        "success_frac": ((attempted - failed) / attempted, "frac"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(json.dumps({"provenance": provenance(args, {
        "passes": passes,
        "samples": attempted, "tail_percentile": percentile,
        "fail_frac": failed / attempted})}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def traced_run(args, workload) -> int:
    if hasattr(workload, "slow_repeats"):
        # the repeats only steady the end-to-end tail; a traced run times
        # one session twice and must end within the run's time limit
        workload.slow_repeats = 1
    ops = workload.next_pass()
    results = []
    start = time.perf_counter()
    run_pass(ops, results)
    untraced = time.perf_counter() - start
    trace = tracing.Tracer()
    wrapped = trace.install()
    start = time.perf_counter()
    run_pass(ops, results, trace)
    traced = time.perf_counter() - start
    failed = check_all(results)
    missing = sorted(name for name in EXPECTED_LAYERS[args.workload] & wrapped
                     if trace.calls[name] == 0)
    for name in missing:
        print(f"SELF-TEST {name} recorded no call on {args.workload}",
              file=sys.stderr)
    trace.write_spans(os.path.join(
        WORK_ROOT, f"spans-{args.workload}-{args.seed}.jsonl.gz"))
    units = tracing.metric_units()
    values = trace.metrics(overhead_ratio=untraced / traced)
    print(json.dumps({"provenance": provenance(args, {
        "samples": len(ops), "untraced_s": untraced, "traced_s": traced,
        "spans": len(trace.spans), "self_test_missing": missing})}))
    print(json.dumps({
        "correct": failed == 0 and not missing, "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
