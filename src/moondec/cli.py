"""Command-line interface.

Verbs: decompose, relate, graph-build, graph-refine, chains, modpoly,
export.  Output is deterministic (byte-identical across runs for identical
inputs).  Exit codes: 0 success with a result, 3 success but no relation /
indecomposable, 1 usage error, 2 data error (with a machine-readable
``error: <category>: ...`` line on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, reduce
from math import lcm

from moondec.bivariate import bivariate_text
from moondec.decompose import all_chains, decompose_one_level
from moondec.errors import (
    InvalidInputError,
    MoondecError,
    UnknownNodeError,
    VerificationFailureError,
)
from moondec.graph import (
    build_graph,
    eval_modular_polynomial,
    export_graph,
    load_catalog,
    load_graph,
    maximal_chains,
    modular_polynomial,
    refine_graph,
)
from moondec.parsing import parse_ratfun
from moondec.ratfun import compose, ratfun_text
from moondec.relations import (
    Relation,
    degree_from_areas,
    find_all_relations,
    find_relation,
    lowest_degree_relations,
    verify_relation,
)
from moondec.series import substitute_power


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@cache
def _build_parser() -> _Parser:
    """The parser, built once per process: it holds no state of a call."""
    parser = _Parser(prog="moondec",
                     description="rational-function decomposition and "
                                 "q-series relation graphs")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("decompose", help="decompose a rational function")
    p.add_argument("function", help="rational function in x")
    p.add_argument("--chains", action="store_true",
                   help="print all complete decomposition chains")
    p.add_argument("--verify", action="store_true",
                   help="re-parse printed output and check it composes back")

    p = sub.add_parser("relate", help="find f, r with s1(q^r) = f(s2(q))")
    p.add_argument("--catalog", required=True)
    p.add_argument("--from", dest="src", required=True, metavar="NAME")
    p.add_argument("--to", dest="dst", required=True, metavar="NAME")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--e", type=int,
                       help="per power r, the least-degree relation up to E")
    group.add_argument("--emax", type=int,
                       help="bound the area degree, else scan degrees 1..EMAX")
    p.add_argument("--all-r", action="store_true", dest="all_r",
                   help="every power r with a relation, in (e, r) order")
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("graph-build", help="run the pairwise relation search")
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--emax", type=int, default=16)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--report")

    p = sub.add_parser("graph-refine",
                       help="split decomposable edges to a fixpoint")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")

    p = sub.add_parser("chains", help="maximal chains between two nodes")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--from", dest="src", required=True, metavar="NAME")
    p.add_argument("--to", dest="dst", required=True, metavar="NAME")

    p = sub.add_parser("modpoly",
                       help="bivariate relations P(s(q^k1), s(q^k2)) = 0 "
                            "from multi-power relation pairs")
    p.add_argument("--catalog", required=True)
    p.add_argument("--target", required=True, metavar="NAME")
    p.add_argument("--emax", type=int, default=8)

    p = sub.add_parser("export", help="write a graph as DOT or jsonlines")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--format", required=True, choices=["dot", "jsonlines"])
    return parser


def _load_catalog_file(path):
    with open(path, "rb") as handle:
        return load_catalog(handle)


def _load_graph_file(path):
    with open(path, "rb") as handle:
        return load_graph(handle)


def _entry(catalog, name):
    for c in catalog:
        if c.name == name:
            return c
    raise UnknownNodeError(f"no catalog entry named {name!r}")


def _check_positive(flag, value):
    """A degree bound or worker count below 1 asks for no work: reject it
    rather than search nothing or quietly run on one worker."""
    if value is not None and value < 1:
        raise InvalidInputError(
            f"{flag} must be a positive integer, not {value}")


def _write_report(path, records):
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            for rec in records:
                handle.write(json.dumps(rec, separators=(",", ":")) + "\n")


def _cmd_decompose(args) -> int:
    f = parse_ratfun(args.function)
    if args.chains:
        chains = all_chains(f)
        for parts in chains:
            degrees = "*".join(str(c.degree) for c in parts)
            body = " o ".join(ratfun_text(c) for c in parts)
            print(f"chain length {len(parts)} degrees {degrees}: {body}")
    else:
        chains = decompose_one_level(f)
        if not chains:
            print("indecomposable")
            return 3
        for g, h in chains:
            print(f"degrees {g.degree}*{h.degree}: "
                  f"{ratfun_text(g)} o {ratfun_text(h)}")
    if args.verify:
        for parts in chains:
            parsed = [parse_ratfun(ratfun_text(c)) for c in parts]
            if reduce(compose, parsed) != f:
                raise VerificationFailureError(
                    "printed decomposition does not compose back to the input")
    return 0


def _cmd_relate(args) -> int:
    _check_positive("--e", args.e)
    _check_positive("--emax", args.emax)
    catalog = _load_catalog_file(args.catalog)
    src = _entry(catalog, args.src)
    dst = _entry(catalog, args.dst)
    e = args.e
    if e is None:
        e = degree_from_areas(src.area, dst.area)
    relations = []
    if e is not None and args.emax is not None and e > args.emax:
        print(f"note: area quotient gives degree {e}, above --emax "
              f"{args.emax}", file=sys.stderr)
    elif e is not None and args.all_r:
        relations = find_all_relations(src.series, dst.series, e)
    elif e is not None:
        rel = find_relation(src.series, dst.series, e)
        relations = [] if rel is None else [rel]
    elif args.emax is not None:
        (found,) = lowest_degree_relations([src.series], dst.series,
                                           args.emax)
        relations = list(found.values())
    else:
        print("note: area quotient is not a natural number and no --e/--emax "
              "given", file=sys.stderr)
    relations.sort(key=lambda rel: (rel.e, rel.r))
    if not args.all_r:
        relations = relations[:1]
    if not relations:
        print("none")
        return 3
    for rel in relations:
        print(f"r={rel.r} e={rel.e} verified_to={rel.verified_to} "
              f"f={ratfun_text(rel.f)}")
    if args.verify:
        for rel in relations:
            reparsed = Relation(rel.r, parse_ratfun(ratfun_text(rel.f)),
                                rel.e, rel.verified_to)
            if verify_relation(src.series, dst.series, reparsed) \
                    != rel.verified_to:
                raise VerificationFailureError(
                    "printed relation does not re-verify")
    return 0


def _cmd_graph_build(args) -> int:
    _check_positive("--emax", args.emax)
    _check_positive("--jobs", args.jobs)
    catalog = _load_catalog_file(args.catalog)
    graph, report = build_graph(catalog, args.emax, jobs=args.jobs)
    with open(args.out, "wb") as handle:
        handle.write(export_graph(graph, "jsonlines"))
    _write_report(args.report, report)
    print(f"nodes={len(graph.nodes)} edges={len(graph.edges)}")
    return 0


def _cmd_graph_refine(args) -> int:
    graph = _load_graph_file(args.input)
    refined, report = refine_graph(graph)
    with open(args.out, "wb") as handle:
        handle.write(export_graph(refined, "jsonlines"))
    _write_report(args.report, report)
    print(f"nodes={len(refined.nodes)} edges={len(refined.edges)}")
    return 0


def _cmd_chains(args) -> int:
    graph = _load_graph_file(args.input)
    paths = maximal_chains(graph, args.src, args.dst)
    if not paths:
        print("none")
        return 3
    for path in paths:
        if not path:
            print("(empty path)")
            continue
        text = path[0].src
        for edge in path:
            text += f" -(d={edge.degree},r={edge.power})-> {edge.dst}"
        print(text)
    return 0


def _cmd_modpoly(args) -> int:
    _check_positive("--emax", args.emax)
    catalog = _load_catalog_file(args.catalog)
    target = _entry(catalog, args.target)
    emitted = 0
    scans = lowest_degree_relations((c.series for c in catalog),
                                    target.series, args.emax)
    for src, by_power in zip(catalog, scans):
        powers = sorted(by_power)
        for i in range(len(powers)):
            for j in range(i + 1, len(powers)):
                r1, r2 = powers[i], powers[j]
                shared = lcm(r1, r2)
                k1, k2 = shared // r1, shared // r2
                poly = modular_polynomial(by_power[r1].f, k1,
                                          by_power[r2].f, k2)
                value = eval_modular_polynomial(
                    poly,
                    substitute_power(target.series, k1),
                    substitute_power(target.series, k2))
                if not value.is_zero:
                    raise VerificationFailureError(
                        "modular polynomial does not vanish on the series")
                print(f"source={src.name} r1={r1} r2={r2} "
                      f"k1={k1} k2={k2} P={bivariate_text(poly)}")
                emitted += 1
    if emitted == 0:
        print("none")
        return 3
    return 0


def _cmd_export(args) -> int:
    graph = _load_graph_file(args.input)
    sys.stdout.buffer.write(export_graph(graph, args.format))
    sys.stdout.buffer.flush()
    return 0


_COMMANDS = {
    "decompose": _cmd_decompose,
    "relate": _cmd_relate,
    "graph-build": _cmd_graph_build,
    "graph-refine": _cmd_graph_refine,
    "chains": _cmd_chains,
    "modpoly": _cmd_modpoly,
    "export": _cmd_export,
}


def _function_text_last(argv: list[str]) -> list[str]:
    """Put a decompose function text that starts with '-' behind '--'.

    argparse takes every word that starts with '-' for an option, so
    'decompose -x^4' would lose its function.  decompose declares no short
    option but -h, so any other word with a single leading '-' is the
    function text; words starting with '--' stay options.
    """
    if argv[:1] != ["decompose"] or "--" in argv:
        return argv
    texts = [a for a in argv[1:]
             if a.startswith("-") and not a.startswith("--") and a != "-h"]
    if not texts:
        return argv
    rest = [a for a in argv[1:] if a not in texts]
    return ["decompose", *rest, "--", *texts]


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_function_text_last(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _COMMANDS[args.verb](args)
    except MoondecError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io-error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
