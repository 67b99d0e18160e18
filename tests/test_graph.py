import io
import itertools
import json
import random
from fractions import Fraction

import pytest

from moondec.bivariate import PolyOverPoly, bivariate_text
from moondec.cli import main
from moondec.errors import (
    CatalogParseError,
    DuplicateNameError,
    IdenticalPowersError,
    NonMonicPrincipalPartError,
    UnknownNodeError,
)
from moondec.graph import (
    CatalogEntry,
    GraphEdge,
    GraphNode,
    RelationGraph,
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
from moondec.polynomials import ONE, Poly
from moondec.ratfun import compose, ratfun_text
from moondec.series import (
    QSeries,
    eval_ratfun_at_series,
    substitute_power,
)
from oracles import j_expansion
from planting import self_replicable


def _record(name, area, coeffs, **extra):
    rec = {"name": name, "area": area, "coeffs": [str(c) for c in coeffs]}
    rec.update(extra)
    return json.dumps(rec)


# -- catalog ingestion ---------------------------------------------------------

def test_load_catalog_j_entry():
    doc = _record("1A-like", "1", [744, 196884, 21493760, 864299970,
                                   20245856256])
    entries = load_catalog(doc)
    assert len(entries) == 1
    entry = entries[0]
    assert entry.name == "1A-like"
    assert entry.series.prec == 4
    assert list(entry.series.coeffs) == j_expansion(4)


def test_load_catalog_empty_and_comments():
    assert load_catalog("") == []
    assert load_catalog("# nothing here\n\n") == []


def test_load_catalog_rejects_non_monic_lead():
    doc = _record("bad", "1", [1, 2], lead="2")
    with pytest.raises(NonMonicPrincipalPartError):
        load_catalog(doc)


def test_load_catalog_duplicate_names():
    doc = _record("a", "1", [1]) + "\n" + _record("a", "2", [2])
    with pytest.raises(DuplicateNameError):
        load_catalog(doc)


def test_load_catalog_parse_errors_carry_line():
    with pytest.raises(CatalogParseError) as err:
        load_catalog("\n{not json}")
    assert err.value.line == 2
    with pytest.raises(CatalogParseError):
        load_catalog(_record("a", "1.5", [1]))
    with pytest.raises(CatalogParseError):
        load_catalog(_record("a", "-2", [1]))
    with pytest.raises(CatalogParseError):
        load_catalog(json.dumps({"name": "a", "coeffs": []}))


def test_load_catalog_zero_denominator_area():
    with pytest.raises(CatalogParseError):
        load_catalog(_record("a", "1/0", [1]))


def test_load_catalog_accepts_bytes_and_streams():
    doc = _record("a", "1/3", [1, 2, 3])
    assert load_catalog(doc.encode()) == load_catalog(io.BytesIO(doc.encode()))
    assert load_catalog(doc)[0].area == Fraction(1, 3)


# -- build ----------------------------------------------------------------------

def _forward_pair_catalog(rng, f, e):
    base = QSeries.from_coeffs([rng.randint(-4, 4) for _ in range(2 * e + 4)])
    top = QSeries.from_laurent(eval_ratfun_at_series(f, base))
    return [CatalogEntry("TOP", Fraction(1), top),
            CatalogEntry("BASE", Fraction(e), base)]


def test_build_graph_single_function_no_self_edge():
    cat = [CatalogEntry("solo", Fraction(1), QSeries.from_coeffs([1, 2, 3]))]
    graph, report = build_graph(cat, 8)
    assert len(graph.nodes) == 1
    assert graph.edges == ()
    assert report == []


def test_build_graph_planted_pair():
    rng = random.Random(70)
    f = parse_ratfun("(x^3+2*x^2-x+4)/(x^2+2)")
    cat = _forward_pair_catalog(rng, f, 3)
    graph, report = build_graph(cat, 8)
    assert len(graph.edges) == 1
    edge = graph.edges[0]
    assert (edge.src, edge.dst, edge.degree, edge.power) == ("TOP", "BASE", 3, 1)
    assert edge.fun == f
    assert {rec["reason"] for rec in report} == {"area-quotient-not-natural"}


def test_build_graph_non_integral_areas():
    cat = [CatalogEntry("a", Fraction(2), QSeries.from_coeffs([1] * 8)),
           CatalogEntry("b", Fraction(3), QSeries.from_coeffs([2] * 8))]
    graph, report = build_graph(cat, 8)
    assert graph.edges == ()
    assert len(report) == 2


def test_build_graph_jobs_deterministic():
    rng = random.Random(71)
    f = parse_ratfun("(x^2+3*x-1)/(x+1)")
    cat = _forward_pair_catalog(rng, f, 2)
    sequential = build_graph(cat, 8)
    parallel = build_graph(cat, 8, jobs=2)
    assert sequential == parallel


def test_build_graph_bounds_worker_count(monkeypatch):
    import concurrent.futures
    import os

    recorded = []

    class SerialPool:
        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    rng = random.Random(71)
    cat = _forward_pair_catalog(rng, parse_ratfun("(x^2+3*x-1)/(x+1)"), 2)
    pairs = len(cat) * (len(cat) - 1)
    bounded = build_graph(cat, 8, jobs=10 ** 6)
    assert len(recorded) <= 1
    assert all(1 < n <= min(pairs, os.cpu_count() or 1) for n in recorded)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert build_graph(cat, 8, jobs=10 ** 6) == bounded
    assert recorded[-1] == pairs
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    recorded.clear()
    assert build_graph(cat, 8, jobs=10 ** 6) == bounded
    assert recorded == []  # one CPU: the serial path, no pool


# -- refine ---------------------------------------------------------------------

PHI = parse_ratfun("x^2+4*x+2")


@pytest.fixture(scope="module")
def planted_four_catalog():
    """B plus three composites: X(q^2) = (chi o phi)(B) where phi is B's
    self-replication, Y = psi(B), D2 = (gamma o psi)(B)."""
    base = self_replicable(4, 2, 40)
    chi = parse_ratfun("(x^2+3*x+1)/(x+4)")
    psi = parse_ratfun("(x^2-2*x+5)/(x+1)")
    gamma = parse_ratfun("(x^2+x-3)/(x+2)")
    x_series = QSeries.from_laurent(eval_ratfun_at_series(chi, base))
    y_series = QSeries.from_laurent(eval_ratfun_at_series(psi, base))
    d2_series = QSeries.from_laurent(
        eval_ratfun_at_series(compose(gamma, psi), base))
    return [
        CatalogEntry("B", Fraction(1), base),
        CatalogEntry("X", Fraction(1, 4), x_series),
        CatalogEntry("Y", Fraction(1, 2), y_series),
        CatalogEntry("D2", Fraction(1, 4), d2_series),
    ], {"chi": chi, "psi": psi, "gamma": gamma}


def _planted_four_graph(catalog, funs):
    """The four planted edges as a verified graph.

    The (X, B) pair carries relations at two powers (X = chi(B) at r=1 of
    degree 2 and X(q^2) = (chi o phi)(B) at r=2 of degree 4); the pairwise
    search at e=4 correctly refuses the non-unique r=1 system, so the r=2
    edge is planted directly here.
    """
    nodes = tuple(GraphNode(c.name, c.series, "catalog") for c in catalog)
    edges = (
        GraphEdge("X", "B", 4, 2, compose(funs["chi"], PHI)),
        GraphEdge("Y", "B", 2, 1, funs["psi"]),
        GraphEdge("D2", "B", 4, 1, compose(funs["gamma"], funs["psi"])),
        GraphEdge("D2", "Y", 2, 1, funs["gamma"]),
    )
    graph = RelationGraph(nodes, edges)
    by_name = {n.name: n for n in nodes}
    for e in edges:
        diff = substitute_power(by_name[e.src].series, e.power) - \
            eval_ratfun_at_series(e.fun, by_name[e.dst].series)
        assert diff.is_zero
    return graph


def test_build_planted_four(planted_four_catalog):
    catalog, funs = planted_four_catalog
    graph, report = build_graph(catalog, 8)
    labels = {(e.src, e.dst, e.degree, e.power) for e in graph.edges}
    assert ("Y", "B", 2, 1) in labels
    assert ("D2", "B", 4, 1) in labels
    assert ("D2", "Y", 2, 1) in labels
    # (X, B): the degree-2 relation X = chi(B) makes the degree-4 r=1
    # ansatz non-unique, which is reported as a skip, not guessed
    skip = next(r for r in report
                if r["kind"] == "skip" and r["from"] == "X" and r["to"] == "B")
    assert skip["reason"] == "underdetermined-system"


def test_refine_planted_four(planted_four_catalog):
    catalog, funs = planted_four_catalog
    graph = _planted_four_graph(catalog, funs)
    refined, report = refine_graph(graph)
    synth = [n for n in refined.nodes if n.origin == "synthetic"]
    assert len(synth) == 2
    assert all(e.degree == 2 for e in refined.edges)
    # conservation: degree and power products along each refined path
    # reproduce the original labels
    original = {("X", "B"): (4, 2), ("D2", "B"): (4, 1)}
    for (src, dst), (deg, power) in original.items():
        paths = maximal_chains(refined, src, dst)
        assert paths, f"no refined path {src}->{dst}"
        for path in paths:
            dprod = pprod = 1
            for e in path:
                dprod *= e.degree
                pprod *= e.power
            assert (dprod, pprod) == (deg, power)
    # every edge (in particular both edges at each synthetic node)
    # forward-verifies against the node series
    nodes = {n.name: n for n in refined.nodes}
    for e in refined.edges:
        diff = substitute_power(nodes[e.src].series, e.power) - \
            eval_ratfun_at_series(e.fun, nodes[e.dst].series)
        assert diff.is_zero
    # refinement is idempotent at the fixpoint
    again, _ = refine_graph(refined)
    assert again == refined


def test_refine_unchanged_when_indecomposable(planted_four_catalog):
    catalog, funs = planted_four_catalog
    node_b = GraphNode("B", catalog[0].series, "catalog")
    node_y = GraphNode("Y", catalog[2].series, "catalog")
    edge = GraphEdge("Y", "B", 2, 1, funs["psi"])
    graph = RelationGraph((node_b, node_y), (edge,))
    refined, report = refine_graph(graph)
    assert refined == graph
    assert report == []


def test_refine_adopts_existing_node_with_matching_series(
        planted_four_catalog):
    catalog, funs = planted_four_catalog
    graph = _planted_four_graph(catalog, funs)
    refined, _ = refine_graph(graph)
    synth = [n for n in refined.nodes if n.origin == "synthetic"]
    chosen = synth[0]
    # rebuild the same graph but pre-seed a catalog node carrying exactly
    # the series the refinement would synthesize
    nodes = tuple(graph.nodes) + (GraphNode("KNOWN", chosen.series, "catalog"),)
    seeded = RelationGraph(nodes, graph.edges)
    refined2, report2 = refine_graph(seeded)
    names = {n.name for n in refined2.nodes}
    assert "KNOWN" in names
    # the matching series was adopted, not re-created as a synthetic node
    assert not any(n.series == chosen.series
                   for n in refined2.nodes if n.origin == "synthetic")
    assert sum(1 for n in refined2.nodes if n.origin == "synthetic") \
        == len(synth) - 1
    assert any(e.src == "KNOWN" or e.dst == "KNOWN" for e in refined2.edges)


def test_refine_flagship_edge(flagship, moonshine_catalog_path):
    """A single edge carrying the degree-12 function between the bundled
    1A and 9B series refines into all three complete chains: the 9B series
    is supported on exponents = 2 (mod 3), so even the x^3-inner split
    re-indexes cleanly (its cube is supported on multiples of 3)."""
    catalog = load_catalog(moonshine_catalog_path.read_bytes())
    nodes = tuple(GraphNode(c.name, c.series, "catalog") for c in catalog)
    graph = RelationGraph(nodes, (GraphEdge("1A", "9B", 12, 3, flagship),))
    refined, report = refine_graph(graph)
    assert len(refined.nodes) == 6
    assert len(refined.edges) == 7
    assert sum(1 for r in report if r["kind"] == "synthetic") == 4
    paths = maximal_chains(refined, "1A", "9B")
    assert [len(p) for p in paths] == [3, 2, 2]
    for path in paths:
        dprod = pprod = 1
        for e in path:
            dprod *= e.degree
            pprod *= e.power
        assert dprod == 12 and pprod == 3
    # the two displayed chains appear with their exact degree/power labels
    labels = [tuple((e.degree, e.power) for e in p) for p in paths]
    assert ((3, 3), (2, 1), (2, 1)) in labels
    assert ((4, 3), (3, 1)) in labels
    # composing the edge functions along any refined path reproduces the
    # original edge function exactly
    for path in paths:
        total = path[-1].fun
        for e in reversed(path[:-1]):
            total = compose(e.fun, total)
        assert total == flagship


def test_refine_skips_split_when_support_does_not_divide_power():
    """When the inner series' power support does not divide the edge
    power, the split is skipped with a warning and the edge is kept.

    For self-consistent data the divisibility essentially always holds
    (the support comes from the same substructure that forces the power),
    so the guard is exercised here with a deliberately inconsistent edge
    label; pre-existing edges are taken at their recorded word."""
    base = self_replicable(4, 2, 40)
    chi = parse_ratfun("(x^2+3*x+1)/(x+4)")
    fun = compose(chi, PHI)  # inner series B(q^2)-twist: support 2
    nodes = (GraphNode("B", base, "catalog"),
             GraphNode("T", base, "catalog"))
    graph = RelationGraph(nodes, (GraphEdge("T", "B", 4, 1, fun),))
    refined, report = refine_graph(graph)
    assert refined.edges == graph.edges
    warnings = [r for r in report if r["kind"] == "warning"]
    assert warnings and all("does-not-divide" in w["reason"]
                            for w in warnings)


def test_refine_warns_once_for_an_edge_it_cannot_split(
        moonshine_catalog_path):
    """An edge whose every split is skipped is warned about and tried
    once, while other edges of the graph keep refining for more rounds."""
    with open(moonshine_catalog_path, "rb") as handle:
        graph, _ = build_graph(load_catalog(handle), 16)
    alone, alone_report = refine_graph(graph)
    base = self_replicable(4, 2, 40)
    extra = GraphEdge("T", "B", 4, 1,
                      compose(parse_ratfun("(x^2+3*x+1)/(x+4)"), PHI))
    nodes = (GraphNode("B", base, "catalog"), GraphNode("T", base, "catalog"))
    refined, report = refine_graph(
        RelationGraph(graph.nodes + nodes, graph.edges + (extra,)))
    assert report == [{"kind": "warning", "from": "T", "to": "B", "r": 1,
                       "reason": "support-2-does-not-divide-r-1"}] \
        + alone_report
    assert refined.nodes == graph.nodes + nodes + alone.nodes[2:]
    assert refined.edges == tuple(sorted(alone.edges + (extra,),
                                         key=lambda e: (e.src, e.dst)))


def test_refine_rejects_inconsistent_edge():
    """A decomposable edge whose endpoint series do not actually satisfy
    the relation fails the split verification loudly."""
    from moondec.errors import VerificationFailureError
    base = self_replicable(4, 2, 40)
    wrong = QSeries.from_coeffs([1, 2, 3, 4, 5, 6, 7, 8, 9, 10] * 3)
    chi = parse_ratfun("(x^2+3*x+1)/(x+4)")
    fun = compose(chi, PHI)
    nodes = (GraphNode("B", base, "catalog"),
             GraphNode("T", wrong, "catalog"))
    graph = RelationGraph(nodes, (GraphEdge("T", "B", 4, 2, fun),))
    with pytest.raises(VerificationFailureError):
        refine_graph(graph)



def test_refine_skips_nodes_not_certified_through_the_identity_key(
        tmp_path, planted_four_catalog):
    """A node with no certified coefficients shares the empty prefix with
    every series; it must not be matched against the intermediate series
    of a split."""
    catalog, funs = planted_four_catalog
    nodes = tuple(GraphNode(c.name, c.series, "catalog") for c in catalog[:2])
    graph = RelationGraph(
        nodes, (GraphEdge("X", "B", 4, 2, compose(funs["chi"], PHI)),))
    blob = export_graph(graph, "jsonlines").decode()
    bare = '{"type":"node","name":"E","coeffs":[]}\n'
    for doc in (blob, bare + blob):
        src, out = tmp_path / "graph.jsonl", tmp_path / "refined.jsonl"
        src.write_text(doc)
        assert main(["graph-refine", "--in", str(src), "--out", str(out)]) == 0
        refined = load_graph(out.read_bytes())
        assert [n.name for n in refined.nodes
                if n.origin == "synthetic"] == ["X1"]
        assert all(e.degree == 2 for e in refined.edges)

# -- chains ----------------------------------------------------------------------

def test_load_graph_rejects_duplicate_or_mislabeled_edges(
        planted_four_catalog):
    catalog, funs = planted_four_catalog
    graph = _planted_four_graph(catalog, funs)
    blob = export_graph(graph, "jsonlines").decode()
    edge_line = next(l for l in blob.splitlines()
                     if '"type":"edge"' in l)
    with pytest.raises(DuplicateNameError):
        load_graph(blob + edge_line + "\n")
    edge = json.loads(edge_line)
    node = json.loads(blob.splitlines()[0])
    line = len(blob.splitlines()) + 1
    malformed = [
        {**edge, "d": edge["d"] + 1},       # label disagrees with f
        {"type": "node"},                   # missing fields
        [1],                                # not an object
        {**edge, "d": "x"},                 # non-integer label
        {**edge, "r": 0},
        {**node, "name": [1]},              # unhashable name
        {**node, "name": "fresh", "coeffs": "1"},
        {**edge, "f": 5},                   # non-string function
        {**edge, "f": "x^"},
        {**edge, "from": None},
        {**edge, "extra": 1},
    ]
    for bad in malformed:
        with pytest.raises(CatalogParseError) as err:
            load_graph(blob + json.dumps(bad) + "\n")
        assert err.value.line == line, bad
    with pytest.raises(CatalogParseError) as err:
        load_graph(blob.encode() + b"\xff\n")
    assert err.value.line == line



@pytest.mark.parametrize("name", ['a"b', "a\\b", "a\nb", "a\tb", "a\x7fb",
                                  "a\x85b", "a\u2028b"])
def test_names_that_break_dot_or_line_output_are_parse_errors(
        capsys, tmp_path, name):
    catalog = tmp_path / "catalog.jsonl"
    catalog.write_text(_record("ok", "1", [1]) + "\n"
                       + _record(name, "1", [2]) + "\n")
    graph = tmp_path / "graph.jsonl"
    graph.write_text('{"type":"node","name":"ok","coeffs":[]}\n'
                     + json.dumps({"type": "node", "name": name,
                                   "coeffs": []}) + "\n")
    for argv in (["graph-build", "--catalog", str(catalog),
                  "--out", str(tmp_path / "out.jsonl")],
                 ["export", "--in", str(graph), "--format", "dot"],
                 ["chains", "--in", str(graph), "--from", "ok", "--to", "ok"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: parse-error: line 2:")
    edge = {"type": "edge", "from": "ok", "to": name, "d": 1, "r": 1,
            "f": "x"}
    with pytest.raises(CatalogParseError) as err:
        load_graph(graph.read_text().splitlines()[0] + "\n"
                   + json.dumps(edge) + "\n")
    assert err.value.line == 2


def test_names_with_spaces_parentheses_and_letters_load_and_export(
        capsys, tmp_path):
    names = ["T 2B (q)", "Γ0(13)+", "ñ"]
    catalog = tmp_path / "catalog.jsonl"
    catalog.write_text("".join(_record(n, "1", [i]) + "\n"
                               for i, n in enumerate(names)))
    assert [c.name for c in load_catalog(catalog.read_bytes())] == names
    graph = tmp_path / "graph.jsonl"
    assert main(["graph-build", "--catalog", str(catalog),
                 "--out", str(graph)]) == 0
    assert main(["export", "--in", str(graph), "--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert all(f'  "{n}";' in dot for n in names)
    assert [n.name for n in load_graph(graph.read_bytes()).nodes] == names

def test_chains_match_brute_force_on_graphs_with_cycles_and_shared_nodes():
    rng = random.Random(91)
    identity = parse_ratfun("x")
    for _ in range(40):
        names = [f"n{i}" for i in range(rng.randint(2, 6))]
        nodes = tuple(GraphNode(n, QSeries.from_coeffs([i]), "catalog")
                      for i, n in enumerate(names))
        edges = sorted({(a, b, rng.randint(1, 2))
                        for _ in range(rng.randint(1, 14))
                        for a, b in [rng.sample(names, 2)]})
        graph = RelationGraph(
            nodes, tuple(GraphEdge(a, b, 1, k, identity) for a, b, k in edges))
        src, dst = names[0], names[-1]
        expected = []
        inner = names[1:-1]
        for size in range(len(inner) + 1):
            for mids in itertools.permutations(inner, size):
                hops = list(zip((src,) + mids, mids + (dst,)))
                choices = [[k for a, b, k in edges if (a, b) == hop]
                           for hop in hops]
                for powers in itertools.product(*choices):
                    expected.append([(a, b, k) for (a, b), k
                                     in zip(hops, powers)])
        expected.sort(key=lambda p: (-len(p), p))
        got = [[(e.src, e.dst, e.power) for e in path]
               for path in maximal_chains(graph, src, dst)]
        assert got == expected


def test_chains_trivial_cases():
    node = GraphNode("a", QSeries.from_coeffs([1]), "catalog")
    other = GraphNode("b", QSeries.from_coeffs([2]), "catalog")
    graph = RelationGraph((node, other), ())
    assert maximal_chains(graph, "a", "a") == [[]]
    assert maximal_chains(graph, "a", "b") == []
    with pytest.raises(UnknownNodeError):
        maximal_chains(graph, "a", "zz")


# -- modular polynomials -----------------------------------------------------------

def test_modular_polynomial_formula():
    x_fun = parse_ratfun("x")
    assert str(modular_polynomial(x_fun, 2, x_fun, 1)) == "x-y"
    f1 = parse_ratfun("(x^2+1)/x")
    f2 = parse_ratfun("x^3")
    p = modular_polynomial(f1, 1, f2, 2)
    assert str(p) == "x^2-x*y^3+1"
    with pytest.raises(IdenticalPowersError):
        modular_polynomial(f1, 2, f2, 2)


def test_modular_polynomial_is_shared_value_resultant():
    """The cross-product formula equals the resultant eliminating the
    shared series value t from f1(x) = t = f2(y); the second f1 has a
    numerator and a denominator with different non-integer denominators."""
    import sympy as sp
    t, x, y = sp.symbols("t x y")

    def poly_sym(poly, var):
        return sum(sp.Rational(c) * var ** i
                   for i, c in enumerate(poly.coeffs))

    for f1_text, f2_text in (("(x^2+3*x+1)/(x+4)", "x^2+4*x+2"),
                             ("(x^2/3+x+1/2)/(x+5/7)", "(x^2/2+4*x)/(x+1/3)")):
        f1, f2 = parse_ratfun(f1_text), parse_ratfun(f2_text)
        p = modular_polynomial(f1, 1, f2, 2)
        a = poly_sym(f1.num, x) - t * poly_sym(f1.den, x)
        b = poly_sym(f2.num, y) - t * poly_sym(f2.den, y)
        eliminated = sp.expand(sp.resultant(a, b, t))
        mine = sp.expand(sum(poly_sym(c, y) * x ** i
                             for i, c in enumerate(p.coeffs)))
        ratio = sp.simplify(eliminated / mine)
        assert ratio.is_constant() and ratio != 0


def test_bivariate_text():
    q = PolyOverPoly.from_coeffs([Poly.from_coeffs([7, 5, -1]), ONE])
    assert bivariate_text(q) == "x-y^2+5*y+7"


def test_modular_polynomial_vanishes_on_planted_double():
    base = self_replicable(4, 2, 40)
    p = modular_polynomial(parse_ratfun("x"), 2, PHI, 1)
    value = eval_modular_polynomial(p, substitute_power(base, 2),
                                    base.to_laurent())
    assert value.is_zero


# -- export / import ----------------------------------------------------------------

def test_export_dot_shape(flagship, moonshine_catalog_path):
    catalog = load_catalog(moonshine_catalog_path.read_bytes())
    nodes = tuple(GraphNode(c.name, c.series, "catalog") for c in catalog)
    graph = RelationGraph(nodes, (GraphEdge("1A", "9B", 12, 3, flagship),))
    text = export_graph(graph, "dot").decode()
    assert '"1A" -> "9B" [label="d=12,r=3"];' in text
    assert text.startswith("digraph relations {")
    refined, _ = refine_graph(graph)
    dot = export_graph(refined, "dot").decode()
    assert "style=dashed" in dot


def test_export_empty_graph():
    graph = RelationGraph((), ())
    assert export_graph(graph, "dot").decode() == "digraph relations {\n}\n"
    assert export_graph(graph, "jsonlines").decode() == "\n"


def test_jsonlines_round_trip(planted_four_catalog):
    catalog, funs = planted_four_catalog
    graph = _planted_four_graph(catalog, funs)
    refined, _ = refine_graph(graph)
    for g in (graph, refined):
        blob = export_graph(g, "jsonlines")
        assert load_graph(blob) == g
        assert export_graph(load_graph(blob), "jsonlines") == blob


def _seeded_graph(rng, size):
    """Nodes N0..N(size-1) and random edges, self-loops, cycles and
    parallel powers included; edge k carries x^4 + k*x^2 (it splits) or
    x^3 + k*x (prime degree), so a decomposition names its edge."""
    names = [f"N{i}" for i in range(size)]
    series = QSeries.from_coeffs([0])
    nodes = tuple(GraphNode(n, series, "catalog") for n in names)
    edges = {}
    for k in range(1, rng.randint(0, 3 * size) + 1):
        src, dst, power = rng.choice(names), rng.choice(names), rng.randint(1, 2)
        if (src, dst, power) in edges:
            continue
        split = rng.random() < 0.4
        fun = parse_ratfun(f"x^4+{k}*x^2" if split else f"x^3+{k}*x")
        edges[(src, dst, power)] = GraphEdge(src, dst, fun.degree, power, fun)
    return names, RelationGraph(nodes, tuple(edges.values()))


def _walk_names(start, edges, forward):
    seen, todo = {start}, [start]
    while todo:
        node = todo.pop()
        for e in edges:
            a, b = (e.src, e.dst) if forward else (e.dst, e.src)
            if a == node and b not in seen:
                seen.add(b)
                todo.append(b)
    return seen


def test_chains_pruning_matches_the_all_edges_search(monkeypatch):
    """maximal_chains decomposes only edges on some src -> dst walk, and
    finds every path that the search over all edges finds, on seeded
    graphs with cycles, unreachable edges, edges out of dst and into src,
    src == dst and unknown names."""
    from moondec import graph as graph_module
    from moondec.decompose import decompose_one_level
    from oracles import all_edges_chains

    decomposed = []

    def counted(fun):
        decomposed.append(fun)
        return decompose_one_level(fun)

    monkeypatch.setattr(graph_module, "decompose_one_level", counted)
    splits = {}

    def oracle_splits(e):
        if e.fun not in splits:
            splits[e.fun] = bool(decompose_one_level(e.fun))
        return splits[e.fun]

    rng = random.Random(2101)
    pruned_some = False
    for _ in range(60):
        names, graph = _seeded_graph(rng, rng.randint(1, 7))
        for src in names + ["nowhere"]:
            for dst in names + ["nowhere"]:
                decomposed.clear()
                try:
                    want = all_edges_chains(names, graph.edges, src, dst,
                                            oracle_splits)
                except KeyError:
                    with pytest.raises(UnknownNodeError):
                        maximal_chains(graph, src, dst)
                    continue
                assert maximal_chains(graph, src, dst) == want
                reach = _walk_names(src, graph.edges, True)
                back = _walk_names(dst, graph.edges, False)
                on_walk = {e.fun for e in graph.edges
                           if e.src in reach and e.dst in back}
                assert set(decomposed) <= on_walk
                pruned_some |= len(on_walk) < len(graph.edges)
    assert pruned_some


def test_eval_modular_polynomial_matches_per_coefficient_horner():
    """One table of ys's powers gives each coefficient of P the value and
    precision of its own Horner evaluation in ys."""
    from moondec.series import ZERO_SERIES, GeneralLaurent
    from oracles import horner_eval

    rng = random.Random(2102)
    for case in range(60):
        coeffs = [Poly.from_coeffs([Fraction(rng.randint(-9, 9),
                                             rng.randint(1, 3))
                                    for _ in range(rng.randint(0, 9))])
                  for _ in range(rng.randint(1, 6))]
        p = PolyOverPoly.from_coeffs(coeffs)
        xs, ys = (GeneralLaurent.make(
            lead, [rng.choice([1, -2, 3])]
            + [rng.randint(-4, 4) for _ in range(length)], lead + length)
            for lead, length in ((rng.randint(-2, 1), rng.randint(0, 12)),
                                 (rng.randint(-2, 1), rng.randint(0, 12))))
        want = ZERO_SERIES
        for c in reversed(p.coeffs):
            want = want * xs + horner_eval(c, ys)
        assert eval_modular_polynomial(p, xs, ys) == want


@pytest.mark.parametrize("verb", [
    ["graph-build", "--catalog", "{doc}", "--out", "{out}"],
    ["relate", "--catalog", "{doc}", "--from", "1A", "--to", "9B"],
    ["chains", "--in", "{doc}", "--from", "1A", "--to", "9B"],
])
def test_non_ascii_digits_in_a_rational_are_a_parse_error(
        capsys, tmp_path, moonshine_catalog_path, verb):
    """Catalog and graph rationals take ASCII digits only: int() and the
    regex class \\d would both read the Arabic-Indic digit three as 3."""
    if verb[0] == "chains":
        doc = tmp_path / "graph.jsonl"
        assert main(["graph-build", "--catalog", str(moonshine_catalog_path),
                     "--out", str(doc)]) == 0
    else:
        doc = moonshine_catalog_path
    lines = doc.read_text(encoding="utf-8").splitlines()
    lineno = max(i for i, line in enumerate(lines, 1)
                 if '"coeffs"' in line)
    rec = json.loads(lines[lineno - 1])
    rec["coeffs"][3] = "٣"
    lines[lineno - 1] = json.dumps(rec)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = [a.format(doc=bad, out=tmp_path / "out.jsonl") for a in verb]
    capsys.readouterr()
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith(
        f"error: parse-error: line {lineno}: not a rational literal: ")


@pytest.mark.parametrize("field", ["coeffs", "area", "lead", "node"])
def test_literals_with_a_trailing_newline_are_a_parse_error(
        capsys, tmp_path, moonshine_catalog_path, field):
    """A rational is -?[0-9]+(/[0-9]+)? and nothing more: '$' also matches
    before a final newline, so the literal regex must match the whole
    text."""
    rec = {"name": "A", "area": "1", "coeffs": ["744", "0"]}
    if field == "coeffs":
        rec["coeffs"][0] = "744\n"
    elif field == "lead":
        rec["lead"] = "1\n"
    else:
        rec["area"] = "1\n"
    doc = tmp_path / "doc.jsonl"
    doc.write_text("# one record\n" + json.dumps(rec) + "\n", encoding="utf-8")
    lineno = 2
    argv = ["relate", "--catalog", str(doc), "--from", "A", "--to", "A"]
    if field == "node":
        graph = tmp_path / "graph.jsonl"
        assert main(["graph-build", "--catalog", str(moonshine_catalog_path),
                     "--out", str(graph)]) == 0
        lines = graph.read_text(encoding="utf-8").splitlines()
        lineno = 1 + next(i for i, line in enumerate(lines)
                          if line.startswith('{"type":"node"'))
        node = json.loads(lines[lineno - 1])
        node["coeffs"][0] += "\n"
        lines[lineno - 1] = json.dumps(node)
        doc.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["chains", "--in", str(doc), "--from", "1A", "--to", "9B"]
    capsys.readouterr()
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith(
        f"error: parse-error: line {lineno}: not a rational literal: ")
    assert err.rstrip("\n").endswith("\\n'")


def _coeffs_or_error(read, value):
    """The values with their types, or the CatalogParseError's text and
    line."""
    try:
        coeffs = read(value, 7)
    except CatalogParseError as exc:
        return "error", str(exc), exc.line
    return [(type(c), c) for c in coeffs]


def _per_item(value, lineno):
    from moondec.graph import _parse_rational
    return [_parse_rational(c, lineno) for c in value]


def test_bulk_coefficient_read_matches_the_per_item_loop():
    """_parse_coeffs reads integer lists in bulk; on every list it must
    give what _parse_rational gives entry by entry, or the same error."""
    from moondec.graph import _parse_coeffs
    long_literal = "7" * 5000  # over int()'s default digit limit
    odd = ["٣", "+5", " 5", "5\n", "1,2", "-0", "007", "1/0", "", "-",
           "5-3", "1_000", "\ud800", long_literal, 5, None, [1], 2.5]
    cases = [[], ["744", "-196884", "0", "21493760"],
             ["744", "-65/11", "0", "3/4"]]
    cases += [[v] for v in odd] + [["1", v, "-2"] for v in odd]
    rng = random.Random(26)
    alphabet = "0123456789--/ +\n,٣"
    cases += [["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
               for _ in range(rng.randint(1, 4))] for _ in range(500)]
    for value in cases:
        assert _coeffs_or_error(_parse_coeffs, value) == \
            _coeffs_or_error(_per_item, value), value
    with pytest.raises(CatalogParseError, match="coeffs must be an array"):
        _parse_coeffs("744", 7)
