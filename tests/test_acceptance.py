"""Acceptance criteria, one test per criterion (run with -v for the list).

Each test prints an ``ACCEPTANCE n: ...`` line.  Two criteria contain one
clause each whose literal expected value contradicts what exact
computation provably yields on this data; those clauses are implemented
verbatim in dedicated strict-xfail tests (1b, 3b) with the witness in the
reason string, so they are exercised, visibly reported, and would flag
loudly if the mathematics ever came out differently.  The decisions log
outside the package carries the full analysis.
"""

import random
import time
from functools import reduce

import pytest

from moondec.decompose import all_chains, chains_equivalent, decompose_one_level
from moondec.graph import (
    GraphEdge,
    GraphNode,
    RelationGraph,
    eval_modular_polynomial,
    load_catalog,
    maximal_chains,
    modular_polynomial,
    refine_graph,
)
from moondec.parsing import parse_ratfun
from moondec.polynomials import Poly, poly_divrem
from moondec.ratfun import (
    RatFun,
    compose,
    is_normal_form,
    to_normal_form,
    unit_inverse,
)
from moondec.relations import find_all_relations, find_relation
from moondec.series import (
    QSeries,
    eval_ratfun_at_series,
    inner_series_solve,
    substitute_power,
)
from oracles import j_expansion
from planting import plant, self_replicable


def _report(n, text):
    line = f"ACCEPTANCE {n}: {text}"
    print(line)
    import conftest
    conftest.ACCEPTANCE_LINES.append(line)


def test_criterion_1_flagship_decomposition(flagship):
    """Both displayed complete chains (lengths 3 and 2) are returned with
    exact recomposition, pairwise inequivalent, in under five seconds."""
    start = time.monotonic()
    chains = all_chains(flagship)
    elapsed = time.monotonic() - start
    for chain in chains:
        assert reduce(compose, chain) == flagship
    lengths = sorted(len(c) for c in chains)
    assert lengths.count(3) == 1 and 2 in lengths
    displayed_long = [parse_ratfun("x^3"), parse_ratfun("x*(x-12)/(x-3)"),
                      parse_ratfun("x*(x+6)/(x-3)")]
    displayed_short = [parse_ratfun("x^3*(x+24)/(x-3)"),
                       parse_ratfun("x*(x^2-6*x+36)/(x^2+3*x+9)")]
    assert any(chains_equivalent(displayed_long, c) for c in chains)
    assert any(chains_equivalent(displayed_short, c) for c in chains)
    for i in range(len(chains)):
        for j in range(i + 1, len(chains)):
            assert not chains_equivalent(chains[i], chains[j])
    assert elapsed < 5.0
    _report(1, f"PASS (both displayed chains, lengths 3 and 2, exact "
               f"recomposition, {elapsed:.2f}s; complete chain count is "
               f"{len(chains)}, see 1b)")


@pytest.mark.xfail(
    strict=True,
    reason="the stated count is exactly two complete chains, but a third "
           "genuine chain exists: with F = x*(x+216)^3/(x-27)^3, the "
           "identity F o x^3 = f holds exactly (F is indecomposable and "
           "no unit links x^3 to the displayed degree-3 inner), so any "
           "complete enumeration returns three chains")
def test_criterion_1b_chain_count_as_stated(flagship):
    chains = all_chains(flagship)
    assert len(chains) == 2


def test_criterion_2_bundled_j_coefficients(moonshine_catalog_path):
    entries = load_catalog(moonshine_catalog_path.read_bytes())
    j = next(e for e in entries if e.name == "1A")
    expected = [744, 196884, 21493760, 864299970, 20245856256]
    assert list(j.series.coeffs[:5]) == expected
    # and the whole bundled expansion agrees with the independent
    # Eisenstein/eta construction
    assert list(j.series.coeffs) == j_expansion(j.series.prec)
    _report(2, "PASS (bundled 1A series matches the classical expansion)")


def test_criterion_3_moonshine_round_trip(flagship, moonshine_catalog_path):
    start = time.monotonic()
    entries = load_catalog(moonshine_catalog_path.read_bytes())
    j = next(e for e in entries if e.name == "1A").series
    assert j.prec >= 25
    target = substitute_power(j, 3)
    partner = inner_series_solve(flagship, target)  # exists over Q
    forward = eval_ratfun_at_series(flagship, partner)
    bound = min(forward.prec, target.prec)
    assert bound >= 25
    assert all(forward.coeff(k) == target.coeff(k)
               for k in range(-3, bound + 1))
    partner = partner.truncate(25)
    relations = find_all_relations(j.truncate(25), partner, 12)
    assert any(rel.r == 3 and rel.f == flagship for rel in relations)
    first = find_relation(j.truncate(25), partner, 12)
    assert first is not None
    diff = substitute_power(j.truncate(25), first.r) - \
        eval_ratfun_at_series(first.f, partner)
    assert diff.is_zero  # lowest-r result verifies on every certified term
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(3, f"PASS (partner series exists over Q and the exhaustive "
               f"search recovers r=3 with exactly the displayed function, "
               f"{elapsed:.1f}s; lowest verified power is r={first.r}, "
               f"see 3b)")


@pytest.mark.xfail(
    strict=True,
    reason="the first-success r-loop is specified to return the lowest "
           "verified power, and the derived partner series genuinely "
           "satisfies a degree-12 relation already at r=1 (verified "
           "through the full certified range), so find_relation returns "
           "r=1, not r=3; the r=3 relation with the displayed function is "
           "recovered by the exhaustive all-r search")
def test_criterion_3b_first_success_returns_r3_as_stated(
        flagship, moonshine_catalog_path):
    entries = load_catalog(moonshine_catalog_path.read_bytes())
    j = next(e for e in entries if e.name == "1A").series
    partner = inner_series_solve(flagship, substitute_power(j, 3))
    rel = find_relation(j.truncate(25), partner.truncate(25), 12)
    assert rel is not None and rel.r == 3 and rel.f == flagship


def test_criterion_4_relation_recovery_50():
    start = time.monotonic()
    rng = random.Random(440)
    recovered = 0
    for _ in range(50):
        e = rng.randint(2, 8)
        r = rng.randint(1, e)
        s1, s2, f = plant(rng, e, r)
        rel = find_relation(s1, s2, e)
        assert rel is not None
        assert (rel.r, rel.f) == (r, f)
        assert rel.f.num.lc == 1 and rel.f.num.degree == e
        assert rel.f.den.lc == 1 and rel.f.den.degree == e - r
        recovered += 1
    elapsed = time.monotonic() - start
    assert recovered == 50
    assert elapsed < 60.0
    _report(4, f"PASS (50/50 planted relations recovered exactly, "
               f"{elapsed:.1f}s)")


def _random_component(rng):
    while True:
        deg = rng.randint(2, 3)
        num = Poly.from_coeffs([rng.randint(-5, 5) for _ in range(deg)] + [1])
        dd = rng.randint(0, deg - 1)
        den = Poly.from_coeffs([rng.randint(-5, 5) for _ in range(dd)] + [1])
        try:
            f = RatFun.make(num, den)
        except Exception:
            continue
        if f.degree == deg:
            return f


def _random_prime_degree(rng):
    while True:
        deg = rng.choice([2, 3, 5, 7])
        num = Poly.from_coeffs([rng.randint(-5, 5) for _ in range(deg)] + [1])
        dd = rng.randint(0, deg - 1)
        den = Poly.from_coeffs([rng.randint(-5, 5) for _ in range(dd)] + [1])
        try:
            f = RatFun.make(num, den)
        except Exception:
            continue
        if f.degree == deg:
            return f


def test_criterion_5_decomposition_soundness_and_prime_emptiness():
    rng = random.Random(550)
    for _ in range(100):
        g = _random_component(rng)
        h = _random_component(rng)
        decs = decompose_one_level(compose(g, h))
        assert any(chains_equivalent(d, (g, h)) for d in decs)
    for _ in range(100):
        f = _random_prime_degree(rng)
        assert decompose_one_level(f) == ()
    _report(5, "PASS (100/100 planted composites found, 100/100 prime "
               "degrees indecomposable)")


def test_criterion_6_theorem_checks(flagship):
    rng = random.Random(660)
    produced = []
    targets = [flagship, parse_ratfun("x^4"), parse_ratfun("x^8"),
               parse_ratfun("x^6/(x^2+1)^2")]
    for _ in range(30):
        targets.append(compose(_random_component(rng),
                               _random_component(rng)))
    for f in targets:
        produced.extend((f, d) for d in decompose_one_level(f))
    assert produced
    checked = 0
    for f, (outer, inner) in produced:
        assert compose(outer, inner) == f
        if is_normal_form(f) and is_normal_form(inner):
            assert poly_divrem(f.num, inner.num)[1].is_zero
            assert poly_divrem(f.den, inner.den)[1].is_zero
            checked += 1
    assert checked >= 10
    round_trips = 0
    for f, _ in produced:
        u, v, fbar = to_normal_form(f)
        assert is_normal_form(fbar)
        back = compose(compose(unit_inverse(u), fbar), unit_inverse(v))
        assert back == f
        round_trips += 1
    _report(6, f"PASS (inner divisibility on {checked} normal "
               f"decompositions, {round_trips} exact normalization "
               f"round trips)")


def test_criterion_7_refinement_conservation():
    base = self_replicable(4, 2, 40)
    phi = parse_ratfun("x^2+4*x+2")
    chi = parse_ratfun("(x^2+3*x+1)/(x+4)")
    psi = parse_ratfun("(x^2-2*x+5)/(x+1)")
    gamma = parse_ratfun("(x^2+x-3)/(x+2)")
    x_series = QSeries.from_laurent(eval_ratfun_at_series(chi, base))
    y_series = QSeries.from_laurent(eval_ratfun_at_series(psi, base))
    d2_series = QSeries.from_laurent(
        eval_ratfun_at_series(compose(gamma, psi), base))
    nodes = (GraphNode("B", base, "catalog"),
             GraphNode("X", x_series, "catalog"),
             GraphNode("Y", y_series, "catalog"),
             GraphNode("D2", d2_series, "catalog"))
    edges = (GraphEdge("X", "B", 4, 2, compose(chi, phi)),
             GraphEdge("Y", "B", 2, 1, psi),
             GraphEdge("D2", "B", 4, 1, compose(gamma, psi)),
             GraphEdge("D2", "Y", 2, 1, gamma))
    graph = RelationGraph(nodes, edges)
    refined, report = refine_graph(graph)
    again, _ = refine_graph(refined)
    assert again == refined  # fixpoint
    for (src, dst), (deg, power) in {("X", "B"): (4, 2),
                                     ("D2", "B"): (4, 1)}.items():
        paths = maximal_chains(refined, src, dst)
        assert paths
        for path in paths:
            dprod = pprod = 1
            for e in path:
                dprod *= e.degree
                pprod *= e.power
            assert (dprod, pprod) == (deg, power)
    # composing along the refined X->B path reproduces the planted function
    for path in maximal_chains(refined, "X", "B"):
        total = path[-1].fun
        for e in reversed(path[:-1]):
            total = compose(e.fun, total)
        assert total == compose(chi, phi)
    by_name = {n.name: n for n in refined.nodes}
    synthetic = [n for n in refined.nodes if n.origin == "synthetic"]
    assert synthetic
    for node in synthetic:
        incident = [e for e in refined.edges
                    if e.src == node.name or e.dst == node.name]
        assert len(incident) >= 2
        for e in incident:
            diff = substitute_power(by_name[e.src].series, e.power) - \
                eval_ratfun_at_series(e.fun, by_name[e.dst].series)
            assert diff.is_zero
    _report(7, f"PASS (fixpoint, conserved labels, {len(synthetic)} "
               f"synthetic nodes verified on both sides)")


def test_criterion_8_modular_polynomial_vanishes():
    base = self_replicable(4, 2, 40)
    phi = parse_ratfun("x^2+4*x+2")
    # planted double relation: s1 := base(q^2) equals identity(base(q^2))
    # and phi(base(q)), i.e. k1 = 2 with f1 = x and k2 = 1 with f2 = phi
    p = modular_polynomial(parse_ratfun("x"), 2, phi, 1)
    value = eval_modular_polynomial(p, substitute_power(base, 2),
                                    base.laurent)
    assert value.is_zero
    # the certified range is capped by the phi(y) side of the evaluation
    assert value.prec >= base.prec - 2
    _report(8, f"PASS (P(s(q^2), s(q)) vanishes through q^{value.prec})")


def test_criterion_9_declared_replacements():
    """The full-scale computation (2419 relations, the degree histogram,
    the 619-node graph and the multi-hour runtimes) needs the complete
    replicable-function catalog, which is not part of this artifact; the
    property-based criteria 4-8 and the anchored instances 1-3 stand in
    for it, as declared."""
    _report(9, "DECLARED (full-scale run replaced by criteria 1-8)")
