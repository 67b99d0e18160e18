"""The benchmark's tracer finds every library function it wraps.

``perfbench/tracer.py`` only reports a missing target on stderr, so a
renamed or deleted function would silently drop a traced layer.  The
tracer module is loaded read-only: nothing is wrapped by it here.  Its
self-test also expects the decompose workload to reach every layer it
lists, so the layers that decomposition reaches only through
``chains_equivalent`` are checked with counting wrappers, and so are the
layers that a catalog relation scan reaches only past its leading-block
rejection, or that ``relate`` reaches only under ``--verify``.
"""

import importlib
import importlib.util
import inspect
from fractions import Fraction
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer():
    return _load_module("perfbench_tracer", TRACER)


def _count_calls(monkeypatch, calls, module, name):
    """Wrap ``module.name`` so that each call adds one to ``calls[name]``."""
    inner = getattr(module, name)

    def wrapper(*args):
        calls[name] = calls.get(name, 0) + 1
        return inner(*args)

    monkeypatch.setattr(module, name, wrapper)


def test_every_traced_target_resolves():
    for name, module_name, attr, _ in _tracer().TARGETS:
        holder = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(holder, part), f"{name}: {module_name}.{attr}"
            holder = getattr(holder, part)
        assert callable(holder), name


def test_chains_cache_can_be_cleared():
    from moondec import decompose
    decompose._chains_cached.cache_clear()


def test_solve_linear_takes_a_system_with_a_matrix():
    from moondec.relations import LinearSystem, solve_linear
    assert list(inspect.signature(solve_linear).parameters) == ["system"]
    system = LinearSystem(((Fraction(2), Fraction(1)),
                           (Fraction(1), Fraction(-1))),
                          (Fraction(3), Fraction(0)))
    assert system.matrix[0] == (2, 1)
    assert solve_linear(system) == [1, 1]


def test_flagship_chains_reach_nullspace_and_row_echelon(monkeypatch, flagship):
    from moondec import _kernels, decompose, linalg
    calls = {}
    _count_calls(monkeypatch, calls, linalg, "nullspace")
    _count_calls(monkeypatch, calls, _kernels, "row_echelon")
    decompose._chains_cached.cache_clear()
    decompose.all_chains(flagship)
    assert calls.get("nullspace", 0) >= 1
    assert calls.get("row_echelon", 0) >= 1


def test_flagship_chains_still_reach_poly_gcd(monkeypatch, flagship):
    # compose and polynomial-only RatFun arithmetic no longer take a gcd,
    # but the traced self-test lists polynomials.poly_gcd for decompose
    from moondec import decompose, polynomials, ratfun
    calls = []
    inner = polynomials.poly_gcd

    def wrapper(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(polynomials, "poly_gcd", wrapper)
    monkeypatch.setattr(ratfun, "poly_gcd", wrapper)
    decompose._chains_cached.cache_clear()
    decompose.all_chains(flagship)
    assert calls


def test_catalog_scan_still_reaches_the_full_solve(monkeypatch,
                                                   moonshine_catalog_path):
    # leading blocks reject most r before a full system is built, but the
    # traced catalog self-test lists solve_linear, nullspace and row_echelon
    from moondec import _kernels, linalg, relations
    from moondec.graph import load_catalog
    calls = {}
    _count_calls(monkeypatch, calls, relations, "solve_linear")
    _count_calls(monkeypatch, calls, linalg, "nullspace")
    _count_calls(monkeypatch, calls, _kernels, "row_echelon")
    with open(moonshine_catalog_path, "rb") as handle:
        series = {c.name: c.series for c in load_catalog(handle)}
    found = relations.find_all_relations(series["1A"], series["9B"], 12)
    assert [rel.r for rel in found] == [1, 3, 9]
    assert calls.get("nullspace", 0) >= 1
    assert calls.get("row_echelon", 0) >= 1
    assert 1 <= calls.get("solve_linear", 0) < 12


def test_relate_evaluates_f_only_under_verify(monkeypatch, capsys,
                                              moonshine_catalog_path):
    # the scan trusts its solved system; --verify re-evaluates f(s2) once
    # per printed relation, which keeps eval_ratfun_at_series and
    # laurent_div in the traced catalog self-test
    from moondec import cli, relations, series
    argv = ["relate", "--catalog", str(moonshine_catalog_path),
            "--from", "1A", "--to", "9B", "--all-r"]
    for verify in (False, True):
        calls = {}
        with monkeypatch.context() as patch:
            for module in (series, relations):
                _count_calls(patch, calls, module, "eval_ratfun_at_series")
            _count_calls(patch, calls, series.GeneralLaurent, "__truediv__")
            code = cli.main(argv + ["--verify"] * verify)
        printed = capsys.readouterr().out.splitlines()
        assert code == 0 and len(printed) == 3, printed
        assert calls.get("eval_ratfun_at_series", 0) == \
            (len(printed) if verify else 0), calls
        if verify:
            assert calls.get("__truediv__", 0) >= 1, calls


def _bundled_series(path, cut=None):
    from moondec.graph import load_catalog
    with open(path, "rb") as handle:
        return {c.name: c.series.truncate(cut) if cut else c.series
                for c in load_catalog(handle)}


def test_block_that_is_the_full_system_is_built_once(monkeypatch,
                                                     moonshine_catalog_path):
    # certified only through q^(2e+1), the leading block holds every row
    # of the full system: each r is built and eliminated once
    from moondec import relations
    series = _bundled_series(moonshine_catalog_path, 25)
    calls = {}
    _count_calls(monkeypatch, calls, relations, "_build_system")
    found = relations.find_all_relations(series["1A"], series["9B"], 12)
    assert [rel.r for rel in found] == [1, 3, 9]
    assert calls["_build_system"] == 12


def test_every_block_takes_the_rank_test_before_any_solve(
        monkeypatch, moonshine_catalog_path):
    # certified only through q^(2e+1), each block is the full system; the
    # rank test modulo the prime still runs first on every one of them,
    # and only the blocks it cannot reject are solved exactly
    from moondec import linalg, relations
    series = _bundled_series(moonshine_catalog_path, 25)
    calls = {}
    _count_calls(monkeypatch, calls, linalg, "independent_lead")
    _count_calls(monkeypatch, calls, relations, "solve_linear")
    found = relations.find_all_relations(series["1A"], series["9B"], 12)
    assert [(rel.r, rel.verified_to) for rel in found] == \
        [(1, 25), (3, 23), (9, 17)]
    assert calls == {"independent_lead": 12, "solve_linear": 3}


def test_relation_scan_grows_one_table_of_powers(monkeypatch,
                                                moonshine_catalog_path):
    # the leading blocks and the full systems of one scan are built from
    # one table of s2's powers, and each power is built once
    from moondec import relations
    series = _bundled_series(moonshine_catalog_path)
    tables, built = [], []
    series_powers = relations.series_powers

    def counting_powers(s, top, powers=None):
        # a new table starts with s^0, which is no product
        before = len(powers) if powers is not None else 1
        out = series_powers(s, top, powers)
        if not any(out is t for t in tables):
            tables.append(out)
        built.append(len(out) - before)
        return out

    monkeypatch.setattr(relations, "series_powers", counting_powers)
    found = relations.find_all_relations(series["1A"], series["9B"], 12)
    assert [rel.r for rel in found] == [1, 3, 9]
    assert len(tables) == 1
    # the table starts at s2^0; every higher power is appended once
    assert sum(built) == len(tables[0]) - 1 <= 12


def test_modpoly_scan_skips_powers_with_a_relation(monkeypatch, capsys,
                                                   moonshine_catalog_path):
    # a power that has a relation at a lower degree is not scanned again
    # (its system would be underdetermined), and s2's full-precision
    # powers are one table for the whole op, each power built once
    from moondec import cli, errors, linalg, relations
    prec = _bundled_series(moonshine_catalog_path)["9B"].prec
    raised, tables, built = [], [], []
    solve_unique, series_powers = linalg.solve_unique, relations.series_powers

    def counting_solve(*args):
        try:
            return solve_unique(*args)
        except errors.UnderdeterminedSystemError:
            raised.append(1)
            raise

    def counting_powers(s, top, powers=None):
        before = len(powers) if powers is not None else 0
        out = series_powers(s, top, powers)
        if s.prec == prec:
            if not any(out is t for t in tables):
                tables.append(out)
            built.append(len(out) - before)
        return out

    monkeypatch.setattr(linalg, "solve_unique", counting_solve)
    monkeypatch.setattr(relations, "series_powers", counting_powers)
    code = cli.main(["modpoly", "--catalog", str(moonshine_catalog_path),
                     "--target", "9B", "--emax", "12"])
    printed = capsys.readouterr().out.splitlines()
    assert code == 0 and printed, printed
    assert raised == []
    assert len(tables) == 1
    # the table starts at s2^0; every higher power is appended once
    assert sum(built) == len(tables[0]) - 1 <= 12


def test_modpoly_builds_one_leading_block_per_source_and_power(
        monkeypatch, capsys, moonshine_catalog_path):
    # the degree driver eliminates one block per (source, r), built at the
    # top degree, instead of one per degree: 2 sources x 14 powers, where
    # the per-degree scan built 191; it solves exactly no more often (4)
    from moondec import cli, relations
    build, blocks, calls = relations._build_system, [], {}

    def recording_build(s1, e, r, powers, *cap):
        if cap:
            blocks.append((id(s1), r, e, *cap))
        return build(s1, e, r, powers, *cap)

    monkeypatch.setattr(relations, "_build_system", recording_build)
    _count_calls(monkeypatch, calls, relations, "solve_linear")
    code = cli.main(["modpoly", "--catalog", str(moonshine_catalog_path),
                     "--target", "9B", "--emax", "14"])
    printed = capsys.readouterr().out.splitlines()
    assert code == 0 and len(printed) == 3, printed
    assert len(blocks) == 28
    assert len({(s1, r) for s1, r, _, _ in blocks}) == 28
    assert {(e, cap) for _, _, e, cap in blocks} == {(14, 16)}
    assert calls == {"solve_linear": 4}


def test_relate_emax_builds_one_leading_block_per_power(
        monkeypatch, capsys, moonshine_catalog_path):
    # with no natural area quotient, relate --emax eliminates one block
    # per r, built at the top degree, where a scan of each degree built
    # one per (degree, r): 14 against 105; no system survives to a solve
    from moondec import cli, relations
    build, blocks, calls = relations._build_system, [], {}

    def recording_build(s1, e, r, powers, *cap):
        if cap:
            blocks.append((r, e, *cap))
        return build(s1, e, r, powers, *cap)

    monkeypatch.setattr(relations, "_build_system", recording_build)
    _count_calls(monkeypatch, calls, relations, "solve_linear")
    code = cli.main(["relate", "--catalog", str(moonshine_catalog_path),
                     "--from", "9B", "--to", "1A", "--emax", "14"])
    assert (code, capsys.readouterr().out) == (3, "none\n")
    assert sorted(blocks) == [(r, 14, 16) for r in range(1, 15)]
    assert calls == {}


def test_relate_emax_builds_each_power_of_the_target_once(
        monkeypatch, capsys, moonshine_catalog_path):
    # with no natural area quotient, relate --emax scans every degree up
    # to the bound; one table of the target's powers serves them all
    from moondec import cli, relations
    prec = _bundled_series(moonshine_catalog_path)["1A"].prec
    tables, built = [], []
    series_powers = relations.series_powers

    def counting_powers(s, top, powers=None):
        before = len(powers) if powers is not None else 1
        out = series_powers(s, top, powers)
        if s.prec == prec:
            if not any(out is t for t in tables):
                tables.append(out)
            built.append(len(out) - before)
        return out

    monkeypatch.setattr(relations, "series_powers", counting_powers)
    code = cli.main(["relate", "--catalog", str(moonshine_catalog_path),
                     "--from", "9B", "--to", "1A", "--emax", "12"])
    assert (code, capsys.readouterr().out) == (3, "none\n")
    assert len(tables) == 1
    # the table starts at 1A^0; every higher power is appended once
    assert sum(built) == len(tables[0]) - 1 == 12


def test_refined_benchmark_graph_reads_literals_one_by_one_only_for_x1(
        monkeypatch):
    # integer coefficient lists are read in bulk: of the refined graph of
    # the benchmark's catalog, only X1 = 5B - 65/11 goes through
    # _parse_rational, once per coefficient
    from moondec import graph
    gen = _load_module("perfbench_gen", TRACER.with_name("gen.py"))
    catalog = graph.load_catalog(gen.jsonl(gen.catalog_records()))
    refined, _ = graph.refine_graph(graph.build_graph(catalog, 30)[0])
    doc = graph.export_graph(refined, "jsonlines")
    lines = doc.decode().splitlines()
    x1 = 1 + next(i for i, line in enumerate(lines) if '"name":"X1"' in line)
    assert "-65/11" in lines[x1 - 1]
    seen = []
    inner = graph._parse_rational

    def counting(text, lineno):
        seen.append(lineno)
        return inner(text, lineno)

    monkeypatch.setattr(graph, "_parse_rational", counting)
    assert graph.load_graph(doc) == refined
    assert (len(refined.nodes), len(refined.edges)) == (12, 14)
    assert set(seen) == {x1}
    assert len(seen) == gen.CATALOG_PREC + 1


def test_refine_degree_30_factor_lifts_its_largest_factor_only_at_the_root(
        monkeypatch):
    # graph-refine factors the normal form of the degree-30 edge 1A->25B of
    # the benchmark's catalog; its numerator over x splits mod 7 into
    # factors of degree [1, 4, 4, 20].  Balanced by degree, the root pair
    # lift splits off the degree-20 factor, and no node below lifts it.
    from moondec import factorization, graph, ratfun
    from moondec._kernels import pm_monic
    gen = _load_module("perfbench_gen", TRACER.with_name("gen.py"))
    catalog = graph.load_catalog(gen.jsonl(gen.catalog_records()))
    edge = next(e for e in graph.build_graph(catalog, 30)[0].edges
                if (e.src, e.dst) == ("1A", "25B"))
    num = ratfun.to_normal_form(edge.fun)[2].num
    assert num.degree == 30
    lifts, pairs = [], []
    lift_all, pair = factorization._hensel_lift_all, factorization._hensel_pair

    def record_lift(f, mod_factors, p, target):
        lifted = lift_all(f, mod_factors, p, target)
        lifts.append((f, mod_factors, p, target, lifted))
        return lifted

    def record_pair(f, g, h, *rest):
        pairs.append((len(f) - 1, len(g) - 1, len(h) - 1))
        return pair(f, g, h, *rest)

    monkeypatch.setattr(factorization, "_hensel_lift_all", record_lift)
    monkeypatch.setattr(factorization, "_hensel_pair", record_pair)
    factorization.factor(num)
    f, mod_factors, p, target, lifted = lifts[-1]  # the root call ends last
    assert p == 7 and [len(u) - 1 for u in mod_factors] == [1, 4, 4, 20]
    assert pairs == [(29, 20, 9), (9, 5, 4), (5, 4, 1)]
    # the lifts come back in the order of mod_factors
    assert [pm_monic([c % p for c in u], p) for u in lifted] == mod_factors
    prod = [1]
    for u in lifted:
        prod = factorization._pm_mul(prod, u, target)
    assert prod == f
