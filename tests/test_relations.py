import json
import random
from fractions import Fraction

import pytest

from moondec.errors import (
    InsufficientPrecisionError,
    InvalidInputError,
    NonPositiveAreaError,
    UnderdeterminedSystemError,
)
from moondec.parsing import parse_ratfun
from moondec.polynomials import Poly
from moondec.ratfun import RatFun
from moondec.relations import (
    LinearSystem,
    Relation,
    _build_system,
    _try_r,
    degree_from_areas,
    find_all_relations,
    find_relation,
    lowest_degree_relations,
    solve_linear,
    verify_relation,
)
from moondec.series import (
    QSeries,
    eval_ratfun_at_series,
    inner_series_solve,
    series_powers,
    substitute_power,
)
from oracles import full_ansatz_relation
from planting import plant, random_monic_pair, self_replicable


def F(v):
    return Fraction(v)


def _system(rows, rhs):
    return LinearSystem(tuple(tuple(F(v) for v in row) for row in rows),
                        tuple(F(v) for v in rhs))


def test_solve_linear_unique():
    assert solve_linear(_system([[1, 0], [0, 1]], [3, 5])) == [F(3), F(5)]


def test_solve_linear_inconsistent():
    assert solve_linear(_system([[1, 1], [1, 1]], [1, 2])) is None


def test_solve_linear_underdetermined():
    with pytest.raises(UnderdeterminedSystemError):
        solve_linear(_system([[1, 1], [2, 2]], [1, 2]))


def test_solve_linear_rejects_non_integer_entries():
    # the elimination is fraction-free: rows must be scaled to integers
    with pytest.raises(InvalidInputError):
        solve_linear(LinearSystem(((F(1), Fraction(1, 2)), (F(1), F(-1))),
                                  (F(3), F(0))))
    with pytest.raises(InvalidInputError):
        solve_linear(LinearSystem(((1, 1), (1, -1)), (Fraction(3, 2), 0)))


def test_degree_from_areas():
    assert degree_from_areas(F(1), F(12)) == 12
    assert degree_from_areas(F(2), F(3)) is None
    assert degree_from_areas(Fraction(1, 3), F(4)) == 12
    with pytest.raises(NonPositiveAreaError):
        degree_from_areas(F(0), F(4))


def test_find_relation_forward_planted():
    f = parse_ratfun("(x^2+2*x+3)/(x+5)")
    s2 = QSeries.from_coeffs([1, 2, 0, 0, 0, 0])
    s1 = QSeries.from_laurent(eval_ratfun_at_series(f, s2))
    assert s1.prec == 5
    rel = find_relation(s1, s2, 2)
    assert rel is not None
    assert rel.r == 1
    assert rel.f == f


def test_find_relation_identity():
    s = QSeries.from_coeffs([7, -2, 5, 1])
    rel = find_relation(s, s, 1)
    assert rel.r == 1
    assert rel.f == parse_ratfun("x")


def test_find_relation_insufficient_precision():
    s = QSeries.from_coeffs([1, 2, 3])
    with pytest.raises(InsufficientPrecisionError):
        find_relation(s, s, 2)


def test_equation_count_formula():
    # with prec exactly 2e+1 the certified bound is q^(e+2): the system
    # reads rows q^1..q^(e+2) for the e - r unknowns of the denominator, e + 1
    # rows and e columns fewer than the full ansatz in 2e - r unknowns
    rng = random.Random(60)
    for e, r in [(2, 1), (3, 2), (5, 5), (4, 1)]:
        s1, s2, _ = plant(rng, e, r)
        powers = series_powers(s2.laurent, e)
        system, polys = _build_system(s1, e, r, powers)
        assert len(system.matrix) == e + 2
        assert all(len(row) == e - r for row in system.matrix)
        assert len(system.matrix) >= (e - r) + 2
        assert [p.degree for p in polys] == list(range(r, e + 1))


def test_system_needs_one_more_equation_than_unknowns():
    # s2 certified through q^p bounds the rows at q^(p - e + 1), the
    # precision of s2^e: p = 2e - r - 1 leaves e - r rows for e - r unknowns
    rng = random.Random(67)
    e, r = 4, 1
    s1 = QSeries.from_coeffs([rng.randint(-5, 5) for _ in range(30)])

    def system_at(p):
        s2 = QSeries.from_coeffs([rng.randint(-5, 5) for _ in range(p + 1)])
        return _build_system(s1, e, r, series_powers(s2.laurent, e))[0]

    with pytest.raises(InsufficientPrecisionError):
        system_at(2 * e - r - 1)
    assert len(system_at(2 * e - r).matrix) == e - r + 1


def test_round_trip_recovery_sample():
    rng = random.Random(61)
    for _ in range(12):
        e = rng.randint(2, 6)
        r = rng.randint(1, e)
        s1, s2, f = plant(rng, e, r)
        rel = find_relation(s1, s2, e)
        assert rel is not None
        assert (rel.r, rel.f) == (r, f)
        assert rel.f.num.lc == 1 and rel.f.num.degree == e
        assert rel.f.den.lc == 1 and rel.f.den.degree == e - r


def test_verify_relation_full_precision_on_identity():
    s = QSeries.from_coeffs([3, 1, 4, 1, 5])
    rel = Relation(1, parse_ratfun("x"), 1, 0)
    assert verify_relation(s, s, rel) == s.prec


def test_verify_relation_bounds_on_planted():
    rng = random.Random(62)
    for e, r in [(3, 1), (4, 2), (2, 2)]:
        s1, s2, f = plant(rng, e, r)
        rel = Relation(r, f, e, 0)
        assert verify_relation(s1, s2, rel) >= e + 2


def test_verify_relation_perturbed_constant():
    rng = random.Random(63)
    e, r = 4, 2
    s1, s2, f = plant(rng, e, r)
    from moondec.polynomials import Poly
    from moondec.ratfun import RatFun
    bumped = RatFun(f.num + Poly.constant(1), f.den)
    rel = Relation(r, bumped, e, 0)
    # difference becomes -1/den(s2), whose leading exponent is e - r, so
    # vanishing stops one exponent before that
    assert verify_relation(s1, s2, rel) == (e - r) - 1


def test_verify_relation_immediate_mismatch_is_below_lead():
    s = QSeries.from_coeffs([3, 1, 4, 1, 5])
    rel = Relation(1, parse_ratfun("x^2"), 2, 0)
    # s(q) - s(q)^2 already differs at q^-2: vanishing "stops" at q^-3
    assert verify_relation(s, s, rel) == -3


def test_find_all_relations_contains_planted():
    rng = random.Random(64)
    s1, s2, f = plant(rng, 4, 2)
    rels = find_all_relations(s1, s2, 4)
    assert any(rel.r == 2 and rel.f == f for rel in rels)


def test_determinism():
    rng = random.Random(65)
    s1, s2, f = plant(rng, 3, 2)
    first = find_relation(s1, s2, 3)
    second = find_relation(s1, s2, 3)
    assert first == second


def _reduced_rows(s1, s2, e, r, powers):
    """The system read entry by entry through ``GeneralLaurent.coeff``:
    P_j by back-substitution on the principal part of s1(q^r)*s2^j, and
    augmented rows [R_0..R_(e-r-1) | -R_(e-r)] of Fractions at q^1..q^bound,
    R_j = s1(q^r)*s2^j - P_j(s2)."""
    sub = substitute_power(s1, r)
    sp = [sub * powers[j] for j in range(e - r + 1)]
    bound = min([p.prec for p in powers[1:]] + [p.prec for p in sp])
    polys, cols = [], []
    for j, prod in enumerate(sp):
        c = {}
        for m in range(r + j, -1, -1):  # s2^m leads at q^-m with 1
            c[m] = prod.coeff(-m) - sum(v * powers[i].coeff(-m)
                                        for i, v in c.items())
        polys.append(Poly.from_coeffs([c[m] for m in range(r + j + 1)]))
        cols.append([prod.coeff(k) - sum(v * powers[i].coeff(k)
                                         for i, v in c.items())
                     for k in range(1, bound + 1)])
    cols[-1] = [-v for v in cols[-1]]
    return polys, [list(row) for row in zip(*cols)]


def _fraction_plant(rng, e, r, prec):
    """A planted (s1, s2, f) whose free series has Fraction coefficients
    over mixed denominators."""
    def frac():
        return Fraction(rng.randint(-7, 7), rng.choice([1, 2, 3, 4, 6, 9]))

    f = random_monic_pair(rng, e, r)
    if r == 1:
        s2 = QSeries.from_coeffs([frac() for _ in range(prec + 1)])
        s1 = QSeries.from_laurent(eval_ratfun_at_series(f, s2))
    else:
        s1 = QSeries.from_coeffs([frac() for _ in range(prec + 1)])
        s2 = inner_series_solve(f, substitute_power(s1, r)).truncate(prec)
    return s1, s2, f


def test_integer_rows_are_one_positive_multiple_of_the_fraction_rows():
    rng = random.Random(64)
    for e, r in [(2, 1), (3, 1), (4, 1), (3, 2), (4, 3), (5, 2), (3, 3)]:
        s1, s2, f = _fraction_plant(rng, e, r, 2 * e + 1)
        assert any(c.denominator > 1 for c in s2.coeffs)
        powers = series_powers(s2.laurent, e)
        system, polys = _build_system(s1, e, r, powers)
        oracle_polys, oracle = _reduced_rows(s1, s2, e, r, powers)
        assert polys == oracle_polys
        rows = [list(row) + [rhs]
                for row, rhs in zip(system.matrix, system.rhs)]
        assert len(rows) == len(oracle)
        assert all(type(v) is int for row in rows for v in row)
        mult = next((a / b for row, orow in zip(rows, oracle)
                     for a, b in zip(row, orow) if b), 1)
        assert mult > 0
        assert rows == [[mult * v for v in row] for row in oracle]
        rel = find_relation(s1, s2, e)
        assert (rel.r, rel.f) == (r, f)


def _oracle_instances(rng, count):
    """Seeded (s1, s2, e) instances, certified through at least q^(2e+1),
    cycling through six kinds: planted, planted over Fraction
    coefficients, planted with one late coefficient of s1 perturbed,
    self pairs, unrelated pairs, and a planted relation of lower degree
    d < e (every degree-e ansatz at r = 1 then has a family of solutions)."""
    for i in range(count):
        kind = i % 6
        e = rng.randint(1, 5)
        r = rng.randint(1, e)
        prec = 2 * e + 1 + rng.randint(0, 4)
        if kind == 0:
            s1, s2, _ = plant(rng, e, r, prec)
        elif kind == 1:
            s1, s2, _ = _fraction_plant(rng, e, r, prec)
        elif kind == 2:
            s1, s2, _ = plant(rng, e, r, prec)
            coeffs = list(s1.coeffs)
            coeffs[rng.randint(prec - 2, prec)] += rng.choice([-1, 1])
            s1 = QSeries.from_coeffs(coeffs)
        elif kind == 3:
            s1 = s2 = QSeries.from_coeffs(
                [rng.randint(-5, 5) for _ in range(prec + 1)])
        elif kind == 4:
            s1, s2 = (QSeries.from_coeffs(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                 for _ in range(prec + 1)]) for _ in range(2))
        else:
            e = rng.randint(2, 5)
            prec = 2 * e + 1 + rng.randint(0, 4)
            s1, s2, _ = plant(rng, rng.randint(1, e - 1), 1, prec)
        yield s1, s2, e
    # the (X, B) pair of the planted-four graph: X = chi(B) at degree 2, so
    # r = 1 at degree 4 is underdetermined, and X(q^2) = (chi o phi)(B)
    base = self_replicable(4, 2, 40)
    chi = parse_ratfun("(x^2+3*x+1)/(x+4)")
    yield QSeries.from_laurent(eval_ratfun_at_series(chi, base)), base, 4


def test_try_r_matches_the_full_ansatz_oracle():
    seen = {"relation": 0, None: 0, "underdetermined": 0, "r=e": 0}
    cases = 0
    for s1, s2, e in _oracle_instances(random.Random(66), 330):
        powers = series_powers(s2.laurent, e)
        for r in range(1, e + 1):
            sub = substitute_power(s1, r)
            expected = full_ansatz_relation(sub, powers, e, r)
            if isinstance(expected, tuple):
                f = RatFun(*(Poly.from_coeffs(c) for c in expected))
                diff = sub - eval_ratfun_at_series(f, s2)
                expected = Relation(r, f, e, diff.prec) \
                    if diff.is_zero else None
            try:
                got = _try_r(s1, s2, e, r, powers)
            except UnderdeterminedSystemError:
                got = "underdetermined"
            assert got == expected, (s1, s2, e, r)
            seen["relation" if isinstance(got, Relation) else got] += 1
            seen["r=e"] += r == e
            cases += 1
    assert cases >= 1000
    assert min(seen.values()) >= 40, seen


def test_verified_to_matches_verify_relation_on_uneven_precisions():
    # the scan states verified_to = min(r*prec(s1), prec(s2) - r + 1) from
    # its solved system; re-evaluating f(s2) must give the same exponent
    # when either series is cut shorter than the other
    seen = dict.fromkeys(["r*prec(s1)", "prec(s2)-r+1", "r>=2",
                          "r>=2 at r*prec(s1)", "Fraction coefficients"], 0)
    rng = random.Random(69)
    for i in range(150):
        e = rng.randint(1, 4)
        r = rng.randint(1, e)
        cut_s1 = i % 2 == 0
        prec = (r * (2 * e + 3) if cut_s1 else 2 * e + 1) + rng.randint(0, 6)
        s1, s2, _ = (_fraction_plant if i % 3 == 0 else plant)(rng, e, r, prec)
        if cut_s1:
            s1 = s1.truncate(2 * e + 1 + rng.randint(0, 2))
        else:
            s2 = s2.truncate(rng.randint(2 * e + 1, prec))
        found = find_all_relations(s1, s2, e)
        assert any(rel.r == r for rel in found), (s1, s2, e, r)
        for rel in found:
            assert rel.verified_to == verify_relation(s1, s2, rel), \
                (s1, s2, rel)
            left, right = rel.r * s1.prec, s2.prec - rel.r + 1
            if left != right:
                branch = "r*prec(s1)" if left < right else "prec(s2)-r+1"
                seen[branch] += 1
                seen["r>=2 at r*prec(s1)"] += rel.r >= 2 and left < right
            seen["r>=2"] += rel.r >= 2
            seen["Fraction coefficients"] += any(
                c.denominator > 1 for c in s1.coeffs + s2.coeffs)
    assert min(seen.values()) >= 20, seen


def _late_perturbed_plants(rng, count):
    """Planted r = 1 instances certified beyond q^(2e+1) with s1 changed
    only there: the leading block is the planted system, consistent, while
    the full system sees the change.  (At r >= 2 a change at q^m of s1
    reaches s1(q^r) only at q^(rm), past every certified row.)"""
    for i in range(count):
        e = rng.randint(1, 5)
        prec = 2 * e + 2 + rng.randint(0, 4)
        s1, s2, _ = (plant if i % 2 else _fraction_plant)(rng, e, 1, prec)
        coeffs = list(s1.coeffs)
        coeffs[rng.randint(2 * e + 2, prec)] += rng.choice([-1, 1])
        yield QSeries.from_coeffs(coeffs), s2, e


def test_block_rejection_matches_the_full_scan():
    seen = dict.fromkeys(["relation", "late-row None", "block-rejected None",
                          "underdetermined", "relation at r=1",
                          "relation at r>=2", "Fraction coefficients"], 0)
    rng = random.Random(68)
    instances = [*_oracle_instances(rng, 200),
                 *_late_perturbed_plants(rng, 60)]
    for s1, s2, e in instances:
        need = 2 * e + 1
        head1, head2 = s1.truncate(need), s2.truncate(need)
        head_powers = series_powers(head2.laurent, e)
        powers = series_powers(s2.laurent, e)
        fractional = any(c.denominator > 1 for c in s1.coeffs + s2.coeffs)
        for r in range(1, e + 1):
            block = _build_system(head1, e, r, head_powers)[0]
            try:
                rejected = solve_linear(block) is None
            except UnderdeterminedSystemError:
                rejected = False
            try:
                got = _try_r(s1, s2, e, r, powers)
            except UnderdeterminedSystemError:
                got = "underdetermined"
            if rejected:
                # a row subset of rank nvars + 1 refutes the full system
                assert got is None, (s1, s2, e, r)
                seen["block-rejected None"] += 1
            elif got is None:
                seen["late-row None"] += 1
            elif isinstance(got, Relation):
                seen["relation"] += 1
                seen["relation at r=1" if r == 1 else "relation at r>=2"] += 1
                seen["Fraction coefficients"] += fractional
            else:
                seen[got] += 1
        # the reference: _try_r on the full series at every (e, r)
        expected = sorted(_per_degree_scan(s1, s2, e).items())
        assert find_all_relations(s1, s2, e) == \
            [rel for _, rel in expected], (s1, s2, e)
    assert min(seen.values()) >= 20, seen


def test_capped_build_is_the_block_of_the_cut_series():
    # the leading block is the full series' build capped at e + 2 rows;
    # each row is one positive multiple, the same for every row, of the
    # row built from both series cut to q^(2e+1), and a cap at or above
    # the row count is the full build
    seen = dict.fromkeys(["rows past the block", "block is every row",
                          "Fraction coefficients"], 0)
    rng = random.Random(73)
    instances = [*_oracle_instances(rng, 120),
                 *_late_perturbed_plants(rng, 40),
                 *(plant(rng, e, rng.randint(1, e), 2 * e + 1 + extra)[:2]
                   + (e,) for e, extra in ((2, 0), (3, 5), (5, 9), (6, 2)))]
    for s1, s2, e in instances:
        need = 2 * e + 1
        powers = series_powers(s2.laurent, e)
        head_powers = series_powers(s2.truncate(need).laurent, e)
        for r in range(1, e + 1):
            cut, cut_polys = _build_system(s1.truncate(need), e, r,
                                           head_powers)
            block, polys = _build_system(s1, e, r, powers, e + 2)
            assert polys == cut_polys
            rows = [list(row) + [b]
                    for row, b in zip(block.matrix, block.rhs)]
            oracle = [list(row) + [b] for row, b in zip(cut.matrix, cut.rhs)]
            assert len(rows) == len(oracle) == e + 2
            mult = next((Fraction(a, b) for row, orow in zip(rows, oracle)
                         for a, b in zip(row, orow) if b), 1)
            assert mult > 0
            assert rows == [[mult * v for v in row] for row in oracle], \
                (s1, s2, e, r)
            full = _build_system(s1, e, r, powers)
            count = len(full[0].matrix)
            for cap in (count, count + 1, count + 7):
                assert _build_system(s1, e, r, powers, cap) == full
            seen["rows past the block" if count > e + 2
                 else "block is every row"] += 1
            seen["Fraction coefficients"] += any(
                c.denominator > 1 for c in s1.coeffs + s2.coeffs)
    assert min(seen.values()) >= 20, seen


def test_integer_build_pads_bodies_that_end_in_zeros():
    # a body drops its trailing zeros, so series known exactly to a few
    # terms are stored far shorter than their certified range; the integer
    # build must read those zeros as zeros, not as the end of the series
    rng = random.Random(70)
    seen = {"integer": 0, "Fraction": 0}
    for i in range(40):
        e = rng.randint(1, 6)
        r = rng.randint(1, e)
        prec = 2 * e + 1 + rng.randint(0, 5)

        def short_series():
            terms = rng.randint(0, 3)
            den = 1 if i % 2 else rng.choice([2, 3, 6])
            head = [Fraction(rng.randint(-6, 6), den) for _ in range(terms)]
            return QSeries.from_coeffs(head + [0] * (prec + 1 - terms))

        s1, s2 = short_series(), short_series()
        for s in (s1, s2):
            assert len(s.laurent.body.nums) < s.prec + 2
        powers = series_powers(s2.laurent, e)
        system, polys = _build_system(s1, e, r, powers)
        oracle_polys, oracle = _reduced_rows(s1, s2, e, r, powers)
        assert polys == oracle_polys, (s1, s2, e, r)
        rows = [list(row) + [rhs]
                for row, rhs in zip(system.matrix, system.rhs)]
        assert len(rows) == len(oracle)
        mult = next((a / b for row, orow in zip(rows, oracle)
                     for a, b in zip(row, orow) if b), 1)
        assert mult > 0
        assert rows == [[mult * v for v in row] for row in oracle], \
            (s1, s2, e, r)
        seen["Fraction" if i % 2 == 0 else "integer"] += any(
            v for row in oracle for v in row)
    assert min(seen.values()) >= 10, seen


def _per_degree_scan(s1, s2, emax):
    """{r: lowest-degree relation}, by an exact solve of every r at every
    degree e = 1..emax that both series certify through q^(2e+1), with no
    leading block; an underdetermined system records nothing."""
    found = {}
    for e in range(1, emax + 1):
        if min(s1.prec, s2.prec) < 2 * e + 1:
            break
        powers = series_powers(s2.laurent, e)
        for r in range(1, e + 1):
            try:
                rel = _try_r(s1, s2, e, r, powers)
            except UnderdeterminedSystemError:
                continue
            if rel is not None:
                found.setdefault(r, rel)
    return found


def _check_lowest_degree_relations(monkeypatch, paths):
    """Compare lowest_degree_relations with the per-degree scan on seeded
    groups and on the bundled catalogs, whole and cut to q^20 and q^25;
    count what the comparison covered.  Each exact solve of the degree
    driver is recorded, and a (source, r) scan whose solves include one
    with no relation went past the leading block's rejection."""
    from moondec import relations
    from moondec.graph import load_catalog
    seen = {"relations": 0, "skipped-degree relations": 0, "stops": 0,
            "solves past the block": 0}
    rng = random.Random(71)
    groups = []
    for s1, s2, e in _oracle_instances(rng, 120):
        groups.append(([s1, s2, s1], s2, e + rng.randint(0, 2)))
    for path in paths:
        with open(path, "rb") as handle:
            catalog = [c.series for c in load_catalog(handle)]
        for cut in (None, 20, 25):
            cat = [s.truncate(min(cut or s.prec, s.prec)) for s in catalog]
            for s2 in cat:
                groups.append((cat, s2, 12))
    # a relation planted at r = 1 and degree emax, with s1 perturbed past
    # the leading block's emax + 2 rows but inside the certified ones: the
    # block is consistent, only the full system at the top degree is not
    late = random.Random(72)
    for e in range(1, 5):
        s1, s2, _ = plant(late, e, 1, 3 * e + 4)
        coeffs = list(s1.coeffs)
        coeffs[2 * e + 3] += 1
        groups.append(([QSeries.from_coeffs(coeffs)], s2, e))
    solves = []
    solved = relations._solved

    def recording_solved(s1, s2, e, r, system, polys):
        rel = solved(s1, s2, e, r, system, polys)
        solves.append((id(s1), r, rel is None))
        return rel

    monkeypatch.setattr(relations, "_solved", recording_solved)
    for sources, s2, emax in groups:
        solves.clear()
        got = list(lowest_degree_relations(iter(sources), s2, emax))
        seen["solves past the block"] += len(
            {(s1, r) for s1, r, missed in solves if missed})
        expected = [_per_degree_scan(s1, s2, emax) for s1 in sources]
        assert got == expected, (sources, s2, emax)
        for s1, by_power in zip(sources, got):
            seen["relations"] += len(by_power)
            # r was left out of the scan at degree rel.e + 1
            seen["skipped-degree relations"] += sum(
                rel.e < emax and min(s1.prec, s2.prec) >= 2 * rel.e + 3
                for rel in by_power.values())
        seen["stops"] += any(s.prec < 2 * emax + 1 for s in [*sources, s2])
    return seen


def test_lowest_degree_relations_match_the_per_degree_scan(
        monkeypatch, moonshine_catalog_path, synthetic_pair_path):
    # the degree driver rejects degrees on one leading block per power,
    # skips every r that already has a relation and shares one table of
    # s2's powers across sources and powers
    seen = _check_lowest_degree_relations(
        monkeypatch, (moonshine_catalog_path, synthetic_pair_path))
    del seen["solves past the block"]
    assert min(seen.values()) >= 20, seen


def test_lowest_degree_relations_solve_past_a_block_that_drops_rank(
        monkeypatch, moonshine_catalog_path, synthetic_pair_path):
    # modulo 3 the leading block's columns become dependent early, so the
    # exact solves start below the relation's degree, and find nothing
    # there: the relations are still the per-degree scan's
    from moondec import linalg
    monkeypatch.setattr(linalg, "RANK_PRIME", 3)
    seen = _check_lowest_degree_relations(
        monkeypatch, (moonshine_catalog_path, synthetic_pair_path))
    assert min(seen.values()) >= 20, seen


def test_relate_emax_prints_the_per_degree_scan(
        capsys, tmp_path, moonshine_catalog_path, synthetic_pair_path):
    # with no natural area quotient, relate --emax prints the least
    # relation by (e, r) of the per-degree scan, and --all-r every one of
    # them in that order, on seeded pairs, replicable self pairs with
    # relations at several degrees, and the bundled catalogs
    from moondec.cli import main
    from moondec.graph import load_catalog
    from moondec.ratfun import ratfun_text
    rng = random.Random(74)
    pairs = [(s1, s2, e + rng.randint(0, 2))
             for s1, s2, e in _oracle_instances(rng, 60)]
    for p, s in [(4, 2), *((rng.randint(-3, 4), rng.randint(-3, 3))
                           for _ in range(5))]:
        base = self_replicable(p, s, rng.randint(9, 26))
        pairs.append((base, base, rng.randint(4, 8)))
    for path in (moonshine_catalog_path, synthetic_pair_path):
        with open(path, "rb") as handle:
            catalog = [c.series for c in load_catalog(handle)]
        for cut in (None, 20, 25):
            cat = [s.truncate(min(cut or s.prec, s.prec)) for s in catalog]
            pairs += [(s1, s2, 12) for s1 in cat for s2 in cat]
    seen = {"none": 0, "one degree": 0, "several degrees": 0}
    path = tmp_path / "pair.jsonl"
    for i, (s1, s2, emax) in enumerate(pairs):
        path.write_text("".join(
            json.dumps({"name": name, "area": area,
                        "coeffs": [str(c) for c in s.coeffs]}) + "\n"
            for name, area, s in (("S", "2", s1), ("T", "3", s2))))
        with open(path, "rb") as handle:
            s1, s2 = (c.series for c in load_catalog(handle))
        expected = sorted(_per_degree_scan(s1, s2, emax).values(),
                          key=lambda rel: (rel.e, rel.r))
        for all_r in (False, True):
            printed = expected if all_r else expected[:1]
            argv = ["relate", "--catalog", str(path), "--from", "S",
                    "--to", "T", "--emax", str(emax)]
            code = main(argv + ["--all-r"] * all_r + ["--verify"] * (i % 2))
            out, err = capsys.readouterr()
            lines = [f"r={rel.r} e={rel.e} verified_to={rel.verified_to} "
                     f"f={ratfun_text(rel.f)}\n" for rel in printed]
            assert (code, out, err) == \
                (0 if printed else 3, "".join(lines) or "none\n", ""), \
                (s1, s2, emax, all_r)
        degrees = len({rel.e for rel in expected})
        seen[("none", "one degree", "several degrees")[min(degrees, 2)]] += 1
    assert min(seen.values()) >= 5, seen
