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
from moondec.relations import (
    LinearSystem,
    Relation,
    _build_system,
    _series_powers,
    degree_from_areas,
    find_all_relations,
    find_relation,
    solve_linear,
    verify_relation,
)
from moondec.series import (
    QSeries,
    eval_ratfun_at_series,
    inner_series_solve,
    substitute_power,
)
from planting import plant, random_monic_pair


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
    # with prec exactly 2e+1 the certified rows span [-e, e+2]:
    # 2e + 3 equations, i.e. unknowns + r + 3
    rng = random.Random(60)
    for e, r in [(2, 1), (3, 2), (5, 5), (4, 1)]:
        s1, s2, _ = plant(rng, e, r)
        powers = _series_powers(s2, e)
        system = _build_system(s1, s2, e, r, powers)
        unknowns = 2 * e - r  # e numerator and e - r denominator unknowns
        assert len(system.matrix) == 2 * e + 3
        assert len(system.matrix[0]) == unknowns
        assert len(system.matrix) >= unknowns + 3


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


def _coeff_rows(s1, s2, e, r, powers):
    """The system read entry by entry through ``GeneralLaurent.coeff``:
    augmented rows [a_0..a_{e-1}, b_0..b_{e-r-1} | rhs] of Fractions."""
    sub = substitute_power(s1, r)
    sp = [sub * powers[j] for j in range(e - r + 1)]
    const = sp[e - r] - powers[e]
    bound = min([const.prec] + [powers[i].prec for i in range(1, e)]
                + [sp[j].prec for j in range(e - r)])
    return [[powers[i].coeff(k) for i in range(e)]
            + [-sp[j].coeff(k) for j in range(e - r)] + [const.coeff(k)]
            for k in range(-e, bound + 1)]


def test_integer_rows_are_one_positive_multiple_of_the_fraction_rows():
    rng = random.Random(64)

    def frac():
        return Fraction(rng.randint(-7, 7), rng.choice([1, 2, 3, 4, 6, 9]))

    for e, r in [(2, 1), (3, 1), (4, 1), (3, 2), (4, 3), (5, 2), (3, 3)]:
        f = random_monic_pair(rng, e, r)
        prec = 2 * e + 1
        if r == 1:
            s2 = QSeries.from_coeffs([frac() for _ in range(prec + 1)])
            s1 = QSeries.from_laurent(eval_ratfun_at_series(f, s2))
        else:
            s1 = QSeries.from_coeffs([frac() for _ in range(prec + 1)])
            s2 = inner_series_solve(f, substitute_power(s1, r)).truncate(prec)
        assert any(c.denominator > 1 for c in s2.coeffs)
        powers = _series_powers(s2, e)
        system = _build_system(s1, s2, e, r, powers)
        oracle = _coeff_rows(s1, s2, e, r, powers)
        rows = [list(row) + [rhs]
                for row, rhs in zip(system.matrix, system.rhs)]
        assert len(rows) == len(oracle)
        assert all(type(v) is int for row in rows for v in row)
        k, j = next((k, j) for k, row in enumerate(oracle)
                    for j, v in enumerate(row) if v)
        mult = rows[k][j] / oracle[k][j]
        assert mult > 0
        assert rows == [[mult * v for v in row] for row in oracle]
        rel = find_relation(s1, s2, e)
        assert (rel.r, rel.f) == (r, f)
