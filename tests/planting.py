"""Forward-composition planting of relation instances for tests.

A planted instance is a triple (s1, s2, f) with s1(q^r) = f(s2(q)) exact
through the stated precision.  For r = 1 the top series is composed
forward; for r >= 2 the base series is derived by the inner-series solver
(the relation forces its support structure, so a free random base cannot
work), then the relation is re-verified forward before the instance is
handed to the code under test.
"""

from fractions import Fraction

from moondec.polynomials import Poly, poly_gcd
from moondec.ratfun import RatFun
from moondec.series import (
    QSeries,
    eval_ratfun_at_series,
    inner_series_solve,
    substitute_power,
)


def self_replicable(p, s, prec):
    """The unique monic-1/q series B with B(q^2) = B^2 + p*B + s.

    Coefficient recurrence: comparing exponents m = -1, 0, 1, ... in the
    defining identity determines a_{m+1} with pivot 2 (the cross term of
    the square against the 1/q lead).  Such series give exact planted
    instances of relations with power r = 2 and of classical-style
    modular polynomials x - phi(y).
    """
    a = []
    for m in range(-1, prec):
        lhs = Fraction(1) if m == -2 else (
            a[m // 2] if m >= 0 and m % 2 == 0 and m // 2 < len(a)
            else Fraction(0))
        square = sum(a[i] * a[m - i] for i in range(0, m + 1)
                     if 0 <= m - i < len(a) and i < len(a))
        rhs_known = square + (p * a[m] if 0 <= m < len(a) else 0) \
            + (Fraction(s) if m == 0 else 0) \
            + (Fraction(p) if m == -1 else 0)
        a.append((lhs - rhs_known) / 2)
    series = QSeries.from_coeffs(a)
    check = substitute_power(series, 2) \
        - eval_ratfun_at_series(
            RatFun(Poly.from_coeffs([s, p, 1]), Poly.from_coeffs([1])),
            series)
    if not check.is_zero:  # explicit, so that it holds under python -O
        raise AssertionError("recurrence construction must verify")
    return series


def random_monic_pair(rng, e, r, bound=9):
    """Reduced f = (monic deg e)/(monic deg e-r) with small coefficients."""
    while True:
        num = Poly.from_coeffs(
            [rng.randint(-bound, bound) for _ in range(e)] + [1])
        den = Poly.from_coeffs(
            [rng.randint(-bound, bound) for _ in range(e - r)] + [1])
        if not num.is_zero and poly_gcd(num, den).degree == 0:
            return RatFun(num, den)


def plant(rng, e, r, prec=None, coeff_bound=5):
    """Instance (s1, s2, f) with both series certified through 2e+1
    (or the requested precision)."""
    prec = prec if prec is not None else 2 * e + 1
    f = random_monic_pair(rng, e, r)
    if r == 1:
        s2 = QSeries.from_coeffs(
            [Fraction(rng.randint(-coeff_bound, coeff_bound))
             for _ in range(prec + 1)])
        s1 = QSeries.from_laurent(eval_ratfun_at_series(f, s2))
    else:
        s1 = QSeries.from_coeffs(
            [Fraction(rng.randint(-coeff_bound, coeff_bound))
             for _ in range(prec + 1)])
        s2 = inner_series_solve(f, substitute_power(s1, r)).truncate(prec)
    diff = substitute_power(s1, r) - eval_ratfun_at_series(f, s2)
    if not diff.is_zero:
        raise AssertionError("planting must verify forward")
    return s1, s2, f
