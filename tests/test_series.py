import operator
import random
from fractions import Fraction

import pytest

from moondec import series
from moondec.errors import (
    InvalidInputError,
    LeadingMismatchError,
    MoondecError,
    NoRationalSolutionError,
    SeriesZeroDivisionError,
    ZeroSeriesError,
)
from moondec.parsing import parse_ratfun
from moondec.polynomials import ZERO, Poly
from moondec.ratfun import RatFun
from moondec.series import (
    EXACT,
    ZERO_SERIES,
    GeneralLaurent,
    QSeries,
    eval_poly_on_powers,
    eval_ratfun_at_series,
    inner_series_solve,
    power_support,
    series_powers,
    substitute_power,
)
from oracles import (
    j_expansion,
    naive_add,
    naive_inner_solve,
    naive_mul,
    naive_series_div,
)


def L(lead, coeffs, prec):
    return GeneralLaurent.make(lead, [Fraction(c) for c in coeffs], prec)


def test_mul_sub_add_examples():
    a = L(-1, [1, 0, 1], 1)            # 1/q + q
    b = L(-1, [1, 0, -1], 1)           # 1/q - q
    prod = a * b
    assert prod.lead == -2 and prod.prec == 0
    assert prod.coeff(-2) == 1 and prod.coeff(-1) == 0 and prod.coeff(0) == 0
    bare = L(-1, [1, 0, 0], 1)            # exactly 1/q, certified to q^1
    total = bare + L(-1, [-1, 0, 0], 1)
    assert total.is_zero and total.prec == 1


def test_j_head_subtraction():
    j = QSeries.from_coeffs(j_expansion(4))
    tail = j.laurent - L(-1, [1, 0, 0, 0, 0, 0], 4)
    assert tail.lead == 0
    assert tail.coeff(0) == 744
    assert tail.coeff(1) == 196884


def test_division_and_errors():
    a = L(-2, [1, 0, 0, 0, 1], 2)      # 1/q^2 + q^2
    b = L(-1, [1, 0, 1], 1)            # 1/q + q
    quot = a / b
    back = quot * b
    for k in range(back.lead, back.prec + 1):
        assert back.coeff(k) == (a.coeff(k) if k <= a.prec else 0)
    with pytest.raises(SeriesZeroDivisionError):
        a / L(1, [], 0)


def _random_laurent(rng, lead, length, prec):
    head = rng.choice([c for c in range(-7, 8) if c])
    return L(lead, [head] + [rng.randint(-9, 9) for _ in range(length - 1)],
             prec)


def test_division_matches_the_recurrence():
    rng = random.Random(56)
    for case in range(200):
        la, lb = rng.randint(-3, 2), rng.randint(-3, 2)
        na = 1 if case % 10 == 0 else rng.randint(1, 14)
        nb = 1 if case % 10 == 1 else rng.randint(1, 14)
        a_exact = case % 10 == 2
        b_exact = case % 5 == 3
        a = _random_laurent(rng, la, na, EXACT if a_exact else la + na - 1)
        b = _random_laurent(rng, lb, nb, EXACT if b_exact else lb + nb - 1)
        if a_exact:
            prec = b.prec - 2 * lb + la
        elif b_exact:
            prec = a.prec - lb
        else:
            prec = min(a.prec - lb, b.prec - 2 * lb + la)
        want = naive_series_div(a.coeffs, b.coeffs, prec - la + lb + 1)
        assert a / b == GeneralLaurent.make(la - lb, want, prec)


_PREC_RULES = {
    operator.add: lambda a, b: min(a.prec, b.prec),
    operator.sub: lambda a, b: min(a.prec, b.prec),
    operator.mul: lambda a, b: min(a.prec + b.lead, b.prec + a.lead),
    operator.truediv: lambda a, b: min(a.prec - b.lead,
                                       b.prec - 2 * b.lead + a.lead),
}


def test_only_exact_operands_give_an_exact_precision():
    """Over exact and finite operand pairs, a result is exact only when
    both operands are; any other precision is the int that the module
    docstring's rule gives, so no float reaches a printed bound."""
    rng = random.Random(62)
    for case in range(120):
        a_exact, b_exact = case % 2 == 0, case % 4 < 2
        operands = []
        for exact in (a_exact, b_exact):
            lead, n = rng.randint(-3, 2), rng.randint(1, 8)
            s = _random_laurent(rng, lead, n, EXACT if exact else lead + n - 1)
            if not exact and case % 9 == 4:
                s = L(lead, [0] * n, lead + n - 1)  # zero to its precision
            operands.append(s)
        a, b = operands
        for op, rule in _PREC_RULES.items():
            if op is operator.truediv and (b.is_zero or a_exact and b_exact):
                continue
            prec = op(a, b).prec
            if a_exact and b_exact:
                assert prec == EXACT
            else:
                assert type(prec) is int and prec == rule(a, b)


def test_minimal_precision_keeps_only_the_lead():
    shallow = L(-1, [1], -1)           # only the 1/q term is certified
    cube = shallow * shallow * shallow
    assert cube.lead == -3 and cube.prec == -3
    with pytest.raises(ValueError):
        cube.coeff(-2)                 # beyond the certified bound


def test_substitute_power():
    s = QSeries.from_coeffs([0, 1])    # 1/q + q
    out = substitute_power(s, 2)
    assert out.lead == -2 and out.prec == 2
    assert out.coeff(-2) == 1 and out.coeff(2) == 1
    assert all(out.coeff(k) == 0 for k in (-1, 0, 1))
    same = substitute_power(s, 1)
    assert same.lead == -1 and same.coeff(1) == 1


def test_substitute_power_j():
    j = QSeries.from_coeffs(j_expansion(4))
    out = substitute_power(j, 3)
    assert out.lead == -3
    assert out.coeff(0) == 744
    assert out.coeff(3) == 196884
    assert out.coeff(1) == 0 and out.coeff(2) == 0
    assert out.prec == 12


def test_eval_ratfun_examples():
    s = QSeries.from_coeffs([0, 1, 0, 0])   # 1/q + q, certified to q^3
    sq = eval_ratfun_at_series(parse_ratfun("x^2"), s)
    assert (sq.lead, sq.coeff(-2), sq.coeff(0), sq.coeff(2)) == (-2, 1, 2, 1)
    ident = eval_ratfun_at_series(parse_ratfun("x"), s)
    assert ident.lead == -1 and ident.coeff(1) == 1


def test_eval_flagship_leading_exponent(flagship):
    rng = random.Random(50)
    for _ in range(5):
        s = QSeries.from_coeffs([rng.randint(-5, 5) for _ in range(20)])
        value = eval_ratfun_at_series(flagship, s)
        assert value.lead == -3
        assert value.coeff(-3) == 1


def test_inner_solve_square():
    target = L(-2, [1, 0, 2, 0, 1], 2)     # 1/q^2 + 2 + q^2
    s = inner_series_solve(parse_ratfun("x^2"), target)
    # derivable precision is target.prec + 2 - 1 = 3
    assert s.coeffs == (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
    forward = eval_ratfun_at_series(parse_ratfun("x^2"), s)
    for k in range(-2, min(forward.prec, 2) + 1):
        assert forward.coeff(k) == target.coeff(k)


def test_inner_solve_cube_round_trip():
    rng = random.Random(51)
    s = QSeries.from_coeffs([rng.randint(-3, 3) for _ in range(12)])
    cubed = eval_ratfun_at_series(parse_ratfun("x^3"), s)
    back = inner_series_solve(parse_ratfun("x^3"), cubed)
    assert back.coeffs[: s.prec + 1] == s.coeffs


def test_inner_solve_leading_mismatch():
    with pytest.raises(LeadingMismatchError):
        inner_series_solve(parse_ratfun("x^2"), L(-1, [1, 0, 0], 1))
    with pytest.raises(LeadingMismatchError):
        inner_series_solve(parse_ratfun("(x^2+1)/x^2"),
                           L(-1, [1, 0, 0], 1))


def test_inner_solve_leading_coefficient_unreachable():
    # 2*s^2 leads with 2/q^2 for every monic s = 1/q + ...
    with pytest.raises(NoRationalSolutionError) as err:
        inner_series_solve(parse_ratfun("2*x^2"),
                           GeneralLaurent.make(-2, [1, 0, 0, 0], 1))
    assert err.value.category == "no-rational-solution"


def test_inner_solve_rejects_an_exact_target():
    # an exact target has no last coefficient to stop the Newton loop at
    target = GeneralLaurent.make(-2, [1, 0, 3], EXACT)
    with pytest.raises(InvalidInputError) as err:
        inner_series_solve(parse_ratfun("x^2"), target)
    assert err.value.category == "invalid-input"


def test_inner_solve_round_trip_random():
    rng = random.Random(52)
    for _ in range(25):
        dn = rng.randint(1, 4)
        dd = rng.randint(0, dn - 1)
        f = None
        while f is None or f.num.degree - f.den.degree < 1:
            num = Poly.from_coeffs(
                [rng.randint(-4, 4) for _ in range(dn)] + [rng.randint(1, 4)])
            den = Poly.from_coeffs(
                [rng.randint(-4, 4) for _ in range(dd)] + [1])
            f = RatFun.make(num, den)
        s = QSeries.from_coeffs([Fraction(rng.randint(-5, 5))
                                 for _ in range(21)])
        target = eval_ratfun_at_series(f, s)
        solved = inner_series_solve(f, target)
        overlap = min(s.prec, solved.prec)
        assert solved.coeffs[: overlap + 1] == s.coeffs[: overlap + 1]


def test_inner_solve_matches_the_one_coefficient_solver():
    rng = random.Random(57)
    for case in range(60):
        dn = rng.randint(1, 4)
        dd = rng.randint(0, dn - 1)
        f = None
        while f is None or f.num.degree - f.den.degree < 1:
            num = Poly.from_coeffs([rng.randint(-4, 4) for _ in range(dn)]
                                   + [rng.choice([-3, -2, 2, 3, 5])])
            den = Poly.from_coeffs(
                [rng.randint(-4, 4) for _ in range(dd)] + [1])
            f = RatFun.make(num, den)
        d = f.num.degree - f.den.degree
        lead = -d if case % 6 else rng.choice([-d - 1, -d + 1])
        head = f.num.lc if case % 7 else f.num.lc + 1
        length = 1 + (case // 5 % 4 if case % 5 == 1 else rng.randint(4, 24))
        tail = [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                for _ in range(length - 1)]
        target = L(lead, [head] + tail, lead + length - 1)
        try:
            want = naive_inner_solve(f.num.coeffs, f.den.coeffs, lead,
                                     [head] + tail)
        except ValueError as exc:
            with pytest.raises(MoondecError) as err:
                inner_series_solve(f, target)
            assert err.value.category == str(exc)
            continue
        assert list(inner_series_solve(f, target).coeffs) == want


def test_inner_solve_evaluates_logarithmically_often(monkeypatch):
    # one table of powers per Newton step, shared by num, den, num' and
    # den', and one for the forward check: 7 steps reach q^100
    f = parse_ratfun("(2*x^3-x+1)/(x+3)")
    rng = random.Random(58)
    s = QSeries.from_coeffs([rng.randint(-5, 5) for _ in range(101)])
    target = eval_ratfun_at_series(f, s)
    tables = []

    def counted(t, top, powers=None):
        tables.append(top)
        return series_powers(t, top, powers)

    monkeypatch.setattr(series, "series_powers", counted)
    solved = inner_series_solve(f, target)
    assert solved.coeffs == s.coeffs
    assert len(tables) == 8


def test_power_support():
    assert power_support(L(-2, [1, 0, 0, 0, 1], 2)) == 2
    assert power_support(L(-1, [1, 0, 0, 1], 2)) == 1
    assert power_support(L(-6, [1, 0, 0, 1, 0, 0, 2], 0)) == 3
    with pytest.raises(ZeroSeriesError):
        power_support(L(3, [], 2))


def test_power_support_after_substitution():
    rng = random.Random(53)
    for _ in range(20):
        s = QSeries.from_coeffs([rng.randint(-4, 4) for _ in range(10)])
        r = rng.randint(1, 4)
        assert power_support(substitute_power(s, r)) % r == 0


def test_precision_honesty_mul_div():
    rng = random.Random(54)
    for _ in range(50):
        la = rng.randint(-3, 1)
        lb = rng.randint(-3, 1)
        a = L(la, [rng.randint(1, 5)]
              + [rng.randint(-5, 5) for _ in range(8)], la + 8)
        b = L(lb, [rng.randint(1, 5)]
              + [rng.randint(-5, 5) for _ in range(8)], lb + 8)
        for op in (operator.mul, operator.truediv, operator.add,
                   operator.sub):
            full = op(a, b)
            trimmed = op(a.truncate(a.prec - 1), b)
            assert trimmed.prec <= full.prec
            for k in range(min(full.lead, trimmed.lead), trimmed.prec + 1):
                assert full.coeff(k) == trimmed.coeff(k)


def test_eval_compose_compatibility():
    rng = random.Random(55)
    from moondec.ratfun import compose
    for _ in range(10):
        g = _normal_ratfun(rng, 2)
        h = _normal_ratfun(rng, 2)
        s = QSeries.from_coeffs([rng.randint(-3, 3) for _ in range(16)])
        direct = eval_ratfun_at_series(compose(g, h), s)
        inner = eval_ratfun_at_series(h, s)
        nested = eval_ratfun_at_series(g, inner)
        bound = min(direct.prec, nested.prec)
        for k in range(min(direct.lead, nested.lead), bound + 1):
            assert direct.coeff(k) == nested.coeff(k)


def _normal_ratfun(rng, deg):
    while True:
        num = Poly.from_coeffs([0] + [rng.randint(-4, 4)
                                      for _ in range(deg - 1)] + [1])
        den = Poly.from_coeffs([rng.randint(1, 4)] + [1])
        f = RatFun.make(num, den)
        if f.degree == deg and f.num.coeff(0) == 0:
            return f


# -- the storage format against plain Fraction lists --------------------------

def _assert_canonical(s):
    """Canonical Poly body, nonzero lowest numerator, degree inside the
    certified range; zero is (prec + 1, ZERO, prec) or ZERO_SERIES."""
    body = s.body
    assert body == Poly.make(body.nums, body.den)
    if not body.nums:
        assert s == ZERO_SERIES if s.prec == EXACT else s.lead == s.prec + 1
    else:
        assert body.nums[0] != 0
        assert s.prec == EXACT or body.degree <= s.prec - s.lead


def _plain_operand(rng, case):
    """(lead, coefficients from q^lead, prec) as plain Fractions."""
    lead = rng.randint(-3, 2)
    bits = 90 if case % 3 == 0 else 5
    top = 2 ** bits
    cs = [Fraction(0) if rng.random() < 0.25 else
          Fraction(rng.randint(-top, top), rng.randint(1, top))
          for _ in range(rng.randint(0, 7))]
    if case % 8 == 5:
        cs = [Fraction(0)] * len(cs)  # zero to prec, or the exact zero
    return lead, cs, EXACT if rng.random() < 0.35 else lead + len(cs) - 1


def _terms(lo, cs, prec):
    """Nonzero coefficients of sum cs[i] q^(lo + i), cut at prec."""
    return {lo + i: c for i, c in enumerate(cs)
            if c and (prec == EXACT or lo + i <= prec)}


def _canonical_lead(lead, cs, prec):
    """(lead of the first nonzero coefficient, stripped coefficients); a
    zero series leads at prec + 1, the exact zero at 0."""
    terms = _terms(lead, cs, prec)
    if not terms:
        return (0 if prec == EXACT else prec + 1), []
    low = min(terms)
    return low, cs[low - lead:]


def _check(result, prec, terms):
    _assert_canonical(result)
    assert result.prec == prec
    got = {result.lead + i: c for i, c in enumerate(result.body.coeffs) if c}
    assert got == terms


def _oracle_sum(a, b, prec):
    (la, ca, _), (lb, cb, _) = a, b
    lo = min(la, lb)
    total = naive_add([0] * (la - lo) + ca, [0] * (lb - lo) + cb)
    return _terms(lo, total, prec)


def _product_prec(a, b, la, lb):
    if a[2] == EXACT and b[2] == EXACT:
        return EXACT
    if a[2] == EXACT:
        return b[2] + la
    if b[2] == EXACT:
        return a[2] + lb
    return min(a[2] + lb, b[2] + la)


def _quotient_prec(a, b, la, lb):
    if a[2] == EXACT:
        return b[2] - 2 * lb + la
    if b[2] == EXACT:
        return a[2] - lb
    return min(a[2] - lb, b[2] - 2 * lb + la)


def test_series_arithmetic_matches_plain_fraction_oracles():
    rng = random.Random(59)
    for case in range(40):
        a = _plain_operand(rng, case)
        b = _plain_operand(rng, case + 1)
        if case % 5 == 1:  # a + b cancels through the certified range
            b = (a[0], [-c for c in a[1]], rng.choice([a[2], EXACT]))
        sa, sb = GeneralLaurent.make(*a), GeneralLaurent.make(*b)
        _check(sa, a[2], _terms(*a))
        neg_b = (b[0], [-c for c in b[1]], b[2])
        prec = min(a[2], b[2])
        _check(sa + sb, prec, _oracle_sum(a, b, prec))
        _check(sa - sb, prec, _oracle_sum(a, neg_b, prec))
        _check(-sb, b[2], _terms(*neg_b))

        (la, ca), (lb, cb) = _canonical_lead(*a), _canonical_lead(*b)
        if sa == ZERO_SERIES or sb == ZERO_SERIES:
            assert sa * sb == ZERO_SERIES
        else:
            prec = _product_prec(a, b, la, lb)
            if not ca or not cb:
                _check(sa * sb, prec, {})
            else:
                _check(sa * sb, prec, _terms(la + lb, naive_mul(ca, cb), prec))

        if not cb:
            with pytest.raises(SeriesZeroDivisionError):
                sa / sb
        elif sa == ZERO_SERIES:
            assert sa / sb == ZERO_SERIES
        elif a[2] == EXACT and b[2] == EXACT:
            with pytest.raises(ValueError):
                sa / sb
        else:
            prec = _quotient_prec(a, b, la, lb)
            if not ca:
                _check(sa / sb, prec, {})
            else:
                quot = naive_series_div(ca, cb, prec - la + lb + 1)
                _check(sa / sb, prec, _terms(la - lb, quot, prec))

        k = rng.choice([0, 3, Fraction(-7, 2 ** 80 + 1)])
        if k == 0:
            assert sa * GeneralLaurent.exact_scalar(k) == ZERO_SERIES
        else:
            scaled = _terms(a[0], [c * k for c in a[1]], a[2])
            _check(sa * GeneralLaurent.exact_scalar(k), a[2], scaled)
        value = rng.choice([0, 5, Fraction(2 ** 89, 3)])
        _check(sa + GeneralLaurent.exact_scalar(value), a[2],
               _oracle_sum(a, (0, [value], EXACT), a[2]))
        top = a[0] + len(a[1]) + 1 if a[2] == EXACT else a[2]
        cut = rng.randint(a[0] - 2, top)
        _check(sa.truncate(cut), cut, _terms(a[0], a[1], cut))


def test_exact_zero_is_the_zero_to_prec_rule_at_infinity():
    """ZERO_SERIES is (prec + 1, ZERO, prec) at prec = EXACT, and every
    route to an exact zero lands on it, against finite and exact operands."""
    assert ZERO_SERIES == GeneralLaurent(EXACT + 1, ZERO, EXACT)
    _assert_canonical(ZERO_SERIES)
    assert GeneralLaurent.exact_scalar(0) == ZERO_SERIES
    assert GeneralLaurent.make(-2, [0, 0, 0], EXACT) == ZERO_SERIES
    rng = random.Random(62)
    for case in range(24):
        lead, cs, prec = _plain_operand(rng, case)
        s = GeneralLaurent.make(lead, cs, prec)
        for result in (s * ZERO_SERIES, ZERO_SERIES * s,
                       eval_poly_on_powers(ZERO, series_powers(s, 1))):
            assert result == ZERO_SERIES
        assert s + ZERO_SERIES == s and ZERO_SERIES - s == -s
        if not s.is_zero:
            assert ZERO_SERIES / s == ZERO_SERIES
        cut = rng.randint(-4, 6)
        _check(ZERO_SERIES.truncate(cut), cut, {})


def test_substitute_power_matches_spread_coefficients():
    rng = random.Random(60)
    for case in range(40):
        cs = _plain_operand(rng, case)[1]
        r = rng.randint(1, 4)
        spread = [Fraction(0)] * (r * len(cs) + 1)
        spread[0] = Fraction(1)
        spread[r::r] = cs
        out = substitute_power(QSeries.from_coeffs(cs), r)
        _check(out, r * (len(cs) - 1), _terms(-r, spread, r * (len(cs) - 1)))


def test_equal_values_from_different_spellings_are_equal():
    rng = random.Random(61)
    for case in range(40):
        lead, cs, prec = _plain_operand(rng, case)
        s = GeneralLaurent.make(lead, cs, prec)
        spellings = [
            GeneralLaurent.make(lead - 2, [0, 0] + cs, prec),
            s * GeneralLaurent.exact_scalar(Fraction(3, 2 ** 70))
            * GeneralLaurent.exact_scalar(Fraction(2 ** 70, 3)),
            (s + s) * GeneralLaurent.exact_scalar(Fraction(1, 2)),
            s * GeneralLaurent.exact_scalar(1),
            s + GeneralLaurent.exact_scalar(Fraction(1, 7))
            + GeneralLaurent.exact_scalar(Fraction(-1, 7)),
        ]
        if prec == EXACT:
            spellings.append(GeneralLaurent.make(lead, cs + [0, 0], EXACT))
        for other in spellings:
            _assert_canonical(other)
            assert other == s and hash(other) == hash(s)
        q = QSeries.from_coeffs(cs)
        assert QSeries.from_laurent(q.laurent) == q
        assert QSeries.from_laurent(q.laurent).coeffs == tuple(cs)
        assert hash(QSeries.from_coeffs(list(cs))) == hash(q)


def test_paterson_stockmeyer_matches_horner_in_value_and_precision():
    """eval_poly_on_powers against Horner's rule (tests/oracles.py) on
    every table t^0..t^k, k = 1..deg p + 1, not only block_size(deg p): a
    Newton step evaluates polynomials of several degrees on one table.
    Leads -3..3, exact, finite and zero-to-prec series, and degrees 0..40
    with runs of zero coefficients; dataclass equality compares the
    certified precision too.  eval_ratfun_at_series shares one table of
    powers between num and den and must give Horner's num / Horner's den."""
    from moondec.errors import EmptyPrecisionError, PrecisionExhaustedError
    from oracles import horner_eval

    rng = random.Random(2105)
    for lead in range(-3, 4):
        for kind in ("exact", "finite", "zero"):
            for degree in range(41):
                length = rng.randint(0, 8)
                body = [rng.choice([1, -1, 2, Fraction(-3, 2)])] + \
                    [rng.choice([0, 0, rng.randint(-5, 5)])
                     for _ in range(length)]
                if kind == "exact":
                    t = GeneralLaurent.make(lead, body, EXACT)
                elif kind == "finite":
                    t = GeneralLaurent.make(lead, body, lead + length)
                else:
                    t = GeneralLaurent.make(lead, [0] * (length + 1),
                                            lead + length)
                coeffs = [rng.choice([0, 0, rng.randint(-9, 9),
                                      Fraction(rng.randint(-9, 9),
                                               rng.randint(1, 9))])
                          for _ in range(degree)]
                p = Poly.from_coeffs(coeffs + [rng.choice([1, -4, 7])])
                want = horner_eval(p, t)
                powers = series_powers(t, degree + 1)
                for k in range(1, degree + 2):
                    assert eval_poly_on_powers(p, powers[:k + 1]) == want
                q = Poly.from_coeffs([rng.randint(-3, 3) for _ in
                                      range(rng.randint(0, degree + 1))]
                                     + [1])
                try:
                    want = horner_eval(p, t) / horner_eval(q, t)
                except EmptyPrecisionError:
                    want = PrecisionExhaustedError
                except (SeriesZeroDivisionError, ValueError) as exc:
                    want = type(exc)
                try:
                    got = eval_ratfun_at_series(RatFun(p, q), t)
                except (PrecisionExhaustedError, SeriesZeroDivisionError,
                        ValueError) as exc:
                    got = type(exc)
                assert got == want
