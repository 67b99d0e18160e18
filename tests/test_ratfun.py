import math
import random
from fractions import Fraction

import pytest

from moondec.errors import (
    ConstantInnerError,
    InvalidInputError,
    ZeroDenominatorError,
)
from moondec.parsing import parse_ratfun
from moondec.polynomials import ONE, ZERO, Poly, X, poly_gcd
from moondec.ratfun import (
    INFINITY,
    RatFun,
    compose,
    evaluate,
    is_normal_form,
    to_normal_form,
    unit,
    unit_inverse,
)
from oracles import (
    FLAGSHIP_DEN,
    FLAGSHIP_NUM,
    homogenized_composition,
    naive_add,
    naive_mul,
)


def P(*coeffs):
    return Poly.from_coeffs(coeffs)


def test_make_reduces_and_normalizes():
    f = RatFun.make(P(-1, 0, 1), P(-1, 1))  # (x^2-1)/(x-1)
    assert f == RatFun(P(1, 1), ONE)
    assert RatFun.make(P(0, 2), P(2)) == RatFun(X, ONE)
    with pytest.raises(ZeroDenominatorError):
        RatFun.make(X, Poly.from_coeffs([]))


def test_make_flagship_already_reduced(flagship):
    rebuilt = RatFun.make(Poly.from_coeffs(FLAGSHIP_NUM),
                          Poly.from_coeffs(FLAGSHIP_DEN))
    assert rebuilt == flagship


def test_canonical_form_unique_under_scaling():
    rng = random.Random(31)
    for _ in range(50):
        num = Poly.from_coeffs([rng.randint(-5, 5) for _ in range(4)])
        den = Poly.from_coeffs([rng.randint(-5, 5) for _ in range(3)] + [1])
        if num.is_zero:
            continue
        k = Fraction(rng.randint(1, 7), rng.randint(1, 7)) * rng.choice([1, -1])
        assert RatFun.make(num, den) == RatFun.make(num * Poly.constant(k),
                                                  den * Poly.constant(k))


def test_degree():
    assert parse_ratfun("x+1").degree == 1
    assert parse_ratfun("x*(x+6)/(x-3)").degree == 2
    assert parse_ratfun("5").degree == 0


def test_degree_flagship(flagship):
    # numerator degree 12, denominator degree 9 (oracle expansions)
    assert len(FLAGSHIP_NUM) - 1 == 12
    assert len(FLAGSHIP_DEN) - 1 == 9
    assert flagship.degree == 12


def test_compose_chains_reproduce_flagship(flagship):
    cube = parse_ratfun("x^3")
    mid = parse_ratfun("x*(x-12)/(x-3)")
    inner = parse_ratfun("x*(x+6)/(x-3)")
    assert compose(compose(cube, mid), inner) == flagship
    assert compose(cube, compose(mid, inner)) == flagship
    outer2 = parse_ratfun("x^3*(x+24)/(x-3)")
    inner2 = parse_ratfun("x*(x^2-6*x+36)/(x^2+3*x+9)")
    assert compose(outer2, inner2) == flagship


def test_compose_identity_and_constant_inner(flagship):
    assert compose(flagship, RatFun.identity()) == flagship
    with pytest.raises(ConstantInnerError):
        compose(flagship, RatFun.constant(4))


def test_degree_multiplicativity_random():
    rng = random.Random(32)
    done = 0
    while done < 100:
        g = _random_ratfun(rng, rng.randint(2, 5))
        h = _random_ratfun(rng, rng.randint(2, 5))
        assert compose(g, h).degree == g.degree * h.degree
        done += 1


def test_compose_associative_random():
    rng = random.Random(33)
    for _ in range(25):
        f = _random_ratfun(rng, 2)
        g = _random_ratfun(rng, 2)
        h = _random_ratfun(rng, 2)
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


def _random_ratfun(rng, degree):
    while True:
        num = Poly.from_coeffs([rng.randint(-5, 5) for _ in range(degree)]
                               + [rng.randint(1, 5)])
        dd = rng.randint(0, degree - 1)
        den = Poly.from_coeffs([rng.randint(-5, 5) for _ in range(dd)] + [1])
        f = RatFun.make(num, den)
        if f.degree == degree:
            return f


def test_evaluate():
    assert evaluate(parse_ratfun("1/x"), 0) is INFINITY
    assert evaluate(parse_ratfun("x^2"), 3) == 9


def test_value_at_a_pole_is_float_infinity():
    for text, pole in (("1/x", 0), ("(x^2+1)/(x-3)", 3),
                       ("x/(2*x+1)^2", Fraction(-1, 2))):
        assert evaluate(parse_ratfun(text), pole) == math.inf
    assert evaluate(parse_ratfun("1/x"), 2) != INFINITY
    zero = RatFun.constant(0)
    assert zero.den == ONE and zero.degree == 0
    assert not is_normal_form(zero)


def test_evaluate_flagship_at_one(flagship):
    # direct substitution into the factored form:
    # 1 * 7^3 * 31^3 / ((-2)^3 * 13^3)
    expected = Fraction(7 ** 3 * 31 ** 3, (-2) ** 3 * 13 ** 3)
    assert evaluate(flagship, 1) == expected


def test_is_normal_form():
    assert is_normal_form(parse_ratfun("x^2/(x+1)"))
    assert not is_normal_form(parse_ratfun("(x^2+1)/x"))
    assert is_normal_form(parse_ratfun("x*(x+6)/(x-3)"))


def test_normal_form_identity_when_already_normal(flagship):
    u, v, fbar = to_normal_form(flagship)
    assert fbar == flagship
    assert u == RatFun.identity()
    assert v == RatFun.identity()


def test_normal_form_construction_and_round_trip():
    rng = random.Random(34)
    cases = [parse_ratfun("(x^2+1)/x"), parse_ratfun("1/x"),
             parse_ratfun("(3*x^2+2)/(x^2-1)")]
    cases += [_random_ratfun(rng, rng.randint(1, 4)) for _ in range(40)]
    for f in cases:
        u, v, fbar = to_normal_form(f)
        assert is_normal_form(fbar)
        # round trip: u^-1 o fbar o v^-1 = f
        back = compose(compose(unit_inverse(u), fbar), unit_inverse(v))
        assert back == f


def test_degree_one_normal_form_is_scaled_x():
    u, v, fbar = to_normal_form(parse_ratfun("1/x"))
    assert is_normal_form(fbar)
    assert fbar.degree == 1
    assert fbar.num.coeff(0) == 0 and fbar.den.degree == 0


def test_unit_inverse():
    u = unit(2, 3, 1, -4)  # (2x+3)/(x-4)
    inv = unit_inverse(u)
    assert compose(u, inv) == RatFun.identity()
    assert compose(inv, u) == RatFun.identity()
    assert unit_inverse(parse_ratfun("x+5")) == parse_ratfun("x-5")
    recip = parse_ratfun("1/x")
    assert unit_inverse(recip) == recip
    with pytest.raises(InvalidInputError):
        unit_inverse(parse_ratfun("x^2"))


def test_units_are_degree_one_and_closed_under_composition():
    rng = random.Random(35)
    for _ in range(50):
        while True:
            a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
            if a * d - b * c != 0:
                break
        u = unit(a, b, c, d)
        assert u.degree == 1
        assert u == parse_ratfun(f"({a}*x+{b})/({c}*x+{d})")
        while True:
            a2, b2, c2, d2 = (rng.randint(-5, 5) for _ in range(4))
            if a2 * d2 - b2 * c2 != 0:
                break
        both = compose(u, unit(a2, b2, c2, d2))
        # (u o w) is the unit of the 2x2 matrix product
        assert both == unit(a * a2 + b * c2, a * b2 + b * d2,
                            c * a2 + d * c2, c * b2 + d * d2)
        assert both.degree == 1


def test_canonical_unit_scaling():
    assert unit(2, 4, 0, 2) == unit(1, 2, 0, 1)
    assert unit(0, 3, 6, 0) == unit(0, 1, 2, 0)
    assert unit(Fraction(2, 3), -2, 4, 8) == unit(1, -3, 6, 12)
    with pytest.raises(ZeroDenominatorError):
        unit(1, 2, 2, 4)


def _random_poly(rng, degree):
    return Poly.from_coeffs([rng.randint(-6, 6) for _ in range(degree)]
                            + [rng.choice([-3, -1, 1, 2, 5])])


def _random_unit(rng):
    while True:
        a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
        if a * d - b * c != 0:
            return unit(a, b, c, d)


def _random_function(rng, num_degree, den_degree):
    while True:
        f = RatFun.make(_random_poly(rng, num_degree),
                        _random_poly(rng, den_degree))
        if f.degree >= 1:
            return f


def test_compose_needs_no_gcd_against_homogenized_oracle():
    # the homogenized sums of canonical g and h are coprime, so compose
    # only scales the denominator monic
    rng = random.Random(71)
    for k in range(200):
        kind = k % 5
        if kind == 0:
            g = RatFun.constant(rng.choice([0, 1, Fraction(-7, 3)]))
        elif kind == 1:
            g = _random_unit(rng)
        else:
            g = _random_function(rng, rng.randint(1, 4), rng.randint(0, 3))
        if kind == 1 or k % 7 == 0:
            h = _random_unit(rng)
        elif kind in (2, 3):  # deg num(h) <= deg den(h)
            dd = rng.randint(1, 3)
            h = _random_function(rng, rng.randint(0, dd), dd)
        else:
            h = _random_function(rng, rng.randint(1, 3), rng.randint(0, 2))
        num, den = homogenized_composition(
            list(g.num.coeffs), list(g.den.coeffs),
            list(h.num.coeffs), list(h.den.coeffs))
        num, den = Poly.from_coeffs(num), Poly.from_coeffs(den)
        if not num.is_zero:
            assert poly_gcd(num, den).degree == 0
        assert compose(g, h) == RatFun.make(num, den)


def test_polynomial_sum_and_product_are_canonical_without_a_gcd():
    rng = random.Random(72)
    for k in range(100):
        a = RatFun(_random_poly(rng, rng.randint(0, 5)), ONE)
        b = (-a if k % 5 == 0
             else RatFun(_random_poly(rng, rng.randint(0, 5)), ONE))
        total = naive_add(list(a.num.coeffs), list(b.num.coeffs))
        product = naive_mul(list(a.num.coeffs), list(b.num.coeffs))
        assert a + b == RatFun.make(Poly.from_coeffs(total), ONE)
        assert a * b == RatFun.make(Poly.from_coeffs(product), ONE)
        if k % 5 == 0:
            assert (a + b).num == ZERO and (a + b).den == ONE


def test_monic_den_scales_on_the_integers_like_the_fraction_route():
    # num * den(den) / lc-numerator(den), put over one integer denominator,
    # equals scaling num by the Fraction den.den / den.nums[-1]; negative
    # leading coefficients move their sign to the numerator
    from moondec.ratfun import _monic_den
    rng = random.Random(49)
    negative = 0

    def coeffs(k):
        return [Fraction(rng.randint(-60, 60), rng.randint(1, 12))
                for _ in range(k)]

    for _ in range(200):
        num = Poly.from_coeffs(coeffs(rng.randint(1, 6)))
        lead = Fraction(rng.choice([-1, 1]) * rng.randint(2, 90),
                        rng.randint(1, 12))
        den = Poly.from_coeffs(coeffs(rng.randint(0, 5)) + [lead])
        if num.is_zero or den.nums[-1] == den.den:
            continue
        negative += lead < 0
        got = _monic_den(num, den)
        scale = Fraction(den.den, den.nums[-1])
        assert got == RatFun(
            Poly.from_coeffs([c * scale for c in num.coeffs]), den.monic())
        assert got.den.lc == 1
        assert got.num.den > 0
    assert negative >= 60
