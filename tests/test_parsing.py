import random
import time
from fractions import Fraction

import pytest

from moondec import parsing
from moondec.errors import RatFunSyntaxError, ZeroDenominatorError
from moondec.parsing import parse_ratfun
from moondec.polynomials import Poly, X, ONE
from moondec.ratfun import RatFun, ratfun_text


def test_basic_forms():
    assert parse_ratfun("x^2/(x-1)") == RatFun(
        Poly.from_coeffs([0, 0, 1]), Poly.from_coeffs([-1, 1]))
    assert parse_ratfun("  x +  1 ") == RatFun(Poly.from_coeffs([1, 1]), ONE)
    assert parse_ratfun("5") == RatFun.constant(5)
    assert parse_ratfun("-x") == RatFun(Poly.from_coeffs([0, -1]), ONE)


def test_precedence_and_parens():
    assert parse_ratfun("2*x+3*x^2") == parse_ratfun("3*x^2+2*x")
    assert parse_ratfun("1/2*x") == parse_ratfun("x/2")
    assert parse_ratfun("(x+1)^2") == parse_ratfun("x^2+2*x+1")
    assert parse_ratfun("x-x-x") == parse_ratfun("-x")


def test_flagship_parses(flagship):
    assert flagship.num == Poly.from_coeffs(
        [0, 0, 0, 10077696, 0, 0, 139968, 0, 0, 648, 0, 0, 1])
    assert flagship.den == Poly.from_coeffs(
        [-19683, 0, 0, 2187, 0, 0, -81, 0, 0, 1])


def test_zero_denominator():
    with pytest.raises(ZeroDenominatorError):
        parse_ratfun("x/(x-x)")


def test_syntax_errors_carry_positions():
    with pytest.raises(RatFunSyntaxError) as err:
        parse_ratfun("x^")
    assert err.value.position == 2
    with pytest.raises(RatFunSyntaxError):
        parse_ratfun("x^0")
    with pytest.raises(RatFunSyntaxError):
        parse_ratfun("(x+1")
    with pytest.raises(RatFunSyntaxError):
        parse_ratfun("x+")
    with pytest.raises(RatFunSyntaxError):
        parse_ratfun("y+1")
    with pytest.raises(RatFunSyntaxError):
        parse_ratfun("x 1")


def test_print_parse_round_trip(flagship):
    cases = [
        flagship,
        parse_ratfun("x"),
        parse_ratfun("-x^3+x/7"),
        parse_ratfun("(x^2+3*x/2-1)/(x^3-5)"),
        parse_ratfun("1/x"),
    ]
    for f in cases:
        assert parse_ratfun(ratfun_text(f)) == f


def _rejected_fast(text):
    start = time.perf_counter()
    with pytest.raises(RatFunSyntaxError) as err:
        parse_ratfun(text)
    assert time.perf_counter() - start < 1.0
    return err.value


def test_nesting_depth_is_bounded():
    depth = parsing.MAX_DEPTH
    assert parse_ratfun("(" * depth + "x" + ")" * depth) == RatFun.identity()
    err = _rejected_fast("(" * (depth + 1) + "x" + ")" * (depth + 1))
    assert err.position == depth
    _rejected_fast("(" * 3000 + "x" + ")" * 3000)


def test_oversized_powers_rejected_before_computing():
    assert parse_ratfun(f"x^{parsing.MAX_DEGREE}").degree == parsing.MAX_DEGREE
    _rejected_fast(f"x^{parsing.MAX_DEGREE + 1}")
    _rejected_fast("(x+1)^123456789123456789")
    _rejected_fast("((x^2+1)^20)^200")
    _rejected_fast("7^10000000")
    _rejected_fast("(123456789*x)^500")
    _rejected_fast("1" * 5000)


def test_power_cap_bits_read_the_coefficients_in_lowest_terms():
    # the cap's estimate is that of each coefficient as a reduced Fraction,
    # so the integer storage accepts and rejects exactly the same powers
    def fraction_bits(f):
        coeffs = f.num.coeffs + f.den.coeffs
        top = max(max(c.numerator.bit_length(), c.denominator.bit_length())
                  for c in coeffs)
        return top + len(coeffs).bit_length()

    rng = random.Random(12)
    cases = [parse_ratfun("0"), parse_ratfun("x^3/7"), RatFun.identity()]
    for _ in range(60):
        num = Poly.from_coeffs(
            [Fraction(rng.randint(-2 ** 40, 2 ** 40) * rng.randint(0, 1),
                      rng.randint(1, 2 ** rng.randint(1, 60)))
             for _ in range(rng.randint(1, 6))])
        den = Poly.from_coeffs([Fraction(rng.randint(-99, 99), rng.randint(1, 8))
                                for _ in range(rng.randint(0, 4))] + [1])
        cases.append(RatFun.make(num, den))
    for f in cases:
        assert parsing._bits(f) == fraction_bits(f)
