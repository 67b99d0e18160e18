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


def _printed(rng):
    """A seeded function in its printed form: integer and fractional
    coefficients up to 60 digits, zero terms, constant and polynomial
    cases."""
    def poly(top):
        return Poly.from_coeffs(
            [Fraction(rng.choice([0, rng.randint(-9, 9),
                                  rng.randint(-10 ** 60, 10 ** 60)]),
                      rng.choice([1, 1, rng.randint(1, 10 ** 6)]))
             for _ in range(rng.randint(0, top))] + [rng.randint(1, 99)])
    num, den = poly(12), poly(rng.choice([0, 0, 6]))
    return ratfun_text(RatFun.make(num, den))


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def test_printed_text_is_read_without_the_descent_parser(monkeypatch):
    """Printed functions take the fast path, and it reads each to the
    value the recursive-descent parser gives."""
    rng = random.Random(2103)
    texts = [_printed(rng) for _ in range(300)]
    want = [parsing._parse_descent(text) for text in texts]

    def refuse(text):
        raise AssertionError(f"descent parser called on {text!r}")

    monkeypatch.setattr(parsing, "_parse_descent", refuse)
    assert [parse_ratfun(text) for text in texts] == want
    assert any("/" in text and "(" not in text for text in texts)


def test_fast_path_falls_through_on_malformed_printed_text():
    """Variants the fast path must not accept by itself give the same
    RatFun, or the same error class, message and position, as the
    recursive-descent parser."""
    rng = random.Random(2104)
    long = "7" * 5000
    variants = ["x^2 + 1", " x", "x^0", "3*x^0-1", "x^513", "(x)/(x^513)",
                "x^512", f"{long}*x+1", f"x-{long}", f"(x)/({long})",
                f"1/{long}*x", "1/0", "x-1/0*x^2", "(x)/(0)", "(x)/(x-x)",
                "٣*x", "x^٣", "x+٣", "+x", "+3*x^2-1", "(+x)/(x+1)", "x+-1",
                "x^2^3", "3^2", "2*3*x", "x*x", "(x+1)", "(x)/(x)/(x)",
                "((x))/(x)", "()/()", "", "x^", "1/", "/2", "-", "x--1"]
    for _ in range(150):
        text = _printed(rng)
        i = rng.randrange(len(text) + 1)
        variants += [text[:i] + rng.choice([" ", "+", "٣", "^0", "(", ")"])
                     + text[i:], "+" + text, text.replace("^", "^0", 1)]
    for text in variants:
        assert _outcome(parse_ratfun, text) == \
            _outcome(parsing._parse_descent, text), text
