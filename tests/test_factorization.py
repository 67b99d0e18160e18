import random
from fractions import Fraction

import pytest

from moondec.errors import VerificationFailureError, ZeroPolyError
from moondec.factorization import Factorization, factor
from moondec.polynomials import ONE, Poly, X
from oracles import FLAGSHIP_NUM, has_integer_factor_pair, naive_eval


def P(*coeffs):
    return Poly.from_coeffs(coeffs)


def test_flagship_numerator_factors():
    fact = factor(Poly.from_coeffs(FLAGSHIP_NUM))
    assert fact.unit == 1
    assert fact.factors == (
        (X, 3),
        (P(6, 1), 3),
        (P(36, -6, 1), 3),
    )
    # the quadratic really is irreducible: negative discriminant
    assert (-6) ** 2 - 4 * 36 < 0


def test_difference_of_squares():
    fact = factor(P(-1, 0, 1))
    assert fact.factors == ((P(-1, 1), 1), (P(1, 1), 1))


def test_x4_plus_1_irreducible():
    # brute-force oracle: no integer factor of degree 1 or 2 exists
    assert not has_integer_factor_pair([1, 0, 0, 0, 1], 1)
    assert not has_integer_factor_pair([1, 0, 0, 0, 1], 2)
    fact = factor(P(1, 0, 0, 0, 1))
    assert fact.factors == ((P(1, 0, 0, 0, 1), 1),)


def test_unit_and_rational_scaling():
    fact = factor(P(0, 0, Fraction(5, 3)))
    assert fact.unit == Fraction(5, 3)
    assert fact.factors == ((X, 2),)
    with pytest.raises(ZeroPolyError):
        factor(Poly.from_coeffs([]))
    assert factor(P(7)).factors == ()


def test_random_products_reexpand():
    rng = random.Random(12)
    for _ in range(100):
        target = ONE.scale(rng.choice([1, 2, -3, Fraction(1, 2)]))
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 3)
            coeffs = [rng.randint(-5, 5) for _ in range(deg)] + [1]
            target = target * Poly.from_coeffs(coeffs)
        fact = factor(target)
        assert fact.expand() == target
        for p, mult in fact.factors:
            assert mult >= 1
            assert p.lc == 1
            assert p.degree >= 1


def test_reported_low_degree_factors_have_no_rational_root_unless_linear():
    rng = random.Random(13)
    for _ in range(60):
        coeffs = [rng.randint(-6, 6) for _ in range(rng.randint(2, 5))] + [1]
        fact = factor(Poly.from_coeffs(coeffs))
        for p, _ in fact.factors:
            if 2 <= p.degree <= 3:
                # rational-root theorem, exhaustively: clear to integers,
                # then every rational root is (divisor of constant) /
                # (divisor of leading)
                from moondec.polynomials import clear_denominators
                ints, _ = clear_denominators(p.coeffs)
                lead, const = ints[-1], ints[0]
                assert const != 0, "nonlinear factor divisible by x"
                roots = set()
                for dn in range(1, abs(lead) + 1):
                    if lead % dn:
                        continue
                    for nm in range(1, abs(const) + 1):
                        if const % nm:
                            continue
                        roots.add(Fraction(nm, dn))
                        roots.add(Fraction(-nm, dn))
                for root in roots:
                    assert naive_eval(list(p.coeffs), root) != 0


def test_high_degree_cyclotomic_like():
    # x^12 - 1 has the full classical factor list
    fact = factor(P(*([-1] + [0] * 11 + [1])))
    degrees = sorted(p.degree for p, _ in fact.factors)
    assert degrees == [1, 1, 2, 2, 2, 4]
    assert fact.expand() == P(*([-1] + [0] * 11 + [1]))


def test_degree_72_cyclotomic_product():
    # the degrees in this domain reach the seventies; x^72 - 1 splits into
    # the twelve cyclotomic factors of the divisors of 72
    f = P(*([-1] + [0] * 71 + [1]))
    fact = factor(f)
    assert sorted(p.degree for p, _ in fact.factors) == \
        [1, 1, 2, 2, 2, 4, 4, 6, 6, 8, 12, 24]
    assert fact.expand() == f


def test_determinism():
    poly = P(-6, 1, 5, -2, 1, 1)
    assert factor(poly) == factor(poly)


def test_failed_invariant_is_a_verification_failure(monkeypatch):
    # the re-expansion check must hold under python -O too, so it cannot
    # be an assert
    monkeypatch.setattr(Factorization, "expand", lambda self: ONE)
    with pytest.raises(VerificationFailureError):
        factor(P(-1, 0, 1))
