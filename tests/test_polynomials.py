import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moondec.errors import BothZeroError, ZeroDivisionPolyError, ZeroPolyError
from moondec import polynomials
from moondec.polynomials import (
    GCD_PRIME,
    MINUS_INFINITY,
    ONE,
    ZERO,
    Poly,
    X,
    combine,
    poly_divrem,
    poly_gcd,
    poly_inverse_mod,
    poly_text,
    squarefree_decomposition,
)
from oracles import (
    FLAGSHIP_DEN,
    FLAGSHIP_NUM,
    naive_add,
    naive_divrem,
    naive_eval,
    naive_mul,
    naive_pow,
)


def P(*coeffs):
    return Poly.from_coeffs(coeffs)


def test_degree_of_zero_is_a_marker_not_a_number():
    assert Poly.from_coeffs([]).degree is MINUS_INFINITY
    assert MINUS_INFINITY < 0
    assert MINUS_INFINITY < -10 ** 9
    assert not MINUS_INFINITY >= 0
    assert P(3).degree == 0


def test_degree_of_a_product_with_zero_is_the_sum_of_degrees():
    for p in (ZERO, ONE, P(0, 3), P(1, -2, 0, Fraction(5, 7))):
        assert (p * ZERO).degree == p.degree + ZERO.degree == MINUS_INFINITY
        assert (ZERO * p).degree is MINUS_INFINITY


def test_divrem_telescoping():
    q, r = poly_divrem(P(-1, 0, 0, 1), P(-1, 1))  # (x^3 - 1) / (x - 1)
    assert q == P(1, 1, 1)
    assert r.is_zero


def test_divrem_constant_remainder():
    q, r = poly_divrem(P(1, 0, 1), P(0, 0, 1))  # (x^2 + 1) / x^2
    assert q == ONE
    assert r == ONE


def test_divrem_flagship_numerator_by_cube():
    num = Poly.from_coeffs(FLAGSHIP_NUM)
    cube = Poly.from_coeffs(naive_pow([6, 1], 3))  # (x+6)^3 by the oracle
    q, r = poly_divrem(num, cube)
    assert r.is_zero
    assert q * cube == num


def test_divrem_zero_divisor():
    with pytest.raises(ZeroDivisionPolyError):
        poly_divrem(X, Poly.from_coeffs([]))


coeff = st.integers(min_value=-9, max_value=9)


@settings(max_examples=200, deadline=None)
@given(st.lists(coeff, max_size=9), st.lists(coeff, min_size=1, max_size=9))
def test_divrem_reconstruction(a_coeffs, b_coeffs):
    a = Poly.from_coeffs(a_coeffs)
    b = Poly.from_coeffs(b_coeffs)
    if b.is_zero:
        return
    q, r = poly_divrem(a, b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree


def test_gcd_simple():
    assert poly_gcd(P(-1, 0, 1), P(1, -2, 1)) == P(-1, 1)


def test_gcd_with_zero_gives_monic():
    assert poly_gcd(P(2, 4), Poly.from_coeffs([])) == P(Fraction(1, 2), 1)
    with pytest.raises(BothZeroError):
        poly_gcd(Poly.from_coeffs([]), Poly.from_coeffs([]))


def test_gcd_flagship_parts_coprime():
    num = Poly.from_coeffs(FLAGSHIP_NUM)
    den = Poly.from_coeffs(FLAGSHIP_DEN)
    assert poly_gcd(num, den) == ONE


@settings(max_examples=100, deadline=None)
@given(st.lists(coeff, min_size=1, max_size=5),
       st.lists(coeff, min_size=1, max_size=5),
       st.lists(coeff, min_size=1, max_size=4))
def test_gcd_divides_both_and_catches_common_factor(ac, bc, gc):
    a = Poly.from_coeffs(ac)
    b = Poly.from_coeffs(bc)
    g = Poly.from_coeffs(gc)
    if a.is_zero or b.is_zero or g.is_zero:
        return
    d = poly_gcd(a * g, b * g)
    _, r1 = poly_divrem(a * g, d)
    _, r2 = poly_divrem(b * g, d)
    assert r1.is_zero and r2.is_zero
    if g.degree >= 1:
        _, r3 = poly_divrem(d, g.monic())
        assert r3.is_zero


def test_squarefree_cubed_pair():
    cubed = Poly.from_coeffs(naive_mul(naive_pow([0, 1], 3),
                                       naive_pow([6, 1], 3)))
    assert squarefree_decomposition(cubed) == [(P(0, 6, 1), 3)]


def test_squarefree_trivial_and_unit():
    assert squarefree_decomposition(P(1, 0, 1)) == [(P(1, 0, 1), 1)]
    assert squarefree_decomposition(P(0, 0, 0, 0, 5)) == [(X, 4)]
    with pytest.raises(ZeroPolyError):
        squarefree_decomposition(Poly.from_coeffs([]))


def test_squarefree_reexpansion_random():
    rng = random.Random(5)
    for _ in range(50):
        parts = []
        total = ONE
        for mult in range(1, rng.randint(2, 4)):
            p = Poly.from_coeffs([rng.randint(-4, 4), rng.randint(1, 3)])
            total = total * p ** mult
            parts.append((p, mult))
        out = squarefree_decomposition(total)
        rebuilt = Poly.constant(total.lc)
        for p, m in out:
            rebuilt = rebuilt * p ** m
        assert rebuilt == total


def test_text_round_trip_shapes():
    assert poly_text(P(36, -6, 1)) == "x^2-6*x+36"
    assert poly_text(P(0)) == "0"
    assert poly_text(P(Fraction(3, 2), 0, -1)) == "-x^2+3/2"
    assert poly_text(X) == "x"


# -- the integer core against the naive Fraction oracles ----------------------

def assert_canonical(p):
    """nums/den trimmed, den > 0 and gcd(den, *nums) == 1, all ints."""
    assert type(p.nums) is tuple and all(type(n) is int for n in p.nums)
    assert type(p.den) is int and p.den > 0
    assert not p.nums or p.nums[-1] != 0
    assert gcd(p.den, *p.nums) == 1


def check(p, expected):
    assert_canonical(p)
    assert list(p.coeffs) == naive_add(expected, [])


KINDS = ("zero", "constant", "integer", "fraction", "large denominator")


def random_coeffs(rng, kind):
    if kind == "zero":
        return []
    if kind == "constant":
        return [Fraction(rng.choice([-7, -1, 1, 3]), rng.randint(1, 5))]
    n = rng.randint(2, 7)
    if kind == "integer":
        cs = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
    elif kind == "fraction":
        cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 12))
              for _ in range(n)]
    else:
        cs = [Fraction(rng.randint(-2 ** 70, 2 ** 70), rng.randint(1, 2 ** 90))
              for _ in range(n)]
    cs[-1] = cs[-1] or Fraction(rng.choice([-2, 5]))
    return cs


def test_integer_core_matches_the_naive_oracles():
    rng = random.Random(8)
    cases = [random_coeffs(rng, KINDS[k % len(KINDS)]) for k in range(40)]
    points = (0, 1, -2, Fraction(3, 7), Fraction(-5, 2 ** 40))
    for ac in cases:
        a = Poly.from_coeffs(ac)
        check(a, ac)
        check(-a, naive_mul(ac, [-1]))
        check(a + (-a), [])  # cancels to zero
        check(a - a, [])
        check(a.derivative(), [i * c for i, c in enumerate(ac)][1:])
        k = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 2 ** 64))
        check(a * Poly.constant(k), naive_mul(ac, [k]))
        check(a * Poly.constant(-3), naive_mul(ac, [-3]))
        check(a * Poly.constant(0), [])
        if ac:
            check(a.monic(), [c / ac[-1] for c in ac])
        for point in points:
            assert a.evaluate(point) == naive_eval(ac, Fraction(point))
        for bc in rng.sample(cases, 8):
            b = Poly.from_coeffs(bc)
            check(a + b, naive_add(ac, bc))
            check(a - b, naive_add(ac, naive_mul(bc, [-1])))
            check(a * b, naive_mul(ac, bc))
            if not bc:
                continue
            q, r = poly_divrem(a, b)
            want_q, want_r = naive_divrem(ac, bc)
            check(q, want_q)
            check(r, want_r)
            q, r = poly_divrem(a * b, b)  # exact: the remainder cancels
            check(q, ac)
            check(r, [])


def test_equal_values_have_equal_fields_and_hashes():
    half = Fraction(1, 2)
    forms = [
        Poly.from_coeffs([half, 1]),
        Poly.from_coeffs([Fraction(2, 4), Fraction(3, 3)]),
        P(1, 2) * Poly.constant(half),
        P(-3, -6) * Poly.constant(Fraction(-1, 6)),
        P(1, 2, 5) - P(half, 1, 5),
        poly_divrem(P(1, 2) * P(0, 3), P(0, 6))[0],
        P(2, 4).monic(),
        P(half, 1) ** 2 - P(Fraction(1, 4), 0, 1) - X + P(half, 1) - ZERO,
    ]
    for p in forms:
        assert_canonical(p)
        assert (p.nums, p.den) == ((1, 2), 2)
        assert p == forms[0] and hash(p) == hash(forms[0])
    assert len(set(forms)) == 1
    assert ZERO == Poly((), 1) and P(0, 0) == ZERO
    assert_canonical(Poly.from_coeffs([]))


# -- coprimality certified mod GCD_PRIME ----------------------------------------

def test_coprime_pair_is_certified_without_the_prs(monkeypatch):
    calls = []
    divrem = polynomials.poly_divrem

    def counting(a, b):
        calls.append((a.degree, b.degree))
        return divrem(a, b)

    monkeypatch.setattr(polynomials, "poly_divrem", counting)
    a, b = P(1, 1) ** 500, P(2, 1) ** 500
    assert poly_gcd(a, b) == ONE
    assert poly_gcd(b, a * Poly.constant(Fraction(1, 3))) == ONE
    assert calls == []
    # a common factor still goes through the PRS
    assert poly_gcd(a, P(1, 1) ** 3 * P(5, 1)) == P(1, 1) ** 3
    assert calls


def sympy_gcd(a, b):
    import sympy as sp
    x = sp.Symbol("x")

    def to_sympy(p):
        return sp.Poly([sp.Rational(c.numerator, c.denominator)
                        for c in reversed(p.coeffs)], x, domain="QQ")

    g = to_sympy(a).gcd(to_sympy(b)).monic()
    return [Fraction(int(c.p), int(c.q)) for c in reversed(g.all_coeffs())]


def test_inverse_mod_matches_sympy_invert():
    """poly_inverse_mod against sympy.invert over Q, on seeded pairs that
    are coprime, share a planted factor, or have a divisible by m."""
    import sympy as sp
    x = sp.Symbol("x")

    def to_sympy(p):
        return sp.Poly([sp.Rational(c.numerator, c.denominator)
                        for c in reversed(p.coeffs)], x, domain="QQ")

    rng = random.Random(34)

    def rand(degree):
        return Poly.from_coeffs(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             for _ in range(degree)] + [rng.choice([1, -2, 3, Fraction(1, 5)])])

    kinds = set()
    for k in range(60):
        m = rand(rng.randint(1, 8))
        a = rand(rng.randint(0, 12))
        if k % 4 == 1:
            common = rand(rng.randint(1, 3))
            m, a = m * common, a * common
        elif k % 4 == 2:
            a = a * m
        got = poly_inverse_mod(a, m)
        try:
            want = sp.invert(to_sympy(a), to_sympy(m))
        except sp.polys.polyerrors.NotInvertible:
            assert got is None, (a, m)
            kinds.add("none")
            continue
        assert_canonical(got)
        assert got.degree < m.degree
        assert list(got.coeffs) == [Fraction(int(c.p), int(c.q)) for c
                                    in reversed(want.all_coeffs())]
        assert poly_divrem(got * a - ONE, m)[1].is_zero
        kinds.add("unit")
    assert kinds == {"none", "unit"}
    # a constant modulo m inverts to a constant
    assert poly_inverse_mod(P(4, 0, 2), P(0, 0, 1)) == P(Fraction(1, 4))
    assert poly_inverse_mod(P(0, 0, 1), P(0, 0, 1)) is None


def _count_certificates(monkeypatch):
    """A list that gets one entry per Euclid run modulo GCD_PRIME."""
    calls = []
    pm_gcd = polynomials._kernels.pm_gcd

    def counting(a, b, p):
        calls.append(p)
        return pm_gcd(a, b, p)

    monkeypatch.setattr(polynomials._kernels, "pm_gcd", counting)
    return calls


def test_gcd_matches_sympy_on_planted_common_factors(monkeypatch):
    # leads that are multiples of GCD_PRIME drop a degree mod the prime:
    # on a common factor (kind 0) the images can be coprime although the
    # inputs are not, so the certificate must not run there
    certificates = _count_certificates(monkeypatch)
    rng = random.Random(61)

    def factor_coeffs(degree, lead):
        return [rng.randint(-60, 60) for _ in range(degree)] + [lead]

    def small_lead():
        return rng.choice([-3, -1, 1, 2, 7])

    for k in range(36):
        kind = k % 3
        g = factor_coeffs(rng.randint(1, 3), GCD_PRIME * rng.randint(1, 3)
                          if kind == 0 else small_lead())
        u = factor_coeffs(rng.randint(0, 4), GCD_PRIME if kind == 1
                          else small_lead())
        v = factor_coeffs(rng.randint(0, 4), small_lead())
        a = Poly.from_coeffs(naive_mul(g, u)) * Poly.constant(
            Fraction(1, rng.randint(1, 9)))
        b = Poly.from_coeffs(naive_mul(g, v)) * Poly.constant(
            rng.randint(1, 9))
        got = poly_gcd(a, b)
        assert_canonical(got)
        assert list(got.coeffs) == sympy_gcd(a, b)
        assert got.degree >= len(g) - 1
        assert poly_gcd(b, a) == got
        # a lead divisible by the prime skips the Euclid run mod the prime;
        # with small leads it runs, finds the common factor and falls back
        assert certificates == [GCD_PRIME] * (2 if kind == 2 else 0)
        certificates.clear()


@pytest.mark.parametrize("pair", [
    ([-1, 1], [-1 - GCD_PRIME, 1]),
    ([-2, 1, 1], [-3 - 3 * GCD_PRIME, 2 - GCD_PRIME, 1]),
    ([1, 0, 1], [1 + GCD_PRIME, GCD_PRIME, 1]),
    ([GCD_PRIME + 5, 3, 0, 7], [5, 3 + 2 * GCD_PRIME, 0, 7]),
])
def test_pair_coprime_over_q_but_not_mod_the_prime_takes_the_prs(
        monkeypatch, pair):
    # the images share a factor modulo GCD_PRIME although the inputs are
    # coprime: Euclid modulo the prime proves nothing, and the PRS still
    # returns ONE
    a, b = (Poly.from_coeffs(c) for c in pair)
    assert len(polynomials._kernels.pm_gcd(
        [c % GCD_PRIME for c in a.nums], [c % GCD_PRIME for c in b.nums],
        GCD_PRIME)) > 1
    certificates = _count_certificates(monkeypatch)
    divisions = []
    divrem = polynomials.poly_divrem

    def counting(a, b):
        divisions.append(1)
        return divrem(a, b)

    monkeypatch.setattr(polynomials, "poly_divrem", counting)
    for x, y in ((a, b), (b * Poly.constant(Fraction(-2, 3)), a)):
        assert poly_gcd(x, y) == ONE
        assert sympy_gcd(x, y) == [1]
    assert certificates == [GCD_PRIME] * 2 and divisions


def _fraction_combination(terms, size):
    """sum w * x^s * p with plain Fractions: (the length combine must
    return, the coefficients)."""
    live = [(w, s, p) for w, s, p in terms if w and not p.is_zero]
    length = max(0, min(max((s + len(p.coeffs) for _, s, p in live),
                            default=0), size))
    out = [Fraction(0)] * length
    for w, s, p in live:
        for i, c in enumerate(p.coeffs, s):
            if i < length:
                out[i] += w * c
    return length, out


def test_combine_matches_fraction_arithmetic():
    """combine against plain Fraction sums on seeded terms: mixed
    denominators, zero weights, zero polynomials and shifts, cut below a
    shift, at or below zero and beyond the support."""
    rng = random.Random(2701)
    dens = [1, 1, 2, 3, 4, 7, 9, 2 ** 70 + 1]
    cases = [[], [(0, 0, P(1, 2)), (0, 3, P(Fraction(1, 3)))],
             [(5, 2, ZERO), (-1, 0, ZERO)]]
    weights = [0, 1, -1, 3, 10 ** 20, -(10 ** 20) + 7]
    for _ in range(300):
        cases.append([(rng.choice(weights), rng.randint(0, 5),
                       Poly.from_coeffs(
                           [Fraction(rng.choice([0, rng.randint(-9, 9)]),
                                     rng.choice(dens))
                            for _ in range(rng.randint(0, 6))]))
                      for _ in range(rng.randint(0, 4))])
    for terms in cases:
        for size in (float("inf"), -2, 0, 1, 3, 8, 20):
            length, expect = _fraction_combination(terms, size)
            nums, den = combine(iter(terms), size)
            assert den == lcm(*(p.den for w, _, p in terms
                                if w and not p.is_zero))
            assert len(nums) == length
            assert [Fraction(n, den) for n in nums] == expect
    assert combine([]) == ([], 1)
    assert combine([(0, 0, P(1, 2))]) == ([], 1)
    assert combine([(3, 4, P(Fraction(1, 2)))], 2) == ([0, 0], 2)
    assert combine([(1, 1, P(1, Fraction(1, 3))), (-2, 0, P(5))]) == (
        [-30, 3, 1], 3)
    assert combine([(1, 0, P(1))], -1) == ([], 1)
    # the sum is not canonical: a cancelled top entry stays
    assert combine([(1, 0, X), (-1, 0, X)]) == ([0, 0], 1)
