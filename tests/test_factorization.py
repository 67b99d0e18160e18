import random
from fractions import Fraction

import pytest

from moondec.errors import VerificationFailureError, ZeroPolyError
from moondec.factorization import Factorization, factor
from moondec.polynomials import ONE, Poly, X
from oracles import (
    FLAGSHIP_NUM,
    has_integer_factor_pair,
    naive_divrem,
    naive_eval,
    naive_mul,
)


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
        target = Poly.constant(rng.choice([1, 2, -3, Fraction(1, 2)]))
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


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_split_mod_p_matches_sympy_gf_factor_sqf(p):
    # random monic squarefree inputs, and x^m - 1 for m coprime to p, whose
    # factors come many to a degree (the equal-degree split's hard case)
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor_sqf, gf_sqf_p

    from moondec.factorization import _split_mod_p
    rng = random.Random(p)
    inputs = [[-1 % p] + [0] * (m - 1) + [1]
              for m in (8, 12, 24, 36, 60) if m % p]
    while len(inputs) < 38:
        f = [rng.randrange(p) for _ in range(rng.randint(1, 30))] + [1]
        if gf_sqf_p(f[::-1], p, ZZ):
            inputs.append(f)
    for f in inputs:
        _, want = gf_factor_sqf(f[::-1], p, ZZ)
        got = _split_mod_p(f, p)
        assert sorted(g[::-1] for g in got) == sorted(want)
        assert got == sorted(got, key=lambda g: (len(g), g))


def test_pm_add_and_sub_reduce_every_entry_like_sympy():
    # unreduced, negative and unequal-length inputs; sympy's gf_add and
    # gf_sub (leading coefficient first) run on the reduced inputs, since
    # they leave the longer operand's extra entries as they are
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_add, gf_sub, gf_trunc

    from moondec.factorization import _pm_add, _pm_sub
    rng = random.Random(72)
    seen = {"unequal": 0, "zero": 0}
    for i in range(300):
        p = rng.choice([3, 7, 13, 2 ** 61 - 1, 3 ** 40])
        a, b = ([rng.randint(-3 * p, 3 * p) for _ in range(rng.randint(0, 9))]
                for _ in range(2))
        if i % 10 == 0:
            b = [-c for c in a]
        fa, fb = (gf_trunc(c[::-1], p) for c in (a, b))
        for ours, theirs in ((_pm_add, gf_add), (_pm_sub, gf_sub)):
            got = ours(a, b, p)
            assert got == theirs(fa, fb, p, ZZ)[::-1], (a, b, p)
            assert all(0 <= c < p for c in got)
            seen["zero"] += not got
        seen["unequal"] += len(a) != len(b)
    assert min(seen.values()) >= 20, seen


def _sympy_monic_factors(ints):
    """unit and {monic factor coefficients: multiplicity} from sympy."""
    import sympy as sp
    x = sp.Symbol("x")
    _, pairs = sp.Poly(list(reversed(ints)), x).factor_list()
    out = {}
    for fac, mult in pairs:
        cs = [Fraction(int(c)) for c in reversed(fac.all_coeffs())]
        out[tuple(c / cs[-1] for c in cs)] = mult
    return Fraction(ints[-1]), out


def _big_lead_factor(rng, degree, by_105):
    lead = (105 * rng.randint(2 ** 34, 2 ** 35) if by_105
            else rng.randint(2 ** 40, 2 ** 41))
    return Poly.from_coeffs([rng.randint(-2 ** 20, 2 ** 20)
                             for _ in range(degree)] + [lead])


def test_factor_matches_sympy_on_large_non_monic_leads(monkeypatch):
    # the lift runs on f/lc(f) and recombination multiplies lc(f) back in;
    # sympy's factor_list is the oracle for factors, multiplicities, unit
    from moondec import factorization
    primes, splits = [], []
    choose, split = factorization._choose_prime, factorization._split_mod_p

    def record_prime(f):
        primes.append(choose(f))
        return primes[-1]

    def record_split(f, p):
        splits.append(split(f, p))
        return splits[-1]

    monkeypatch.setattr(factorization, "_choose_prime", record_prime)
    monkeypatch.setattr(factorization, "_split_mod_p", record_split)
    rng = random.Random(61)
    inputs = []
    for k in range(24):
        target = ONE
        for _ in range(rng.randint(2, 4)):
            target = target * _big_lead_factor(rng, rng.randint(1, 5),
                                               k % 2 == 0)
        if k % 3 == 0:  # a repeated factor
            target = target * _big_lead_factor(rng, 2, True) ** 2
        inputs.append(target)
    # degree >= 25: five degree-5 factors, so at least five modular factors
    big = ONE
    for _ in range(5):
        big = big * _big_lead_factor(rng, 5, True)
    inputs.append(big)
    for k, target in enumerate(inputs):
        ints = [int(c) for c in target.coeffs]
        unit, want = _sympy_monic_factors(ints)
        primes.clear()
        fact = factor(target)
        assert fact.unit == unit
        assert {p.coeffs: m for p, m in fact.factors} == want
        assert any(m > 1 for m in want.values()) == (k % 3 == 0 and k < 24)
        if k % 2 == 0:
            # 3, 5 and 7 divide every leading coefficient: all skipped
            assert primes and min(primes) > 7
    assert big.degree >= 25 and len(splits[-1]) >= 5


def test_hensel_target_is_bounded_by_the_primitive_polynomial(monkeypatch):
    # the modulus is the first power of p above 2*C(n, n//2)*||f||_2 (the
    # norm rounded up), with no factor |lc(f)|: see the module docstring
    from math import comb, isqrt

    from moondec import factorization
    seen = []
    lift = factorization._hensel_lift_all

    def record(f, mod_factors, p, target):
        seen.append((p, target))
        return lift(f, mod_factors, p, target)

    monkeypatch.setattr(factorization, "_hensel_lift_all", record)
    lifted = []
    pair = factorization._hensel_pair

    def record_pair(*args):
        lifted.append((args[-1], pair(*args)))
        return lifted[-1][1]

    monkeypatch.setattr(factorization, "_hensel_pair", record_pair)
    lead = 2 ** 60 + 33
    a = P(3, -7, 0, 11, lead)
    b = P(-5, 2, 9, 1)
    f = a * b
    fact = factor(f)
    assert {p.coeffs: m for p, m in fact.factors} == {
        a.monic().coeffs: 1, b.monic().coeffs: 1}
    ints = [int(c) for c in f.coeffs]
    n = len(ints) - 1
    norm2_up = isqrt(sum(c * c for c in ints)) + 1  # ||f||_2 rounded up
    p, target = seen[0]
    want = p
    while want <= 2 * comb(n, n // 2) * norm2_up:
        want *= p
    assert target == want
    # each lift stops at the target instead of squaring past it
    assert lifted and all(max(g + h) < target for target, (g, h) in lifted)


def test_every_accepted_candidate_lies_inside_half_the_target(monkeypatch):
    # the proof of the bound: a subset S of the lifted factors u_i that
    # gives a true primitive factor g of the cofactor c makes the candidate
    # lc(c) * prod_S u_i = lc(h) * g, h = c/g, in the symmetric range, and
    # 2 * ||lc(h) * g||_inf < p^l; products of factors with large, different
    # leading coefficients, with subsets of several modular factors
    from moondec import factorization
    from moondec._kernels import pm_divrem, pm_trim
    from moondec.polynomials import poly_divrem
    calls = []
    recombine = factorization._recombine

    def record(f, lifted, target):
        calls.append((f, lifted, target, recombine(f, lifted, target)))
        return calls[-1][-1]

    monkeypatch.setattr(factorization, "_recombine", record)
    rng = random.Random(28)
    multi = 0
    for _ in range(12):
        target_poly = ONE
        for _ in range(rng.randint(2, 3)):
            degree = rng.randint(3, 6)
            target_poly = target_poly * Poly.from_coeffs(
                [rng.randint(-2 ** 12, 2 ** 12) for _ in range(degree)]
                + [rng.randint(2 ** 30, 2 ** 60)])
        ints = [int(c) for c in target_poly.coeffs]
        unit, want = _sympy_monic_factors(ints)
        assert len(want) >= 2
        calls.clear()
        fact = factor(target_poly)
        assert fact.unit == unit
        assert {p.coeffs: m for p, m in fact.factors} == want
        assert calls
        for f, lifted, target, found in calls:
            p = next(d for d in range(3, target + 1, 2) if target % d == 0)
            rest = list(range(len(lifted)))
            current = f
            for g in found[:-1]:  # the last entry is the cofactor left over
                quot, rem = poly_divrem(Poly.make(current, 1), Poly.make(g, 1))
                assert rem.is_zero
                h = list(quot.nums)
                cand = [h[-1] * c for c in g]
                assert 2 * max(map(abs, cand)) < target
                subset = [i for i in rest if not pm_divrem(
                    pm_trim([c % p for c in g]), lifted[i], p)[1]]
                prod = [current[-1]]
                for i in subset:
                    prod = [c % target for c in naive_mul(prod, lifted[i])]
                assert [c - target if 2 * c > target else c
                        for c in prod] == cand
                multi += len(subset) >= 2
                rest = [i for i in rest if i not in subset]
                current = h
    assert multi >= 8, multi  # most products recombine several factors


def test_x_is_split_off_before_any_prime_is_chosen(monkeypatch):
    # every normal-form numerator has the factor x; it is split off without
    # reduction, and factor(x*g) is x together with the factors of g
    from moondec import factorization
    constants = []
    choose = factorization._choose_prime

    def record(f):
        constants.append(f[0])
        return choose(f)

    monkeypatch.setattr(factorization, "_choose_prime", record)
    rng = random.Random(31)
    inputs = [P(-6, 1, 5, -2, 1, 1), P(2, 0, 0, 0, 0, 0, 3),
              P(1, 0, 0, 0, 1), Poly.from_coeffs(FLAGSHIP_NUM[3:])]
    inputs += [Poly.from_coeffs([rng.randint(1, 9)] +
                                [rng.randint(-9, 9) for _ in range(6)] + [1])
               * Poly.from_coeffs([rng.randint(-9, -1), rng.randint(-9, 9), 1])
               for _ in range(8)]
    for g in inputs:
        want = factor(g)
        for k in (1, 2):
            got = factor(X ** k * g)
            assert got.unit == want.unit
            assert got.factors == tuple(sorted(
                ((X, k), *want.factors),
                key=lambda fm: (fm[0].degree, fm[0].coeffs)))
    assert factor(Poly.from_coeffs(FLAGSHIP_NUM)).factors[0] == (X, 3)
    assert constants and all(constants)


def test_powmod_squares_once_per_bit_and_matches_repeated_products(
        monkeypatch):
    """base^e mod (f, p) takes e.bit_length() - 1 squarings and one
    product less than e has set bits, and equals e products mod f."""
    from moondec import factorization

    p = 101
    f = [3, 0, 7, 1, 1]  # monic
    base = [5, 99, 0, 42, 17, 8]  # above deg f: reduced first
    calls = []
    real = factorization._pm_mul

    def counted(a, b, q):
        calls.append(1)
        return real(a, b, q)

    monkeypatch.setattr(factorization, "_pm_mul", counted)
    for e, products in [(1, 0), (2, 1), (3, 2), (5, 3), (7, 4)]:
        calls.clear()
        got = factorization._pm_powmod(base, e, f, p)
        assert len(calls) == products
        want = [1]
        for _ in range(e):
            want = [int(c) % p
                    for c in naive_divrem(naive_mul(want, base), f)[1]]
            while want and want[-1] == 0:
                want.pop()
        assert got == want
