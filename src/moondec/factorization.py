"""Factorization over the rationals.

Pipeline: clear to integers, squarefree-decompose (Yun), take the primitive
integer polynomial f of each squarefree part, reduce modulo the smallest
prime >= 3 that keeps f squarefree and of full degree, split by
distinct-degree factorization and Cantor-Zassenhaus equal-degree splitting,
and Hensel-lift the factors of the monic f/lc(f) to the first power of p
above 2*B, where B = |lc(f)| * C(n, n//2) * ||f||_2 bounds every
coefficient of lc(f)/lc(u) * u for an integer factor u of f.
Recombination is Zassenhaus subset search with the leading coefficient
(von zur Gathen & Gerhard, Modern Computer Algebra, ch. 15): a subset's
product times lc of the remaining cofactor, in the symmetric range mod p^l,
is tried as a factor through its primitive part, and accepted when it
divides the remaining cofactor over Q (the quotient of a primitive divisor
lies in Z[x] by Gauss's lemma).  Everything is deterministic: prime choice,
the seeded trial elements of the equal-degree split, subset enumeration and
the final factor ordering.

Degrees in this problem domain reach the seventies, which is far beyond
naive coefficient search but comfortable for Zassenhaus recombination (the
modular factor counts stay small).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, zip_longest
from math import comb, isqrt
from random import Random

from moondec import _kernels
from moondec._kernels import pm_divrem, pm_gcd, pm_monic, pm_rem, pm_trim
from moondec.errors import VerificationFailureError, ZeroPolyError
from moondec.polynomials import (
    Poly,
    _int_primitive,
    poly_divrem,
    squarefree_decomposition,
)


@dataclass(frozen=True)
class Factorization:
    """unit * prod(factor^multiplicity), factors monic irreducible."""

    unit: Fraction
    factors: tuple[tuple[Poly, int], ...]

    def expand(self) -> Poly:
        out = Poly.constant(self.unit)
        for f, m in self.factors:
            out = out * f ** m
        return out


# -- arithmetic mod p on int coefficient lists -------------------------------
# (trim, monic, divrem and gcd are the kernels' pm_ functions)

def _pm_mul(a, b, p):
    return pm_trim(_kernels.poly_mul(a, b, p))


def _pm_add(a, b, p):
    """a + b mod p, every entry reduced, for int lists of any length."""
    return pm_trim([(x + y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def _pm_sub(a, b, p):
    """a - b mod p, every entry reduced, for int lists of any length."""
    return pm_trim([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def _pm_deriv(a, p):
    return pm_trim([i * c % p for i, c in enumerate(a)][1:])


def _pm_powmod(base, e, mod, p):
    result = [1]
    base = pm_rem(base, mod, p)
    while e:
        if e & 1:
            result = pm_rem(_pm_mul(result, base, p), mod, p)
        base = pm_rem(_pm_mul(base, base, p), mod, p)
        e >>= 1
    return result


def _equal_degree_split(g, d, p):
    """The monic irreducible factors, all of degree d, of a monic squarefree
    g mod an odd prime p (Cantor & Zassenhaus, Math. Comp. 1981).

    For a random a, a^e with e = (p^d - 1)/2 is 1 or -1 (or 0) modulo each
    factor, so gcd(g, a^e - 1) splits g for about half of all a or more.  The
    trial elements come from a generator seeded by deg g, so the split is
    deterministic; a structured sequence such as x^k + c can cycle modulo
    each factor and never split."""
    n = len(g) - 1
    if n == d:
        return [g]
    rng = Random(n)
    e = (p ** d - 1) // 2
    while True:
        a = pm_trim([rng.randrange(p) for _ in range(n)])
        u = pm_gcd(g, _pm_sub(_pm_powmod(a, e, g, p), [1], p), p)
        if 0 < len(u) - 1 < n:
            return (_equal_degree_split(u, d, p)
                    + _equal_degree_split(pm_divrem(g, u, p)[0], d, p))


def _split_mod_p(f, p):
    """All monic irreducible factors of a monic squarefree f mod an odd
    prime p, sorted.

    Distinct-degree factorization: with h = x^(p^d) mod f, gcd(f, h - x) is
    the product of the factors of degree d once those of lower degree are
    divided out; the last cofactor is irreducible when 2d > its degree."""
    factors = []
    h = [0, 1]
    d = 1
    while 2 * d <= len(f) - 1:
        h = _pm_powmod(h, p, f, p)
        g = pm_gcd(f, _pm_sub(h, [0, 1], p), p)
        if len(g) > 1:
            factors += _equal_degree_split(g, d, p)
            f = pm_divrem(f, g, p)[0]
        d += 1
    if len(f) > 1:
        factors.append(f)
    return sorted(factors, key=lambda g: (len(g), g))


# -- Hensel lifting -----------------------------------------------------------

def _pm_bezout(a, b, p):
    """s, t with s*a + t*b = 1 mod p for coprime a, b."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = pm_divrem(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _pm_sub(s0, _pm_mul(q, s1, p), p)
        t0, t1 = t1, _pm_sub(t0, _pm_mul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _hensel_pair(f, g, h, s, t, p, target):
    """Lift f = g*h from mod p to mod target, a power of p (h, g monic).

    Each quadratic step goes from m to min(m^2, target), never past it; the
    last step lifts only g and h, since nothing reads s and t after it."""
    m = p
    while m < target:
        m2 = min(m * m, target)
        e = _pm_sub(f, _kernels.poly_mul(g, h, m2), m2)
        q, r = pm_divrem(_kernels.poly_mul(s, e, m2), h, m2)
        g = _pm_add(_pm_add(g, _kernels.poly_mul(t, e, m2), m2),
                    _kernels.poly_mul(q, g, m2), m2)
        h = _pm_add(h, r, m2)
        if m2 == target:
            break
        b = _pm_sub(_pm_add(_kernels.poly_mul(s, g, m2),
                            _kernels.poly_mul(t, h, m2), m2), [1], m2)
        c, d = pm_divrem(_kernels.poly_mul(s, b, m2), h, m2)
        s = _pm_sub(s, d, m2)
        t = _pm_sub(t, _pm_add(_kernels.poly_mul(t, b, m2),
                               _kernels.poly_mul(c, g, m2), m2), m2)
        m = m2
    return g, h


def _hensel_lift_all(f, mod_factors, p, target):
    """Lift a list of pairwise-coprime monic factors of monic f mod p;
    f is reduced mod target."""
    if len(mod_factors) == 1:
        return [f]
    half = len(mod_factors) // 2
    g = [1]
    for mf in mod_factors[:half]:
        g = _pm_mul(g, mf, p)
    h = [1]
    for mf in mod_factors[half:]:
        h = _pm_mul(h, mf, p)
    s, t = _pm_bezout(g, h, p)
    g, h = _hensel_pair(f, g, h, s, t, p, target)
    return (_hensel_lift_all(g, mod_factors[:half], p, target)
            + _hensel_lift_all(h, mod_factors[half:], p, target))


# -- recombination -------------------------------------------------------------

def _symmetric(a, m):
    half = m // 2
    return [c - m if c > half else c for c in a]


def _recombine(f, lifted, target):
    """Zassenhaus subset search over the lifted monic modular factors of
    the primitive f; returns its primitive irreducible factors."""
    result = []
    rest = list(range(len(lifted)))
    current = list(f)
    size = 1
    while 2 * size <= len(rest):
        retry = True
        while retry and 2 * size <= len(rest):
            retry = False
            for combo in combinations(rest, size):
                g = [current[-1] % target]
                for i in combo:
                    g = _kernels.poly_mul(g, lifted[i], target)
                g = _int_primitive(_symmetric(g, target))
                if g[0] and current[0] % g[0]:
                    continue  # constant term cannot divide: skip early
                quot, rem = poly_divrem(Poly.make(current, 1), Poly.make(g, 1))
                if not rem.is_zero:
                    continue
                result.append(g)
                current = list(quot.nums)
                rest = [i for i in rest if i not in combo]
                retry = True
                break
        size += 1
    if len(current) - 1 >= 1:
        result.append(current)
    return result


def is_prime(n):
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def _choose_prime(f_int):
    """Smallest prime >= 3 not dividing lc(f_int) that keeps f_int squarefree.

    The prime must be odd: the equal-degree split takes (p^d - 1)/2-th
    powers."""
    p = 3
    while True:
        if is_prime(p):
            fp = pm_trim([c % p for c in f_int])
            if len(fp) == len(f_int):
                d = _pm_deriv(fp, p)
                if d and len(pm_gcd(fp, d, p)) == 1:
                    return p
        p += 2


def _factor_squarefree(g: Poly) -> list[Poly]:
    """Irreducible monic factors of a monic squarefree polynomial."""
    if g.degree == 1:
        return [g]
    f = _int_primitive(list(g.nums))
    lead, n = f[-1], len(f) - 1
    p = _choose_prime(f)
    mod_factors = _split_mod_p(pm_monic([c % p for c in f], p), p)
    if len(mod_factors) == 1:
        return [g]
    norm2 = isqrt(sum(c * c for c in f)) + 1
    bound = lead * comb(n, n // 2) * norm2
    target = p
    while target <= 2 * bound:
        target *= p
    inv = pow(lead, -1, target)
    lifted = _hensel_lift_all([c * inv % target for c in f],
                              mod_factors, p, target)
    out = [Poly.make(h, h[-1]) for h in _recombine(f, lifted, target)]
    return sorted(out, key=lambda f: (f.degree, f.coeffs))


def factor(a: Poly) -> Factorization:
    """Complete factorization into monic irreducibles over the rationals."""
    if a.is_zero:
        raise ZeroPolyError("cannot factor the zero polynomial")
    unit = a.lc
    if a.degree == 0:
        return Factorization(unit, ())
    counts: dict[Poly, int] = {}
    for part, mult in squarefree_decomposition(a):
        for irr in _factor_squarefree(part):
            counts[irr] = counts.get(irr, 0) + mult
    factors = tuple(sorted(counts.items(),
                           key=lambda kv: (kv[0].degree, kv[0].coeffs)))
    result = Factorization(unit, factors)
    if result.expand() != a:
        raise VerificationFailureError(
            "factorization does not re-expand to input")
    return result
