"""Complete decomposition of rational functions.

The function is first moved to normal form fbar = u o f o v.  For a
normal-form composition fbar = g o h with normal-form components, the
numerator and denominator of h divide those of fbar, so every candidate
inner component is a pair of monic divisors (A, B) read off the two
factorizations, pruned by the normal-form shape: deg A > deg B, A(0) = 0,
deg A a proper nontrivial divisor of deg fbar.  For each candidate the
outer component g is read off the h-expansion of num(fbar) and den(fbar)
(see left_component; von zur Gathen, JSC 1990), and successes are
de-normalized as (u^-1 o g, h o v^-1).

No two candidates are equivalent under the unit twist
(g, h) ~ (g o w^-1, w o h), so nothing is de-duplicated: each has h(0) = 0
and a pole at infinity, so a unit w with h2 = w o h1 fixes 0 and infinity
and is c*x, and monic numerators force c = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from moondec import linalg
from moondec.errors import (
    DegreeMismatchError,
    DifferentTargetError,
    InvalidInputError,
    NotNormalFormError,
    VerificationFailureError,
)
from moondec.factorization import Factorization, factor, is_prime
from moondec.polynomials import ONE, Poly
from moondec.ratfun import (
    RatFun,
    _homogenized,
    compose,
    is_normal_form,
    power_basis,
    to_normal_form,
    unit,
    unit_inverse,
)


@dataclass(frozen=True)
class Decomposition:
    outer: RatFun
    inner: RatFun

    def target(self) -> RatFun:
        return compose(self.outer, self.inner)


@dataclass(frozen=True)
class DecompositionChain:
    """Indecomposable components, outermost first."""

    components: tuple[RatFun, ...]

    def target(self) -> RatFun:
        result = self.components[-1]
        for part in reversed(self.components[:-1]):
            result = compose(part, result)
        return result

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(c.degree for c in self.components)


def _monic_divisors(fact: Factorization) -> list[Poly]:
    """All monic divisors, sorted by degree then coefficient sequence."""
    divisors = [ONE]
    for p, mult in fact.factors:
        powers = [ONE]
        for _ in range(mult):
            powers.append(powers[-1] * p)
        divisors = [d * pk for d in divisors for pk in powers]
    return sorted(divisors, key=lambda d: (d.degree, d.coeffs))


def candidate_components(fbar: RatFun) -> list[RatFun]:
    """Divisor pairs satisfying the normal-form candidate constraints, as
    RatFun(A, B): A | num(fbar) and B | den(fbar) are coprime and monic."""
    if not is_normal_form(fbar):
        raise NotNormalFormError("candidate enumeration needs normal form")
    deg = fbar.degree
    a_parts = [a for a in _monic_divisors(factor(fbar.num))
               if 1 < a.degree < deg and deg % a.degree == 0
               and a.coeff(0) == 0]
    b_parts = _monic_divisors(factor(fbar.den))
    return [RatFun(a, b) for a in a_parts for b in b_parts
            if b.degree < a.degree]


def _expand(p: Poly, basis: list[Poly]):
    """Coefficients c with p = sum c[i] * basis[i], or None; the basis
    degrees increase strictly, so the top term of what is left pins one
    coefficient, until a degree that no remaining basis element has.

    On the integers: what is left is rest/s, and a step subtracts
    (rest[t]/s) / (b[t]/den(b)) times b = nums(b)/den(b), so that
    rest <- b[t]/g * rest - rest[t]/g * nums(b) and s <- b[t]/g * s with
    g = gcd(rest[t], b[t])."""
    coeffs = [0] * len(basis)
    rest, s = list(p.nums), p.den
    i = len(basis) - 1
    while rest:
        t = len(rest) - 1
        while i >= 0 and basis[i].degree > t:
            i -= 1
        if i < 0 or basis[i].degree != t:
            return None
        b = basis[i].nums
        g = gcd(rest[t], b[t])
        mr, mb = b[t] // g, rest[t] // g
        coeffs[i] = Fraction(rest[t] * basis[i].den, s * b[t])
        rest = [mr * r - mb * c for r, c in zip(rest, b)]
        s *= mr
        while rest and rest[-1] == 0:
            rest.pop()
        i -= 1
    return coeffs


def left_component(f: RatFun, h: RatFun):
    """The unique g with f = g o h, or None.

    For g of degree m = deg f / deg h, num(g o h) and den(g o h) are the
    coprime combinations of num(h)^i * den(h)^(m-i) with the coefficients
    of num(g) and den(g), so num(f) and den(f) expand in that basis iff g
    exists.  Its degrees increase strictly when deg num(h) > deg den(h);
    otherwise w = 1/(x - h(infinity)) moves h there, and g = g' o w.
    """
    if h.degree < 2:
        raise DegreeMismatchError("inner component must have degree >= 2")
    if f.degree % h.degree != 0:
        raise DegreeMismatchError(
            f"degree {h.degree} does not divide degree {f.degree}")
    if h.num.degree <= h.den.degree:
        at_infinity = (h.num.lc / h.den.lc
                       if h.num.degree == h.den.degree else 0)
        w = unit(0, 1, 1, -at_infinity)
        dec = left_component(f, compose(w, h))
        if dec is None:
            return None
        return Decomposition(compose(dec.outer, w), h)
    basis = power_basis(h, f.degree // h.degree)
    num = _expand(f.num, basis)
    if num is None:
        return None
    den = _expand(f.den, basis)
    if den is None:
        return None
    g = RatFun.make(Poly.from_coeffs(num), Poly.from_coeffs(den))
    if g.is_constant or _homogenized(g, basis) != f:
        return None
    return Decomposition(g, h)


def unit_linking(h1: RatFun, h2: RatFun):
    """The unique unit w with h2 = w o h1, or None.

    Writing w = (a*x + b)/(c*x + d), the condition is the homogeneous
    system a*h1N*h2D + b*h1D*h2D - c*h1N*h2N - d*h1D*h2N = 0; a nonzero
    solution is automatically non-degenerate for non-constant h1, h2.
    """
    if h1.degree != h2.degree:
        return None
    cols = [h1.num * h2.den, h1.den * h2.den,
            -(h1.num * h2.num), -(h1.den * h2.num)]
    count = max(len(c.nums) for c in cols)
    basis = linalg.nullspace(linalg.integer_rows(cols, count), 4)
    if not basis:
        return None
    a, b, c, d = basis[0]
    if a * d - b * c == 0:
        return None
    w = unit(a, b, c, d)
    return w if compose(w, h1) == h2 else None


def equivalent(d1: Decomposition, d2: Decomposition) -> bool:
    """(g1, h1) ~ (g2, h2) iff a unit w gives h2 = w o h1."""
    if d1.target() != d2.target():
        raise DifferentTargetError(
            "decompositions do not target the same function")
    return unit_linking(d1.inner, d2.inner) is not None


def decompose_one_level(f: RatFun) -> tuple[Decomposition, ...]:
    """One representative per equivalence class of decompositions of f.

    Empty means f is indecomposable.  Deterministic: candidates are tried
    by ascending inner degree, then lexicographically; each one that
    splits fbar is a class of its own (see the module docstring).
    """
    if f.degree < 2:
        raise InvalidInputError("decomposition needs degree >= 2")
    if is_prime(f.degree):
        return ()  # deg(g o h) = deg g * deg h, both at least 2
    u, v, fbar = to_normal_form(f)
    u_inv = unit_inverse(u)
    v_inv = unit_inverse(v)
    found: list[Decomposition] = []
    for h in candidate_components(fbar):
        dec = left_component(fbar, h)
        if dec is None:
            continue
        outer = compose(u_inv, dec.outer)
        inner = compose(h, v_inv)
        if compose(outer, inner) != f:
            raise VerificationFailureError(
                "de-normalized decomposition does not compose back to f")
        found.append(Decomposition(outer, inner))
    return tuple(found)


def chains_equivalent(c1, c2) -> bool:
    """Componentwise unit-twist equivalence of two chains.

    Peeled greedily from the innermost end; the linking unit at each step
    is unique, so no backtracking is needed.
    """
    c1 = list(c1)
    c2 = list(c2)
    if len(c1) != len(c2):
        return False
    for i in range(len(c1) - 1, 0, -1):
        w = unit_linking(c1[i], c2[i])
        if w is None:
            return False
        c1[i - 1] = compose(c1[i - 1], unit_inverse(w))
    return c1[0] == c2[0]


@lru_cache(maxsize=None)
def _chains_cached(f: RatFun) -> tuple[DecompositionChain, ...]:
    if f.degree < 2:
        return (DecompositionChain((f,)),)
    splits = decompose_one_level(f)
    if not splits:
        return (DecompositionChain((f,)),)
    out: list[DecompositionChain] = []
    for dec in splits:
        for left in _chains_cached(dec.outer):
            for right in _chains_cached(dec.inner):
                chain = DecompositionChain(left.components + right.components)
                if not any(chains_equivalent(chain.components, c.components)
                           for c in out):
                    out.append(chain)
    return tuple(out)


def all_chains(f: RatFun) -> tuple[DecompositionChain, ...]:
    """All complete decomposition chains up to componentwise equivalence."""
    if f.degree < 1:
        raise InvalidInputError("chains need degree >= 1")
    return _chains_cached(f)
