"""Complete decomposition of rational functions.

The function is first moved to normal form fbar = u o f o v.  For a
normal-form composition fbar = g o h with normal-form components, the
numerator and denominator of h divide those of fbar, so every candidate
inner component is a pair of coprime monic divisors A | num(fbar),
B | den(fbar), pruned by the normal-form shape: deg A > deg B, A(0) = 0,
deg A a proper nontrivial divisor of n = deg fbar, hence deg A <= n/2.
For each candidate the outer component g is read off the h-expansion of
num(fbar) and den(fbar) (see left_component; von zur Gathen, JSC 1990),
and successes are de-normalized as (u^-1 o g, h o v^-1).

Only num(fbar) is factored: A fixes the one B that can work.  Let
fbar = g o (A/B) with g = P/Q, m = deg g.  Then P(0) = 0, deg Q < deg P
and, with constants k, k',
num(fbar) = k * sum_(i>=1) P_i A^i B^(m-i) and
den(fbar) = k' * sum_i Q_i A^i B^(m-i).  Modulo A,
num(fbar)/A = k P_1 B^(m-1) and den(fbar) = k' Q_0 B^m, with Q_0 != 0 as
P and Q are coprime.  If P_1 = 0 then A^2 | num(fbar).  So when A^2 does
not divide num(fbar), num(fbar)/A is a unit mod A, and as deg B < deg A,
B = monic(den(fbar) * (num(fbar)/A)^-1 mod A).  The pair is kept when B
divides den(fbar) (A and B are then coprime, as num(fbar) and den(fbar)
are); an A whose num(fbar)/A is no unit mod A, or whose B does not
divide den(fbar), has no split.  When A^2 | num(fbar), which needs a
multiple zero of fbar at 0 (x^n, the flagship), A is paired with every
monic divisor of den(fbar) of lower degree, and den(fbar) is factored,
once.  Candidates stay in the order of the full enumeration, by A, then
by B, so the splits come in the same order.

No two candidates are equivalent under the unit twist
(g, h) ~ (g o w^-1, w o h), so nothing is de-duplicated: each has h(0) = 0
and a pole at infinity, so a unit w with h2 = w o h1 fixes 0 and infinity
and is c*x, and monic numerators force c = 1.

A decomposition is the tuple of its components, outermost first: a pair
(g, h) from decompose_one_level, a complete chain from all_chains.  Two
chains of one target are equivalent when units link them component by
component (unit_linking, chains_equivalent).

Complete chains factor only the top function f: num(fbar), and
den(fbar) when some A^2 divides num(fbar).  Its splits fbar = g_i o h_i
come in ascending inner degree, all h_i candidates of one
normalization.  Two facts replace recursing into every component:

(1) A chain is followed only through a split whose inner is
indecomposable, and h_i is decomposable iff an earlier h_j has
deg h_j | deg h_i and left_component(h_i, h_j) exists.  If h_i = k' o k
with k indecomposable, k in candidate form is a candidate of lower degree
that splits fbar, so its split came earlier.  Every chain through h_i ends
in k, and an equivalent chain through k's split was already kept, so the
chains_equivalent dedupe dropped it: skipping h_i changes neither the
chains, their order nor their representatives.

(2) An outer component is never factored.  A right component k of g_i
makes k o h_i a right component of fbar (by Lüroth, the fields between
Q(fbar) and Q(h_i) are among those between Q(fbar) and Q(x)), equivalent
to the candidate h_k of a later split, so the right components of g_i are
the left_component(h_k, h_i) that exist, one per class.  Through the
outer's own units they become the candidates that decompose_one_level
would find splitting it, and sorted in candidate_components order they
give the same splits.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from moondec import linalg
from moondec.errors import (
    DegreeMismatchError,
    InvalidInputError,
    NotNormalFormError,
    VerificationFailureError,
)
from moondec.factorization import Factorization, factor, is_prime
from moondec.polynomials import (
    ONE,
    Poly,
    poly_divrem,
    poly_exact_div,
    poly_inverse_mod,
)
from moondec.ratfun import (
    INFINITY,
    RatFun,
    _homogenized,
    compose,
    evaluate,
    is_normal_form,
    power_basis,
    to_normal_form,
    unit,
    unit_inverse,
)


def _monic_divisors(fact: Factorization, top: int) -> list[Poly]:
    """The monic divisors of degree at most top, sorted by degree then
    coefficient sequence; a partial product is dropped as soon as its
    degree passes top."""
    divisors = [ONE]
    for p, mult in fact.factors:
        grown = []
        for d in divisors:
            grown.append(d)
            for _ in range(mult):
                d = d * p
                if d.degree > top:
                    break
                grown.append(d)
        divisors = grown
    return sorted(divisors, key=lambda d: (d.degree, d.coeffs))


def candidate_components(fbar: RatFun) -> list[RatFun]:
    """The candidates that can split fbar, as RatFun(A, B): A | num(fbar)
    and B | den(fbar) coprime and monic, deg A > deg B, A(0) = 0 and
    deg A a proper nontrivial divisor of deg fbar.  Only num(fbar) is
    factored: when A^2 does not divide num(fbar), A fixes the one B that
    can work (see the module docstring); otherwise A is paired with every
    monic divisor of den(fbar) of lower degree, factored once."""
    if not is_normal_form(fbar):
        raise NotNormalFormError("candidate enumeration needs normal form")
    num, den, deg = fbar.num, fbar.den, fbar.degree
    b_parts = None
    out = []
    for a in _monic_divisors(factor(num), deg // 2):
        if a.degree < 2 or deg % a.degree or a.coeff(0) != 0:
            continue
        rest = poly_divrem(poly_exact_div(num, a), a)[1]
        if rest.is_zero:
            if b_parts is None:
                b_parts = _monic_divisors(factor(den), deg // 2 - 1)
            out += [RatFun(a, b) for b in b_parts if b.degree < a.degree]
            continue
        inv = poly_inverse_mod(rest, a)
        if inv is None:
            continue  # no split: num/A is a unit mod A for every split
        b = poly_divrem(poly_divrem(den, a)[1] * inv, a)[1].monic()
        if poly_divrem(den, b)[1].is_zero:
            out.append(RatFun(a, b))
    return out


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
    """The unique g with f = g o h, or None; h needs a pole at infinity,
    deg num(h) > deg den(h), as every candidate component has.

    For g of degree m = deg f / deg h, num(g o h) and den(g o h) are the
    coprime combinations of num(h)^i * den(h)^(m-i) with the coefficients
    of num(g) and den(g), so num(f) and den(f) expand in that basis iff g
    exists; the pole at infinity makes its degrees increase strictly.
    """
    if h.degree < 2:
        raise DegreeMismatchError("inner component must have degree >= 2")
    if f.degree % h.degree != 0:
        raise DegreeMismatchError(
            f"degree {h.degree} does not divide degree {f.degree}")
    if h.num.degree <= h.den.degree:
        raise DegreeMismatchError("inner component needs a pole at infinity")
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
    return g


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


def _splits(f: RatFun, normal, candidates) -> list:
    """(h, outer, inner) for each candidate h that splits fbar, in order:
    outer = u^-1 o g and inner = h o v^-1 for fbar = g o h, checked to
    compose back to f.  normal is to_normal_form(f) = (u, v, fbar)."""
    u, v, fbar = normal
    found = []
    for h in candidates:
        g = left_component(fbar, h)
        if g is None:
            continue
        if not found:
            u_inv, v_inv = unit_inverse(u), unit_inverse(v)
        outer = compose(u_inv, g)
        inner = compose(h, v_inv)
        if compose(outer, inner) != f:
            raise VerificationFailureError(
                "de-normalized decomposition does not compose back to f")
        found.append((h, outer, inner))
    return found


def decompose_one_level(f: RatFun) -> tuple[tuple[RatFun, RatFun], ...]:
    """One (outer, inner) pair per equivalence class of decompositions of
    f, outer o inner = f.

    Empty means f is indecomposable.  Deterministic: candidates are tried
    by ascending inner degree, then lexicographically; each one that
    splits fbar is a class of its own (see the module docstring).
    """
    if f.degree < 2:
        raise InvalidInputError("decomposition needs degree >= 2")
    if is_prime(f.degree):
        return ()  # deg(g o h) = deg g * deg h, both at least 2
    normal = to_normal_form(f)
    return tuple((outer, inner) for _, outer, inner
                 in _splits(f, normal, candidate_components(normal[2])))


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


def _candidate_form(k: RatFun) -> RatFun:
    """The candidate in k's class under units on the left: w o k with a
    zero at 0 and a pole at infinity, numerator and denominator monic.

    w sends k(0) to 0 and k(infinity) to infinity; they differ whenever k
    is a right component of a normal-form function, which maps 0 and
    infinity to 0 and infinity."""
    at_zero = evaluate(k, 0)
    if k.num.degree > k.den.degree:
        at_inf = INFINITY
    elif k.num.degree == k.den.degree:
        at_inf = k.num.coeff(k.num.degree)  # den is monic
    else:
        at_inf = 0
    num = (0, 1) if at_zero == INFINITY else (1, -at_zero)
    den = (0, 1) if at_inf == INFINITY else (1, -at_inf)
    h = compose(unit(*num, *den), k)
    return RatFun(h.num.monic(), h.den)


def _known_splits(f: RatFun, rights: list[RatFun]) -> list:
    """decompose_one_level(f) as _splits triples, from the right
    components of f, one per class under units on the left, without
    factoring.  Each right component k of f = G o k is k o v of
    fbar = (u o G) o (k o v), and its candidate form is the candidate
    that decompose_one_level would find; sorting puts the candidates in
    candidate_components order."""
    if not rights:
        return []
    normal = to_normal_form(f)
    candidates = sorted(
        (_candidate_form(compose(k, normal[1])) for k in rights),
        key=lambda h: (h.num.degree, h.num.coeffs,
                       h.den.degree, h.den.coeffs))
    found = _splits(f, normal, candidates)
    if len(found) != len(candidates):
        raise VerificationFailureError("a right component does not split")
    return found


def _chains_from(f: RatFun, splits: list) -> tuple[tuple[RatFun, ...], ...]:
    """All chains of f from its _splits triples (h, outer, inner), all
    h in normal form under one unit v, in decompose_one_level order.

    Only splits with an indecomposable inner are followed (1), and each
    outer's right components are read off the other splits (2); see the
    module docstring."""
    if not splits:
        return ((f,),)
    out: list[tuple[RatFun, ...]] = []
    decomposable = set()
    for i, (h, outer, inner) in enumerate(splits):
        if i in decomposable:
            continue
        rights = []
        for j in range(i + 1, len(splits)):
            hj = splits[j][0]
            if hj.degree > h.degree and hj.degree % h.degree == 0:
                k = left_component(hj, h)
                if k is not None:
                    rights.append(k)
                    decomposable.add(j)
        for left in _chains_from(outer, _known_splits(outer, rights)):
            chain = left + (inner,)
            if not any(chains_equivalent(chain, c) for c in out):
                out.append(chain)
    return tuple(out)


@lru_cache(maxsize=None)
def _chains_cached(f: RatFun) -> tuple[tuple[RatFun, ...], ...]:
    if f.degree < 2:
        return ((f,),)
    pairs = decompose_one_level(f)
    if len(pairs) < 2:
        return pairs or ((f,),)  # one split: both components indecomposable
    v = to_normal_form(f)[1]
    return _chains_from(f, [(compose(inner, v), outer, inner)
                            for outer, inner in pairs])


def all_chains(f: RatFun) -> tuple[tuple[RatFun, ...], ...]:
    """All complete decomposition chains up to componentwise equivalence,
    each a tuple of indecomposable components, outermost first.

    Only num(fbar) of f is factored, and den(fbar) when some candidate A
    has A^2 | num(fbar) (see candidate_components).  A split is followed
    only when its inner is indecomposable, as a chain through a
    decomposable inner is equivalent to one through that inner's last
    component, whose split comes first (1).  An outer component's right
    components are those of the parent's later splits, taken off their
    inner by left_component (2); see the module docstring.  The result is
    the one of recursing into both components of every split."""
    if f.degree < 1:
        raise InvalidInputError("chains need degree >= 1")
    return _chains_cached(f)
