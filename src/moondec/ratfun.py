"""Rational functions in one variable over the rationals.

Canonical form everywhere: numerator and denominator coprime, denominator
monic.  Equality of values is therefore equality of functions.

A function is in *normal form* when deg num > deg den and num(0) = 0 (hence
den(0) != 0); every function of degree >= 1 can be moved into normal form by
composing with units on both sides, and that normalization is the entry
point of the decomposition algorithm.  A unit is a degree-1 function
(a*x + b)/(c*x + d), ad - bc != 0: an ordinary RatFun, applied by compose.
The value of a function at a pole is ``INFINITY``, the float infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf

from moondec.errors import (
    ConstantInnerError,
    InvalidInputError,
    VerificationFailureError,
    ZeroDenominatorError,
)
from moondec.polynomials import (
    ONE,
    ZERO,
    Poly,
    X,
    combine,
    poly_exact_div,
    poly_gcd,
    poly_text,
)


INFINITY = inf  # the value of a function at a pole


def _monic_den(num: Poly, den: Poly) -> RatFun:
    """num/den with den scaled monic, for num and den already coprime."""
    if den.is_zero:
        raise ZeroDenominatorError("zero denominator")
    if num.is_zero:
        return RatFun(ZERO, ONE)
    if den.nums[-1] == den.den:  # already monic
        return RatFun(num, den)
    return RatFun(num.scale(Fraction(den.den, den.nums[-1])), den.monic())


@dataclass(frozen=True)
class RatFun:
    num: Poly
    den: Poly

    @staticmethod
    def make(num: Poly, den: Poly) -> RatFun:
        """Reduce to canonical form (coprime, monic denominator)."""
        if not (num.is_zero or den.is_zero):
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = poly_exact_div(num, g)
                den = poly_exact_div(den, g)
        return _monic_den(num, den)

    @staticmethod
    def identity() -> RatFun:
        return RatFun(X, ONE)

    @staticmethod
    def constant(value) -> RatFun:
        return RatFun(Poly.constant(value), ONE)

    @property
    def degree(self) -> int:
        """max(deg num, deg den); constants (including zero, whose den is
        ONE) have degree 0."""
        return max(self.num.degree, self.den.degree)

    @property
    def is_constant(self) -> bool:
        return self.degree == 0

    def __str__(self) -> str:
        return ratfun_text(self)

    def __repr__(self) -> str:
        return f"RatFun({ratfun_text(self)})"

    # field operations, used by the expression parser and by verification

    def __add__(self, other: RatFun) -> RatFun:
        if self.den == ONE and other.den == ONE:
            return RatFun(self.num + other.num, ONE)
        return RatFun.make(self.num * other.den + other.num * self.den,
                           self.den * other.den)

    def __neg__(self) -> RatFun:
        return RatFun(-self.num, self.den)

    def __sub__(self, other: RatFun) -> RatFun:
        return self + (-other)

    def __mul__(self, other: RatFun) -> RatFun:
        if self.den == ONE and other.den == ONE:
            return RatFun(self.num * other.num, ONE)
        return RatFun.make(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: RatFun) -> RatFun:
        if other.num.is_zero:
            raise ZeroDenominatorError("division by the zero function")
        return RatFun.make(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int) -> RatFun:
        if n < 0:
            raise ValueError("negative power")
        # coprime with a monic den, so the powers are canonical as they are
        return RatFun(self.num ** n, self.den ** n)


def ratfun_text(f: RatFun) -> str:
    if f.den == ONE:
        return poly_text(f.num)
    return f"({poly_text(f.num)})/({poly_text(f.den)})"


def power_basis(h: RatFun, m: int) -> list[Poly]:
    """The products num(h)^i * den(h)^(m-i) for i = 0..m.

    Homogenizing g o h for deg g <= m gives num and den of g o h as the
    combinations sum g_i * basis[i] of the coefficients of num(g), den(g).
    """
    hn_pow = [ONE]
    hd_pow = [ONE]
    for _ in range(m):
        hn_pow.append(hn_pow[-1] * h.num)
        hd_pow.append(hd_pow[-1] * h.den)
    return [hn_pow[i] * hd_pow[m - i] for i in range(m + 1)]


def _homogenized(g: RatFun, basis: list[Poly]) -> RatFun:
    """g o h from basis = power_basis(h, deg g), by the homogenized sums
    num(g)_i * basis[i] and den(g)_i * basis[i], each over the common
    denominator of its polynomial of g."""
    num, nden = combine((c, 0, b) for c, b in zip(g.num.nums, basis))
    den, dden = combine((c, 0, b) for c, b in zip(g.den.nums, basis))
    return _monic_den(Poly.make(num, nden * g.num.den),
                      Poly.make(den, dden * g.den.den))


def compose(g: RatFun, h: RatFun) -> RatFun:
    """g(h(x)), reduced.  Degrees multiply: deg(g o h) = deg g * deg h.

    The homogenized sums num = sum num(g)_i * hN^i * hD^(m-i) and
    den = sum den(g)_i * hN^i * hD^(m-i), m = deg g, need no gcd: they are
    coprime.  At a common root x0 with hD(x0) != 0 they are hD(x0)^m times
    num(g) and den(g) at h(x0), which would be a common root of num(g) and
    den(g); with hD(x0) = 0, hN(x0) != 0 and both reduce to the degree-m
    coefficients of num(g) and den(g) times hN(x0)^m, which are not both 0.
    """
    if h.is_constant:
        raise ConstantInnerError("inner function of a composition is constant")
    result = _homogenized(g, power_basis(h, g.degree))
    if not g.is_constant and result.degree != g.degree * h.degree:
        raise VerificationFailureError(
            "composition degree is not the product of the degrees")
    return result


def evaluate(f: RatFun, point):
    """f(point); INFINITY at poles."""
    nv = f.num.evaluate(point)
    dv = f.den.evaluate(point)
    if dv == 0:
        if nv == 0:
            raise VerificationFailureError(
                "indeterminate value on reduced function")
        return INFINITY
    return nv / dv


def is_normal_form(f: RatFun) -> bool:
    """True iff deg num > deg den and num(0) = 0 (so den(0) != 0)."""
    return f.num.degree > f.den.degree and f.num.coeff(0) == 0


def unit(a, b, c, d) -> RatFun:
    """The degree-1 function (a*x + b)/(c*x + d), canonical as every RatFun."""
    if a * d - b * c == 0:
        raise ZeroDenominatorError("degenerate unit: ad - bc = 0")
    return RatFun.make(Poly.from_coeffs([b, a]), Poly.from_coeffs([d, c]))


def unit_inverse(u: RatFun) -> RatFun:
    """The unit w with u o w = w o u = x."""
    if u.degree != 1:
        raise InvalidInputError(f"not a unit: degree {u.degree}")
    return unit(u.den.coeff(0), -u.num.coeff(0), -u.den.coeff(1),
                u.num.coeff(1))


def to_normal_form(f: RatFun) -> tuple[RatFun, RatFun, RatFun]:
    """Units u, v with u o f o v in normal form.

    Construction: scan a = 0, 1, 2, ... for the first finite value f(a),
    then the first a' > a with f(a') finite and different.  v sends
    infinity to a and 0 to a'; u sends f(a) to infinity and f(a') to 0.
    The scan terminates because f has at most deg f poles and takes each
    value at most deg f times.
    """
    if f.degree < 1:
        raise ConstantInnerError("constants have no normal form")
    if is_normal_form(f):
        ident = RatFun.identity()
        return ident, ident, f
    a = 0
    while evaluate(f, a) == INFINITY:
        a += 1
    fa = evaluate(f, a)
    a2 = a + 1
    while True:
        fa2 = evaluate(f, a2)
        if fa2 != INFINITY and fa2 != fa:
            break
        a2 += 1
    v = unit(a, a2, 1, 1)
    w = 1 / (fa2 - fa)
    u = unit(-w, 1 + w * fa, 1, -fa)
    fbar = compose(u, compose(f, v))
    if fbar.num.degree <= fbar.den.degree:
        raise VerificationFailureError(
            "normalization must leave a full-multiplicity pole at infinity")
    if not is_normal_form(fbar):
        raise VerificationFailureError("normalization missed the normal form")
    return u, v, fbar
