"""Dense univariate polynomials with exact rational coefficients.

A polynomial is a tuple of ``Fraction`` coefficients, index i holding the
coefficient of x^i, highest stored coefficient nonzero; the empty tuple is
the zero polynomial.  The degree of the zero polynomial is the
``MINUS_INFINITY`` sentinel, never a number.

Products are routed through the integer convolution kernel: denominators
are cleared once per operand instead of once per coefficient pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from moondec import _kernels
from moondec.errors import BothZeroError, ZeroDivisionPolyError, ZeroPolyError


class _MinusInfinity:
    """Degree of the zero polynomial; compares below every integer."""

    __slots__ = ()

    def __lt__(self, other):
        return other is not MINUS_INFINITY

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is MINUS_INFINITY

    def __repr__(self):
        return "-infinity"


MINUS_INFINITY = _MinusInfinity()


def clear_denominators(coeffs):
    """Return (integer coefficients, multiplier m) with ints = coeffs * m."""
    mult = lcm(*(c.denominator for c in coeffs)) if coeffs else 1
    return [c.numerator * (mult // c.denominator) for c in coeffs], mult


def mul_fraction_seqs(a, b, trunc=0):
    """Convolve two sequences of Fractions via the integer kernel."""
    if not a or not b:
        return []
    ia, da = clear_denominators(a)
    ib, db = clear_denominators(b)
    d = da * db
    return [Fraction(c, d) for c in _kernels.poly_mul(ia, ib, 0, trunc)]


@dataclass(frozen=True)
class Poly:
    """Immutable dense polynomial over the rationals."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_coeffs(values) -> Poly:
        """Build from any iterable of ints/Fractions, trimming high zeros."""
        cs = [Fraction(v) for v in values]
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(tuple(cs))

    @staticmethod
    def constant(value) -> Poly:
        return Poly.from_coeffs([value])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else MINUS_INFINITY

    @property
    def lc(self) -> Fraction:
        """Leading coefficient; 0 for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __add__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly.from_coeffs(out)

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other: Poly) -> Poly:
        if self == ONE:
            return other
        if other == ONE:
            return self
        return Poly.from_coeffs(mul_fraction_seqs(self.coeffs, other.coeffs))

    def scale(self, k) -> Poly:
        k = Fraction(k)
        if k == 0:
            return ZERO
        return Poly(tuple(c * k for c in self.coeffs))

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative polynomial power")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def monic(self) -> Poly:
        if self.is_zero:
            raise ZeroPolyError("cannot normalize the zero polynomial")
        return self.scale(1 / self.lc)

    def derivative(self) -> Poly:
        return Poly.from_coeffs(
            [i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, point) -> Fraction:
        point = Fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __str__(self) -> str:
        return poly_text(self)

    def __repr__(self) -> str:
        return f"Poly({poly_text(self)})"


ZERO = Poly(())
ONE = Poly((Fraction(1),))
X = Poly((Fraction(0), Fraction(1)))


def poly_text(p: Poly, var: str = "x") -> str:
    """Canonical text: expanded, descending powers, '*' and '^' explicit."""
    if p.is_zero:
        return "0"
    parts = []
    for i in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            v = var if i == 1 else f"{var}^{i}"
            body = v if mag == 1 else f"{mag}*{v}"
        parts.append(sign + body)
    return "".join(parts)


def poly_divrem(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Exact division with remainder: a = q*b + r, deg r < deg b."""
    if b.is_zero:
        raise ZeroDivisionPolyError("division by the zero polynomial")
    if a.is_zero or len(a.coeffs) < len(b.coeffs):
        return ZERO, a
    rem = list(a.coeffs)
    db = len(b.coeffs) - 1
    inv_lead = 1 / b.lc
    quot = [Fraction(0)] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        q = c * inv_lead
        quot[i - db] = q
        for j, bc in enumerate(b.coeffs):
            rem[i - db + j] -= q * bc
    return Poly.from_coeffs(quot), Poly.from_coeffs(rem[:db])


def poly_exact_div(a: Poly, b: Poly) -> Poly:
    """Quotient of an exact division; raises if the remainder is nonzero."""
    q, r = poly_divrem(a, b)
    if not r.is_zero:
        raise ValueError(f"{a!r} is not divisible by {b!r}")
    return q


def _int_primitive(ints) -> list[int]:
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        return ints
    g = gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def _int_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of primitive integer polynomials, deg a >= deg b."""
    da, db = len(a) - 1, len(b) - 1
    lead = b[db]
    rem = list(a)
    for i in range(da, db - 1, -1):
        c = rem[i]
        for j in range(i):
            rem[j] *= lead
        if c:
            for j in range(db + 1):
                rem[i - db + j] -= c * b[j]
        rem[i] = 0
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor (primitive PRS over the integers)."""
    if a.is_zero and b.is_zero:
        raise BothZeroError("gcd of two zero polynomials")
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    fa = _int_primitive(clear_denominators(a.coeffs)[0])
    fb = _int_primitive(clear_denominators(b.coeffs)[0])
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while fb:
        fa, fb = fb, _int_primitive(_int_pseudo_rem(fa, fb))
    return Poly.from_coeffs(fa).monic()


def squarefree_decomposition(a: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: a = lc(a) * prod(part^multiplicity).

    Parts are monic, squarefree and pairwise coprime; constants contribute
    nothing (the unit is the leading coefficient of the input).
    """
    if a.is_zero:
        raise ZeroPolyError("zero polynomial has no squarefree decomposition")
    f = a.monic()
    if f.degree == 0:
        return []
    df = f.derivative()
    g = poly_gcd(f, df)
    if g.degree == 0:
        return [(f, 1)]
    c = poly_exact_div(f, g)
    d = poly_exact_div(df, g) - c.derivative()
    out = []
    i = 1
    while c.degree > 0:
        p = poly_gcd(c, d)
        if p.degree > 0:
            out.append((p, i))
        c = poly_exact_div(c, p)
        d = poly_exact_div(d, p) - c.derivative()
        i += 1
    return out
