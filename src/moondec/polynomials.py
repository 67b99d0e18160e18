"""Dense univariate polynomials with exact rational coefficients.

A polynomial is stored as integer numerators over one positive common
denominator, ``nums[i] / den`` the coefficient of x^i, in canonical form:
the highest stored numerator is nonzero, ``den > 0`` and
``gcd(den, *nums) == 1``.  The zero polynomial is ``Poly((), 1)``.  Equal
values therefore have equal fields, so dataclass equality and hashing are
value equality.  All arithmetic runs on the integers; ``coeffs`` is a
derived ``Fraction`` view for text output and sort keys.  Every exact sum
in the package, of polynomials, series bodies, homogenized compositions,
relation ansatzes and modular polynomials, is one call of ``combine``:
integer multiples of numerators over the lcm of their denominators.  The
degree of the zero polynomial is ``MINUS_INFINITY``, -infinity, so
deg(p*q) = deg p + deg q holds for zero factors too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, lcm

from moondec import _kernels
from moondec.errors import BothZeroError, ZeroDivisionPolyError, ZeroPolyError
from moondec.linalg import RANK_PRIME


MINUS_INFINITY = -inf  # the degree of the zero polynomial


def clear_denominators(coeffs):
    """Return (integer coefficients, multiplier m) with ints = coeffs * m;
    a list of ints is copied as it is, with m = 1."""
    if {*map(type, coeffs)} <= {int}:
        return list(coeffs), 1
    mult = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (mult // c.denominator) for c in coeffs], mult


def mul_fraction_seqs(a, b, trunc=0):
    """Product of ``a = (ints, den)`` and ``b`` through the integer kernel:
    ``(ints_a * ints_b, den_a * den_b)``, the first ``trunc`` entries when
    ``trunc > 0``; the one entry point of every exact product."""
    (ia, da), (ib, db) = a, b
    return _kernels.poly_mul(ia, ib, 0, trunc), da * db


def combine(terms, size=inf):
    """The numerators and denominator ``(nums, den)`` of sum w * x^s * p
    over terms ``(w, s, p)``: int weights w, shifts s >= 0 and ``Poly`` p;
    den is the lcm of the denominators of the terms with w and p nonzero,
    and nums is cut to its first ``size`` entries.  The result is not
    canonical."""
    live = [(w, s, p) for w, s, p in terms if w and p.nums]
    den = lcm(*(p.den for _, _, p in live))
    size = min(max((s + len(p.nums) for _, s, p in live), default=0), size)
    out = [0] * max(size, 0)
    for w, s, p in live:
        m = w * (den // p.den)
        for i, c in enumerate(p.nums[:max(size - s, 0)], s):
            out[i] += m * c
    return out, den


@dataclass(frozen=True)
class Poly:
    """Immutable dense polynomial over the rationals: nums/den, canonical."""

    nums: tuple[int, ...]
    den: int

    @staticmethod
    def make(nums, den: int) -> Poly:
        """The polynomial nums/den in canonical form, for a sequence of ints
        nums and an int den != 0."""
        nums = list(nums)
        while nums and nums[-1] == 0:
            nums.pop()
        if not nums:
            return ZERO
        if den < 0:
            den = -den
            nums = [-n for n in nums]
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                den //= g
                nums = [n // g for n in nums]
        return Poly(tuple(nums), den)

    @staticmethod
    def from_coeffs(values) -> Poly:
        """Build from any iterable of ints/Fractions, trimming high zeros."""
        return Poly.make(*clear_denominators(list(values)))

    @staticmethod
    def constant(value) -> Poly:
        return Poly.from_coeffs([value])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, index i holding that of x^i."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self):
        return len(self.nums) - 1 if self.nums else MINUS_INFINITY

    @property
    def lc(self) -> Fraction:
        """Leading coefficient; 0 for the zero polynomial."""
        return Fraction(self.nums[-1], self.den) if self.nums else Fraction(0)

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.nums):
            return Fraction(self.nums[i], self.den)
        return Fraction(0)

    def __add__(self, other: Poly) -> Poly:
        return Poly.make(*combine(((1, 0, self), (1, 0, other))))

    def __neg__(self) -> Poly:
        return Poly(tuple(-n for n in self.nums), self.den)

    def __sub__(self, other: Poly) -> Poly:
        return Poly.make(*combine(((1, 0, self), (-1, 0, other))))

    def __mul__(self, other: Poly) -> Poly:
        if self == ONE:
            return other
        if other == ONE:
            return self
        return Poly.make(*mul_fraction_seqs((self.nums, self.den),
                                            (other.nums, other.den)))

    def scale(self, k) -> Poly:
        """k * self for an int or Fraction k."""
        if k == 0:
            return ZERO
        return Poly.make([n * k.numerator for n in self.nums],
                         self.den * k.denominator)

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
        if self.nums[-1] == self.den:
            return self
        return Poly.make(self.nums, self.nums[-1])

    def derivative(self) -> Poly:
        return Poly.make([i * n for i, n in enumerate(self.nums)][1:],
                         self.den)

    def evaluate(self, point) -> Fraction:
        """self(point) for an int or Fraction point, by integer Horner on
        the homogenized sum of nums[i] * p^i * q^(deg - i), point = p/q."""
        if not self.nums:
            return Fraction(0)
        p, q = point.numerator, point.denominator
        acc, qk = 0, 1
        for n in reversed(self.nums):
            acc = acc * p + n * qk
            qk *= q
        return Fraction(acc, self.den * (qk // q))

    def __str__(self) -> str:
        return poly_text(self)

    def __repr__(self) -> str:
        return f"Poly({poly_text(self)})"


ZERO = Poly((), 1)
ONE = Poly((1,), 1)
X = Poly((0, 1), 1)


def poly_text(p: Poly) -> str:
    """Canonical text in x: expanded, descending powers, explicit '*', '^'."""
    if p.is_zero:
        return "0"
    parts = []
    for i, c in reversed(list(enumerate(p.coeffs))):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            v = "x" if i == 1 else f"x^{i}"
            body = v if mag == 1 else f"{mag}*{v}"
        parts.append(sign + body)
    return "".join(parts)


def poly_divrem(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Exact division with remainder: a = q*b + r, deg r < deg b.

    Fraction-free: s * nums(a) = quot * nums(b) + rem over the integers,
    where s is the product of the scalings so far; when lc(nums(b)) does not
    divide the top of rem, a step first scales rem, quot and s by
    |lc| / gcd(top, lc)."""
    if b.is_zero:
        raise ZeroDivisionPolyError("division by the zero polynomial")
    if a.is_zero or len(a.nums) < len(b.nums):
        return ZERO, a
    nb = b.nums
    db = len(nb) - 1
    lead = nb[-1]
    rem = list(a.nums)
    quot = [0] * (len(rem) - db)
    s = 1
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        m = abs(lead) // gcd(c, lead)
        if m != 1:
            rem = [r * m for r in rem]
            quot = [x * m for x in quot]
            s *= m
            c *= m
        qc = c // lead
        quot[i - db] = qc
        for j in range(db + 1):
            rem[i - db + j] -= qc * nb[j]
    return (Poly.make([x * b.den for x in quot], s * a.den),
            Poly.make(rem[:db], s * a.den))


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


# Images modulo this prime certify coprimality (see poly_gcd).  It is the
# rank test's prime, the largest below 2^15: residues and their products
# stay below 2^30, so Euclid runs on CPython's one-digit integers.  A pair
# whose images share a factor although the inputs do not only costs the PRS.
GCD_PRIME = RANK_PRIME


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor (primitive PRS over the integers).

    Before the PRS, Euclid runs on the images mod GCD_PRIME of the integer
    numerators when the prime divides neither leading numerator.  A gcd of
    degree 0 there certifies ONE: a common factor over Q has a primitive
    integer multiple that divides both numerator lists over Z (Gauss), so
    its leading coefficient divides theirs and its image mod the prime
    keeps its degree and divides both images.  Any other outcome, such as
    images that share a root mod the prime while the inputs do not, leaves
    the answer to the PRS.
    """
    if a.is_zero and b.is_zero:
        raise BothZeroError("gcd of two zero polynomials")
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    p = GCD_PRIME
    if a.nums[-1] % p and b.nums[-1] % p and len(_kernels.pm_gcd(
            [c % p for c in a.nums], [c % p for c in b.nums], p)) == 1:
        return ONE
    fa = _int_primitive(list(a.nums))
    fb = _int_primitive(list(b.nums))
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while fb:
        # a rational multiple of the pseudo-remainder: same primitive part
        rem = poly_divrem(Poly.make(fa, 1), Poly.make(fb, 1))[1]
        fa, fb = fb, _int_primitive(list(rem.nums))
    return Poly.make(fa, fa[-1])


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
