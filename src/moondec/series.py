"""Truncated Laurent series in q with exact rational coefficients.

Two kinds of value:

* ``QSeries``: the catalog shape 1/q + sum_{k=0}^{prec} c_k q^k.  The
  principal part is exactly 1/q (monic); ``coeffs[k]`` is the coefficient
  of q^k and ``prec = len(coeffs) - 1``.

* ``GeneralLaurent``: intermediate values.  ``coeffs[i]`` holds the
  coefficient of q^(lead + i) and the series is certified exact through
  q^prec -- every operation computes the exact certified bound of its
  result, because the relation search trusts precisely the coefficients
  inside that bound and nothing else.  ``prec == EXACT`` marks finitely
  supported series known exactly (scalars, polynomial values).

Certified-precision rules: add/sub take the min; a product is certified
through min(prec_a + lead_b, prec_b + lead_a); a quotient through
min(prec_a - lead_b, prec_b - 2*lead_b + lead_a).

Division and ``inner_series_solve`` are Newton iterations on kernel
products (Brent & Kung, JACM 1978): each step doubles the exact length.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from moondec.errors import (
    EmptyPrecisionError,
    LeadingMismatchError,
    NoRationalSolutionError,
    NonMonicPrincipalPartError,
    PrecisionExhaustedError,
    SeriesZeroDivisionError,
    VerificationFailureError,
    ZeroSeriesError,
)
from moondec.polynomials import clear_denominators, mul_fraction_seqs
from moondec.ratfun import RatFun

EXACT = 10 ** 9  # precision sentinel: exactly known, finitely supported


def _mul_seqs(a, b, trunc=0):
    """Convolve two sequences of Fractions through the product kernel."""
    if not a or not b:
        return []
    ints, d = mul_fraction_seqs(clear_denominators(a), clear_denominators(b),
                                trunc)
    return [Fraction(c, d) for c in ints]


@dataclass(frozen=True)
class GeneralLaurent:
    lead: int
    coeffs: tuple[Fraction, ...]
    prec: int

    @staticmethod
    def make(lead: int, coeffs, prec: int) -> GeneralLaurent:
        """Normalize: strip leading certified zeros; zero-to-prec has empty
        coefficients and lead = prec + 1.  For finite precision the stored
        range must cover lead..prec exactly."""
        cs = [Fraction(c) for c in coeffs]
        if prec != EXACT and len(cs) != prec - lead + 1:
            raise ValueError("coefficient list must span lead..prec")
        while cs and cs[0] == 0:
            cs.pop(0)
            lead += 1
        if prec == EXACT:
            while cs and cs[-1] == 0:
                cs.pop()
            if not cs:
                lead = 0
        elif not cs:
            lead = prec + 1
        return GeneralLaurent(lead, tuple(cs), prec)

    @staticmethod
    def exact_scalar(value) -> GeneralLaurent:
        value = Fraction(value)
        if value == 0:
            return GeneralLaurent(0, (), EXACT)
        return GeneralLaurent(0, (value,), EXACT)

    @property
    def is_zero(self) -> bool:
        """Identically zero through the certified precision."""
        return not self.coeffs

    @property
    def is_exact_zero(self) -> bool:
        return not self.coeffs and self.prec == EXACT

    def coeff(self, k: int) -> Fraction:
        """Coefficient of q^k; k must lie inside the certified range."""
        if self.prec != EXACT and k > self.prec:
            raise ValueError(f"coefficient q^{k} beyond certified q^{self.prec}")
        i = k - self.lead
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def truncate(self, prec: int) -> GeneralLaurent:
        if self.prec != EXACT and prec > self.prec:
            raise ValueError("cannot extend certified precision")
        cs = [self.coeff(k) for k in range(min(self.lead, prec + 1), prec + 1)]
        return GeneralLaurent.make(min(self.lead, prec + 1), cs, prec)

    def scale(self, k) -> GeneralLaurent:
        k = Fraction(k)
        if k == 0:
            return GeneralLaurent(0, (), EXACT)
        return GeneralLaurent(self.lead, tuple(c * k for c in self.coeffs),
                              self.prec)

    def add_scalar(self, value) -> GeneralLaurent:
        """Add an exact constant (affects only the q^0 coefficient)."""
        value = Fraction(value)
        if value == 0:
            return self
        if self.prec != EXACT and self.prec < 0:
            return self  # exponent 0 lies beyond the certified range
        lo = min(self.lead, 0)
        hi = self.prec if self.prec != EXACT else max(
            0, self.lead + len(self.coeffs) - 1)
        cs = [self.coeff(k) + (value if k == 0 else 0)
              for k in range(lo, hi + 1)]
        return GeneralLaurent.make(lo, cs, self.prec)

    def __add__(self, other: GeneralLaurent) -> GeneralLaurent:
        prec = min(self.prec, other.prec)
        if prec == EXACT:
            hi = max(self.lead + len(self.coeffs),
                     other.lead + len(other.coeffs)) - 1
        else:
            hi = prec
        lo = min(self.lead, other.lead, hi + 1)
        cs = [self.coeff(k) + other.coeff(k) for k in range(lo, hi + 1)]
        return GeneralLaurent.make(lo, cs, prec)

    def __neg__(self) -> GeneralLaurent:
        return GeneralLaurent(self.lead, tuple(-c for c in self.coeffs),
                              self.prec)

    def __sub__(self, other: GeneralLaurent) -> GeneralLaurent:
        return self + (-other)

    def __mul__(self, other: GeneralLaurent) -> GeneralLaurent:
        if self.is_exact_zero or other.is_exact_zero:
            return GeneralLaurent(0, (), EXACT)
        # a zero-to-prec series stores lead = prec + 1: it acts as O(q^lead)
        la, lb = self.lead, other.lead
        if self.prec == EXACT and other.prec == EXACT:
            prec = EXACT
        elif self.prec == EXACT:
            prec = other.prec + la
        elif other.prec == EXACT:
            prec = self.prec + lb
        else:
            prec = min(self.prec + lb, other.prec + la)
        lead = la + lb
        if self.is_zero or other.is_zero:
            if prec == EXACT:
                return GeneralLaurent(0, (), EXACT)
            return GeneralLaurent.make(prec + 1, [], prec)
        if prec != EXACT and prec < lead:
            raise EmptyPrecisionError(
                "product has no certified coefficients left")
        length = 0 if prec == EXACT else prec - lead + 1
        cs = _mul_seqs(self.coeffs, other.coeffs, length)
        if prec != EXACT and len(cs) < length:
            cs.extend([Fraction(0)] * (length - len(cs)))
        return GeneralLaurent.make(lead, cs, prec)

    def __truediv__(self, other: GeneralLaurent) -> GeneralLaurent:
        if other.is_zero:
            raise SeriesZeroDivisionError("division by a zero series")
        if self.is_exact_zero:
            return GeneralLaurent(0, (), EXACT)
        la, lb = self.lead, other.lead
        if self.prec == EXACT and other.prec == EXACT:
            raise ValueError(
                "division of two exact series needs explicit truncation")
        if self.prec == EXACT:
            prec = other.prec - 2 * lb + la
        elif other.prec == EXACT:
            prec = self.prec - lb
        else:
            prec = min(self.prec - lb, other.prec - 2 * lb + la)
        lead = la - lb
        if self.is_zero:
            return GeneralLaurent.make(prec + 1, [], prec)
        if prec < lead:
            raise EmptyPrecisionError(
                "quotient has no certified coefficients left")
        # b*inv = 1 + q^k*err, so inv - q^k*inv*err inverts b to q^(2k-1)
        length = prec - lead + 1
        bv = list(other.coeffs[:length])
        bv += [Fraction(0)] * (length - len(bv))
        inv = [1 / bv[0]]
        while len(inv) < length:
            k = len(inv)
            n = min(2 * k, length)
            err = _mul_seqs(bv[:n], inv, n)[k:]
            inv += [-c for c in _mul_seqs(err, inv, n - k)]
        quot = _mul_seqs(self.coeffs[:length], inv, length)
        return GeneralLaurent.make(lead, quot, prec)

    def __str__(self) -> str:
        if self.is_zero:
            return f"O(q^{self.prec + 1})" if self.prec != EXACT else "0"
        terms = " + ".join(f"{c}*q^{self.lead + i}"
                           for i, c in enumerate(self.coeffs) if c)
        tail = "" if self.prec == EXACT else f" + O(q^{self.prec + 1})"
        return terms + tail


@dataclass(frozen=True)
class QSeries:
    """1/q + sum c_k q^k, coefficients certified through q^prec."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_coeffs(values) -> QSeries:
        return QSeries(tuple(Fraction(v) for v in values))

    @property
    def prec(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        """Coefficient of q^k for k >= -1."""
        if k == -1:
            return Fraction(1)
        if 0 <= k <= self.prec:
            return self.coeffs[k]
        raise ValueError(f"coefficient q^{k} beyond certified q^{self.prec}")

    def to_laurent(self) -> GeneralLaurent:
        return GeneralLaurent.make(-1, (Fraction(1),) + self.coeffs, self.prec)

    @staticmethod
    def from_laurent(t: GeneralLaurent) -> QSeries:
        if t.prec == EXACT:
            # exact series are finitely supported; adopt the stored range
            t = t.truncate(max(t.lead + len(t.coeffs) - 1, -1))
        if t.lead != -1 or t.coeff(-1) != 1:
            raise NonMonicPrincipalPartError(
                f"series does not start with 1/q (lead {t.lead}, "
                f"coefficient {t.coeff(t.lead) if not t.is_zero else 0})")
        return QSeries(tuple(t.coeff(k) for k in range(0, t.prec + 1)))

    def truncate(self, prec: int) -> QSeries:
        if prec > self.prec:
            raise ValueError("cannot extend certified precision")
        return QSeries(self.coeffs[:prec + 1])

    def __str__(self) -> str:
        return str(self.to_laurent())


def substitute_power(s: QSeries, r: int) -> GeneralLaurent:
    """q -> q^r, exactly: 1/q^r + sum c_k q^(r*k), certified through r*prec."""
    if r < 1:
        raise ValueError("power must be a positive integer")
    prec = r * s.prec
    length = prec + r + 1
    cs = [Fraction(0)] * length
    cs[0] = Fraction(1)
    for k, c in enumerate(s.coeffs):
        i = r * k + r
        if i < length:
            cs[i] = c
    return GeneralLaurent.make(-r, cs, prec)


def eval_poly_at_series(p, t: GeneralLaurent) -> GeneralLaurent:
    """Horner evaluation of a Poly at a series."""
    acc = GeneralLaurent(0, (), EXACT)
    for c in reversed(p.coeffs):
        acc = (acc * t).add_scalar(c) if not acc.is_exact_zero \
            else GeneralLaurent.exact_scalar(c)
    return acc


def eval_ratfun_at_series(f: RatFun, s) -> GeneralLaurent:
    """f evaluated at a series (QSeries or GeneralLaurent)."""
    t = s.to_laurent() if isinstance(s, QSeries) else s
    try:
        num = eval_poly_at_series(f.num, t)
        if num.is_exact_zero:
            return num
        return num / eval_poly_at_series(f.den, t)
    except EmptyPrecisionError as exc:
        raise PrecisionExhaustedError(str(exc)) from exc


def inner_series_solve(f: RatFun, target: GeneralLaurent) -> QSeries:
    """The unique monic-1/q series s with f(s) = target.

    Solved by Newton iteration on P(y) = num(y) - target*den(y).  With d =
    deg f and s_k = 1/q + c_0 + ... + c_(k-1) q^(k-1) exact, P'(s_k) leads
    at q^(1-deg num) with the nonzero pivot d*lc(num), so the step
    s_k - P(s_k)/P'(s_k) is exact through q^(2k): each step takes k to
    2k+1 coefficients, and the target's precision caps the last one.
    """
    d = (f.num.degree if not f.num.is_zero else 0) - f.den.degree
    if d < 1:
        raise LeadingMismatchError(
            "numerator degree must exceed denominator degree")
    lc = f.num.lc / f.den.lc
    if target.is_zero or target.lead != -d:
        raise LeadingMismatchError(
            f"target must have leading exponent {-d}")
    if target.coeff(-d) != lc:
        raise NoRationalSolutionError(
            f"leading coefficient must be {lc} with a monic 1/q ansatz")
    kmax = target.prec + d - 1
    dnum, dden = f.num.derivative(), f.den.derivative()
    known: list[Fraction] = []  # c_0, c_1, ... of the solution
    while len(known) <= kmax:
        k = len(known)
        n = min(2 * k + 1, kmax + 1)
        # s_k is exact; precision q^(n-1) only cuts what this step needs
        guess = GeneralLaurent.make(
            -1, [Fraction(1)] + known + [Fraction(0)] * (n - k), n - 1)
        value = (eval_poly_at_series(f.num, guess)
                 - target * eval_poly_at_series(f.den, guess))
        slope = (eval_poly_at_series(dnum, guess)
                 - target * eval_poly_at_series(dden, guess))
        step = value / slope
        known += [-step.coeff(j) for j in range(k, n)]
    result = QSeries(tuple(known))
    if not (eval_ratfun_at_series(f, result) - target).is_zero:
        raise VerificationFailureError("forward check failed")
    return result


def power_support(s: GeneralLaurent) -> int:
    """Largest m with s = t(q^m) for a series t leading with q^(lead/m)."""
    if s.is_zero:
        raise ZeroSeriesError("zero series has no power support")
    g = abs(s.lead)
    for i, c in enumerate(s.coeffs):
        if c:
            g = gcd(g, s.lead + i)
        if g == 1:
            break
    return g if g else 1
