"""Truncated Laurent series in q with exact rational coefficients.

Two kinds of value:

* ``GeneralLaurent(lead, body, prec)``: ``body`` is a ``Poly`` whose
  coefficient of x^i is the coefficient of q^(lead + i), and the series is
  certified exact through q^prec -- every operation computes the exact
  certified bound of its result, because the relation search trusts
  precisely the coefficients inside that bound and nothing else.
  Finitely supported series known exactly (scalars, polynomial values)
  have ``prec == EXACT``, which is infinity, so the rules below hold for
  them as written; every finite precision is an int.  In canonical form
  ``body`` is a canonical ``Poly`` with a nonzero lowest numerator and
  degree at most prec - lead, so equal values have equal fields; a
  zero-to-prec series is (prec + 1, ZERO, prec), and the exact zero
  ``ZERO_SERIES`` is that rule at prec = EXACT, zero through q^infinity.
  All arithmetic runs on the body's integer numerators;
  ``coeff`` and ``coeffs`` are ``Fraction`` views.

* ``QSeries``: the catalog shape 1/q + sum_{k=0}^{prec} c_k q^k, a wrapper
  of its monic lead -1 ``GeneralLaurent``.  ``coeffs[k]`` is the
  coefficient of q^k and ``prec = len(coeffs) - 1``.

Certified-precision rules: add/sub take the min; a product is certified
through min(prec_a + lead_b, prec_b + lead_a); a quotient through
min(prec_a - lead_b, prec_b - 2*lead_b + lead_a).  Every sum, difference
included, goes through ``combine_powers``, which writes the precision rule
for sums once: the least precision over the terms with a nonzero weight;
``polynomials.combine`` adds the bodies.

Division and ``inner_series_solve`` are Newton iterations on kernel
products (Brent & Kung, JACM 1978): each step doubles the exact length.
A polynomial is evaluated at a series by Paterson & Stockmeyer (SIAM J.
Comput. 1973): about 2*sqrt(d) products instead of Horner's d.  Each
evaluation point gets one table of powers, which every polynomial
evaluated there shares: num and den of a function, and the four
polynomials of a Newton step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, isqrt

from moondec.errors import (
    EmptyPrecisionError,
    InvalidInputError,
    LeadingMismatchError,
    NoRationalSolutionError,
    NonMonicPrincipalPartError,
    PrecisionExhaustedError,
    SeriesZeroDivisionError,
    VerificationFailureError,
    ZeroSeriesError,
)
from moondec.polynomials import ONE, ZERO, Poly, combine, mul_fraction_seqs
from moondec.ratfun import RatFun

EXACT = inf  # the precision of an exactly known, finitely supported series


def _series(lead: int | float, nums, den: int,
            prec: int | float) -> GeneralLaurent:
    """The canonical series sum nums[i]/den q^(lead + i) + O(q^(prec + 1)):
    cut at prec, low zeros stripped."""
    if prec != EXACT:
        nums = nums[:max(prec - lead + 1, 0)]
    low = 0
    while low < len(nums) and nums[low] == 0:
        low += 1
    if low == len(nums):
        return GeneralLaurent(prec + 1, ZERO, prec)
    return GeneralLaurent(lead + low, Poly.make(nums[low:], den), prec)


@dataclass(frozen=True)
class GeneralLaurent:
    lead: int | float
    body: Poly
    prec: int | float

    @staticmethod
    def make(lead: int, coeffs, prec: int | float) -> GeneralLaurent:
        """The canonical series with ``coeffs[i]`` (ints or Fractions) at
        q^(lead + i); for finite precision they must span lead..prec."""
        coeffs = list(coeffs)
        if prec != EXACT and len(coeffs) != prec - lead + 1:
            raise ValueError("coefficient list must span lead..prec")
        body = Poly.from_coeffs(coeffs)
        return _series(lead, body.nums, body.den, prec)

    @staticmethod
    def exact_scalar(value) -> GeneralLaurent:
        return GeneralLaurent.make(0, [value], EXACT)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of q^lead, q^(lead + 1), ... as Fractions,
        through q^prec for finite precision."""
        cs = self.body.coeffs
        if self.prec == EXACT:
            return cs
        return cs + (Fraction(0),) * (self.prec - self.lead + 1 - len(cs))

    @property
    def is_zero(self) -> bool:
        """Identically zero through the certified precision."""
        return not self.body.nums

    def coeff(self, k: int) -> Fraction:
        """Coefficient of q^k; k must lie inside the certified range."""
        if k > self.prec:
            raise ValueError(f"coefficient q^{k} beyond certified q^{self.prec}")
        return self.body.coeff(k - self.lead)

    def truncate(self, prec: int) -> GeneralLaurent:
        if prec > self.prec:
            raise ValueError("cannot extend certified precision")
        return _series(self.lead, self.body.nums, self.body.den, prec)

    def add_scalar(self, value) -> GeneralLaurent:
        """Add an exact constant (affects only the q^0 coefficient)."""
        return self + GeneralLaurent.exact_scalar(value)

    def __add__(self, other: GeneralLaurent) -> GeneralLaurent:
        return combine_powers((1, 1), 1, (self, other))

    def __neg__(self) -> GeneralLaurent:
        return GeneralLaurent(self.lead, -self.body, self.prec)

    def __sub__(self, other: GeneralLaurent) -> GeneralLaurent:
        return combine_powers((1, -1), 1, (self, other))

    def __mul__(self, other: GeneralLaurent) -> GeneralLaurent:
        # a zero-to-prec series stores lead = prec + 1: it acts as O(q^lead)
        la, lb = self.lead, other.lead
        prec = min(self.prec + lb, other.prec + la)
        lead = la + lb
        if self.is_zero or other.is_zero:
            return GeneralLaurent(prec + 1, ZERO, prec)
        if prec < lead:
            raise EmptyPrecisionError(
                "product has no certified coefficients left")
        a, b = self.body, other.body
        nums, den = mul_fraction_seqs((a.nums, a.den), (b.nums, b.den),
                                      0 if prec == EXACT else prec - lead + 1)
        return _series(lead, nums, den, prec)

    def __truediv__(self, other: GeneralLaurent) -> GeneralLaurent:
        if other.is_zero:
            raise SeriesZeroDivisionError("division by a zero series")
        la, lb = self.lead, other.lead
        prec = min(self.prec - lb, other.prec - 2 * lb + la)
        if self.is_zero:
            return GeneralLaurent(prec + 1, ZERO, prec)
        if prec == EXACT:
            raise ValueError(
                "division of two exact series needs explicit truncation")
        lead = la - lb
        if prec < lead:
            raise EmptyPrecisionError(
                "quotient has no certified coefficients left")
        # b*inv = 1 + q^k*err, so inv - q^k*inv*err inverts b to q^(2k-1)
        length = prec - lead + 1
        b = (other.body.nums[:length], other.body.den)
        inv = Poly.make((other.body.den,), other.body.nums[0])
        k = 1
        while k < length:
            n = min(2 * k, length)
            err, d = mul_fraction_seqs(b, (inv.nums, inv.den), n)
            corr, d = mul_fraction_seqs((err[k:], d), (inv.nums, inv.den),
                                        n - k)
            inv = inv - Poly.make([0] * k + corr, d)
            k = n
        a = self.body
        nums, den = mul_fraction_seqs((a.nums[:length], a.den),
                                      (inv.nums, inv.den), length)
        return _series(lead, nums, den, prec)


ZERO_SERIES = GeneralLaurent(EXACT, ZERO, EXACT)


@dataclass(frozen=True)
class QSeries:
    """1/q + sum c_k q^k, coefficients certified through q^prec; ``laurent``
    is that series, monic with lead -1."""

    laurent: GeneralLaurent

    @staticmethod
    def from_coeffs(values) -> QSeries:
        """The series 1/q + sum values[k] q^k for ints/Fractions values.
        Its body is built once: it leads with 1 and spans q^-1..q^prec, so
        the canonical Poly of [1, *values] is already the canonical body."""
        coeffs = [1, *values]
        return QSeries(GeneralLaurent(-1, Poly.from_coeffs(coeffs),
                                      len(coeffs) - 2))

    @property
    def prec(self) -> int:
        return self.laurent.prec

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """c_0, ..., c_prec as Fractions."""
        return self.laurent.coeffs[1:]

    def to_laurent(self) -> GeneralLaurent:
        return self.laurent

    @staticmethod
    def from_laurent(t: GeneralLaurent) -> QSeries:
        if t.prec == EXACT:
            # exact series are finitely supported; adopt the stored range
            t = t.truncate(max(t.lead + len(t.body.nums) - 1, -1))
        if t.lead != -1 or t.body.coeff(0) != 1:
            raise NonMonicPrincipalPartError(
                f"series does not start with 1/q (lead {t.lead}, "
                f"coefficient {t.body.coeff(0)})")
        return QSeries(t)

    def truncate(self, prec: int) -> QSeries:
        return QSeries(self.laurent.truncate(prec))


def substitute_power(s: QSeries, r: int) -> GeneralLaurent:
    """q -> q^r, exactly: 1/q^r + sum c_k q^(r*k), certified through r*prec."""
    if r < 1:
        raise ValueError("power must be a positive integer")
    body = s.laurent.body
    nums = [0] * (r * len(body.nums) - r + 1)
    nums[::r] = body.nums
    return GeneralLaurent(-r, Poly(tuple(nums), body.den), r * s.prec)


def series_powers(t: GeneralLaurent, top: int,
                  powers: list[GeneralLaurent] | None = None
                  ) -> list[GeneralLaurent]:
    """t^0..t^top, each by one product with t, so that t^j is certified
    through prec(t) + (j - 1)*lead(t), as Horner's partial products are;
    ``powers``, a table of t's powers from t^0, is grown in place when it
    is given."""
    if powers is None:
        powers = [GeneralLaurent.exact_scalar(1)]
    while len(powers) <= top:
        powers.append(powers[-1] * t)
    return powers


def combine_powers(nums, den: int, powers) -> GeneralLaurent:
    """sum nums[j]/den * powers[j] on the integer numerators, certified
    through the least precision of a term with nums[j] != 0."""
    terms = [(n, p) for n, p in zip(nums, powers) if n]
    prec = min((p.prec for _, p in terms), default=EXACT)
    live = [(n, p) for n, p in terms if p.body.nums]
    if not live:
        return GeneralLaurent(prec + 1, ZERO, prec)
    lo = min(p.lead for _, p in live)
    out, common = combine(((n, p.lead - lo, p.body) for n, p in live),
                          prec - lo + 1)
    return _series(lo, out, common * den, prec)


def block_size(degree: int) -> int:
    """The Paterson-Stockmeyer block length for a polynomial degree (-inf
    for zero): about its square root."""
    return max(1, isqrt(max(degree, 0) + 1))


def eval_poly_on_powers(p: Poly, powers) -> GeneralLaurent:
    """p(t) from powers = t^0..t^k, k >= 1 (Paterson & Stockmeyer, SIAM J.
    Comput. 1973): blocks of k coefficients are combinations of t^0..t^(k-1)
    and the blocks are joined by Horner in t^k, so the products are the
    k - 1 of the table and one per further block.  Value and certified
    precision are those of Horner's rule in t: the precision is the least
    over the terms c_j t^j, j >= 1, in both."""
    k = len(powers) - 1
    acc = None
    for start in reversed(range(0, len(p.nums), k)):
        block = combine_powers(p.nums[start:start + k], p.den, powers)
        acc = block if acc is None else acc * powers[k] + block
    return ZERO_SERIES if acc is None else acc


def eval_ratfun_at_series(f: RatFun, s) -> GeneralLaurent:
    """f evaluated at a series (QSeries or GeneralLaurent); num and den
    share one table of powers."""
    t = s.to_laurent() if isinstance(s, QSeries) else s
    try:
        powers = series_powers(t, block_size(f.degree))
        return (eval_poly_on_powers(f.num, powers)
                / eval_poly_on_powers(f.den, powers))
    except EmptyPrecisionError as exc:
        raise PrecisionExhaustedError(str(exc)) from exc


def inner_series_solve(f: RatFun, target: GeneralLaurent) -> QSeries:
    """The unique monic-1/q series s with f(s) = target.

    Solved by Newton iteration on P(y) = num(y) - target*den(y).  With d =
    deg f and s_k = 1/q + c_0 + ... + c_(k-1) q^(k-1) exact, P'(s_k) leads
    at q^(1-deg num) with the nonzero pivot d*lc(num), so the step
    s_k - P(s_k)/P'(s_k) is exact through q^(2k): each step takes k to
    2k+1 coefficients, and the target's precision caps the last one.
    Each step builds one table of s_k's powers, on which num, den, num'
    and den' are evaluated; Paterson-Stockmeyer gives Horner's value and
    precision for any table size, so one size serves all four.
    """
    d = f.num.degree - f.den.degree
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
    if target.prec == EXACT:
        raise InvalidInputError("target must have a finite precision")
    kmax = target.prec + d - 1
    dnum, dden = f.num.derivative(), f.den.derivative()
    body = ONE  # of s_k = 1/q + c_0 + ... + c_(k-1) q^(k-1), from q^-1
    k = 0
    while k <= kmax:
        n = min(2 * k + 1, kmax + 1)
        # s_k is exact; precision q^(n-1) only cuts what this step needs
        guess = GeneralLaurent(-1, body, n - 1)
        powers = series_powers(guess, block_size(f.degree))
        value = (eval_poly_on_powers(f.num, powers)
                 - target * eval_poly_on_powers(f.den, powers))
        slope = (eval_poly_on_powers(dnum, powers)
                 - target * eval_poly_on_powers(dden, powers))
        # the step vanishes below q^k, where s_k is already exact
        body = (guess - value / slope).truncate(n - 1).body
        k = n
    result = QSeries(GeneralLaurent(-1, body, kmax))
    if not (eval_ratfun_at_series(f, result) - target).is_zero:
        raise VerificationFailureError("forward check failed")
    return result


def power_support(s: GeneralLaurent) -> int:
    """Largest m with s = t(q^m) for a series t leading with q^(lead/m)."""
    if s.is_zero:
        raise ZeroSeriesError("zero series has no power support")
    g = abs(s.lead)
    for i, c in enumerate(s.body.nums):
        if c:
            g = gcd(g, s.lead + i)
        if g == 1:
            break
    return g if g else 1
