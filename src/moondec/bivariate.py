"""Polynomials whose coefficients are themselves polynomials.

An element sum_i c_i(y) * x^i is stored densely by powers of the outer
variable x; modular polynomials P(x, y) are values of this type.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from moondec.polynomials import ZERO, Poly, poly_exact_div, poly_gcd


@dataclass(frozen=True)
class PolyOverPoly:
    """Dense polynomial in an outer variable with Poly coefficients."""

    coeffs: tuple[Poly, ...]

    @staticmethod
    def from_coeffs(values) -> PolyOverPoly:
        cs = list(values)
        while cs and cs[-1].is_zero:
            cs.pop()
        return PolyOverPoly(tuple(cs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def content_reduced(self) -> PolyOverPoly:
        """Divide out the gcd of the coefficients and canonicalize scaling.

        The result has coprime integer coefficient polynomials and a
        positive leading coefficient in the top x-power.
        """
        if self.is_zero:
            return self
        g = None
        for c in self.coeffs:
            if c.is_zero:
                continue
            g = c.monic() if g is None else poly_gcd(g, c)
            if g.degree == 0:
                break
        if g.degree > 0:
            reduced = [ZERO if c.is_zero else poly_exact_div(c, g)
                       for c in self.coeffs]
        else:
            reduced = list(self.coeffs)
        # clear rational content across all scalar coefficients
        mult = lcm(*(c.den for c in reduced))
        ints = [[n * (mult // c.den) for n in c.nums] for c in reduced]
        g = gcd(*(n for row in ints for n in row))
        if ints[-1][-1] < 0:
            g = -g
        return PolyOverPoly(tuple(Poly(tuple(n // g for n in row), 1)
                                  for row in ints))

    def __str__(self) -> str:
        return bivariate_text(self)


def bivariate_text(p: PolyOverPoly) -> str:
    """Canonical expanded text in x (outer) and y, descending in x."""
    if p.is_zero:
        return "0"
    parts = []
    for i, c in reversed(list(enumerate(p.coeffs))):
        if c.is_zero:
            continue
        inner_terms = []
        for j, v in reversed(list(enumerate(c.coeffs))):
            if v == 0:
                continue
            factors = []
            if abs(v) != 1 or (i == 0 and j == 0):
                factors.append(str(abs(v)))
            if i:
                factors.append("x" if i == 1 else f"x^{i}")
            if j:
                factors.append("y" if j == 1 else f"y^{j}")
            term = "*".join(factors)
            sign = "-" if v < 0 else ("+" if parts or inner_terms else "")
            inner_terms.append(sign + term)
        parts.extend(inner_terms)
    return "".join(parts)
