"""Search for relations s1(q^r) = f(s2(q)) between truncated q-series.

The candidate f is a monic ansatz

    f = (t^e + a_{e-1} t^{e-1} + ... + a_0) / (t^{e-r} + ... + b_0),

so the relation reads sum_j b_j s1(q^r) s2^j = num(s2), b_{e-r} = 1.  As
s2 = 1/q + ... is monic, each product s1(q^r) s2^j is P_j(s2) + R_j with
R_j = O(q), and a nonzero polynomial in s2 is not O(q): the relation holds
iff num = sum_j b_j P_j and sum_j b_j R_j = 0.  Only the e - r unknowns of
the denominator are solved for, one linear equation per certified
coefficient of sum_j b_j R_j from q^1; the system must be overdetermined
(at least one more equation than unknowns) so that a solution on truncated
data actually means something; a solution needs no evaluation of f(s2)
(see _try_r).  The r-loop returns the first success (lowest r).

Most systems are inconsistent, and the scan rejects those on a leading
block before it builds them in full.  The block is the same system built
from both series truncated to q^(2e+1), the precision the scan requires:
its e + 2 rows are rows q^1..q^(e+2) of the full system, each scaled by
one positive constant.  A row subset of [A | b] of rank (e - r) + 1 means
rank [A | b] > rank A, so the full system is inconsistent too and that r
has no relation.  Every other r is solved on the full series, so the
block changes no result: a consistent system has only consistent blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from moondec import linalg
from moondec.errors import (
    InsufficientPrecisionError,
    InvalidInputError,
    NonPositiveAreaError,
    UnderdeterminedSystemError,
)
from moondec.polynomials import Poly, poly_gcd
from moondec.ratfun import RatFun
from moondec.series import (
    GeneralLaurent,
    QSeries,
    eval_ratfun_at_series,
    substitute_power,
)


@dataclass(frozen=True)
class LinearSystem:
    matrix: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]


@dataclass(frozen=True)
class Relation:
    r: int
    f: RatFun
    e: int
    verified_to: int


def solve_linear(system: LinearSystem):
    """Integer-row Gaussian elimination; unique solution, None, or an error.

    None means inconsistent; a consistent but rank-deficient system raises
    UnderdeterminedSystemError (it signals insufficient series precision,
    not a usable relation).
    """
    nvars = len(system.matrix[0]) if system.matrix else 0
    aug = [list(row) + [rhs] for row, rhs in zip(system.matrix, system.rhs)]
    if any(v.denominator != 1 for row in aug for v in row):
        raise InvalidInputError("linear system entries must be integers")
    return linalg.solve_unique(aug, nvars)


def degree_from_areas(a1: Fraction, a2: Fraction):
    """Candidate degree e = a2/a1 when that is a positive integer."""
    if a1 <= 0 or a2 <= 0:
        raise NonPositiveAreaError("fundamental-region areas must be positive")
    e = Fraction(a2) / Fraction(a1)
    if e.denominator == 1 and e >= 1:
        return int(e)
    return None


def _series_powers(s: QSeries, top: int) -> list[GeneralLaurent]:
    powers = [GeneralLaurent.exact_scalar(1)]
    t = s.to_laurent()
    for _ in range(top):
        powers.append(powers[-1] * t)
    return powers


def _build_system(s1: QSeries, e: int, r: int,
                  powers: list[GeneralLaurent]):
    """Equations for one r, and P_0..P_(e-r): each product s1(q^r)*s2^j is
    P_j(s2) + R_j with R_j = O(q), its terms at or below q^0 cancelled by
    the powers s2^0..s2^e of the monic s2.  Columns b_0..b_(e-r-1); row k is
    the coefficient of q^(k+1) in sum b_j R_j + R_(e-r) = 0."""
    sub = substitute_power(s1, r)
    polys, cols = [], []
    for j in range(e - r + 1):
        rest = sub * powers[j]
        coeffs = [0] * (r + j + 1)
        while rest.lead <= 0:
            coeffs[-rest.lead] = c = rest.coeff(rest.lead)
            rest = rest + powers[-rest.lead].scale(-c)
        polys.append(Poly.from_coeffs(coeffs))
        cols.append(rest._shifted(1))
    # R_(e-r) is reduced with s2^e and is the least certified rest
    bound = rest.prec
    if bound < e - r + 1:
        raise InsufficientPrecisionError(
            f"only {bound} certified equations for {e - r} unknowns at r={r}")
    cols[-1] = -cols[-1]
    rows = linalg.integer_rows(cols, bound)
    return LinearSystem(tuple(row[:-1] for row in rows),
                        tuple(row[-1] for row in rows)), polys


def _assemble(polys: list[Poly], sol: list[Fraction]):
    num = sum((p.scale(b) for p, b in zip(polys, sol)), polys[-1])
    den = Poly.from_coeffs(list(sol) + [Fraction(1)])
    if poly_gcd(num, den).degree > 0:
        return None  # reducible ansatz: the true relation has lower degree
    return RatFun(num, den)


def _diff_series(s1: QSeries, s2: QSeries, r: int, f: RatFun) -> GeneralLaurent:
    return substitute_power(s1, r) - eval_ratfun_at_series(f, s2)


def verify_relation(s1: QSeries, s2: QSeries, rel: Relation) -> int:
    """Highest certified exponent through which s1(q^r) - f(s2(q)) vanishes,
    by evaluating f(s2) afresh (``relate --verify``): k - 1 for a nonzero
    certified coefficient at q^k, else the recomputation's certified bound,
    which for a relation the scan found is its verified_to."""
    diff = _diff_series(s1, s2, rel.r, rel.f)
    if diff.is_zero:
        return diff.prec
    return diff.lead - 1


def _try_r(s1: QSeries, s2: QSeries, e: int, r: int,
           powers: list[GeneralLaurent]):
    """The relation at power r, or None.  A solution zeroes every certified
    row q^1..q^bound of den(s2)*s1(q^r) - num(s2) = sum_j b_j R_j, and
    den(s2) leads with q^(r-e): s1(q^r) - f(s2) vanishes through
    q^(bound+e-r) = min(r*prec(s1), prec(s2) - r + 1), all it certifies."""
    system, polys = _build_system(s1, e, r, powers)
    sol = solve_linear(system)
    if sol is None:
        return None
    f = _assemble(polys, sol)
    if f is None:
        return None
    return Relation(r, f, e, min(r * s1.prec, s2.prec - r + 1))


def _scan(s1: QSeries, s2: QSeries, e: int, skip_underdetermined: bool):
    """Verified relations for r = 1..e, lowest r first, found lazily."""
    if e < 1:
        raise InvalidInputError("degree must be a positive integer")
    need = 2 * e + 1
    if s1.prec < need or s2.prec < need:
        raise InsufficientPrecisionError(
            f"series must be certified through q^{need} "
            f"(have {s1.prec} and {s2.prec})")
    head1, head2 = s1.truncate(need), s2.truncate(need)
    head_powers = _series_powers(head2, e)
    powers = None
    for r in range(1, e + 1):
        block = _build_system(head1, e, r, head_powers)[0]
        if linalg.inconsistent([(*row, b) for row, b in
                                zip(block.matrix, block.rhs)], e - r):
            continue
        if powers is None:
            powers = _series_powers(s2, e)
        try:
            rel = _try_r(s1, s2, e, r, powers)
        except UnderdeterminedSystemError:
            if not skip_underdetermined:
                raise
            continue
        if rel is not None:
            yield rel


def find_relation(s1: QSeries, s2: QSeries, e: int):
    """First (lowest-r) verified relation s1(q^r) = f(s2(q)), or None."""
    return next(_scan(s1, s2, e, False), None)


def find_all_relations(s1: QSeries, s2: QSeries, e: int,
                       skip_underdetermined: bool = False) -> list[Relation]:
    """Every r in 1..e admitting a verified relation (exhaustive mode).

    An underdetermined system at some r propagates as an error by default;
    with skip_underdetermined the scan records nothing for that r and
    keeps going, so that relations at other powers (the multi-relation
    case feeding modular polynomials) are still reported.
    """
    return list(_scan(s1, s2, e, skip_underdetermined))
