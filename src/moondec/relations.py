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
(see _try_r).  The r-loop returns the first success (lowest r).  P_j and
R_j come from cancelling the principal part of the product with powers of
s2, one integer row subtraction per term, on the product's numerators.

Most systems are inconsistent, and the scan rejects those on a leading
block before it builds them in full.  The block is the same system built
from both series truncated to q^(2e+1), the precision the scan requires:
its e + 2 rows are rows q^1..q^(e+2) of the full system, each scaled by
one positive constant.  A row subset of [A | b] of rank (e - r) + 1 means
rank [A | b] > rank A, so the full system is inconsistent too and that r
has no relation.  Every other r is solved on the full series, so the
block changes no result: a consistent system has only consistent blocks.
When the full system has no rows beyond the block (series certified just
through q^(2e+1)), the block is solved as the full system instead.

``lowest_degree_relations`` scans one target at every degree up to a
bound, as modular polynomials need: it shares one table of the target's
powers across sources and degrees, and skips each power r past the degree
of its first relation, where the system is provably underdetermined.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from moondec import linalg
from moondec.errors import (
    InsufficientPrecisionError,
    InvalidInputError,
    NonPositiveAreaError,
    UnderdeterminedSystemError,
)
from moondec.polynomials import Poly, mul_fraction_seqs, poly_gcd
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


def _series_powers(s: QSeries, top: int,
                   powers: list[GeneralLaurent] | None = None
                   ) -> list[GeneralLaurent]:
    """s^0..s^top: ``powers``, a table of s's powers from s^0, grown in
    place when it is given, else a new table.  A longer table serves too:
    the relation builders index it, and s^j does not depend on top."""
    if powers is None:
        powers = [GeneralLaurent.exact_scalar(1)]
    t = s.to_laurent()
    while len(powers) <= top:
        powers.append(powers[-1] * t)
    return powers


def _build_system(s1: QSeries, e: int, r: int,
                  powers: list[GeneralLaurent]):
    """Equations for one r, and P_0..P_(e-r): each product s1(q^r)*s2^j is
    P_j(s2) + R_j with R_j = O(q), its terms at or below q^0 cancelled by
    the powers s2^0..s2^e of the monic s2.  Columns b_0..b_(e-r-1); row k is
    the coefficient of q^(k+1) in sum b_j R_j + R_(e-r) = 0.

    The cancellation runs on integer numerators over one common
    denominator: the product's, times that of s2^0..s2^e at each step, so
    each step is one scaled integer row subtraction.  Bodies drop trailing
    zeros, so every row is padded to the coefficients it must hold."""
    sub = substitute_power(s1, r)
    # R_(e-r) is the least certified rest: the product s1(q^r)*s2^(e-r) is
    # certified through the first two terms, and it is reduced with s2^e,
    # the least certified power (powers of s2 lose precision as they grow)
    bound = min(sub.prec - (e - r), powers[e - r].prec - r, powers[e].prec)
    if bound < e - r + 1:
        raise InsufficientPrecisionError(
            f"only {bound} certified equations for {e - r} unknowns at r={r}")
    den = lcm(*(p.body.den for p in powers[:e + 1]))
    # table[m]: s2^m from q^-m through q^bound, times den; it leads with den
    table = [_padded([n * (den // p.body.den) for n in p.body.nums],
                     bound + m + 1) for m, p in enumerate(powers[:e + 1])]
    polys, cols = [], []
    for j in range(e - r + 1):
        top = r + j  # s1(q^r)*s2^j leads with 1 at q^-top
        nums, pden = mul_fraction_seqs(
            (sub.body.nums, sub.body.den),
            (powers[j].body.nums, powers[j].body.den), bound + top + 1)
        nums = _padded(nums, bound + top + 1)
        coeffs = [0] * (top + 1)
        for m in range(top, -1, -1):
            c = nums[top - m]
            if not c:
                continue
            if den != 1:
                nums = [den * v for v in nums]
                coeffs = [den * v for v in coeffs]
                pden *= den
            coeffs[m] = nums[top - m]
            nums[top - m:] = [a - c * b
                              for a, b in zip(nums[top - m:], table[m])]
        polys.append(Poly.make(coeffs, pden))
        cols.append(Poly.make(nums[top + 1:], pden))
    cols[-1] = -cols[-1]
    rows = linalg.integer_rows(cols, bound)
    return LinearSystem(tuple(row[:-1] for row in rows),
                        tuple(row[-1] for row in rows)), polys


def _padded(nums, length):
    """The first ``length`` entries of ``nums``, zero-padded to ``length``."""
    return list(nums[:length]) + [0] * (length - len(nums))


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
    return _solved(s1, s2, e, r, *_build_system(s1, e, r, powers))


def _solved(s1, s2, e, r, system, polys):
    """The relation that r's solved system gives (see _try_r), or None."""
    sol = solve_linear(system)
    if sol is None:
        return None
    f = _assemble(polys, sol)
    if f is None:
        return None
    return Relation(r, f, e, min(r * s1.prec, s2.prec - r + 1))


def _scan(s1: QSeries, s2: QSeries, e: int, skip_underdetermined: bool,
          powers: list[GeneralLaurent] | None = None, done=()):
    """Verified relations for r = 1..e outside ``done``, lowest r first,
    found lazily.  ``powers`` is a table of s2's powers to grow and share;
    without one, the scan makes its own once a block passes."""
    if e < 1:
        raise InvalidInputError("degree must be a positive integer")
    need = 2 * e + 1
    if s1.prec < need or s2.prec < need:
        raise InsufficientPrecisionError(
            f"series must be certified through q^{need} "
            f"(have {s1.prec} and {s2.prec})")
    head1, head2 = s1.truncate(need), s2.truncate(need)
    head_powers = _series_powers(head2, e)
    for r in range(1, e + 1):
        if r in done:
            continue
        block, polys = _build_system(head1, e, r, head_powers)
        try:
            # the block's e + 2 rows are all the full system has when the
            # series are certified that far only: solve it as it stands
            if min(r * s1.prec - (e - r), s2.prec - e + 1) == e + 2:
                rel = _solved(s1, s2, e, r, block, polys)
            elif linalg.inconsistent([(*row, b) for row, b in
                                      zip(block.matrix, block.rhs)], e - r):
                continue
            else:
                powers = _series_powers(s2, e, powers)
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


def lowest_degree_relations(sources, s2: QSeries, emax: int):
    """For each series s1 of ``sources`` in turn, {r: the relation
    s1(q^r) = f(s2(q)) of least degree e}, over e = 1..emax until the
    series are not certified through q^(2e+1); underdetermined systems
    record nothing.  One table of s2's powers serves every source and
    degree, and lives as long as the generator.

    A power r that has a relation at degree e0 is not scanned at e > e0.
    Its system there always ends in UnderdeterminedSystemError, which
    this scan discards: with den0(s2)*s1(q^r) - num0(s2) vanishing through
    q^bound0, den = den0*g solves it for every monic g of degree e - e0,
    since g(s2) leads with q^(e0-e) and bound0 = bound + e - e0 (the bound
    formula of _try_r shifts by the degree).  So every certified row of
    the degree-e system vanishes, on a family of solutions that no leading
    block rejects.  Nor can skipping r skip an error: _scan's own check of
    q^(2e+1) is independent of r, and past it every system has
    min(r*prec(s1) - (e - r), prec(s2) - e + 1) >= e + 2 rows for its
    e - r unknowns, so _build_system's InsufficientPrecisionError cannot
    fire.  Skipping r changes no result.
    """
    powers = [GeneralLaurent.exact_scalar(1)]
    for s1 in sources:
        found: dict[int, Relation] = {}
        for e in range(1, emax + 1):
            try:
                rels = list(_scan(s1, s2, e, True, powers, found))
            except InsufficientPrecisionError:
                break
            found.update((rel.r, rel) for rel in rels)
        yield found
