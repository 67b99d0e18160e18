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
R_0 comes from cancelling the principal part of s1(q^r) with powers of
s2, one integer row subtraction per term, and R_j = s2*R_(j-1) - rho from
one product with s2 (see _build_system).

Most systems are inconsistent, and the scan rejects those on a leading
block before it builds them in full.  The block is the system's first
e + 2 rows, rows q^1..q^(e+2), each the full row times one positive
constant, built from the same series and table of s2's powers (the scan
requires q^(2e+1), so every system has that many).  A row subset of
[A | b] of rank (e - r) + 1 means rank [A | b] > rank A, so the full
system is inconsistent too and that r has no relation; the block's rank
is taken modulo a prime, a lower bound of its rank over Q, so that no
exact elimination is spent on it.  Every block is tested before any
exact solve, and every r it does not reject is solved exactly, so the
test changes no result: a consistent system has only consistent blocks.
A surviving block that holds every certified row (series certified just
through q^(2e+1)) is the full system and is solved as built.

``lowest_degree_relations`` scans one target at every degree up to a
bound, as modular polynomials need: it shares one table of the target's
powers across sources and degrees, and skips each power r past the degree
of its first relation, where the system is provably underdetermined.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, lcm

from moondec import linalg
from moondec.errors import (
    InsufficientPrecisionError,
    InvalidInputError,
    NonPositiveAreaError,
    UnderdeterminedSystemError,
)
from moondec.polynomials import (
    Poly,
    clear_denominators,
    combine,
    mul_fraction_seqs,
    poly_gcd,
)
from moondec.ratfun import RatFun
from moondec.series import (
    GeneralLaurent,
    QSeries,
    eval_ratfun_at_series,
    series_powers,
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


def _row_count(prec1: int, prec2: int, e: int, r: int) -> int:
    """Certified rows of r's system for s1 and s2 certified through q^prec1
    and q^prec2.  R_(e-r) is the least certified rest: s2^m is certified
    through prec2 - m + 1, so the product s1(q^r)*s2^(e-r) is certified
    through min(r*prec1 - (e - r), prec2 - e + 1), as s2^e is."""
    return min(r * prec1 - (e - r), prec2 - e + 1)


def _build_system(s1: QSeries, e: int, r: int,
                  powers: list[GeneralLaurent], cap: int | float = inf):
    """Equations for one r, and P_0..P_(e-r): each product s1(q^r)*s2^j is
    P_j(s2) + R_j with R_j = O(q).  Columns b_0..b_(e-r-1); row k is the
    coefficient of q^(k+1) in sum b_j R_j + R_(e-r) = 0, for the first
    ``cap`` of the certified rows.  ``powers`` is a table of s2's powers
    through s2^r at least.

    R_0 = s1(q^r) - P_0(s2) cancels the principal part of s1(q^r) with the
    powers s2^0..s2^r of the monic s2, one scaled integer row subtraction
    per term, on integer numerators over one common denominator.  Then
    s2*R_(j-1) = rho + O(q), rho its coefficient of q^1 in R_(j-1), since
    s2 = 1/q + O(1); so R_j = s2*R_(j-1) - rho and P_j = x*P_(j-1) + rho,
    one product with s2 per j.  Each product certifies one row less, so
    R_0 is taken through q^(rows + e - r), which s2^m for m <= r certifies
    because the row count is at most prec(s2^e) = prec(s2) - e + 1.  Every
    series is sliced to the coefficients its product reads, and bodies
    drop trailing zeros, so every row is padded to the coefficients it
    must hold.  The rows are read off the capped columns, so each is the
    full build's row times one positive constant, the same for every row
    (see ``linalg.integer_rows``); a cap at or above the row count gives
    the full build."""
    sub = substitute_power(s1, r)
    count = _row_count(s1.prec, powers[1].prec, e, r)
    if count < e - r + 1:
        raise InsufficientPrecisionError(
            f"only {count} certified equations for {e - r} unknowns at r={r}")
    rows = min(count, cap)
    length = rows + e - r  # of R_0, from q^1
    den = lcm(*(p.body.den for p in powers[:r + 1]))
    # table[m]: s2^m from q^-m through q^length, times den; it leads with den
    table = [[n * (den // p.body.den) for n in _padded(p.body.nums,
                                                        length + m + 1)]
             for m, p in enumerate(powers[:r + 1])]
    nums, pden = _padded(sub.body.nums, length + r + 1), sub.body.den
    coeffs = [0] * (r + 1)
    for m in range(r, -1, -1):
        c = nums[r - m]
        if not c:
            continue
        if den != 1:
            nums = [den * v for v in nums]
            coeffs = [den * v for v in coeffs]
            pden *= den
        coeffs[m] = nums[r - m]
        nums[r - m:] = [a - c * b for a, b in zip(nums[r - m:], table[m])]
    rest = nums[r + 1:]
    s2 = powers[1].body
    polys = [Poly.make(coeffs, pden)]
    cols = [Poly.make(rest[:rows], pden)]
    for _ in range(e - r):
        prod, pden = mul_fraction_seqs(
            (rest, pden), (s2.nums[:len(rest)], s2.den), len(rest))
        coeffs = [prod[0]] + [s2.den * c for c in coeffs]
        rest = prod[1:]
        polys.append(Poly.make(coeffs, pden))
        cols.append(Poly.make(rest[:rows], pden))
    cols[-1] = -cols[-1]
    matrix = linalg.integer_rows(cols, rows)
    return LinearSystem(tuple(row[:-1] for row in matrix),
                        tuple(row[-1] for row in matrix)), polys


def _padded(nums, length):
    """The first ``length`` entries of ``nums``, zero-padded to ``length``."""
    return list(nums[:length]) + [0] * (length - len(nums))


def _assemble(polys: list[Poly], sol: list[Fraction]):
    ints, mult = clear_denominators([*sol, 1])
    nums, common = combine((b, 0, p) for b, p in zip(ints, polys))
    num = Poly.make(nums, common * mult)
    den = Poly.make(ints, mult)
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
    without one, the scan makes its own.  Leading blocks and full systems
    are built from that one table."""
    if e < 1:
        raise InvalidInputError("degree must be a positive integer")
    need = 2 * e + 1
    if s1.prec < need or s2.prec < need:
        raise InsufficientPrecisionError(
            f"series must be certified through q^{need} "
            f"(have {s1.prec} and {s2.prec})")
    for r in range(1, e + 1):
        if r in done:
            continue
        powers = series_powers(s2.laurent, r, powers)
        block, polys = _build_system(s1, e, r, powers, e + 2)
        if linalg.proves_inconsistent(
                [(*row, b) for row, b in zip(block.matrix, block.rhs)], e - r):
            continue
        try:
            # the block's e + 2 rows are all the full system has when the
            # series are certified that far only: solve it as it stands
            if _row_count(s1.prec, s2.prec, e, r) == e + 2:
                rel = _solved(s1, s2, e, r, block, polys)
            else:
                rel = _try_r(s1, s2, e, r, powers)
        except UnderdeterminedSystemError:
            if not skip_underdetermined:
                raise
            continue
        if rel is not None:
            yield rel


def find_relation(s1: QSeries, s2: QSeries, e: int,
                  powers: list[GeneralLaurent] | None = None):
    """First (lowest-r) verified relation s1(q^r) = f(s2(q)), or None.
    ``powers``, a table of s2's powers from s2^0, is grown and shared, so
    that scans of one s2 at several degrees build each power once."""
    return next(_scan(s1, s2, e, False, powers), None)


def find_all_relations(s1: QSeries, s2: QSeries, e: int,
                       skip_underdetermined: bool = False,
                       powers: list[GeneralLaurent] | None = None
                       ) -> list[Relation]:
    """Every r in 1..e admitting a verified relation (exhaustive mode).

    An underdetermined system at some r propagates as an error by default;
    with skip_underdetermined the scan records nothing for that r and
    keeps going, so that relations at other powers (the multi-relation
    case feeding modular polynomials) are still reported.  ``powers`` is
    shared as in find_relation.
    """
    return list(_scan(s1, s2, e, skip_underdetermined, powers))


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
    _row_count >= e + 2 rows for its e - r unknowns, so _build_system's
    InsufficientPrecisionError cannot fire.  Skipping r changes no result.
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
