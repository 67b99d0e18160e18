"""Exact linear algebra over the rationals.

Rows arrive as integers, read off ``Poly`` columns by ``integer_rows`` under
one common multiple of the column denominators (scaling every row by the
same positive number keeps the solution set); the kernel eliminates them
fraction-free, and back-substitution stays on the integers, so null vectors
are integer vectors.  An overdetermined system is solved on its leading
rows, and the solution they pin is checked on the others by integer
substitution; only that solution is built in ``Fraction``.
"""

from fractions import Fraction
from math import lcm

from moondec import _kernels
from moondec.errors import UnderdeterminedSystemError


def integer_rows(columns, count):
    """Rows 0..count-1 of the matrix whose column j holds the coefficients
    of the ``Poly`` ``columns[j]``, times the lcm of their denominators."""
    mult = lcm(*(c.den for c in columns))
    cols = [[n * (mult // c.den) for n in c.nums[:count]]
            + [0] * (count - len(c.nums)) for c in columns]
    return list(zip(*cols))


def _null_vector(echelon, pivots, free_col, ncols):
    """The integer null vector with the minor D of the pivot columns at
    ``free_col`` and 0 at the other free columns, by back-substitution
    through the pivot rows.  D is the last Bareiss pivot, so by Cramer's
    rule the pivot coordinates are integers and every division is exact."""
    vec = [0] * ncols
    vec[free_col] = echelon[len(pivots) - 1][pivots[-1]] if pivots else 1
    for k in reversed(range(len(pivots))):
        c = pivots[k]
        row = echelon[k]
        acc = 0
        for j in range(c + 1, ncols):
            if row[j] and vec[j]:
                acc += row[j] * vec[j]
        vec[c] = -acc // row[c]
    return vec


# A rank modulo a prime bounds the rank over Q from below.  The largest
# prime below 2^15 keeps residues and their products below 2^30, so the
# elimination runs on CPython's one-digit integers; a rank that drops
# modulo it only costs an exact solve (see proves_inconsistent).
RANK_PRIME = 32749


def proves_inconsistent(aug_rows, nvars):
    """True when the augmented integer system ``[A | b]`` with ``nvars``
    unknowns has rank nvars + 1 modulo RANK_PRIME, which proves it has no
    solution: a minor that is nonzero modulo the prime is a nonzero
    integer, so [A | b] has full column rank over Q too, while rank A <=
    nvars.  False proves nothing: the rank may drop modulo the prime."""
    return _kernels.pm_rank(aug_rows, RANK_PRIME) == nvars + 1


def solve_unique(aug_rows, nvars):
    """Solve an augmented integer system ``[A | b]`` with ``nvars`` unknowns.

    Returns the unique solution as a list of Fractions, or None when the
    system is inconsistent.  A consistent system of rank < nvars raises
    UnderdeterminedSystemError: a solution that is not pinned down by the
    data must not be reported.  A x = b iff [A | b] (-x, 1) = 0, so the
    system is consistent iff the right-hand side column is free, and x is
    read off its null vector v = D (-x, 1), the last one (a pivot in that
    column leaves 0 there in every null vector).

    The leading nvars + 1 rows are eliminated first.  A pivot in their
    right-hand side column already makes the system inconsistent; when
    they pin a unique x, every solution of the system is x, so it is
    checked on the other rows by one integer dot product row . v == 0
    each.  Only a rank-deficient leading block eliminates the whole system.
    """
    basis = nullspace(aug_rows[:nvars + 1], nvars + 1)
    if not basis or basis[-1][nvars] == 0:
        return None
    if len(basis) == 1:
        for row in aug_rows[nvars + 1:]:
            if sum(a * v for a, v in zip(row, basis[0])):
                return None
    else:
        basis = nullspace(aug_rows, nvars + 1)
        if not basis or basis[-1][nvars] == 0:
            return None
        if len(basis) > 1:
            raise UnderdeterminedSystemError(
                f"system has rank {nvars + 1 - len(basis)} < {nvars} unknowns")
    v = basis[0]
    return [Fraction(-c, v[nvars]) for c in v[:nvars]]


def nullspace(rows, nvars):
    """Null space basis of a homogeneous integer system, as integer vectors.

    One basis vector per free column, each nonzero in its free coordinate
    only among the free columns; deterministic order (free columns
    ascending).
    """
    echelon, pivots = _kernels.row_echelon(rows)
    pivot_set = set(pivots)
    return [_null_vector(echelon, pivots, free_col, nvars)
            for free_col in range(nvars) if free_col not in pivot_set]
