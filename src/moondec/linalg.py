"""Exact linear algebra over the rationals.

Rows arrive as integers, read off ``Poly`` columns by ``integer_rows`` under
one common multiple of the column denominators (scaling every row by the
same positive number keeps the solution set); the kernel eliminates them
fraction-free, and only the final back-substitution runs in ``Fraction``.
An overdetermined system is solved on its leading rows, and the solution
they pin is checked on the others by integer substitution.
"""

from fractions import Fraction
from math import lcm

from moondec import _kernels
from moondec.errors import UnderdeterminedSystemError
from moondec.polynomials import clear_denominators


def integer_rows(columns, count):
    """Rows 0..count-1 of the matrix whose column j holds the coefficients
    of the ``Poly`` ``columns[j]``, times the lcm of their denominators."""
    mult = lcm(*(c.den for c in columns))
    cols = [[n * (mult // c.den) for n in c.nums[:count]]
            + [0] * (count - len(c.nums)) for c in columns]
    return list(zip(*cols))


def _null_vector(echelon, pivots, free_col, ncols):
    """The null vector with 1 at ``free_col`` and 0 at the other free
    columns, by back-substitution through the pivot rows."""
    vec = [Fraction(0)] * ncols
    vec[free_col] = Fraction(1)
    for k in reversed(range(len(pivots))):
        c = pivots[k]
        row = echelon[k]
        acc = Fraction(0)
        for j in range(c + 1, ncols):
            if row[j] and vec[j]:
                acc += row[j] * vec[j]
        vec[c] = -acc / row[c]
    return vec


def inconsistent(aug_rows, nvars):
    """True when the augmented integer system ``[A | b]`` with ``nvars``
    unknowns has no solution: its right-hand-side column is a pivot of the
    echelon form, so rank [A | b] > rank A."""
    return nvars in _kernels.row_echelon(aug_rows)[1]


def solve_unique(aug_rows, nvars):
    """Solve an augmented integer system ``[A | b]`` with ``nvars`` unknowns.

    Returns the unique solution as a list of Fractions, or None when the
    system is inconsistent.  A consistent system of rank < nvars raises
    UnderdeterminedSystemError: a solution that is not pinned down by the
    data must not be reported.  A x = b iff [A | b] (-x, 1) = 0, so the
    system is consistent iff the right-hand side column is free, and x is
    read off its null vector, the last one (a pivot in that column leaves
    0 there in every null vector).

    The leading nvars + 1 rows are eliminated first.  A pivot in their
    right-hand side column already makes the system inconsistent; when
    they pin a unique x, every solution of the system is x, so it is
    checked on the other rows by one integer dot product each.  Only a
    rank-deficient leading block eliminates the whole system.
    """
    basis = nullspace(aug_rows[:nvars + 1], nvars + 1)
    if not basis or basis[-1][nvars] != 1:
        return None
    if len(basis) == 1:
        x = [-v for v in basis[0][:nvars]]
        ints, mult = clear_denominators(x)
        for row in aug_rows[nvars + 1:]:
            if sum(a * v for a, v in zip(row, ints)) != row[nvars] * mult:
                return None
        return x
    basis = nullspace(aug_rows, nvars + 1)
    if not basis or basis[-1][nvars] != 1:
        return None
    if len(basis) > 1:
        raise UnderdeterminedSystemError(
            f"system has rank {nvars + 1 - len(basis)} < {nvars} unknowns")
    return [-v for v in basis[0][:nvars]]


def nullspace(rows, nvars):
    """Null space basis of a homogeneous integer system, as Fraction vectors.

    One basis vector per free column, each with a 1 in its free coordinate;
    deterministic order (free columns ascending).
    """
    echelon, pivots = _kernels.row_echelon(rows)
    pivot_set = set(pivots)
    return [_null_vector(echelon, pivots, free_col, nvars)
            for free_col in range(nvars) if free_col not in pivot_set]
