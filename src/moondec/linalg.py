"""Exact linear algebra over the rationals.

Rows of rational entries are scaled to integers (row scaling does not change
the solution set), eliminated fraction-free by the kernel, and only the
final back-substitution runs in ``Fraction`` arithmetic.
"""

from fractions import Fraction

from moondec import _kernels
from moondec.errors import UnderdeterminedSystemError
from moondec.polynomials import clear_denominators


def solve_unique(aug_rows, nvars):
    """Solve an augmented system ``[A | b]`` with ``nvars`` unknowns.

    Returns the unique solution as a list of Fractions, or None when the
    system is inconsistent.  A consistent system of rank < nvars raises
    UnderdeterminedSystemError: a solution that is not pinned down by the
    data must not be reported.
    """
    if nvars == 0:
        for row in aug_rows:
            if row[-1] != 0:
                return None
        return []
    int_rows = [clear_denominators(row)[0] for row in aug_rows]
    echelon, pivots = _kernels.row_echelon(int_rows)
    if nvars in pivots:  # pivot in the right-hand side column
        return None
    if len(pivots) < nvars:
        raise UnderdeterminedSystemError(
            f"system has rank {len(pivots)} < {nvars} unknowns")
    sol = [Fraction(0)] * nvars
    for k in reversed(range(len(pivots))):
        c = pivots[k]
        row = echelon[k]
        acc = Fraction(row[nvars])
        for j in range(c + 1, nvars):
            if row[j] and sol[j]:
                acc -= row[j] * sol[j]
        sol[c] = acc / row[c]
    return sol


def nullspace(rows, nvars):
    """Basis of the null space of a homogeneous system, as Fraction vectors.

    One basis vector per free column, each with a 1 in its free coordinate;
    deterministic order (free columns ascending).
    """
    int_rows = [clear_denominators(row)[0] for row in rows]
    echelon, pivots = _kernels.row_echelon(int_rows)
    pivot_set = set(pivots)
    basis = []
    for free_col in range(nvars):
        if free_col in pivot_set:
            continue
        vec = [Fraction(0)] * nvars
        vec[free_col] = Fraction(1)
        for k in reversed(range(len(pivots))):
            c = pivots[k]
            row = echelon[k]
            acc = Fraction(0)
            for j in range(c + 1, nvars):
                if row[j] and vec[j]:
                    acc += row[j] * vec[j]
            vec[c] = -acc / row[c]
        basis.append(vec)
    return basis
