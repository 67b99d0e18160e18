"""``linalg.solve_unique`` against sympy's rank and ``linsolve``, and
``linalg.nullspace`` against sympy's ``nullspace``.

The solver eliminates the leading nvars + 1 rows first and checks the
other rows by substitution, so the seeded systems cover each way the
leading block can relate to the whole: it pins the unique solution, it
pins a solution that a later row contradicts, it is inconsistent itself,
it is rank-deficient while the whole system has full rank, and the whole
system is underdetermined.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
import sympy as sp

from moondec.errors import UnderdeterminedSystemError
from moondec.linalg import nullspace, solve_unique


def _combination_rows(rng, count, nvars, rank):
    """``count`` integer rows spanning a space of dimension <= rank."""
    basis = [[rng.randint(-4, 4) for _ in range(nvars)] for _ in range(rank)]
    rows = []
    for _ in range(count):
        weights = [rng.randint(-3, 3) for _ in basis]
        rows.append([sum(w * v[k] for w, v in zip(weights, basis))
                     for k in range(nvars)])
    return rows


def _system(rng, kind):
    """A seeded augmented integer system ``[A | b]`` of the given kind."""
    nvars = rng.randint(1, 6)
    lead, late = nvars + 1, rng.randint(1, 8)
    if kind == "underdetermined":
        a = _combination_rows(rng, lead + late, nvars, nvars - 1)
    elif kind == "rank-deficient lead":
        a = (_combination_rows(rng, lead, nvars, nvars - 1)
             + [[rng.randint(-5, 5) for _ in range(nvars)]
                for _ in range(late)])
    else:
        a = [[rng.randint(-5, 5) for _ in range(nvars)]
             for _ in range(lead + late)]
    x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(nvars)]
    mult = lcm(*(v.denominator for v in x))
    a = [[mult * v for v in row] for row in a]
    b = [int(sum(c * v for c, v in zip(row, x))) for row in a]
    if kind == "late inconsistent":
        b[rng.randrange(lead, lead + late)] += rng.choice([-1, 1])
    elif kind == "leading inconsistent":
        b[rng.randrange(lead)] += rng.choice([-1, 1])
    return [row + [v] for row, v in zip(a, b)], nvars


def _oracle(rows, nvars):
    """(class, expected) from sympy: expected is the solution as
    Fractions, None when inconsistent, or the rank message."""
    aug = sp.Matrix(rows)
    a = aug[:, :nvars]
    rank_a, rank_aug = a.rank(), aug.rank()
    lead = aug[:nvars + 1, :]
    lead_a, lead_aug = lead[:, :nvars].rank(), lead.rank()
    if rank_aug > rank_a:
        kind = ("leading inconsistent" if lead_aug > lead_a
                else "late inconsistent")
        return kind, None
    if rank_a < nvars:
        return "underdetermined", \
            f"system has rank {rank_aug} < {nvars} unknowns"
    (solution,) = sp.linsolve((a, aug[:, nvars]))
    kind = "rank-deficient lead" if lead_a < nvars else "unique"
    return kind, [Fraction(int(v.p), int(v.q)) for v in solution]


def test_solve_unique_matches_sympy():
    kinds = ["unique", "late inconsistent", "leading inconsistent",
             "rank-deficient lead", "underdetermined"]
    seen = dict.fromkeys(kinds, 0)
    rng = random.Random(72)
    for i in range(300):
        rows, nvars = _system(rng, kinds[i % len(kinds)])
        kind, expected = _oracle(rows, nvars)
        seen[kind] += 1
        if isinstance(expected, str):
            with pytest.raises(UnderdeterminedSystemError) as info:
                solve_unique(rows, nvars)
            assert str(info.value) == expected, rows
        else:
            assert solve_unique(rows, nvars) == expected, rows
    assert min(seen.values()) >= 20, seen


def test_nullspace_gives_integer_vectors_proportional_to_sympys():
    """Back-substitution stays on the integers: each basis vector is an
    integer multiple of sympy's, free column for free column, also when a
    free column lies between two pivots."""
    rng = random.Random(73)
    free_between_pivots = 0
    for _ in range(150):
        nrows, ncols = rng.randint(1, 6), rng.randint(2, 7)
        cols = []
        for _ in range(ncols):
            if cols and rng.random() < 0.4:  # a combination of earlier ones
                weights = [rng.randint(-3, 3) for _ in cols]
                cols.append([sum(w * c[i] for w, c in zip(weights, cols))
                             for i in range(nrows)])
            else:
                cols.append([rng.randint(-6, 6) for _ in range(nrows)])
        rows = [list(row) for row in zip(*cols)]
        matrix = sp.Matrix(rows)
        pivots = matrix.rref()[1]
        if any(j < max(pivots, default=-1) and j not in pivots
               for j in range(ncols)):
            free_between_pivots += 1
        basis = nullspace(rows, ncols)
        expected = matrix.nullspace()
        assert len(basis) == len(expected), rows
        for vec, ref in zip(basis, expected):
            assert all(type(v) is int for v in vec), vec
            assert sp.Matrix.hstack(sp.Matrix(vec), ref).rank() == 1, rows
    assert free_between_pivots >= 20, free_between_pivots


def test_rank_modulo_a_prime_matches_sympy_and_proves_only_inconsistency():
    """_kernels.pm_rank equals sympy's rank over GF(p), for a small prime
    that drops ranks often and for RANK_PRIME; proves_inconsistent holds
    only for systems sympy finds inconsistent, and for every seeded one
    whose rank survives the prime."""
    from sympy import GF, ZZ
    from sympy.polys.matrices import DomainMatrix

    from moondec import _kernels
    from moondec.linalg import RANK_PRIME, proves_inconsistent

    def sympy_rank(rows, p):
        ncols = len(rows[0])
        return DomainMatrix([[ZZ(v) for v in row] for row in rows],
                            (len(rows), ncols), ZZ).convert_to(GF(p)).rank()

    kinds = ["unique", "late inconsistent", "leading inconsistent",
             "rank-deficient lead", "underdetermined"]
    rng = random.Random(2107)
    dropped = proved = 0
    for i in range(120):
        rows, nvars = _system(rng, kinds[i % len(kinds)])
        if rng.random() < 0.3:  # a column that vanishes modulo the prime
            col = rng.randrange(nvars + 1)
            rows = [row[:col] + [RANK_PRIME * rng.randint(-2, 2)]
                    + row[col + 1:] for row in rows]
        for p in (7, RANK_PRIME):
            assert _kernels.pm_rank(rows, p) == sympy_rank(rows, p), rows
        kind, _ = _oracle(rows, nvars)
        inconsistent = kind.endswith("inconsistent")
        full = sympy_rank(rows, RANK_PRIME) == nvars + 1
        assert proves_inconsistent(rows, nvars) == full
        if full:
            assert inconsistent, rows
            proved += 1
        elif inconsistent:
            dropped += 1
    assert proved >= 25 and dropped >= 5, (proved, dropped)
