"""The integer kernels and the exact solver against naive oracles."""

import random
from fractions import Fraction

import pytest

from moondec import _kernels, linalg
from moondec.polynomials import clear_denominators
from oracles import naive_mul


def test_poly_mul_against_naive():
    rng = random.Random(7)
    for _ in range(200):
        a = [rng.randint(-99, 99) for _ in range(rng.randint(0, 12))]
        b = [rng.randint(-99, 99) for _ in range(rng.randint(0, 12))]
        expect = [int(c) for c in naive_mul(a, b)]
        # naive_mul trims trailing zeros; pad back for comparison
        full = _kernels.poly_mul(a, b)
        while full and full[-1] == 0:
            full.pop()
        assert full == expect


def test_poly_mul_mod_and_trunc():
    rng = random.Random(8)
    for _ in range(100):
        a = [rng.randint(0, 50) for _ in range(rng.randint(1, 10))]
        b = [rng.randint(0, 50) for _ in range(rng.randint(1, 10))]
        m = rng.choice([2, 3, 5, 7, 97])
        t = rng.randint(1, 8)
        full = _kernels.poly_mul(a, b)
        assert _kernels.poly_mul(a, b, m) == [c % m for c in full]
        assert _kernels.poly_mul(a, b, 0, t) == full[:t]


def _fraction_gauss_solve(rows, rhs):
    """Reference: plain Fraction Gaussian elimination, fully independent."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[Fraction(v) for v in row] + [Fraction(r)]
         for row, r in zip(rows, rhs)]
    rank = 0
    pivots = []
    for c in range(n):
        piv = next((i for i in range(rank, m) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        a[rank] = [v / a[rank][c] for v in a[rank]]
        for i in range(m):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[rank])]
        pivots.append(c)
        rank += 1
    for i in range(rank, m):
        if a[i][n]:
            return "inconsistent"
    if rank < n:
        return "underdetermined"
    sol = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        sol[c] = a[r][n]
    return sol


def test_solver_matches_reference_on_random_systems():
    rng = random.Random(10)
    from moondec.errors import UnderdeterminedSystemError
    for trial in range(200):
        m = rng.randint(1, 7)
        n = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(n)] for _ in range(m)]
        rhs = [Fraction(rng.randint(-6, 6)) for _ in range(m)]
        expect = _fraction_gauss_solve(rows, rhs)
        # the solver takes integer rows; scaling a row keeps its solutions
        aug = [clear_denominators(list(r) + [v])[0]
               for r, v in zip(rows, rhs)]
        if expect == "inconsistent":
            assert linalg.solve_unique(aug, n) is None
        elif expect == "underdetermined":
            with pytest.raises(UnderdeterminedSystemError):
                linalg.solve_unique(aug, n)
        else:
            assert linalg.solve_unique(aug, n) == expect


def test_solve_unique_on_rank_deficient_systems():
    """Inconsistency wins over rank deficiency, and the rank in the error
    message is the rank of the consistent system."""
    from moondec.errors import UnderdeterminedSystemError
    one, two = Fraction(1), Fraction(2)
    assert linalg.solve_unique([[one, one, one], [two, two, Fraction(3)]],
                               2) is None
    with pytest.raises(UnderdeterminedSystemError, match="rank 1 < 3"):
        linalg.solve_unique([[one, two, one, one], [two, 4 * one, two, two]],
                            3)
    assert linalg.solve_unique([], 0) == []


def test_nullspace_vectors_annihilate():
    rng = random.Random(11)
    for _ in range(100):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(n)]
                for _ in range(m)]
        basis = linalg.nullspace(rows, n)
        for vec in basis:
            for row in rows:
                assert sum(r * v for r, v in zip(row, vec)) == 0
        # rank-nullity: dim(null) = n - rank
        echelon, pivots = _kernels.row_echelon(
            [clear_denominators(r)[0] for r in rows])
        assert len(basis) == n - len(pivots)
