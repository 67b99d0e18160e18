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


def test_kronecker_substitution_matches_naive_on_both_sides_of_the_crossover(
        monkeypatch):
    """poly_mul against oracles.naive_mul below and above
    KRONECKER_PRODUCTS, with negative entries, runs of zeros, sparse
    operands, truncation and 5,000-bit entries; kronecker_mul is checked
    directly too, and the switch is taken exactly above the crossover."""
    taken = []
    kronecker = _kernels.kronecker_mul

    def counted(a, b, n):
        taken.append(n)
        return kronecker(a, b, n)

    monkeypatch.setattr(_kernels, "kronecker_mul", counted)
    rng = random.Random(2106)
    crossover = _kernels.KRONECKER_PRODUCTS
    sides = set()
    for case in range(80):
        bits = rng.choice([1, 8, 64, 300, 5000])
        top = 40 if bits == 5000 else 120
        na, nb = rng.randint(1, top), rng.randint(1, top)
        step = rng.choice([1, 1, 2, 5])  # s(q^r) is nonzero at every r-th

        def entry(i):
            if i % step or rng.random() < 0.15:
                return 0
            return rng.randint(-(1 << bits), 1 << bits)

        a = [entry(i) for i in range(na)]
        b = [rng.randint(-(1 << bits), 1 << bits) for _ in range(nb)]
        if rng.random() < 0.2:
            run = rng.randint(0, na)
            stop = min(na, run + rng.randint(1, 30))
            a[run:stop] = [0] * (stop - run)
        full = [int(c) for c in naive_mul(a, b)]
        full += [0] * (na + nb - 1 - len(full))
        trunc = rng.choice([0, 0, rng.randint(1, na + nb + 5)])
        n = min(trunc, na + nb - 1) if trunc else na + nb - 1
        taken.clear()
        assert _kernels.poly_mul(a, b, 0, trunc) == full[:n]
        sa, sb = a[:n], b[:n]
        work = min((len(x) - x.count(0)) * len(y) for x, y in
                   ((sa, sb), (sb, sa)))
        assert bool(taken) == (work > crossover), (work, taken)
        sides.add(bool(taken))
        assert kronecker(a, b, n) == full[:n]
        assert kronecker(b, a, n) == full[:n]
    assert sides == {False, True}
    # the loop runs over the sparser list, whichever argument it is
    sparse = [0] * 100
    sparse[::25] = [3, -1, 4, 1]
    dense = [rng.randint(1, 9) for _ in range(60)]
    want = [int(c) for c in naive_mul(sparse, dense)]
    want += [0] * (len(sparse) + len(dense) - 1 - len(want))
    for x, y in ((sparse, dense), (dense, sparse)):
        taken.clear()
        assert _kernels.poly_mul(x, y) == want
        assert taken == []
    assert kronecker([0, 0], [0, 5, 0], 4) == [0, 0, 0, 0]
    assert kronecker([-1], [-1], 1) == [1]


def test_pm_rem_is_the_remainder_of_pm_divrem():
    """pm_rem against pm_divrem's remainder on seeded inputs, including
    a = [] and deg a < deg b; the inputs are left as they were."""
    rng = random.Random(2702)
    for p in (3, 5, 32749):
        cases = [([], [1]), ([], [2, 0, 1]), ([1, 2], [0, 0, 1]),
                 ([1], [1]), ([0, 1], [1, 1])]
        for _ in range(200):
            b = [rng.randrange(p) for _ in range(rng.randint(0, 7))]
            b.append(rng.randrange(1, p))
            a = _kernels.pm_trim([rng.randrange(p)
                                  for _ in range(rng.randint(0, 14))])
            cases.append((a, b))
        shorter = 0
        for a, b in cases:
            a = [c % p for c in a]
            a_copy, b_copy = list(a), list(b)
            assert _kernels.pm_rem(a, b, p) == _kernels.pm_divrem(a, b, p)[1]
            assert (a, b) == (a_copy, b_copy)
            shorter += len(a) < len(b)
        assert shorter > 10
