"""``linalg.solve_unique`` against sympy's rank and ``linsolve``.

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
from moondec.linalg import solve_unique


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
