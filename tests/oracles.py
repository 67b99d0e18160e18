"""Independent oracles for expected test values.

Everything here deliberately avoids the library's own code paths: naive
coefficient arithmetic, brute-force coefficient searches, and the
Eisenstein/eta construction of the classical j expansion.  Frozen expected values in the tests were computed with these.
"""

from fractions import Fraction
from itertools import product


# -- naive dense polynomial arithmetic (coefficient lists, ascending) --------

def naive_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    while out and out[-1] == 0:
        out.pop()
    return out


def naive_pow(a, n):
    out = [Fraction(1)]
    for _ in range(n):
        out = naive_mul(out, a)
    return out


def naive_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += Fraction(x)
    for i, x in enumerate(b):
        out[i] += Fraction(x)
    while out and out[-1] == 0:
        out.pop()
    return out


def naive_eval(a, point):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * point + Fraction(c)
    return acc


def naive_divrem(a, b):
    """(q, r) with a = q*b + r and len(r) < len(b), by schoolbook long
    division one Fraction at a time; b must have a nonzero last entry."""
    rem = [Fraction(c) for c in a]
    quot = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    for i in range(len(rem) - len(b), -1, -1):
        q = rem[i + len(b) - 1] / Fraction(b[-1])
        quot[i] = q
        for j, c in enumerate(b):
            rem[i + j] -= q * Fraction(c)
    rem = rem[:len(b) - 1]
    while quot and quot[-1] == 0:
        quot.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


# expanded numerator and denominator of the flagship function,
# x^3 (x+6)^3 (x^2-6x+36)^3  and  (x-3)^3 (x^2+3x+9)^3
FLAGSHIP_NUM = naive_mul(
    naive_mul(naive_pow([0, 1], 3), naive_pow([6, 1], 3)),
    naive_pow([36, -6, 1], 3))
FLAGSHIP_DEN = naive_mul(naive_pow([-3, 1], 3), naive_pow([9, 3, 1], 3))


# -- series division and the inner-series solve, one coefficient at a time ---

def naive_series_div(a, b, length):
    """The first ``length`` coefficients of the power series a/b, b[0] != 0,
    by the quadratic recurrence q_i = (a_i - sum_(j>=1) b_j q_(i-j)) / b_0.
    Entries past the end of a or b count as 0."""
    quot = []
    for i in range(length):
        acc = Fraction(a[i]) if i < len(a) else Fraction(0)
        for j in range(1, min(i, len(b) - 1) + 1):
            acc -= quot[i - j] * b[j]
        quot.append(acc / b[0])
    return quot


def _scaled_eval(p, series, n):
    """q^deg(p) * p(series/q) through q^(n-1), series a power series:
    the sum of p_i * q^(deg p - i) * series^i."""
    deg = len(p) - 1
    out = [Fraction(0)] * n
    power = [Fraction(1)]
    for i, c in enumerate(p):
        for k, v in enumerate(power[: max(n - (deg - i), 0)]):
            out[deg - i + k] += Fraction(c) * v
        power = naive_mul(power, series)[:n]
    return out


def naive_inner_solve(num, den, lead, target):
    """c_0..c_kmax of the s = 1/q + sum c_k q^k with num(s)/den(s) = T.

    num, den: ascending coefficient lists with d = deg num - deg den >= 1;
    target: the coefficients of T from q^lead through its certified
    q^prec, so kmax = prec + d - 1.  One coefficient per step: with s known
    through q^(k-1), f(s) first differs from T at q^(k-d+1), by
    d*lc(num)/lc(den) times c_k.  Raises ValueError with the error
    category when the leading term of T rules out every solution.
    """
    d = len(num) - len(den)
    lc = Fraction(num[-1]) / Fraction(den[-1])
    if lead != -d:
        raise ValueError("leading-mismatch")
    if target[0] != lc:
        raise ValueError("no-rational-solution")
    known = []
    for k in range(len(target) - 1):
        series = [Fraction(1)] + known + [Fraction(0)]  # q*s through q^(k+1)
        value = naive_series_div(_scaled_eval(num, series, k + 2),
                                 _scaled_eval(den, series, k + 2), k + 2)
        known.append((Fraction(target[k + 1]) - value[k + 1]) / (d * lc))
    return known


# -- relation search by the full ansatz, solved by Gauss-Jordan -------------

def gauss_jordan(rows, nvars):
    """Solve augmented rows [A | b] of Fractions with ``nvars`` unknowns.

    Returns the unique solution, None when the system is inconsistent, or
    the string "underdetermined" when it is consistent of rank < nvars.
    """
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(nvars + 1):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        if col == nvars:
            return None  # a row 0 = b with b != 0
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = [v / rows[rank][col] for v in rows[rank]]
        rows[rank] = top
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                m = row[col]
                rows[i] = [v - m * t if t else v for v, t in zip(row, top)]
        rank += 1
    if rank < nvars:
        return "underdetermined"
    return [rows[i][nvars] for i in range(nvars)]


def naive_gcd_degree(a, b):
    """Degree of gcd(a, b) for ascending Fraction lists, by Euclid."""
    a, b = naive_add(a, []), naive_add(b, [])
    while b:
        a, b = b, naive_divrem(a, b)[1]
    return len(a) - 1


def full_ansatz_relation(sub, powers, e, r):
    """The monic f = num/den, deg num = e, deg den = e - r, with
    sub * den(s2) = num(s2), from the full system in all 2e - r unknowns.

    sub is s1(q^r) and powers are s2^0..s2^e (library series, read entry
    by entry through ``coeff``).  Unknowns a_0..a_(e-1) of num, then
    b_0..b_(e-r-1) of den; one equation per coefficient from q^-e through
    the last one every series involved certifies.  Returns (num, den) as
    ascending Fraction lists, None when the system is inconsistent or its
    solution reducible, or "underdetermined".
    """
    prods = [sub * powers[j] for j in range(e - r + 1)]
    bound = min([p.prec for p in powers[1:]] + [p.prec for p in prods])
    rows = [[powers[i].coeff(k) for i in range(e)]
            + [-prods[j].coeff(k) for j in range(e - r)]
            + [prods[e - r].coeff(k) - powers[e].coeff(k)]
            for k in range(-e, bound + 1)]
    sol = gauss_jordan(rows, 2 * e - r)
    if sol is None or sol == "underdetermined":
        return sol
    num, den = sol[:e] + [Fraction(1)], sol[e:] + [Fraction(1)]
    return None if naive_gcd_degree(num, den) > 0 else (num, den)


# -- composition by homogenized sums ------------------------------------------

def homogenized_composition(g_num, g_den, h_num, h_den):
    """num and den of g o h before any reduction, as ascending lists.

    Each is sum c_i * h_N^i * h_D^(m-i) over the coefficients c_i of num(g)
    or den(g), with m = deg g; the zero function has m = 0.
    """
    m = max(len(g_num), len(g_den), 1) - 1

    def combine(coeffs):
        out = []
        for i, c in enumerate(coeffs):
            term = naive_mul(naive_pow(h_num, i), naive_pow(h_den, m - i))
            out = naive_add(out, [Fraction(c) * t for t in term])
        return out

    return combine(g_num), combine(g_den)


# -- outer component by an exact homogeneous linear system (sympy) ------------

def outer_by_nullspace(f_num, f_den, h_num, h_den):
    """The g with f = g o h, from the null space of f_N*G_D - f_D*G_N = 0.

    Coefficient lists are ascending.  G_N and G_D are unknown combinations
    of h_N^i * h_D^(m-i), m = deg f / deg h, solved by sympy's
    ``Matrix.nullspace``.  Dividing the system by h_D^m gives
    f_N * G_D(h) = f_D * G_N(h), so every nonzero null vector is an outer
    component, and G_D = 0 would force G_N = 0.  Returns g reduced by
    ``sympy.cancel``, as (num, den) coefficient lists with a monic den, or
    None; raises ValueError when deg h does not divide deg f.
    """
    import sympy as sp
    y = sp.Symbol("y")
    deg_f = max(len(f_num), len(f_den)) - 1
    deg_h = max(len(h_num), len(h_den)) - 1
    if deg_f % deg_h:
        raise ValueError(f"degree {deg_h} does not divide degree {deg_f}")
    m = deg_f // deg_h
    basis = [naive_mul(naive_pow(h_num, i), naive_pow(h_den, m - i))
             for i in range(m + 1)]
    cols = ([naive_mul([-c for c in f_den], b) for b in basis]
            + [naive_mul(f_num, b) for b in basis])
    nrows = max(len(c) for c in cols)
    matrix = sp.Matrix(nrows, len(cols), lambda k, j: sp.Rational(
        *(cols[j][k].as_integer_ratio() if k < len(cols[j]) else (0, 1))))
    null = matrix.nullspace()
    if not null:
        return None
    g_num = sum(null[0][i] * y ** i for i in range(m + 1))
    g_den = sum(null[0][m + 1 + i] * y ** i for i in range(m + 1))
    g = sp.cancel(g_num / g_den)
    if not g.has(y):
        return None
    num, den = (sp.Poly(part, y).all_coeffs() for part in sp.fraction(g))
    lc = den[0]
    return tuple([Fraction(int(c.p), int(c.q)) for c in reversed(part)]
                 for part in ([c / lc for c in num], [c / lc for c in den]))


# -- brute-force irreducibility of integer polynomials ------------------------

def divisor_candidates(n):
    n = abs(n)
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out + [-d for d in out]


def has_integer_factor_pair(coeffs, deg_low):
    """Search monic-ish integer factorizations of a degree-4 polynomial into
    degree deg_low * (4 - deg_low) parts; returns True if any exists.

    Only valid for monic input with nonzero constant term (x^4 + 1 here).
    """
    assert len(coeffs) == 5 and coeffs[-1] == 1 and coeffs[0] != 0
    c0 = coeffs[0]
    if deg_low == 1:
        # rational root theorem: integer roots divide the constant term
        return any(naive_eval(coeffs, r) == 0 for r in divisor_candidates(c0))
    assert deg_low == 2
    for b, d in product(divisor_candidates(c0), repeat=2):
        if b * d != c0:
            continue
        # (x^2 + a x + b)(x^2 + c x + d), coefficient bound from c0 and c3
        for a in range(-abs(c0) - 4, abs(c0) + 5):
            for c in range(-abs(c0) - 4, abs(c0) + 5):
                prod_coeffs = naive_mul([b, a, 1], [d, c, 1])
                if prod_coeffs == [Fraction(v) for v in coeffs]:
                    return True
    return False


# -- classical j expansion (Eisenstein / eta), independent of the packaged
#    catalog generator in tools/ ------------------------------------------------

def j_expansion(prec):
    """Coefficients c_0..c_prec of j = 1/q + sum c_k q^k, via E4^3 / Delta."""
    terms = prec + 2

    def sigma3(n):
        return sum(d ** 3 for d in range(1, n + 1) if n % d == 0)

    def mul(a, b):
        out = [0] * terms
        for i, x in enumerate(a[:terms]):
            if x:
                for j, y in enumerate(b[: terms - i]):
                    if y:
                        out[i + j] += x * y
        return out

    e4 = [1] + [240 * sigma3(n) for n in range(1, terms)]
    e4c = mul(mul(e4, e4), e4)
    eta24 = [1] + [0] * (terms - 1)
    for n in range(1, terms):
        fac = [0] * terms
        binom = 1
        for k in range(25):
            if n * k >= terms:
                break
            fac[n * k] = binom if k % 2 == 0 else -binom
            binom = binom * (24 - k) // (k + 1)
        eta24 = mul(eta24, fac)
    inv = [0] * terms
    inv[0] = 1
    for n in range(1, terms):
        inv[n] = -sum(eta24[k] * inv[n - k] for k in range(1, n + 1))
    quotient = mul(e4c, inv)
    assert quotient[0] == 1
    return quotient[1: prec + 2]


# -- reference algorithms that fast paths of the library replace -------------

def horner_eval(p, t):
    """p(t) for a ``Poly`` p at a ``GeneralLaurent`` t by Horner's rule in
    the library's series arithmetic: one product with t per degree, so
    every partial value carries the precision the arithmetic certifies.
    This was the library's evaluator before Paterson-Stockmeyer."""
    from moondec.polynomials import Poly
    from moondec.series import EXACT, ZERO_SERIES, GeneralLaurent
    acc = ZERO_SERIES
    for n in reversed(p.nums):
        acc = acc * t + GeneralLaurent(0, Poly.make((n,), p.den), EXACT)
    return acc


def all_edges_chains(nodes, edges, src, dst, splits):
    """Every simple path src -> dst along edges that do not split, sorted
    as the library sorts them: the search before pruning, which asks
    ``splits(edge)`` of every edge of the graph.  Edges have .src, .dst
    and .power; nodes are names.  Unknown names raise KeyError."""
    for name in (src, dst):
        if name not in nodes:
            raise KeyError(name)
    if src == dst:
        return [[]]
    keep = [e for e in sorted(edges, key=lambda e: (e.src, e.dst, e.power))
            if not splits(e)]
    paths = []

    def walk(node, trail, seen):
        for e in keep:
            if e.src != node:
                continue
            if e.dst == dst:
                paths.append(trail + [e])
            elif e.dst not in seen:
                walk(e.dst, trail + [e], seen | {e.dst})

    walk(src, [], {src})
    paths.sort(key=lambda p: (-len(p),
                              tuple((e.src, e.dst, e.power) for e in p)))
    return paths
