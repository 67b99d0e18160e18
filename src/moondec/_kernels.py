"""Integer kernels: dense convolution, fraction-free elimination and
Euclid modulo a prime.

The first two loops dominate the runtime of everything in this package
(series and polynomial products run through integer convolution; every
linear solve runs through the Bareiss echelon form).  The ``pm_`` functions
work on integer coefficient lists modulo a prime ``p`` (ascending, highest
entry nonzero, the empty list zero); factorization splits with them, and
``poly_gcd`` certifies coprimality with them.
"""

BACKEND = "python"  # the only backend; benchmark runs record it


def poly_mul(a, b, mod=0, trunc=0):
    """Convolve integer coefficient lists ``a`` and ``b``.

    ``mod > 0`` reduces coefficients into ``[0, mod)``; ``trunc > 0`` keeps
    only the first ``trunc`` entries of the product.
    """
    na = len(a)
    nb = len(b)
    if na == 0 or nb == 0:
        return []
    n = na + nb - 1
    if 0 < trunc < n:
        n = trunc
    out = [0] * n
    for i in range(min(na, n)):
        ai = a[i]
        if ai == 0:
            continue
        jmax = min(nb, n - i)
        for j in range(jmax):
            out[i + j] += ai * b[j]
    if mod:
        for i in range(n):
            out[i] %= mod
    return out


def pm_trim(a):
    """Drop high zero entries of ``a`` in place; returns ``a``."""
    while a and a[-1] == 0:
        a.pop()
    return a


def pm_monic(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def pm_divrem(a, b, p):
    """Quotient and remainder of ``a`` by nonzero ``b`` modulo ``p``."""
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        return [], list(a)
    inv = pow(b[-1], -1, p)
    rem = list(a)
    quot = [0] * (da - db + 1)
    for i in range(da, db - 1, -1):
        c = rem[i] * inv % p
        if c:
            quot[i - db] = c
            for j in range(db + 1):
                rem[i - db + j] = (rem[i - db + j] - c * b[j]) % p
    return pm_trim(quot), pm_trim(rem[:db])


def pm_gcd(a, b, p):
    """Monic gcd of ``a`` and ``b`` modulo ``p`` (empty when both are 0)."""
    a, b = list(a), list(b)
    while b:
        a, b = b, pm_divrem(a, b, p)[1]
    return pm_monic(a, p) if a else a


def row_echelon(rows):
    """Fraction-free (Bareiss) row echelon form of an integer matrix.

    Returns ``(echelon_rows, pivot_columns)``.  All divisions are exact by
    Sylvester's identity; entries stay minor-sized instead of growing
    exponentially.  Rows are copied, the input is left untouched.
    """
    m = len(rows)
    if m == 0:
        return [], []
    work = [list(r) for r in rows]
    n = len(work[0])
    pivots = []
    prev = 1
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = -1
        for i in range(r, m):
            if work[i][c] != 0:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            work[r], work[pr] = work[pr], work[r]
        piv = work[r][c]
        rowr = work[r]
        for i in range(r + 1, m):
            rowi = work[i]
            ric = rowi[c]
            # Bareiss one-step formula; rows with ric == 0 still get scaled
            # by piv/prev, which later exact divisions rely on.
            for j in range(c + 1, n):
                rowi[j] = (piv * rowi[j] - ric * rowr[j]) // prev
            rowi[c] = 0
        pivots.append(c)
        prev = piv
        r += 1
    return work, pivots
