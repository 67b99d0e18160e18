"""Integer kernels: dense convolution and fraction-free elimination.

These two loops dominate the runtime of everything in this package (series
and polynomial products run through integer convolution after denominators
are cleared; every linear solve runs through the Bareiss echelon form).
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
