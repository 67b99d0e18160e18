"""Integer kernels: dense convolution, fraction-free elimination and
Euclid modulo a prime.

The first two loops dominate the runtime of everything in this package
(series and polynomial products run through integer convolution; every
linear solve runs through the Bareiss echelon form).  The ``pm_`` functions
work on integer coefficient lists modulo a prime ``p`` (ascending, highest
entry nonzero, the empty list zero); factorization splits with them, and
``poly_gcd`` certifies coprimality with them.  ``pm_rank`` is the rank of
a matrix modulo ``p``, a lower bound of its rank over the rationals.
"""

BACKEND = "python"  # the only backend; benchmark runs record it


# Above this many schoolbook coefficient products (the nonzero entries of
# the list the loop runs over times the length of the other), an integer
# product is convolved by Kronecker substitution instead.  Measured on the
# integer products of one benchmark catalog pass (2 vCPU, Python 3.11):
# their total time is flat from 600 to 3,000 and rises on either side;
# decompose's products, at most 37 x 37 entries, stay below it.
KRONECKER_PRODUCTS = 2000


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
    if not mod:
        a, b = a[:n], b[:n]
        work_a = (len(a) - a.count(0)) * len(b)
        work_b = (len(b) - b.count(0)) * len(a)
        if work_b < work_a:
            a, b, work_a = b, a, work_b
        if work_a > KRONECKER_PRODUCTS:
            return kronecker_mul(a, b, n)
        na, nb = len(a), len(b)
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


def kronecker_mul(a, b, n):
    """The first ``n`` entries of the convolution of integer lists ``a``
    and ``b`` by Kronecker substitution (Harvey, JSC 2009): both lists are
    read as integers in base 2^w, one big-integer product is taken, and
    its base-2^w digits are the entries of the convolution.  w bytes hold
    every entry in [-2^(w-1), 2^(w-1)), so each digit is read off with a
    bias of 2^(w-1) and no carry crosses into the next one."""
    bound = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
             + min(len(a), len(b)).bit_length())
    width = bound // 8 + 1  # bytes: one sign bit to spare
    half = 1 << (8 * width - 1)

    def pack(values):
        raw = b"".join((v + half).to_bytes(width, "little") for v in values)
        return int.from_bytes(raw, "little") - _bias(half, width, len(values))

    size = len(a) + len(b) - 1
    product = pack(a) * pack(b) + _bias(half, width, size)
    raw = product.to_bytes(size * width, "little")
    return [int.from_bytes(raw[i:i + width], "little") - half
            for i in range(0, n * width, width)]


def _bias(half, width, count):
    """half in each of count base-2^(8 width) digits."""
    return int.from_bytes(half.to_bytes(width, "little") * count, "little")


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


def pm_rem(a, b, p):
    """Remainder of ``a`` by nonzero ``b`` modulo ``p``, without a quotient."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    for top in range(len(a) - 1 - db, -1, -1):
        c = a[top + db] * inv % p
        if c:
            for j in range(db):
                a[top + j] = (a[top + j] - c * b[j]) % p
    return pm_trim(a[:db])


def pm_gcd(a, b, p):
    """Monic gcd of ``a`` and ``b`` modulo ``p`` (empty when both are 0)."""
    while b:
        a, b = b, pm_rem(a, b, p)
    return pm_monic(a, p) if a else []


def pm_rank(rows, p):
    """Rank modulo ``p`` of an integer matrix given as rows of equal
    length."""
    work = [[v % p for v in row] for row in rows]
    m = len(work)
    n = len(work[0]) if work else 0
    rank = 0
    for c in range(n):
        pr = next((i for i in range(rank, m) if work[i][c]), -1)
        if pr < 0:
            continue
        work[rank], work[pr] = work[pr], work[rank]
        top = work[rank]
        inv = pow(top[c], -1, p)
        for i in range(rank + 1, m):
            row = work[i]
            f = row[c] * inv % p
            if f:
                for j in range(c + 1, n):
                    row[j] = (row[j] - f * top[j]) % p
        rank += 1
    return rank


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
