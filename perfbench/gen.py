"""Seeded input generator for the benchmark.

Everything here is plain integer or ``Fraction`` arithmetic and never
imports ``moondec``: the generated inputs and the references the outputs
are checked against must not depend on the program under test.

Catalog: the classical j (``1A``, ``E4^3/Delta``) and the Gamma0(N)
hauptmoduln ``(eta(tau)/eta(N tau))^(24/(N-1))`` of Conway-Norton,
"Monstrous Moonshine" (1979), for N = 2, 3, 4, 5, 7, 9, 13, 25.  Their
areas are the indices of Gamma0(N).  Constant terms of the hauptmoduln
are normalised to 0, as in the bundled ``moonshine.jsonl``.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

# name -> (N, area); 1A is j itself
HAUPTMODULN = {"2B": (2, 3), "3B": (3, 4), "4C": (4, 6), "5B": (5, 6),
               "7B": (7, 8), "9B": (9, 12), "13B": (13, 14), "25B": (25, 30)}
CATALOG_NAMES = ["1A"] + list(HAUPTMODULN)
CATALOG_PREC = 120    # catalog coefficients c_0..c_120
REFERENCE_PREC = 240  # reference for the derive checks


def _mul(a, b, terms):
    out = [0] * terms
    for i, ai in enumerate(a[:terms]):
        if ai:
            for j, bj in enumerate(b[:terms - i]):
                if bj:
                    out[i + j] += ai * bj
    return out


def _pow(a, k, terms):
    """a^k truncated to terms, by repeated squaring."""
    out = [1] + [0] * (terms - 1)
    while k:
        if k & 1:
            out = _mul(out, a, terms)
        k >>= 1
        if k:
            a = _mul(a, a, terms)
    return out


def _inverse(a, terms):
    """1/a for an integer power series with a[0] = 1."""
    inv = [1] + [0] * (terms - 1)
    for n in range(1, terms):
        inv[n] = -sum(a[k] * inv[n - k] for k in range(1, min(n, len(a) - 1) + 1))
    return inv


def _euler(terms, step=1):
    """prod_{n>=1} (1 - q^(step*n)) by Euler's pentagonal number theorem."""
    out = [0] * terms
    k = 0
    while True:
        done = True
        for m in ((k * (3 * k - 1)) // 2, (k * (3 * k + 1)) // 2):
            if step * m < terms:
                out[step * m] = -1 if k % 2 else 1
                done = False
        if done:
            return out
        k += 1


def series(name: str, prec: int) -> list[int]:
    """Coefficients c_0..c_prec of name = 1/q + sum c_k q^k."""
    terms = prec + 2  # q * series has terms q^0..q^(prec+1)
    if name == "1A":
        e4 = [1] + [240 * sum(d ** 3 for d in range(1, n + 1) if n % d == 0)
                    for n in range(1, terms)]
        delta_q = _pow(_euler(terms), 24, terms)  # Delta / q
        qj = _mul(_pow(e4, 3, terms), _inverse(delta_q, terms), terms)
        return qj[1:]
    n, _ = HAUPTMODULN[name]
    k = 24 // (n - 1)
    qt = _mul(_pow(_euler(terms), k, terms),
              _inverse(_pow(_euler(terms, n), k, terms), terms), terms)
    coeffs = qt[1:]
    coeffs[0] = 0
    return coeffs


def area(name: str) -> int:
    return 1 if name == "1A" else HAUPTMODULN[name][1]


def catalog_records(prec: int = CATALOG_PREC) -> list[dict]:
    return [{"name": name, "area": str(area(name)),
             "coeffs": [str(c) for c in series(name, prec)]}
            for name in CATALOG_NAMES]


def jsonl(records) -> bytes:
    return "".join(json.dumps(r, separators=(",", ":")) + "\n"
                   for r in records).encode()


def matches_bundled(path) -> bool:
    """Self-check: 1A and 9B through q^30 reproduce the bundled catalog
    file byte for byte."""
    with open(path, "rb") as handle:
        bundled = handle.read()
    return jsonl(r for r in catalog_records(30)
                 if r["name"] in ("1A", "9B")) == bundled


# ----------------------------------------------------------------------
# decompose inputs

# Degree tuples of the seeded compositions and degrees of the seeded
# indecomposable inputs; the seed picks coefficients.  Kept fixed so that
# every seed gives about the same amount of work.  Compositions (degree
# >= 8) take longer and prime-degree inputs (degree <= 7) shorter than the
# median relation function, and there are as many of one as of the other,
# so the median latency rests on the fixed relation functions whatever the
# seed.
COMPOSITION_SHAPES = [(2, 5), (5, 2), (3, 3), (2, 2, 2), (2, 3, 2),
                      (3, 2, 2), (2, 2, 3), (5, 3), (3, 5)] * 2 + [(2, 2, 2, 2)]
PRIME_DEGREES = [2, 3, 5, 7] * 4 + [3, 5, 7]


def _trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _padd(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def _pmul(a, b):
    return _mul(a, b, len(a) + len(b) - 1)


def _coprime(a, b) -> bool:
    """gcd(a, b) is a constant (Euclid over Q; a, b nonzero)."""
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while len(b) > 1:
        r = list(a)
        while len(r) >= len(b):
            q = r[-1] / b[-1]
            off = len(r) - len(b)
            for i, c in enumerate(b):
                r[off + i] -= q * c
            r = _trim(r)
        a, b = b, r
        if not b:
            return False
    return True


def _component(rng, degree):
    """Random reduced (num, den) with max(deg num, deg den) = degree."""
    while True:
        num = [rng.randint(-9, 9) for _ in range(degree)] + \
            [rng.choice([-3, -2, -1, 1, 2, 3])]
        dd = rng.randint(0, degree)
        den = [rng.randint(-9, 9) for _ in range(dd)] + \
            [rng.choice([-2, -1, 1, 2])]
        if _trim(num) and _coprime(num, den):
            return num, den


def _compose(g, h):
    """g o h for reduced pairs; the result is reduced (res(gN,gD) != 0)."""
    (gn, gd), (hn, hd) = g, h
    m = max(len(gn), len(gd)) - 1
    hn_pow, hd_pow = [[1]], [[1]]
    for _ in range(m):
        hn_pow.append(_pmul(hn_pow[-1], hn))
        hd_pow.append(_pmul(hd_pow[-1], hd))

    def part(coeffs):
        acc = []
        for i, c in enumerate(coeffs):
            if c:
                acc = _padd(acc, [c * x for x in
                                  _pmul(hn_pow[i], hd_pow[m - i])])
        return acc
    return part(gn), part(gd)


def poly_text(p) -> str:
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        var = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
        body = str(mag) if i == 0 else (var if mag == 1 else f"{mag}*{var}")
        parts.append(sign + body)
    return "".join(parts) or "0"


def ratfun_text(num, den) -> str:
    return f"({poly_text(num)})/({poly_text(den)})"


def decompose_inputs(seed: int, relations) -> list[dict]:
    """The ``decompose`` inputs: the relation functions, then seeded
    compositions with their planted degree tuple, then seeded prime-degree
    (hence indecomposable) functions."""
    rng = random.Random(f"decompose-{seed}")
    out = [{"kind": "relation", "text": r["f"], "degree": r["e"],
            "key": f"{r['from']}->{r['to']} r={r['r']}"}
           for r in relations if r["e"] >= 3]
    for shape in COMPOSITION_SHAPES:
        parts = [_component(rng, d) for d in shape]
        f = parts[-1]
        for g in reversed(parts[:-1]):
            f = _compose(g, f)
        out.append({"kind": "composition", "text": ratfun_text(*f),
                    "degree": math.prod(shape), "shape": list(shape)})
    for d in PRIME_DEGREES:
        out.append({"kind": "prime", "text": ratfun_text(*_component(rng, d)),
                    "degree": d})
    return out


# ----------------------------------------------------------------------
# derive inputs

DERIVE_REACH = (45, 60)  # q-exponent range a derivation reaches


def derive_relations(relations) -> list[dict]:
    """The relations 1A(q^N) = f(T_N(q)), one per hauptmodul T_N."""
    return [r for r in relations
            if r["from"] == "1A" and r["r"] == HAUPTMODULN[r["to"]][0]]


def derive_reach(n: int, p: int) -> int:
    """Last exponent solved from 1A(q^n) = f(T(q)) with j known through q^p:
    the target is certified through q^(n*p) and f has a pole of order n."""
    return n * (p + 1) - 1


def derive_pass(rng, relations) -> list[dict]:
    """The derivations of one ``catalog`` pass in seeded order: for each
    T_N, j's truncation p such that the solved series reaches into
    DERIVE_REACH."""
    out = []
    lo, hi = DERIVE_REACH
    for r in derive_relations(relations):
        n = r["r"]
        choices = [p for p in range(1, CATALOG_PREC + 1)
                   if lo <= derive_reach(n, p) <= hi]
        out.append({"name": r["to"], "n": n, "p": rng.choice(choices)})
    rng.shuffle(out)
    return out
