#!/usr/bin/env python3
"""Regenerate the bundled catalog files in src/moondec/data/.

The classical j expansion is computed from scratch with exact integer
arithmetic:

    E4(q)    = 1 + 240 * sum_{n>=1} sigma_3(n) q^n
    Delta(q) = q * prod_{n>=1} (1 - q^n)^24
    j(q)     = E4(q)^3 / Delta(q) = 1/q + 744 + 196884 q + ...

The partner series (named 9B: the hauptmodul related to j by the known
degree-12 relation j(q^3) = f(9B(q))) is not copied from anywhere: it is
derived by solving f(s) = j(q^3) by Newton iteration on the series, which
pins it uniquely.  The synthetic demo catalog plants a small relation by forward
composition.

Run from the repository root:  python3 tools/build_catalogs.py
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from moondec.parsing import parse_ratfun
from moondec.series import QSeries, eval_ratfun_at_series, inner_series_solve, substitute_power

DATA = pathlib.Path(__file__).resolve().parent.parent / "src" / "moondec" / "data"

J_PREC = 30


def check(ok: bool, message: str):
    """Stop with exit status 1 and a message when a data check fails; unlike
    assert, this also runs under python -O."""
    if not ok:
        sys.exit(f"build_catalogs: check failed: {message}")


def sigma3(n: int) -> int:
    return sum(d ** 3 for d in range(1, n + 1) if n % d == 0)


def series_mul(a, b, terms):
    out = [0] * terms
    for i, ai in enumerate(a[:terms]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: terms - i]):
            if bj:
                out[i + j] += ai * bj
    return out


def series_inverse(a, terms):
    """1/a for a power series with a[0] = 1."""
    check(a[0] == 1, f"series_inverse needs a[0] = 1, got {a[0]}")
    inv = [0] * terms
    inv[0] = 1
    for n in range(1, terms):
        acc = 0
        for k in range(1, min(n, len(a) - 1) + 1):
            acc += a[k] * inv[n - k]
        inv[n] = -acc
    return inv


def j_coefficients(prec: int) -> list[int]:
    """Coefficients c_0..c_prec of j = 1/q + sum c_k q^k."""
    terms = prec + 2
    e4 = [1] + [240 * sigma3(n) for n in range(1, terms)]
    e4cubed = series_mul(series_mul(e4, e4, terms), e4, terms)
    eta24 = [1] + [0] * (terms - 1)  # prod (1 - q^n)^24 = Delta / q
    for n in range(1, terms):
        factor = [0] * terms
        binom = 1
        for k in range(0, 25):
            if n * k >= terms:
                break
            factor[n * k] = binom if k % 2 == 0 else -binom
            binom = binom * (24 - k) // (k + 1)
        eta24 = series_mul(eta24, factor, terms)
    quotient = series_mul(e4cubed, series_inverse(eta24, terms), terms)
    # j = quotient / q, so c_k = quotient[k + 1]
    check(quotient[0] == 1, f"E4^3/Delta leads with {quotient[0]}, not 1/q")
    return quotient[1: prec + 2]


FLAGSHIP = "x^3*(x+6)^3*(x^2-6*x+36)^3/((x-3)^3*(x^2+3*x+9)^3)"


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for rec in records:
            handle.write(json.dumps(rec, separators=(",", ":")) + "\n")
    print(f"wrote {path}")


def build_moonshine():
    coeffs = j_coefficients(J_PREC)
    known = [744, 196884, 21493760, 864299970, 20245856256]
    check(coeffs[:5] == known, f"j starts {coeffs[:5]}, expected {known}")
    j = QSeries.from_coeffs(coeffs)
    f = parse_ratfun(FLAGSHIP)
    target = substitute_power(j, 3)
    partner = inner_series_solve(f, target)
    forward = eval_ratfun_at_series(f, partner)
    check(all(forward.coeff(k) == target.coeff(k)
              for k in range(-3, min(forward.prec, target.prec) + 1)),
          "f(9B) does not reproduce j(q^3)")
    partner = partner.truncate(J_PREC)
    check(all(c.denominator == 1 for c in partner.coeffs),
          "derived partner series should be integral")
    records = [
        {"name": "1A", "area": "1",
         "coeffs": [str(c) for c in j.coeffs]},
        {"name": "9B", "area": "12",
         "coeffs": [str(c) for c in partner.coeffs]},
    ]
    write_jsonl(DATA / "moonshine.jsonl", records)
    print("  9B head:", [str(c) for c in partner.coeffs[:6]])


def build_synthetic_pair():
    """Two-series demo: plant top(q) = f(base(q)) by forward composition."""
    f = parse_ratfun("(x^2+2*x+3)/(x+5)")
    base = QSeries.from_coeffs(
        [1, 2, -1, 3, 0, 1, -2, 4, 1, -3, 2, 0, 1, 5, -1, 2])
    top = QSeries.from_laurent(eval_ratfun_at_series(f, base))
    records = [
        {"name": "TOP", "area": "1",
         "coeffs": [str(c) for c in top.coeffs]},
        {"name": "BASE", "area": "2",
         "coeffs": [str(c) for c in base.coeffs]},
    ]
    write_jsonl(DATA / "synthetic_pair.jsonl", records)


def main():
    DATA.mkdir(parents=True, exist_ok=True)
    build_moonshine()
    build_synthetic_pair()


if __name__ == "__main__":
    main()
