"""Text grammar for rational functions.

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-')* power
    power  := atom ('^' INT)?          -- INT a positive integer literal
    atom   := INT | 'x' | '(' expr ')'
    INT    := [0-9]+                   -- ASCII: isdigit() takes '²' and '٣'

Whitespace is insignificant.  The canonical printer (ratfun_text) emits text
this grammar accepts, so printing and parsing round-trip exactly.

Text in the printed form itself, an expanded polynomial or
``(num)/(den)`` of two, is read by a regular expression straight into
``Poly`` coefficients; any other text, and any printed text that a cap or
check below would reject, goes to the recursive-descent parser, which
stays the reference for both.

Text can neither exhaust the stack nor spell a value exponentially larger
than itself: nesting is capped (the parser recurses once per level), and so
are integer literals and every power, the one operator that grows a value
faster than its text.  A power is checked before it is computed.
"""

from __future__ import annotations

import re
from math import gcd, lcm

from moondec.errors import RatFunSyntaxError
from moondec.polynomials import ONE, Poly
from moondec.ratfun import RatFun

MAX_DEPTH = 100       # nested parentheses
MAX_DEGREE = 512      # degree of the value of a power
MAX_BITS = 12_000     # coefficient bit length of a literal or a power


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def take_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise RatFunSyntaxError("expected an integer", start)
        if (self.pos - start) * 3 > MAX_BITS:  # over 3 bits per digit
            raise RatFunSyntaxError("integer literal is too long", start)
        return int(self.text[start:self.pos])


# A printed term: [sign] (p[/q][*x[^k]] | x[^k]), ASCII digits only.
_TERM_RE = re.compile(r"([+-]?)(?:([0-9]+)(?:/([0-9]+))?(?:\*(x))?|(x))"
                      r"(?:\^([0-9]+))?")
_QUOTIENT_RE = re.compile(r"\(([^()]*)\)/\(([^()]*)\)")


def parse_ratfun(text: str) -> RatFun:
    """Parse per the module grammar into a canonical RatFun."""
    m = _QUOTIENT_RE.fullmatch(text)
    if m is None:
        num, den = _printed_poly(text), ONE
    else:
        num, den = _printed_poly(m[1]), _printed_poly(m[2])
    if num is None or den is None or den.is_zero:
        return _parse_descent(text)
    return RatFun(num, ONE) if m is None else RatFun.make(num, den)


def _literal(digits: str) -> int | None:
    """int(digits), or None for a literal that take_int rejects."""
    return None if len(digits) * 3 > MAX_BITS else int(digits)


def _printed_poly(text: str) -> Poly | None:
    """The polynomial of text in poly_text's form, read term by term; None
    for any other text, and for text the general parser would reject or
    read through a power of a constant: a long literal, an exponent
    outside 1..MAX_DEGREE, a zero denominator."""
    terms = []
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        # printed text has no leading '+' and a sign between any two terms
        if m is None or (m[1] == "+" if pos == 0 else not m[1]):
            return None
        sign, p, q, times_x, bare_x, k = m.groups()
        if k is None:
            k = 0 if p and not times_x else 1
        elif not (times_x or bare_x):
            return None
        else:
            k = _literal(k)
            if k is None or not 1 <= k <= MAX_DEGREE:
                return None
        p = _literal(p) if p else 1
        q = _literal(q) if q else 1
        if p is None or not q:
            return None
        terms.append((k, -p if sign == "-" else p, q))
        pos = m.end()
    if not terms:
        return None
    den = lcm(*(q for _, _, q in terms))
    nums = [0] * (1 + max(k for k, _, _ in terms))
    for k, p, q in terms:
        nums[k] += p * (den // q)
    return Poly.make(nums, den)


def _parse_descent(text: str) -> RatFun:
    """The recursive-descent parser of the module grammar."""
    tok = _Tokenizer(text)
    value = _expr(tok)
    tok.skip_ws()
    if tok.pos != len(text):
        raise RatFunSyntaxError(f"unexpected {text[tok.pos]!r}", tok.pos)
    return value


def _expr(tok: _Tokenizer) -> RatFun:
    value = _term(tok)
    while tok.peek() in ("+", "-"):
        op = tok.take()
        rhs = _term(tok)
        value = value + rhs if op == "+" else value - rhs
    return value


def _term(tok: _Tokenizer) -> RatFun:
    value = _unary(tok)
    while tok.peek() in ("*", "/"):
        op = tok.take()
        rhs = _unary(tok)
        value = value * rhs if op == "*" else value / rhs
    return value


def _unary(tok: _Tokenizer) -> RatFun:
    negate = False
    while tok.peek() in ("+", "-"):
        if tok.take() == "-":
            negate = not negate
    value = _power(tok)
    return -value if negate else value


def _power(tok: _Tokenizer) -> RatFun:
    value = _atom(tok)
    if tok.peek() == "^":
        tok.take()
        at = tok.pos
        exponent = tok.take_int()
        if exponent < 1:
            raise RatFunSyntaxError("exponent must be a positive integer", at)
        if value.degree * exponent > MAX_DEGREE:
            raise RatFunSyntaxError(
                f"power has degree above {MAX_DEGREE}", at)
        if _bits(value) * exponent > MAX_BITS:
            raise RatFunSyntaxError(
                f"power has coefficients above {MAX_BITS} bits", at)
        value = value ** exponent
    return value


def _bits(f: RatFun) -> int:
    """Estimated coefficient bits of f^n per unit of n: the largest
    coefficient's bits in lowest terms, numerator or denominator, plus the
    bits of the term count."""
    top = max(max((n // g).bit_length(), (p.den // g).bit_length())
              for p in (f.num, f.den) for n in p.nums
              for g in (gcd(n, p.den),))
    return top + (len(f.num.nums) + len(f.den.nums)).bit_length()


def _atom(tok: _Tokenizer) -> RatFun:
    ch = tok.peek()
    if ch == "(":
        if tok.depth == MAX_DEPTH:
            raise RatFunSyntaxError(
                f"parentheses nested deeper than {MAX_DEPTH}", tok.pos)
        tok.take()
        tok.depth += 1
        value = _expr(tok)
        if tok.peek() != ")":
            raise RatFunSyntaxError("expected ')'", tok.pos)
        tok.take()
        tok.depth -= 1
        return value
    if ch == "x":
        tok.take()
        return RatFun.identity()
    if "0" <= ch <= "9":
        return RatFun.constant(tok.take_int())
    raise RatFunSyntaxError(
        f"expected a number, 'x' or '(', got {ch!r}" if ch else
        "unexpected end of input", tok.pos)
