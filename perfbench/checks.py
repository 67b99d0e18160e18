"""Output checks in plain ``Fraction`` arithmetic, independent of moondec."""

from __future__ import annotations

from fractions import Fraction

# Sample points for recomposition checks; points where some component has
# a pole are skipped, and at least MIN_POINTS must remain.
POINTS = [Fraction(n, d) for n, d in ((17, 7), (-11, 13), (29, 5), (-3, 19),
                                      (41, 3), (7, 23), (-37, 11), (5, 31))]
MIN_POINTS = 4


class _Evaluator:
    """Value of an expression in x (grammar of moondec's parser) at a point."""

    def __init__(self, text: str, x: Fraction):
        self.text = text.replace(" ", "")
        self.pos = 0
        self.x = x

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.unary()
            value = value * rhs if op == "*" else value / rhs
        return value

    def unary(self):
        negate = False
        while self.peek() in ("+", "-"):
            negate ^= self.text[self.pos] == "-"
            self.pos += 1
        value = self.power()
        return -value if negate else value

    def power(self):
        value = self.atom()
        if self.peek() == "^":
            self.pos += 1
            value = value ** self.integer()
        return value

    def integer(self) -> int:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if start == self.pos:
            raise ValueError(f"expected an integer at {start} in {self.text!r}")
        return int(self.text[start:self.pos])

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.expr()
            if self.peek() != ")":
                raise ValueError(f"expected ')' at {self.pos}")
            self.pos += 1
            return value
        if ch == "x":
            self.pos += 1
            return self.x
        return Fraction(self.integer())


def evaluate(text: str, x: Fraction) -> Fraction:
    ev = _Evaluator(text, x)
    value = ev.expr()
    if ev.pos != len(ev.text):
        raise ValueError(f"trailing text at {ev.pos} in {text!r}")
    return value


def recomposes(target: str, components: list[str]) -> bool:
    """components (outermost first) compose back to target at the sample
    points; points where any of the expressions has a pole are skipped."""
    agree = 0
    for x in POINTS:
        try:
            want = evaluate(target, x)
            got = x
            for comp in reversed(components):
                got = evaluate(comp, got)
        except ZeroDivisionError:
            continue
        if got != want:
            return False
        agree += 1
    return agree >= MIN_POINTS


def parse_chains(stdout: str) -> list[tuple[tuple[int, ...], list[str]]]:
    """``chain length L degrees a*b: g o h`` lines -> (degrees, components)."""
    out = []
    for line in stdout.splitlines():
        head, body = line.split(": ", 1)
        words = head.split()
        if words[:2] != ["chain", "length"] or words[3] != "degrees":
            raise ValueError(f"not a chain line: {line!r}")
        degrees = tuple(int(d) for d in words[4].split("*"))
        components = body.split(" o ")
        if int(words[2]) != len(degrees) or len(components) != len(degrees):
            raise ValueError(f"inconsistent chain line: {line!r}")
        out.append((degrees, components))
    return out
