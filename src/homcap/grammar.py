"""Text grammar for spaces and groups, with renderers that round-trip.

Groups:  ``Z``, ``Z/n`` (n >= 2), ``Z^r`` (r at most ``MAX_RANK``), ``0``,
combined with ``+``.
Spaces:  ``*``, ``S^n``, ``M(<group>, n)``, ``K(<group>, n)``, ``CP^n``,
infix ``v`` (wedge) and ``x`` (product, binds tighter), parentheses
nested at most ``MAX_NESTING`` deep.
Whitespace is insignificant; tokenization is longest-match.
"""

from __future__ import annotations

import re

from .abelian import FgAbelianGroup
from .spaces import (
    POINT,
    ComplexProjective,
    EilenbergMacLane,
    Moore,
    Point,
    Product,
    SpaceExpr,
    Sphere,
    Wedge,
)

__all__ = [
    "ParseError",
    "DomainError",
    "parse_space",
    "parse_group",
    "render_space",
    "render_group",
]

# the parser recurses three frames per parenthesis level; a cap keeps deep
# input well inside Python's recursion limit
MAX_NESTING = 100
# M(Z^r, n) canonicalizes to a wedge of r spheres and `summands` prints r + 1
# classes, so a typed rank is capped before anything is built from it
MAX_RANK = 10_000


class ParseError(ValueError):
    """Input does not match the grammar; carries a 1-based column."""

    def __init__(self, column: int, expected: str):
        self.column = column
        self.expected = expected
        super().__init__(f"column {column}: expected {expected}")


class DomainError(ValueError):
    """Grammatical input naming a space/group outside the domain rules."""


_TOKEN_RE = re.compile(r"\d+|CP|[SMKZvx]|[\^/+,()*]")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(pos + 1, f"a valid token, not {text[pos]!r}")
        tokens.append((m.group(), pos + 1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.end_column = len(text) + 1
        self.pos = 0
        self.depth = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def column(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return self.end_column

    def take(self) -> str:
        tok = self.tokens[self.pos][0]
        self.pos += 1
        return tok

    def expect(self, token: str, what: str | None = None) -> None:
        if self.peek() != token:
            raise ParseError(self.column(), what or f"{token!r}")
        self.pos += 1

    def number(self, what: str) -> int:
        tok = self.peek()
        if tok is None or not tok.isdigit():
            raise ParseError(self.column(), what)
        col = self.column()
        self.pos += 1
        try:
            return int(tok)
        except ValueError:  # more digits than int() converts
            raise DomainError(f"column {col}: numeral of {len(tok)} digits is too long") from None

    def build(self, make, col: int, *args):
        """``make(*args)``, with a constructor's domain error reported at
        column ``col``."""
        try:
            return make(*args)
        except ValueError as err:
            raise DomainError(f"column {col}: {err}") from err

    def expect_end(self) -> None:
        if self.peek() is not None:
            raise ParseError(self.column(), "end of input")

    # -- groups ---------------------------------------------------------

    def group(self) -> FgAbelianGroup:
        orders = self.group_term()
        while self.peek() == "+":
            self.take()
            orders.extend(self.group_term())
        return FgAbelianGroup.from_orders(*orders)

    def group_term(self) -> list[int]:
        tok = self.peek()
        if tok == "0":
            self.take()
            return []
        if tok == "Z":
            self.take()
            nxt = self.peek()
            if nxt == "/":
                self.take()
                col = self.column()
                n = self.number("a cyclic order after 'Z/'")
                if n < 2:
                    raise DomainError(
                        f"column {col}: cyclic order must be >= 2 (Z/{n} is not a "
                        "group literal; write 0 for the trivial group)"
                    )
                return [n]
            if nxt == "^":
                self.take()
                col = self.column()
                r = self.number("a rank after 'Z^'")
                if r > MAX_RANK:
                    raise DomainError(f"column {col}: rank must be <= {MAX_RANK}")
                return [0] * r
            return [0]
        raise ParseError(self.column(), "a group term: 'Z', 'Z/n', 'Z^r', or '0'")

    # -- spaces ---------------------------------------------------------

    def space(self) -> SpaceExpr:
        children = [self.product_expr()]
        while self.peek() == "v":
            self.take()
            children.append(self.product_expr())
        return children[0] if len(children) == 1 else Wedge(tuple(children))

    def product_expr(self) -> SpaceExpr:
        children = [self.atom()]
        while self.peek() == "x":
            self.take()
            children.append(self.atom())
        return children[0] if len(children) == 1 else Product(tuple(children))

    def atom(self) -> SpaceExpr:
        tok = self.peek()
        if tok == "*":
            self.take()
            return POINT
        if tok == "(":
            col = self.column()
            self.take()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise DomainError(
                    f"column {col}: parentheses nest more than {MAX_NESTING} levels deep"
                )
            inner = self.space()
            self.expect(")", "')'")
            self.depth -= 1
            return inner
        if tok == "S":
            self.take()
            self.expect("^", "'^' after 'S'")
            col = self.column()
            return self.build(Sphere, col, self.number("a dimension after 'S^'"))
        if tok == "CP":
            self.take()
            self.expect("^", "'^' after 'CP'")
            col = self.column()
            return self.build(ComplexProjective, col, self.number("an index after 'CP^'"))
        if tok in ("M", "K"):
            self.take()
            self.expect("(", f"'(' after '{tok}'")
            group = self.group()
            self.expect(",", "',' before the degree")
            col = self.column()
            n = self.number("a degree")
            self.expect(")", "')'")
            return self.build(Moore if tok == "M" else EilenbergMacLane, col, group, n)
        raise ParseError(
            self.column(),
            "a space: '*', 'S^n', 'M(group, n)', 'K(group, n)', 'CP^n', or '('",
        )


def parse_space(text: str) -> SpaceExpr:
    """Parse a space expression (the tree is as written, not canonicalized)."""
    p = _Parser(text)
    space = p.space()
    p.expect_end()
    return space


def parse_group(text: str) -> FgAbelianGroup:
    p = _Parser(text)
    group = p.group()
    p.expect_end()
    return group


def render_group(group: FgAbelianGroup) -> str:
    try:
        return str(group)
    except ValueError:  # an order with more digits than str() converts
        raise DomainError("a group order has too many digits to print") from None


def render_space(space: SpaceExpr) -> str:
    """Grammar text for a space; re-parsing yields a structurally equal tree."""
    if isinstance(space, Point):
        return "*"
    if isinstance(space, Sphere):
        return f"S^{space.dim}"
    if isinstance(space, Moore):
        return f"M({render_group(space.group)}, {space.degree})"
    if isinstance(space, EilenbergMacLane):
        return f"K({render_group(space.group)}, {space.degree})"
    if isinstance(space, ComplexProjective):
        return f"CP^{space.dim}"
    if isinstance(space, Wedge):
        return " v ".join(
            f"({render_space(c)})" if isinstance(c, Wedge) else render_space(c)
            for c in space.children
        )
    if isinstance(space, Product):
        return " x ".join(
            f"({render_space(c)})" if isinstance(c, (Wedge, Product)) else render_space(c)
            for c in space.children
        )
    raise TypeError(f"not a space expression: {space!r}")
