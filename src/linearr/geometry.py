"""Exact lines, points and the predicates everything else builds on.

Lines are stored in a canonical integer form so that equality, hashing and
orientation are well defined.  The vertex of two lines is an integer
homogeneous triple (:func:`meet`), so the side of a line at a vertex is the
sign of one integer expression and the crossing order along a line is an
order of integer keys; every predicate of the library is decided that way,
and :meth:`Line.translated` stays in integers too.
:class:`fractions.Fraction` remains for rational coefficients in the input
(``p/q``), the offsets of the translation into conventional position, the
point named by a ``concurrent-triple`` error and output; both realizers
build their lines from integers, which :func:`line` reduces without it.
No floating point ever influences a combinatorial result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


class ArrangementError(ValueError):
    """Input violates a construction rule.

    ``code`` is a stable machine-readable identifier (e.g. ``"parallel-lines"``);
    the message carries the human-readable detail.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


# Comparison results of cmp_angle.
LESS = -1
EQUAL = 0
GREATER = 1


@dataclass(frozen=True)
class Point:
    x: Fraction
    y: Fraction


@dataclass(frozen=True)
class Line:
    """The locus a*x + b*y = c in canonical form.

    Canonical means: a, b, c are coprime integers and a > 0.  Horizontal
    lines (a == 0) are rejected because the direction angle must satisfy
    0 < theta < pi.  The conventional orientation of the line is the
    direction of increasing y, i.e. the vector (-b, a).
    """

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0:
            raise ArrangementError(
                "horizontal-line" if self.a == 0 else "invalid-line",
                f"line must be canonical with a > 0, got a={self.a}",
            )
        g = gcd(gcd(abs(self.a), abs(self.b)), abs(self.c))
        if g != 1:
            raise ArrangementError(
                "invalid-line", f"coefficients not coprime: {self.a},{self.b},{self.c}"
            )

    @property
    def direction(self) -> tuple[int, int]:
        """Primitive direction vector of increasing y along the line."""
        g = gcd(abs(self.b), self.a)
        return (-self.b // g, self.a // g)

    def translated(self, dx: Fraction, dy: Fraction) -> "Line":
        """The line moved by (dx, dy): a*x + b*y = c + a*dx + b*dy, scaled by
        the denominators of dx and dy and reduced by one gcd."""
        p, q = dx.numerator, dx.denominator
        r, s = dy.numerator, dy.denominator
        a, b = self.a * q * s, self.b * q * s
        c = self.c * q * s + self.a * p * s + self.b * r * q
        g = gcd(a, b, c)
        return Line(a // g, b // g, c // g)

    def __str__(self) -> str:
        return f"{self.a}x + {self.b}y = {self.c}"


def line(a, b, c) -> Line:
    """Build a canonical :class:`Line` from arbitrary rational coefficients.

    Raises ``horizontal-line`` for a == 0 (the convention 0 < theta < pi
    excludes horizontal lines) and ``invalid-line`` for (a, b) == (0, 0).
    Integer coefficients, what both realizers pass, are reduced by one gcd
    without going through :class:`~fractions.Fraction`.
    """
    if type(a) is int and type(b) is int and type(c) is int and a:
        g = gcd(a, b, c)
        if a < 0:
            g = -g
        return Line(a // g, b // g, c // g)
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a == 0 and b == 0:
        raise ArrangementError("invalid-line", "coefficients (a, b) must not both be zero")
    if a == 0:
        raise ArrangementError("horizontal-line", f"horizontal line {a}x+{b}y={c} is not allowed")
    den = a.denominator * b.denominator * c.denominator
    ai, bi, ci = (int(a * den), int(b * den), int(c * den))
    g = gcd(gcd(abs(ai), abs(bi)), abs(ci))
    ai, bi, ci = ai // g, bi // g, ci // g
    if ai < 0:
        ai, bi, ci = -ai, -bi, -ci
    return Line(ai, bi, ci)


def side(ln: Line, p: Point) -> int:
    """Sign of a*p.x + b*p.y - c: which side of the line p lies on.

    Two points are on the same side iff their signs are equal and nonzero;
    0 means incident.
    """
    v = ln.a * p.x + ln.b * p.y - ln.c
    return (v > 0) - (v < 0)


def meet(l1: Line, l2: Line) -> tuple[int, int, int]:
    """The common point of two non-parallel lines as an integer homogeneous
    triple (X, Y, W) with W > 0: the point is (X/W, Y/W).

    Line m passes through it iff ``m.a*X + m.b*Y == m.c*W``, and the sign of
    ``m.a*X + m.b*Y - m.c*W`` is the side of m the point lies on.
    """
    w = l1.a * l2.b - l2.a * l1.b
    x = l1.c * l2.b - l2.c * l1.b
    y = l1.a * l2.c - l2.a * l1.c
    if w < 0:
        return (-x, -y, -w)
    return (x, y, w)


def intersect(l1: Line, l2: Line) -> Point:
    """The unique common point of two non-parallel lines, exact."""
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        raise ArrangementError("parallel-lines", f"cannot intersect parallel lines {l1} and {l2}")
    x = Fraction(l1.c * l2.b - l2.c * l1.b, det)
    y = Fraction(l1.a * l2.c - l2.a * l1.c, det)
    return Point(x, y)


def cmp_angle(l1: Line, l2: Line) -> int:
    """Compare direction angles in (0, pi) exactly.

    Returns LESS/EQUAL/GREATER.  Valid because both canonical directions
    (-b, a) have positive y component, so their cross product
    ``l1.a * l2.b - l2.a * l1.b`` decides the order.
    """
    cross = l1.a * l2.b - l2.a * l1.b
    if cross > 0:
        return LESS
    if cross < 0:
        return GREATER
    return EQUAL


def sign(v) -> int:
    """Sign of an exact number; raises on zero (a zero argument always means
    an invariant was violated upstream, never a legitimate value here)."""
    if v > 0:
        return 1
    if v < 0:
        return -1
    raise ArithmeticError("sign of zero: general-position invariant violated")


def direction_ladder(n: int, variant: int = 0) -> list[tuple[int, int, int]]:
    """Integer direction data for n lines with strictly increasing angles.

    For label m (1..n) returns (p, q, w) where the exact unit direction is
    ((q*q - p*p) / w, 2*p*q / w) with w = p*p + q*q, i.e. the rational point
    on the unit circle with tangent half-angle t = p/q.  t grows strictly
    with m, so the direction angles are strictly increasing in (0, pi) and
    spread roughly like pi*(m - 1/2)/n.  Two variants give independent
    realizations of the same combinatorial data.  Raises ``n-out-of-range``
    for n < 1 and ``bad-token`` for any variant other than 0 and 1.
    """
    if n < 1:
        raise ArrangementError("n-out-of-range", f"need n >= 1, got {n}")
    if variant not in (0, 1):
        raise ArrangementError("bad-token", f"unknown ladder variant {variant!r}")
    out = []
    for m in range(1, n + 1):
        if variant == 0:
            p, q = m, n + 1 - m
        else:
            p, q = 2 * m - 1, 2 * (n - m) + 1
        g = gcd(p, q)
        p, q = p // g, q // g
        out.append((p, q, p * p + q * q))
    return out


def ladder_direction_vector(entry: tuple[int, int, int]) -> tuple[int, int]:
    """Reduced integer direction vector for a ladder entry (positive y)."""
    p, q, _ = entry
    dx, dy = q * q - p * p, 2 * p * q
    g = gcd(abs(dx), dy)
    return (dx // g, dy // g)
