"""The arrangement file format.

    # optional comments
    arr v1 n=<N>
    <id> <a> <b> <c>      (N records, ids exactly 1..N in angle order)

Coefficients are integers or "p/q" rationals, never decimals, so files stay
exact: a coefficient token is ``-?[0-9]+(/[0-9]+)?`` with at most
MAX_DIGITS digits per integer, and anything else (decimals, exponents,
underscores, a leading "+", other digit scripts) is rejected.  Ids must
already follow increasing direction angle; the loader rejects any other
numbering and suggests the relabeling instead of silently permuting, so
fixtures stay unambiguous across tools.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cmp_to_key

from .arrangement import Arrangement, _reject_parallel, build_arrangement
from .geometry import ArrangementError, LESS, cmp_angle, line

# Python's own default limit on converting a decimal string to an int.
MAX_DIGITS = 4300
_COEFFICIENT = re.compile(r"(-?[0-9]{1,%d})(?:/([0-9]{1,%d}))?" % (MAX_DIGITS, MAX_DIGITS))
_UNSIGNED = re.compile(r"[0-9]{1,%d}" % MAX_DIGITS)


def format_arrangement(arr: Arrangement) -> str:
    out = [f"arr v1 n={arr.n}"]
    for i, ln in enumerate(arr.lines, 1):
        out.append(f"{i} {ln.a} {ln.b} {ln.c}")
    return "\n".join(out) + "\n"


def _coefficient(token: str) -> int | Fraction | None:
    """A coefficient token's value, an ``int`` for an integer token and a
    :class:`Fraction` for "p/q", or None as for :func:`parse_rational`."""
    m = _COEFFICIENT.fullmatch(token)
    if m is None:
        return None
    num, den = m.groups()
    if den is None:
        return int(num)
    den = int(den)
    return Fraction(int(num), den) if den else None


def parse_rational(token: str) -> Fraction | None:
    """The exact value of a coefficient token, or None when the token breaks
    the rule above or has a zero denominator."""
    q = _coefficient(token)
    return None if q is None else Fraction(q)


def _rational(token: str) -> int | Fraction:
    q = _coefficient(token)
    if q is None:
        raise ArrangementError("bad-file", f"bad rational {token[:40]!r}")
    return q


def parse_arrangement(text: str) -> Arrangement:
    rows = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not rows or not rows[0].startswith("arr v1 n="):
        raise ArrangementError("bad-file", 'missing "arr v1 n=<N>" header')
    count = rows[0].split("=", 1)[1]
    if not _UNSIGNED.fullmatch(count):
        raise ArrangementError("bad-file", f"bad header {rows[0]!r}")
    n = int(count)
    if len(rows) - 1 != n:
        raise ArrangementError("bad-file", f"expected {n} records, found {len(rows) - 1}")
    by_id = {}
    for row in rows[1:]:
        parts = row.split()
        if len(parts) != 4:
            raise ArrangementError("bad-file", f"bad record {row!r}")
        ident = int(parts[0]) if _UNSIGNED.fullmatch(parts[0]) else None
        if ident is None or not 1 <= ident <= n or ident in by_id:
            raise ArrangementError("bad-file", f"bad or duplicate id in {row!r}")
        # integer tokens stay int, so line() reduces them by one gcd
        by_id[ident] = line(*(_rational(p) for p in parts[1:]))
    lines = [by_id[i] for i in range(1, n + 1)]
    for i in range(n - 1):
        if cmp_angle(lines[i], lines[i + 1]) != LESS:
            _reject_parallel(lines)  # a strictly increasing order has none
            key = cmp_to_key(cmp_angle)
            order = sorted(range(n), key=lambda k: key(lines[k]))
            suggestion = ", ".join(
                f"{old + 1}->{new + 1}" for new, old in enumerate(order) if old != new
            )
            raise ArrangementError(
                "id-order-mismatch",
                f"ids must follow increasing angle; suggested relabeling: {suggestion}",
            )
    return build_arrangement(lines)


def save_arrangement(arr: Arrangement, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_arrangement(arr))


def load_arrangement(path) -> Arrangement:
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ArrangementError("bad-file", f"non-ASCII byte at offset {exc.start}") from None
    return parse_arrangement(text)
