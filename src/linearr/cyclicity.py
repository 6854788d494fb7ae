"""Arrangements whose lines all bound one convex n-gon.

The anticlockwise boundary order of that n-gon, written from line 1, is the
*gonality cycle*: a permutation (1 = a_1, a_2, ..., a_n) made of two
increasing runs split at the unique descent r, with 1 < a_{r+1} < a_r.
Everything here is about these cycles: validation, detection, the census,
the combinatorial triangle list, exact realization, and the construction of
the one cycle with a given triangle set, at any n.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .arrangement import Arrangement, TriangleSet, bounded_faces, build_arrangement
from .fileio import MAX_DIGITS
from .geometry import ArrangementError, direction_ladder

MAX_ENUM_N = 20


@dataclass(frozen=True)
class GonalityCycle:
    """The cycle (1 = a_1 a_2 ... a_n) with its split index r (the descent)."""

    seq: tuple[int, ...]
    r: int

    @property
    def n(self) -> int:
        return len(self.seq)

    def __str__(self) -> str:
        return format_cycle(self)


def validate_cycle(seq) -> GonalityCycle | None:
    """Check the two-run shape; None when the shape fails.

    Malformed input (not a permutation, not starting at 1) raises instead:
    shape failure is an answer, malformed input is a usage error.
    """
    seq = tuple(seq)
    n = len(seq)
    if sorted(seq) != list(range(1, n + 1)):
        raise ArrangementError("not-a-permutation", f"{seq} is not a permutation of 1..{n}")
    if seq[:1] != (1,):
        raise ArrangementError("must-start-at-1", f"cycle {seq} must be written from 1")
    descents = [k for k in range(1, n) if seq[k] < seq[k - 1]]
    if len(descents) != 1:
        return None
    r = descents[0]  # seq[r] < seq[r - 1], i.e. 1-based split index r
    if not (2 <= r <= n - 1):
        return None
    # two increasing runs with 1 < a_{r+1} < a_r are exactly "one descent,
    # not at the front" since a_1 = 1 is the global minimum
    return GonalityCycle(seq, r)


_LABEL = r"[0-9]{1,%d}" % MAX_DIGITS  # the file loader's rule for integers
_CYCLE_TEXT = re.compile(r"\(\s*(%s(?:\s+%s)*)\s*\)" % (_LABEL, _LABEL))


def parse_cycle(text: str) -> GonalityCycle:
    """Parse "(1 4 5 2 3)" style text into a validated cycle."""
    m = _CYCLE_TEXT.fullmatch(text.strip())
    if not m:
        raise ArrangementError("bad-token", f"bad cycle text {text[:40]!r}")
    seq = tuple(int(t) for t in m.group(1).split())
    c = validate_cycle(seq)
    if c is None:
        raise ArrangementError("bad-token", f"{seq} is not a valid gonality cycle")
    return c


def format_cycle(c: GonalityCycle) -> str:
    return "(" + " ".join(str(x) for x in c.seq) + ")"


def cycle_triangles(c: GonalityCycle) -> TriangleSet:
    """The triangle set of any realization of the cycle, combinatorially.

    Consecutive boundary triples within each run always bound a triangle;
    the four wrap-around candidates do so under the listed comparisons.
    Duplicates between rules collapse by set semantics.
    """
    n, r, a = c.n, c.r, c.seq
    if n < 4:
        raise ArrangementError("n-too-small", "the triangle list needs n >= 4")

    def tri(*labels) -> tuple[int, int, int]:
        return tuple(sorted(labels))

    out = set()
    for j in range(1, r - 1):  # 1-based j with j + 2 <= r
        out.add(tri(a[j - 1], a[j], a[j + 1]))
    for j in range(r + 1, n - 1):  # 1-based j with j + 2 <= n
        out.add(tri(a[j - 1], a[j], a[j + 1]))
    if n >= r + 2:
        out.add(tri(a[0], a[n - 2], a[n - 1]))
    if a[1] < a[n - 1]:
        out.add(tri(a[0], a[1], a[n - 1]))
    if a[r] < a[r - 2]:
        out.add(tri(a[r], a[r - 2], a[r - 1]))
    if n >= r + 2 and a[r + 1] < a[r - 1]:
        out.add(tri(a[r], a[r + 1], a[r - 1]))
    return out


def _deal(n: int, second: int) -> GonalityCycle | None:
    """The cycle dealing label v to the second run iff bit v of ``second`` is
    set, each run ascending; None for the n deals whose first run is {1..k}."""
    return validate_cycle(sorted(range(1, n + 1), key=lambda v: second >> v & 1))


def _cycles(n: int):
    """The valid cycles on 1..n, unsorted: each subset of {2..n} as the
    second run, the rest as the first.  The count is always 2^(n-1) - n."""
    if not (3 <= n <= MAX_ENUM_N):
        raise ArrangementError("n-out-of-range", f"census needs 3 <= n <= {MAX_ENUM_N}")
    for second in range(0, 2 << n, 4):
        c = _deal(n, second)
        if c is not None:
            yield c


def enumerate_cycles(n: int) -> list[GonalityCycle]:
    """All valid cycles on 1..n, sorted by ``seq``."""
    return sorted(_cycles(n), key=lambda c: c.seq)


def realize_cycle(c: GonalityCycle, variant: int = 0) -> Arrangement:
    """Realize a cycle as tangent lines of the rational unit circle.

    Label m gets the m-th ladder direction; its line touches the circle with
    outward normal a quarter turn left of the direction for first-run labels
    and a quarter turn right for second-run labels.  The circular order of
    the normals is then exactly the cycle, every line supports one side of
    the circumscribed polygon, and three distinct tangents are never
    concurrent, so the construction is exact and needs no retries.  The
    result is verified by detection anyway.
    """
    n = c.n
    ladder = direction_ladder(n, variant)
    first_run = set(c.seq[: c.r])
    coeffs = []
    for m in range(1, n + 1):
        p, q, w = ladder[m - 1]
        dx, dy = q * q - p * p, 2 * p * q  # direction * w, |(dx, dy)| = w
        if m in first_run:
            a, b = -dy, dx  # outward normal: direction rotated +90 degrees
        else:
            a, b = dy, -dx  # rotated -90 degrees
        coeffs.append((a, b, w))  # normal . (x, y) = 1, scaled by w
    arr = build_arrangement(coeffs)
    got = detect_gonality_cycle(arr)
    if got != c:
        raise ArrangementError(
            "realization-failed", f"realized {got} instead of {c}"
        )
    return arr


def detect_gonality_cycle(arr: Arrangement) -> GonalityCycle | None:
    """Find the face bounded by all n lines and read its anticlockwise
    boundary order from line 1; None when no such face exists.

    Such a face has an edge on line 1, so only the faces of line 1's zone
    are built (``bounded_faces(arr, zone=1)``, at most 2(n - 2) faces); of
    several n-gons the first in :func:`bounded_faces` order is taken.
    """
    for f in bounded_faces(arr, zone=1):
        if len(f) == arr.n:
            ids = f.line_ids
            k = ids.index(1)
            seq = ids[k:] + ids[:k]
            c = validate_cycle(seq)
            if c is None:
                raise ArrangementError(
                    "internal-invariant", f"n-gon boundary {seq} fails the two-run shape"
                )
            return c
    return None


def reconstruct_cycle(triangles: TriangleSet, n: int) -> GonalityCycle | None:
    """The unique cycle whose triangle list equals ``triangles``, or None.

    Labels 2..n are dealt in increasing order to the first run (holding 1)
    or the second.  Runs ascend and each triple consecutive in a run is
    listed, so a label joins a run of two or more only by closing a listed
    triple with its last two; a full deal is checked by :func:`cycle_triangles`.
    A list holds at most n triangles (n - 4 within the runs, four
    wrap-around ones mixing them), so a larger set fails at once.

    Whether a partial deal completes depends only on its state, the next
    label and the first two and last two labels of each run: later triangles
    read no other labels, and the next label with the runs shorter than two
    fixes how many listed ones the deal holds.  A state is at most nine labels
    and is expanded once, on an explicit stack, so the search is polynomial.
    """
    if n < 4:
        raise ArrangementError("n-out-of-range", "reconstruction needs n >= 4")
    want = {tuple(sorted(t)) for t in triangles}
    if len(want) > n:
        return None
    seen = set()
    stack = [((2, ((1,), (1,)), ((), ())), 0)]  # (state, deal: bits as in _deal)
    while stack:
        state, deal = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        x, first, second = state
        if x > n:
            c = _deal(n, deal)
            if c is not None and cycle_triangles(c) == want:
                return c
            continue
        for k, (head, tail) in ((1, second), (0, first)):  # first run popped first
            if len(tail) < 2 or (*tail, x) in want:
                runs = [first, second]
                runs[k] = ((*head, x)[:2], (*tail, x)[-2:])
                stack.append(((x + 1, *runs), deal | k << x))
    return None
