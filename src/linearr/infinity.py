"""Purely symbolic procedures on nomenclatures: no geometry, only order
statements over the labels and signs.

Two predicates live here.  ``is_nomenclature_triangle`` decides from the
signed insertion order alone whether three of the lines bound a triangular
face.  ``is_line_at_infinity_symbolic`` decides whether the line at a given
position has all of the arrangement's vertices on one side.  Both are
cross-checked against their geometric counterparts by the fuzz harness.
"""

from __future__ import annotations

from bisect import bisect_right, insort

from .arrangement import TriangleSet
from .geometry import ArrangementError, sign
from .nomenclature import Nomenclature


def _check_positions(nom: Nomenclature, *positions):
    for p in positions:
        if not 1 <= p <= nom.n:
            raise ArrangementError("bad-positions", f"position {p} outside 1..{nom.n}")


def is_nomenclature_triangle(nom: Nomenclature, i: int, j: int, k: int) -> bool:
    """Do the lines at positions i < j < k bound a triangle of the arrangement?

    Positions (1, 2, 3) always do.  Otherwise the labels of the first k
    positions must avoid the open interval between label(i) and label(j)
    entirely, or fall inside its closed version entirely; each case then
    pins every sign from position j+1 through k:

      outside case: sign(k) = sign(sign(j) * (lab(j)-lab(i)) * (lab(k)-lab(j)))
                    and each l in between carries the opposite of its own
                    such product;
      inside  case: sign(k) = sign(j) and each l in between carries -sign(j).

    The two cases exclude each other as soon as k >= 3, since a closed
    integer interval holding three distinct values has a strict interior.
    """
    _check_positions(nom, i, j, k)
    if not i < j < k:
        raise ArrangementError("bad-positions", f"need i < j < k, got {(i, j, k)}")
    if (i, j, k) == (1, 2, 3):
        return True
    lab, sgn = nom.label_at, nom.sign_at
    lo, hi = sorted((lab(i), lab(j)))
    prefix = [lab(p) for p in range(1, k + 1)]
    if all(not lo < v < hi for v in prefix):
        aj = sgn(j)
        if sgn(k) != sign(aj * (lab(j) - lab(i)) * (lab(k) - lab(j))):
            return False
        return all(
            sgn(l) == -sign(aj * (lab(j) - lab(i)) * (lab(l) - lab(j)))
            for l in range(j + 1, k)
        )
    if all(lo <= v <= hi for v in prefix):
        aj = sgn(j)
        if sgn(k) != aj:
            return False
        return all(sgn(l) == -aj for l in range(j + 1, k))
    return False


def nomenclature_triangles(nom: Nomenclature) -> TriangleSet:
    """The full triangle set read off the nomenclature, as sorted label triples.

    The rule of :func:`is_nomenclature_triangle`, evaluated for each pair of
    positions i < j by one upward scan over k.  Each case of the rule carries
    one flag: its prefix condition held through position k and every
    position between j and k carried the sign the case asks of an
    in-between line.  A case whose flag dies stays dead for every larger k,
    so the scan stops once both flags are dead.

    The flags start from the sorted labels of the positions up to j, kept
    with one insertion per j: no label lies strictly between lo and hi iff
    the first label above lo is hi, and every label lies in [lo, hi] iff lo
    and hi are the least and the greatest.  That is O(n^2 log n) before the
    k scans.
    """
    labels, signs = nom.labels, nom.signs
    n = nom.n
    out = {tuple(sorted(labels[:3]))}  # positions (1, 2, 3)
    prefix = [labels[0]]  # 0-based positions from here on
    for j in range(1, n - 1):
        lj, aj = labels[j], signs[j]
        insort(prefix, lj)
        least, greatest = prefix[0], prefix[-1]
        for i in range(j):
            li = labels[i]
            lo, hi = (li, lj) if li < lj else (lj, li)
            outside = prefix[bisect_right(prefix, lo)] == hi
            inside = lo == least and hi == greatest
            turn = aj if lj > li else -aj  # aj * sign(lab(j) - lab(i))
            for k in range(j + 1, n):
                lk, sk = labels[k], signs[k]
                outside = outside and not lo < lk < hi
                inside = inside and lo <= lk <= hi
                if outside:
                    want = turn if lk > lj else -turn
                elif inside:
                    want = aj
                else:
                    break
                if sk == want:
                    out.add(tuple(sorted((li, lj, lk))))
                # as an in-between position for larger k, k needs -want
                outside = outside and sk == -want
                inside = inside and sk == -want
    return out


def _increasing(vals) -> bool:
    return all(a < b for a, b in zip(vals, vals[1:]))


def _decreasing(vals) -> bool:
    return all(a > b for a, b in zip(vals, vals[1:]))


def is_line_at_infinity_symbolic(nom: Nomenclature, t: int) -> bool:
    """Does the line at position t have every vertex on one side, symbolically?

    The last-inserted line always qualifies.  The rule is a set of order
    statements on the labels and signs, so it reads the same under negating
    every sign and under reflecting the labels (x -> n + 1 - x).  A -1 sign
    at t is therefore handled on the negated signs, where the same line
    carries +1, and :func:`_at_infinity` reflects the labels when they
    shrink from label(t).
    """
    if not 1 <= t <= nom.n:
        raise ArrangementError("bad-position", f"position {t} outside 1..{nom.n}")
    if t == nom.n:
        return True
    signs = (0,) + nom.signs
    if signs[t] == -1:
        signs = tuple(-s for s in signs)
    return _at_infinity((0,) + nom.labels, signs, t)


def _at_infinity(lab: tuple[int, ...], sgn: tuple[int, ...], t: int) -> bool:
    """The rule for a +1 sign at position t < n, on labels and signs indexed
    by position (index 0 unused).  The branch is chosen by u, the last later
    position with a +1 sign: none, or label(t) < label(u), after reflecting
    labels that shrink from label(t).  Each branch is a conjunction of
    monotonicity and sandwich conditions, with empty ranges vacuously fine.
    """
    n = len(lab) - 1
    vt = lab[t]
    after = range(t + 1, n + 1)
    u = max((p for p in after if sgn[p] == 1), default=None)
    if u is not None and lab[u] < vt:
        return _at_infinity(tuple(n + 1 - v for v in lab), sgn, t)
    before = lab[1:t]
    minus_after = [lab[p] for p in after if sgn[p] == -1]

    if u is None:
        # Everything after t separates and closes in on line t from both
        # sides; everything before t stays outside the span of what follows.
        return (
            _increasing([v for v in minus_after if v < vt])
            and _decreasing([v for v in minus_after if v > vt])
            and not any(v > vt and any(v < w for w in minus_after) for v in before)
            and not any(v < vt and any(v > w for w in minus_after) for v in before)
        )

    # every position after u carries -1
    plus_after = [lab[p] for p in after if sgn[p] == 1]
    minus_between = [lab[p] for p in range(t + 1, u) if sgn[p] == -1]
    after_u = lab[u + 1:]
    low_u = [v for v in after_u if v < vt]
    high_u = [v for v in after_u if v > vt]
    return (
        all(v > vt for v in plus_after)
        and _increasing(plus_after)
        and all(m < q for m in minus_after for q in plus_after)
        and all(
            v > vt
            and all(m < v for m in minus_after)
            and all(v < q for q in plus_after)
            for v in before
        )
        and all(v > vt for v in minus_between)
        and _decreasing(minus_between)
        and _increasing(low_u)
        and _decreasing(high_u)
        and all(h < m for h in high_u for m in minus_between)
    )
