"""Purely symbolic procedures on nomenclatures: no geometry, only order
statements over the labels and signs.

Two predicates live here.  ``is_nomenclature_triangle`` decides from the
signed insertion order alone whether three of the lines bound a triangular
face.  ``is_line_at_infinity_symbolic`` decides whether the line at a given
position has all of the arrangement's vertices on one side.  Both are
cross-checked against their geometric counterparts by the fuzz harness.
"""

from __future__ import annotations

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
    """
    labels, signs = nom.labels, nom.signs
    n = nom.n
    out = {tuple(sorted(labels[:3]))}  # positions (1, 2, 3)
    for i in range(n - 2):  # 0-based positions from here on
        li = labels[i]
        for j in range(i + 1, n - 1):
            lj, aj = labels[j], signs[j]
            lo, hi = (li, lj) if li < lj else (lj, li)
            outside = not any(lo < v < hi for v in labels[: j + 1])
            inside = all(lo <= v <= hi for v in labels[: j + 1])
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

    The last-inserted line always qualifies.  A -1 sign at t is handled by
    evaluating the fully sign-negated nomenclature, where the same line
    carries +1.  For +1 the branch is chosen by u, the last later position
    with a +1 sign: labels grow from label(t) (branch below), no such u
    exists (middle branch), or labels shrink from label(t) (branch above);
    each branch is a conjunction of monotonicity and sandwich conditions on
    the labels, with empty ranges vacuously fine.
    """
    if not 1 <= t <= nom.n:
        raise ArrangementError("bad-position", f"position {t} outside 1..{nom.n}")
    if t == nom.n:
        return True
    if nom.sign_at(t) == -1:
        return is_line_at_infinity_symbolic(nom.negated(), t)

    lab, sgn = nom.label_at, nom.sign_at
    vt = lab(t)
    after = range(t + 1, nom.n + 1)
    before = [lab(p) for p in range(1, t)]
    plus_after = [lab(p) for p in after if sgn(p) == 1]
    minus_after = [lab(p) for p in after if sgn(p) == -1]
    u = max((p for p in after if sgn(p) == 1), default=None)

    if u is None:
        # Everything after t separates; the lines close in on line t from
        # both sides, and everything placed before t stays outside the span
        # of everything placed after.
        low = [v for v in minus_after if v < vt]
        high = [v for v in minus_after if v > vt]
        if not (_increasing(low) and _decreasing(high)):
            return False
        if any(v > vt and any(v < w for w in minus_after) for v in before):
            return False
        if any(v < vt and any(v > w for w in minus_after) for v in before):
            return False
        return True

    vu = lab(u)
    minus_between = [lab(p) for p in range(t + 1, u) if sgn(p) == -1]
    after_u = [lab(p) for p in range(u + 1, nom.n + 1)]
    if not all(sgn(p) == -1 for p in range(u + 1, nom.n + 1)):
        raise ArrangementError("internal-invariant", "a +1 sign follows the last +1 position")
    low_u = [v for v in after_u if v < vt]
    high_u = [v for v in after_u if v > vt]

    if vt < vu:
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
    # vu < vt: the mirror image of the previous branch under reversing the
    # label order, which swaps the roles of the low and high groups.
    return (
        all(v < vt for v in plus_after)
        and _decreasing(plus_after)
        and all(m > q for m in minus_after for q in plus_after)
        and all(
            v < vt
            and all(m > v for m in minus_after)
            and all(v > q for q in plus_after)
            for v in before
        )
        and all(v < vt for v in minus_between)
        and _increasing(minus_between)
        and _increasing(low_u)
        and _decreasing(high_u)
        and all(l > m for l in low_u for m in minus_between)
    )
