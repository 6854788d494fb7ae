"""Signed insertion orders for infinity-type arrangements.

An arrangement is *infinity type* when its lines can be inserted one by one
so that each new line keeps all previously created vertices strictly on one
side.  The record of such an insertion order is a *nomenclature*: the
permutation of line ids annotated with +1 when the new line leaves the
previous vertices on the origin's side and -1 when it separates them from
the origin.  The first three entries instead carry the sign pattern of the
triangle the first three lines form; sorted by id those signs always read
(+1, -1, +1) or (-1, +1, -1).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .arrangement import Arrangement, build_arrangement
from .fileio import MAX_DIGITS
from .geometry import (
    ArrangementError,
    direction_ladder,
    ladder_direction_vector,
    line,
    meet,
)

# labels follow the file loader's rule for integers
_TOKEN = re.compile(r"([0-9]{1,%d})\^([+-]1)" % MAX_DIGITS)


@dataclass(frozen=True)
class Nomenclature:
    """Entries (label, sign) by position; labels form a permutation of 1..n."""

    labels: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(self.signs) != n or any(s not in (1, -1) for s in self.signs):
            raise ArrangementError("bad-token", "signs must be +1/-1, one per label")
        if sorted(self.labels) != list(range(1, n + 1)):
            raise ArrangementError(
                "not-a-permutation", f"labels {self.labels} are not a permutation of 1..{n}"
            )
        if n < 3:
            raise ArrangementError(
                "bad-leading-signs", "need at least 3 entries to carry the triangle signs"
            )
        by_label = dict(zip(self.labels[:3], self.signs[:3]))
        i, j, k = sorted(self.labels[:3])
        if (by_label[i], by_label[j], by_label[k]) not in ((1, -1, 1), (-1, 1, -1)):
            raise ArrangementError(
                "bad-leading-signs",
                "the first three signs sorted by label must read +1,-1,+1 or -1,+1,-1",
            )

    @property
    def n(self) -> int:
        return len(self.labels)

    def label_at(self, pos: int) -> int:
        """Label at 1-based position."""
        return self.labels[pos - 1]

    def sign_at(self, pos: int) -> int:
        return self.signs[pos - 1]

    def position_of(self, label: int) -> int:
        """1-based position of a label."""
        return self.labels.index(label) + 1

    def negated(self) -> "Nomenclature":
        return Nomenclature(self.labels, tuple(-s for s in self.signs))

    def __str__(self) -> str:
        return format_nomenclature(self)


def parse_nomenclature(text: str) -> Nomenclature:
    """Parse "1^+1 2^-1 3^+1" style text (whitespace between tokens)."""
    tokens = text.split()
    labels, signs = [], []
    for tok in tokens:
        m = _TOKEN.fullmatch(tok)
        if not m:
            raise ArrangementError("bad-token", f"bad nomenclature token {tok[:40]!r}")
        labels.append(int(m.group(1)))
        signs.append(1 if m.group(2) == "+1" else -1)
    return Nomenclature(tuple(labels), tuple(signs))


def format_nomenclature(nom: Nomenclature) -> str:
    return " ".join(
        f"{lab}^{'+1' if s == 1 else '-1'}" for lab, s in zip(nom.labels, nom.signs)
    )


def _pattern_signs(arr: Arrangement, triple) -> dict[int, int]:
    """Triangle sign of each of the three lines: +1 iff the line leaves the
    opposite vertex on the origin's side (which is -1 under the convention)."""
    out = {}
    for x in triple:
        others = [y for y in triple if y != x]
        out[x] = 1 if arr.side_at(x, others[0], others[1]) == -1 else -1
    return out


def triangle_signs(arr: Arrangement) -> tuple[int, int, int]:
    """Sign pattern of a 3-line arrangement, ordered by ascending id."""
    if arr.n != 3:
        raise ArrangementError("too-few-lines", "triangle_signs needs exactly 3 lines")
    pat = _pattern_signs(arr, (1, 2, 3))
    return (pat[1], pat[2], pat[3])


def canonical_infinity_permutation(arr: Arrangement):
    """Greedy insertion order: repeatedly strip the at-infinity line with the
    largest id.  Returns the permutation as an insertion order (first created
    line first) or None when some stage of 3+ lines has no at-infinity line.

    The rule is complete: dropping a line from an insertion order leaves an
    insertion order of the rest, so every subset of an infinity-type
    arrangement is infinity type in the inherited order, stripping any line
    at infinity never strands the rule, and None comes back exactly when the
    arrangement is not infinity type.

    Read off the row ends.  Line m changes side along line i only at V_im, so
    the vertices on line i other than V_im lie on one side of m iff m is an
    end of row i, restricted to the remaining lines.  Any two lines share a
    vertex, so with three or more lines remaining those sides all agree when
    m is an end of every other remaining row: m is at infinity exactly then.
    ``ends[m]`` counts the remaining rows with m at an end.  A stripped line
    leaves every remaining row at one of its ends, so the stripped entries of
    each row are a prefix and a suffix of it, and the row keeps one pointer
    to its first and one to its last remaining entry; stripping a line moves
    one pointer of each remaining row by one step.  A stage costs O(n).
    """
    n = arr.n
    rows = (None,) + arr.order_rows
    first = [0] * (n + 1)
    last = [n - 2] * (n + 1)
    ends = [0] * (n + 1)
    for row in rows[1:]:
        ends[row[0]] += 1
        ends[row[-1]] += 1
    remaining = list(arr.ids)
    suffix = []
    while len(remaining) > 2:
        pick = max(
            (m for m in remaining if ends[m] == len(remaining) - 1), default=None
        )
        if pick is None:
            return None
        suffix.append(pick)
        remaining.remove(pick)
        row = rows[pick]
        ends[row[first[pick]]] -= 1
        ends[row[last[pick]]] -= 1
        for i in remaining:
            row = rows[i]
            if row[first[i]] == pick:
                first[i] += 1
                ends[row[first[i]]] += 1
            else:
                last[i] -= 1
                ends[row[last[i]]] += 1
    suffix.extend(sorted(remaining, reverse=True))
    return tuple(reversed(suffix))


def derive_nomenclature(arr: Arrangement, perm=None) -> Nomenclature:
    """Read the nomenclature of ``arr`` off a given insertion order.

    ``perm`` defaults to the canonical (greedy) infinity permutation.  The
    first three signs come from the triangle rule; each later sign is +1 iff
    the line keeps all vertices of its predecessors on the origin's side.
    Raises ``not-an-infinity-permutation`` when a prefix line sees vertices
    on both sides.
    """
    if perm is None:
        perm = canonical_infinity_permutation(arr)
        if perm is None:
            raise ArrangementError(
                "not-an-infinity-permutation", "arrangement is not recognized as infinity type"
            )
    perm = tuple(perm)
    if sorted(perm) != list(arr.ids):
        raise ArrangementError("not-a-permutation", f"{perm} is not a permutation of the ids")
    n = arr.n
    signs = [0] * n
    pat = _pattern_signs(arr, perm[:3])
    for pos in range(3):
        signs[pos] = pat[perm[pos]]
    # plus and minus fold the side bits of the prefix's vertices as in
    # canonical_infinity_permutation, one new line of the prefix at a time.
    bits = arr._side_bits
    plus = minus = 0
    for l in range(3, n + 1):
        q = perm[l - 2]
        for p in perm[: l - 2]:
            b = bits[(p, q) if p < q else (q, p)]
            plus |= b
            minus |= ~(b | 1 << p | 1 << q)
        m = perm[l - 1]
        if plus >> m & minus >> m & 1:
            raise ArrangementError(
                "not-an-infinity-permutation",
                f"line {m} (position {l}) sees vertices of its prefix on both sides",
            )
        a = -1 if plus >> m & 1 else 1
        if l == 3:
            # The triangle rule and the separation rule must agree here.
            if a != signs[2]:
                raise ArrangementError(
                    "internal-invariant",
                    "triangle/separation sign rules disagree at position 3",
                )
        else:
            signs[l - 1] = a
    return Nomenclature(perm, tuple(signs))


def realize_nomenclature(nom: Nomenclature, variant: int = 0) -> Arrangement:
    """Construct an arrangement whose nomenclature along ``nom``'s order is
    exactly ``nom``.

    Label m receives the m-th direction of an exact rational ladder, so ids
    come out equal to labels.  Lines are inserted in nomenclature order;
    each new line's x intercept is the nearest integer strictly beyond the
    bound that puts all existing vertices strictly on the required side:
    ``floor(bound) + 1`` for +1 (origin side) and ``ceil(bound) - 1`` for
    -1 (far side).  Whenever that would be a non-positive intercept, the
    configuration built so far is first translated in +x, which changes no
    established side: vertex-versus-line signs are translation invariant
    and the origin stays on side -1 of every line while intercepts stay
    positive.  Every line lies beyond all vertices before it, so its
    crossing order is fixed by the directions alone and the combinatorial
    type does not depend on which intercept beyond the bound is taken; an
    integer one keeps each line's coefficients those of its small ladder
    direction.

    The lines are kept in the frame of the first one and the translations
    summed in the integer ``shift``: every translation is along x, so the
    bound of a vertex in the current frame is ``shift`` plus its bound in
    the kept frame.  Each vertex is computed once, as an integer
    homogeneous triple, when its second line is placed; the extreme bound is
    found by integer cross-multiplication and rounded by floor division.
    """
    n = nom.n
    ladder = direction_ladder(n, variant)
    dirvec = {m: ladder_direction_vector(ladder[m - 1]) for m in range(1, n + 1)}
    placed: dict[int, object] = {}  # label -> line, in the first line's frame
    verts: list[tuple[int, int, int]] = []  # vertices of the placed lines, same frame
    shift = 0
    for pos in range(1, n + 1):
        label = nom.label_at(pos)
        want = nom.sign_at(pos)
        dx, dy = dirvec[label]
        a, b = dy, -dx
        if not verts:
            p = 1
        else:
            # bound of (X, Y, W) is x + (b/a)*y = (a*X + b*Y) / (a*W), a > 0, W > 0
            best_num, best_w = None, 1
            for x, y, w in verts:
                num = a * x + b * y
                if best_num is None or want * (num * best_w - best_num * w) > 0:
                    best_num, best_w = num, w
            den = a * best_w
            p = shift + (best_num // den + 1 if want == 1 else -(-best_num // den) - 1)
            if p <= 0:
                shift += 1 - p
                p = 1
        new = line(a, b, a * (p - shift))
        verts.extend(meet(new, ln) for ln in placed.values())
        placed[label] = new
    arr = build_arrangement(ln.translated(shift, 0) for ln in placed.values())
    for m in range(1, n + 1):
        if arr.line(m).direction != dirvec[m]:
            raise ArrangementError(
                "internal-invariant", "ladder order broke the id/label match"
            )
    return arr
