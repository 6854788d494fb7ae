"""Line arrangements: construction, vertex/order tables, faces and triangles.

An arrangement is a set of pairwise non-parallel, nowhere-concurrent,
non-horizontal lines, translated into the *conventional embedding*: every
pairwise intersection lies strictly inside the open first quadrant and
every line crosses the positive x axis.  Line ids 1..n follow strictly
increasing direction angle.

With positive x intercepts the origin sits on side -1 of every line, so
"does L separate the origin from a vertex" reduces to a single exact side
sign; all derived combinatorics are translation invariant.

Every predicate here runs on the integer kernel: vertices are integer
homogeneous triples (X, Y, W) with W > 0, and face orientation is the sign
of a 3x3 integer determinant.  The kernel is built from the rows: one exact
sort per line, by one integer key per vertex, gives the crossing order of
every line (its local sequence) in O(n^2 log n), and a prefix mask along
each row gives the side signs of all lines at each vertex as one int, bit m
for line m.  The triangle oracle and the face walk are read off these bits.
The walk starts from line 1 and resumes line by line, so the gonality
cycle is found in line 1's zone.  :class:`fractions.Fraction` appears
only in the two offsets of the translation into conventional position and
in the ``vertices`` table and error texts offered to callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import chain, combinations, groupby
from operator import lt

from .geometry import ArrangementError, Line, Point, cmp_angle, line, meet, side

VertexKey = tuple[int, int]  # (i, j) with i < j, the pair of line ids
Triangle = tuple[int, int, int]  # sorted line ids
TriangleSet = set  # of Triangle
Rows = tuple[tuple[int, ...], ...]  # row i - 1: the other ids in crossing order


def _vkey(i: int, j: int) -> VertexKey:
    return (i, j) if i < j else (j, i)


class Arrangement:
    """Immutable container for the lines plus their derived tables.

    Construct through :func:`build_arrangement`, which validates, angle-sorts
    and conventionally embeds the lines and hands over their tables: each
    vertex as an integer triple (X, Y, W) with W > 0, the ``order_rows`` (row
    i - 1: the other ids along line i's conventional orientation) and the
    side bits (bit m of vertex (i, j) is set iff line m has side +1 there;
    read single signs through :meth:`side_at`).
    """

    def __init__(self, lines: tuple[Line, ...], homog: dict, rows: Rows, bits: dict):
        self.lines = lines
        self._vertex_homog = homog
        self.order_rows = rows
        self._side_bits = bits

    @property
    def n(self) -> int:
        return len(self.lines)

    @property
    def ids(self) -> range:
        return range(1, self.n + 1)

    def line(self, i: int) -> Line:
        return self.lines[i - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Arrangement) and self.lines == other.lines

    def __hash__(self) -> int:
        return hash(self.lines)

    def __repr__(self) -> str:
        return f"Arrangement(n={self.n})"

    @cached_property
    def vertices(self) -> dict[VertexKey, Point]:
        return {
            k: Point(Fraction(x, w), Fraction(y, w))
            for k, (x, y, w) in self._vertex_homog.items()
        }

    def vertex(self, i: int, j: int) -> Point:
        return self.vertices[_vkey(i, j)]

    def side_at(self, m: int, i: int, j: int) -> int:
        """Side sign of line m at the vertex of lines i and j (m not in {i,j})."""
        key = (i, j) if i < j else (j, i)
        if m > 0 and self._side_bits[key] >> m & 1:
            return 1
        # a clear bit is side -1 only for a line off the vertex
        if m == i or m == j or not 0 < m <= len(self.lines):
            raise KeyError((m, key))
        return -1

    @cached_property
    def _face_walk(self) -> _FaceWalk:
        if self.n < 3:
            raise ArrangementError("too-few-lines", "faces need at least 3 lines")
        return _FaceWalk(self.order_rows, self._side_bits, self._vertex_homog)

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        """The bounded faces, sorted by size then edges; read them through
        :func:`bounded_faces`."""
        return tuple(sorted(self._face_walk.through(self.n), key=_face_order))


def _homogeneous_vertices(lines) -> dict[VertexKey, tuple[int, int, int]]:
    """The vertex of every pair of ``lines`` (ids from 1), in combination order."""
    return {
        (i, j): meet(li, lj)
        for (i, li), (j, lj) in combinations(enumerate(lines, 1), 2)
    }


def _rows_and_bits_of(lines, homog) -> tuple[Rows, dict[VertexKey, int]]:
    """The crossing orders and side bits of ``lines`` (ids from 1) with
    vertices ``homog``, from one exact sort per line.

    Every line is non-horizontal and runs towards increasing y, so each row
    sorts its crossings by y.  A vertex (X, Y, W) gets the key
    ``(Y << s) // W`` with ``s = 2 * bitlen(max W) + 1``: two distinct
    values Y/W differ by at least 1 / (W1 * W2) > 2**-s, which the shift
    scales past 1, so the keys order the crossings exactly, and one key
    serves both rows of the vertex.  Two crossings on one line share a key
    iff they are one point, so equal neighbours in a sorted row are exactly
    the concurrencies; the least concurrent triple in combination order is
    reported.

    The side sign of line k grows along line i iff k > i (the ids follow the
    direction angle) and is 0 at V_ik.  So line k has side +1 at V_ij iff
    "k crosses line i before j" equals "k > i": the bits of V_ij (i < j) are
    the set of ids before j in row i, xor the ids below i.
    """
    if any(l1.a * l2.b <= l2.a * l1.b for l1, l2 in zip(lines, lines[1:])):
        raise ArrangementError(
            "internal-invariant", "line ids do not follow the direction angle"
        )
    n = len(lines)
    shift = 2 * max(w for _, _, w in homog.values()).bit_length() + 1
    keys = [[0] * (n + 1) for _ in range(n + 1)]  # keys[i][j] of V_ij, both ways
    for (i, j), (_, y, w) in homog.items():
        keys[i][j] = keys[j][i] = (y << shift) // w
    rows = []
    bits = {}
    tied = []
    for i in range(1, n + 1):
        key = keys[i].__getitem__
        row = sorted(chain(range(1, i), range(i + 1, n + 1)), key=key)
        ordered = [key(j) for j in row]
        if not all(map(lt, ordered, ordered[1:])):
            tied.append(i)
        low = (1 << i) - 2
        before = 0
        for j in row:
            if j > i:
                bits[(i, j)] = before ^ low
            before |= 1 << j
        rows.append(tuple(row))
    if tied:
        # a run of equal keys in row i: line i and the run share one point
        i, j, k = min(
            tuple(sorted([i, *run])[:3])
            for i in tied
            for run in (list(g) for _, g in groupby(rows[i - 1], keys[i].__getitem__))
            if len(run) > 1
        )
        x, y, w = homog[(i, j)]
        v = Point(Fraction(x, w), Fraction(y, w))
        raise ArrangementError("concurrent-triple", f"lines {i},{j},{k} pass through {v}")
    return tuple(rows), bits


def _reject_parallel(lines) -> None:
    """Raise ``parallel-lines`` naming the first pair of parallel or equal
    lines, counted from 1 in input order."""
    for (p, lp), (q, lq) in combinations(enumerate(lines, 1), 2):
        if lp.a * lq.b == lq.a * lp.b:
            raise ArrangementError(
                "parallel-lines", f"input lines {p} and {q} are parallel: {lp} / {lq}"
            )


def build_arrangement(raw) -> Arrangement:
    """Validate, angle-sort and conventionally embed a set of lines.

    ``raw`` is an iterable of :class:`Line` or coefficient triples (a, b, c).
    Ids 1..n are assigned in strictly increasing angle order, then the whole
    configuration is translated so every vertex lies strictly inside the open
    first quadrant and every x intercept is strictly positive, with an exact
    margin of 1 beyond whichever bound binds.  An already-conventional input
    is left untouched.
    """
    lines = []
    for item in raw:
        if isinstance(item, Line):
            lines.append(item)
        else:
            a, b, c = item
            lines.append(line(a, b, c))
    if len(lines) < 2:
        raise ArrangementError("too-few-lines", "an arrangement needs at least 2 lines")

    _reject_parallel(lines)
    lines.sort(key=cmp_to_key(cmp_angle))

    # Crossing orders and side signs are translation invariant, so those of
    # the input lines, which the concurrency check computes anyway, serve the
    # translated ones.
    homog = _homogeneous_vertices(lines)
    rows, bits = _rows_and_bits_of(lines, homog)

    # ty lifts the lowest vertex to y = 1, then tx moves the leftmost vertex
    # or x intercept to x = 1; each is needed only when that bound is <= 0.
    # Along a non-horizontal line y and x are both monotone in row order, so
    # the extremes sit at the two ends of each row.
    ends = [
        homog[_vkey(i, j)] for i, row in enumerate(rows, 1) for j in (row[0], row[-1])
    ]
    min_vy = Fraction(*_least((y, w) for _, y, w in ends))
    ty = 1 - min_vy if min_vy <= 0 else 0
    p, q = ty.numerator, ty.denominator
    min_x = Fraction(*_least(chain(
        ((x, w) for x, _, w in ends),
        ((ln.c * q + ln.b * p, ln.a * q) for ln in lines),
    )))
    tx = 1 - min_x if min_x <= 0 else 0
    if tx or ty:
        # the vertices move too
        lines = [ln.translated(tx, ty) for ln in lines]
        homog = _homogeneous_vertices(lines)
    arr = Arrangement(tuple(lines), homog, rows, bits)
    if not all(x > 0 and y > 0 for x, y, _ in homog.values()):
        raise ArrangementError(
            "internal-invariant", "a vertex lies outside the open first quadrant"
        )
    if not all(ln.c > 0 for ln in arr.lines):
        raise ArrangementError("internal-invariant", "an x intercept is not positive")
    return arr


def _least(pairs) -> tuple[int, int]:
    """The smallest of some (numerator, positive denominator) pairs, compared
    by cross-multiplication."""
    it = iter(pairs)
    best_num, best_den = next(it)
    for num, den in it:
        if num * best_den < best_num * den:
            best_num, best_den = num, den
    return best_num, best_den


def corner_points(arr: Arrangement) -> set[VertexKey]:
    """Pairs {i, j} whose vertex is the extreme crossing on both its lines."""
    rows = arr.order_rows
    out = set()
    for i, j in combinations(arr.ids, 2):
        ri, rj = rows[i - 1], rows[j - 1]
        if (ri[0] == j or ri[-1] == j) and (rj[0] == i or rj[-1] == i):
            out.add((i, j))
    return out


def triangle_faces_oracle(arr: Arrangement) -> TriangleSet:
    """Ground-truth triangle faces, by definition: {i,j,k} is a triangle iff
    no other line touches or crosses the closed triangle of the three mutual
    vertices, i.e. every other line sees all three vertices on one strict side.

    With the side bits that reads: the three vertices' bits agree everywhere
    except at i, j and k themselves.

    Only pairs adjacent in a row are candidates.  Line m changes side along
    line i only where it crosses it, so for i < j, k the bits of V_ij and V_ik
    differ, outside {i, j, k}, exactly at the lines crossing row i strictly
    between j and k; the definition therefore holds only for j and k adjacent
    in row i.  Each row i gives its adjacent pairs with both ids above i,
    at most n(n - 2) candidates in all against C(n, 3) triples, and each is
    confirmed by the definition test.
    """
    if arr.n < 3:
        raise ArrangementError("too-few-lines", "triangles need at least 3 lines")
    bits = arr._side_bits
    full = (1 << (arr.n + 1)) - 2
    out = set()
    for i, row in enumerate(arr.order_rows, 1):
        for j, k in zip(row, row[1:]):
            if j < i or k < i:
                continue
            if k < j:
                j, k = k, j
            b_ij, b_jk, b_ik = bits[(i, j)], bits[(j, k)], bits[(i, k)]
            if not ((b_ij ^ b_jk) | (b_ij ^ b_ik)) & full & ~(1 << i | 1 << j | 1 << k):
                out.add((i, j, k))
    return out


@dataclass(frozen=True)
class Face:
    """A bounded face: (line id, start vertex) edges in anticlockwise order."""

    edges: tuple[tuple[int, VertexKey], ...]

    @property
    def line_ids(self) -> tuple[int, ...]:
        return tuple(e[0] for e in self.edges)

    @property
    def segments(self) -> set[frozenset]:
        """Undirected boundary segments as frozensets of vertex keys."""
        out = set()
        for k, (_, vk) in enumerate(self.edges):
            nxt = self.edges[(k + 1) % len(self.edges)][1]
            out.add(frozenset((vk, nxt)))
        return out

    def __len__(self) -> int:
        return len(self.edges)


def bounded_faces(arr: Arrangement, zone: int | None = None) -> list[Face]:
    """All bounded faces via anticlockwise half-edge traversal, sorted by
    size then edges; with ``zone``, only those with an edge on line ``zone``.

    A half-edge runs along one line between two consecutive crossings.  Only
    two lines meet at each vertex of a simple arrangement, so the face on the
    left of a half-edge continues at its end vertex by turning left onto the
    other line there.  A walk that runs off the end of a crossing order has
    reached a ray and belongs to an unbounded face.  The walk runs at most
    once per half-edge and arrangement (see :class:`_FaceWalk`); later calls
    return a fresh list of the same faces.

    ``zone`` walks the starts of lines 1..zone only, so ``zone=1`` costs the
    O(n) half-edges of line 1's zone (the zone theorem) against O(n^2) for
    all faces; a later call resumes the same walk.
    """
    if zone is None:
        return list(arr.faces)
    if not 0 < zone <= arr.n:
        raise ArrangementError("bad-position", f"line {zone} outside 1..{arr.n}")
    found = arr._face_walk.through(zone)
    return sorted((f for f in found if zone in f.line_ids), key=_face_order)


def _face_order(f: Face) -> tuple:
    return (len(f), f.edges)


def _orientation(p, q, r) -> int:
    """The 3x3 determinant of three homogeneous points with W > 0: positive
    iff p, q, r turn anticlockwise."""
    (px, py, pw), (qx, qy, qw), (rx, ry, rw) = p, q, r
    return (
        px * (qy * rw - qw * ry)
        - py * (qx * rw - qw * rx)
        + pw * (qx * ry - qy * rx)
    )


class _FaceWalk:
    """The face walk of one arrangement, resumable line by line.

    Half-edge (i, p, s) leaves the crossing at index p of row i towards index
    p + s.  Arriving at V_ij along line i it turns left onto line j, whose
    direction lies anticlockwise of line i's iff j > i; so the step keeps its
    sign for i < j and flips it for i > j.  The index of i in row j counts
    the lines crossing j before i, read off the side bits of V_ij as in
    :func:`_rows_and_bits_of`, so a walk costs only the half-edges it visits.

    Starts are taken line by line, line 1 first.  Walking the starts of line
    1 alone finds every bounded face with an edge on line 1, the zone of line
    1, at O(n) half-edges by the zone theorem; :meth:`through` resumes with
    later lines, and no half-edge is walked twice.

    A closed walk is a convex polygon (faces of a line arrangement are
    convex), so it is a bounded face traversed anticlockwise exactly when
    every corner turns anticlockwise, which is checked on the integer
    vertices and is at least as strict as a positive area.

    The walk holds the arrangement's tables, never the arrangement, so the
    arrangement that caches it forms no reference cycle.
    """

    __slots__ = ("rows", "bits", "homog", "seen", "faces", "lines_done")

    def __init__(self, rows, bits, homog):
        self.rows = (None,) + rows
        self.bits = bits
        self.homog = homog
        self.seen = set()
        self.faces = []  # in the order found
        self.lines_done = 0

    def through(self, last_line: int) -> list[Face]:
        """Walk the starts of lines up to ``last_line`` not walked yet; the
        faces found so far, in the order found (callers must not modify)."""
        rows, bits, seen = self.rows, self.bits, self.seen
        last = len(rows) - 3  # the highest index of a row
        for m in range(self.lines_done + 1, last_line + 1):
            for start in ((m, p, s) for p in range(last + 1) for s in (1, -1)):
                if start in seen or not 0 <= start[1] + start[2] <= last:
                    continue
                cycle = []
                h = start
                while True:
                    seen.add(h)
                    cycle.append(h)
                    i, p, s = h
                    j = rows[i][p + s]
                    if i < j:
                        h = (j, (bits[(i, j)] ^ ((1 << j) - 2)).bit_count() - 1, s)
                    else:
                        h = (j, (bits[(j, i)] ^ ((1 << j) - 2)).bit_count(), -s)
                    if h == start or h in seen or not 0 <= h[1] + h[2] <= last:
                        break
                if h == start:
                    self.faces.append(self._face(cycle))
            self.lines_done = m
        if self.lines_done == len(rows) - 1:
            seen.clear()  # every start is walked; hold no half-edges any longer
        return self.faces

    def _face(self, cycle) -> Face:
        rows, homog = self.rows, self.homog
        edges = tuple((i, _vkey(i, rows[i][p])) for i, p, _ in cycle)
        pts = [homog[vk] for _, vk in edges]
        if not all(
            _orientation(pts[k - 1], pts[k], pts[(k + 1) % len(pts)]) > 0
            for k in range(len(pts))
        ):
            raise ArrangementError(
                "internal-invariant", f"face walk {cycle} is not an anticlockwise convex polygon"
            )
        k = min(range(len(edges)), key=lambda t: edges[t])
        return Face(edges[k:] + edges[:k])


def triangles_from_faces(arr: Arrangement) -> TriangleSet:
    """Triangle set read off the face enumeration (independent of the oracle)."""
    return {
        tuple(sorted(f.line_ids)) for f in bounded_faces(arr) if len(f) == 3
    }


def is_isomorphic_trivial(a1: Arrangement, a2: Arrangement) -> bool:
    """Identity-on-ids isomorphism: for every i, row i of the order tables
    agrees verbatim or fully reversed, the choice made per line."""
    if a1.n != a2.n:
        return False
    for r1, r2 in zip(a1.order_rows, a2.order_rows):
        if r1 != r2 and r1 != tuple(reversed(r2)):
            return False
    return True


def triangle_equivalence_classes(triangles: TriangleSet) -> list[set]:
    """Partition under the transitive closure of sharing exactly two ids.

    Two distinct triangles share exactly two ids iff they share a pair, so
    each triangle is joined to the first triangle seen with each of its three
    pairs.
    """
    items = sorted(triangles)
    parent = {t: t for t in items}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    first: dict[tuple[int, int], Triangle] = {}
    for t in items:
        i, j, k = sorted(t)
        for pair in ((i, j), (i, k), (j, k)):
            other = first.setdefault(pair, t)
            if other is not t:
                r1, r2 = find(other), find(t)
                if r1 != r2:
                    parent[r2] = r1

    groups: dict[Triangle, set] = {}
    for t in items:
        groups.setdefault(find(t), set()).add(t)
    return sorted(groups.values(), key=lambda g: min(g))


def at_infinity_in_subset(arr: Arrangement, m: int, subset) -> bool:
    """Is line m at infinity w.r.t. the sub-arrangement on ``subset`` ids?

    True iff all vertices of subset \\ {m} share one strict side of line m.
    Side signs are translation invariant, so the check needs no re-embedding
    of the sub-arrangement.  Vacuously true when fewer than two other lines
    remain.
    """
    others = [i for i in subset if i != m]
    want = 0
    for i, j in combinations(others, 2):
        s = arr.side_at(m, i, j)
        if want == 0:
            want = s
        elif s != want:
            return False
    return True


def is_line_at_infinity_geom(arr: Arrangement, which) -> bool:
    """Line-at-infinity test, geometric form.

    ``which`` is a member id (vertices on the line itself are allowed) or an
    external :class:`Line` (must keep general position, else
    ``degenerate-extension``); true iff the relevant vertices all lie on one
    strict side.
    """
    if isinstance(which, int):
        if which not in arr.ids:
            raise ArrangementError("bad-position", f"no line with id {which}")
        return at_infinity_in_subset(arr, which, arr.ids)
    ln: Line = which
    for i, member in enumerate(arr.lines, 1):
        if member.a * ln.b == ln.a * member.b:
            raise ArrangementError(
                "degenerate-extension", f"external line is parallel to line {i}"
            )
    sides = set()
    for v in arr.vertices.values():
        s = side(ln, v)
        if s == 0:
            raise ArrangementError(
                "degenerate-extension", "external line passes through a vertex"
            )
        sides.add(s)
    return len(sides) == 1


def missed_quadrant(arr: Arrangement, i: int, j: int, m: int) -> tuple[int, int]:
    """The one sign pair (side of L_i, side of L_j) that line m never realizes.

    In general position every other line meets exactly three of the four
    quadrants cut out by lines i and j; the answer identifies the fourth.

    Along line m the side of L_i changes only at V_im and the side of L_j
    only at V_jm.  The segment between them therefore realizes the signs
    (side of L_i at V_jm, side of L_j at V_im); each ray beyond it flips one
    of the two, and the quadrant never met is the one with both flipped.
    """
    return (-arr.side_at(i, j, m), -arr.side_at(j, i, m))


def corner_points_quadrant(arr: Arrangement) -> set[VertexKey]:
    """Corner points, independently: {i,j} is a corner iff every other line
    misses the same quadrant around the vertex of i and j."""
    out = set()
    for i, j in combinations(arr.ids, 2):
        quads = {missed_quadrant(arr, i, j, m) for m in arr.ids if m not in (i, j)}
        if len(quads) <= 1:
            out.add((i, j))
    return out
