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
homogeneous triples (X, Y, W) with W > 0, the side of line m at a vertex is
the sign of ``a*X + b*Y - c*W``, and face orientation is the sign of a 3x3
integer determinant.  :class:`fractions.Fraction` appears only in the
O(n^2) translation into conventional position, as the sort key of the
order rows, and in the ``vertices`` table offered to callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import combinations

from .geometry import ArrangementError, Line, Point, cmp_angle, line, meet, side

VertexKey = tuple[int, int]  # (i, j) with i < j, the pair of line ids
Triangle = tuple[int, int, int]  # sorted line ids
TriangleSet = set  # of Triangle


def _vkey(i: int, j: int) -> VertexKey:
    return (i, j) if i < j else (j, i)


class Arrangement:
    """Immutable container for the lines plus cached derived tables.

    Construct through :func:`build_arrangement`; the constructor assumes the
    lines are already validated, angle-sorted and conventionally embedded.
    """

    def __init__(self, lines: tuple[Line, ...]):
        self.lines = lines

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
    def _vertex_homog(self) -> dict[VertexKey, tuple[int, int, int]]:
        """Vertices as integer homogeneous triples (X, Y, W), W > 0."""
        return _homogeneous_vertices(self.lines)

    @cached_property
    def vertices(self) -> dict[VertexKey, Point]:
        return {
            k: Point(Fraction(x, w), Fraction(y, w))
            for k, (x, y, w) in self._vertex_homog.items()
        }

    def vertex(self, i: int, j: int) -> Point:
        return self.vertices[_vkey(i, j)]

    @cached_property
    def _side_table(self) -> dict[tuple[int, VertexKey], int]:
        """Exact side sign of every line at every vertex not on it."""
        out = {}
        for key, (x, y, w) in self._vertex_homog.items():
            i, j = key
            for m, lm in enumerate(self.lines, 1):
                if m == i or m == j:
                    continue
                v = lm.a * x + lm.b * y - lm.c * w
                if v == 0:
                    raise ArrangementError(
                        "concurrent-triple",
                        f"lines {i},{j},{m} pass through one point",
                    )
                out[(m, key)] = 1 if v > 0 else -1
        return out

    def side_at(self, m: int, i: int, j: int) -> int:
        """Side sign of line m at the vertex of lines i and j (m not in {i,j})."""
        return self._side_table[(m, _vkey(i, j))]

    @cached_property
    def order_rows(self) -> tuple[tuple[int, ...], ...]:
        """Row i: the other ids sorted along line i's conventional orientation."""
        rows = []
        for i, li in enumerate(self.lines, 1):
            dx, dy = li.direction

            def param(j: int) -> Fraction:
                x, y, w = self._vertex_homog[_vkey(i, j)]
                return Fraction(dx * x + dy * y, w)

            others = [j for j in self.ids if j != i]
            others.sort(key=param)
            rows.append(tuple(others))
        return tuple(rows)

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        """The bounded faces, walked once per arrangement; read them through
        :func:`bounded_faces`."""
        return tuple(_walk_faces(self))


def _homogeneous_vertices(lines) -> dict[VertexKey, tuple[int, int, int]]:
    """The vertex of every pair of ``lines`` (ids from 1), in combination order."""
    return {
        (i, j): meet(li, lj)
        for (i, li), (j, lj) in combinations(enumerate(lines, 1), 2)
    }


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

    for (p, lp), (q, lq) in combinations(enumerate(lines), 2):
        if lp.a * lq.b == lq.a * lp.b:
            raise ArrangementError(
                "parallel-lines", f"input lines {p} and {q} are parallel: {lp} / {lq}"
            )

    lines.sort(key=cmp_to_key(cmp_angle))

    # The first concurrent triple in combination order of its pair, then of
    # m: any third line through the vertex of an earliest such pair (i, j)
    # has an id above j, else an earlier pair would hold the same triple.
    homog = _homogeneous_vertices(lines)
    for (i, j), (x, y, w) in homog.items():
        for m in range(j + 1, len(lines) + 1):
            lm = lines[m - 1]
            if lm.a * x + lm.b * y == lm.c * w:
                v = Point(Fraction(x, w), Fraction(y, w))
                raise ArrangementError(
                    "concurrent-triple", f"lines {i},{j},{m} pass through {v}"
                )

    min_vy = min(Fraction(y, w) for _, y, w in homog.values())
    ty = Fraction(1) - min_vy if min_vy <= 0 else Fraction(0)
    min_x = min(
        min(Fraction(x, w) for x, _, w in homog.values()),
        min(ln.x_intercept() + Fraction(ln.b, ln.a) * ty for ln in lines),
    )
    tx = Fraction(1) - min_x if min_x <= 0 else Fraction(0)
    if tx or ty:
        lines = [ln.translated(tx, ty) for ln in lines]

    arr = Arrangement(tuple(lines))
    if not all(x > 0 and y > 0 for x, y, _ in arr._vertex_homog.values()):
        raise ArrangementError(
            "internal-invariant", "a vertex lies outside the open first quadrant"
        )
    if not all(ln.c > 0 for ln in arr.lines):
        raise ArrangementError("internal-invariant", "an x intercept is not positive")
    return arr


def line_orders(arr: Arrangement) -> tuple[tuple[int, ...], ...]:
    """The intersection-order table: row i lists the other ids in the order
    their crossings appear along line i's conventional orientation."""
    return arr.order_rows


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
    """
    if arr.n < 3:
        raise ArrangementError("too-few-lines", "triangles need at least 3 lines")
    out = set()
    for i, j, k in combinations(arr.ids, 3):
        for m in arr.ids:
            if m in (i, j, k):
                continue
            s = arr.side_at(m, i, j)
            if arr.side_at(m, j, k) != s or arr.side_at(m, i, k) != s:
                break
        else:
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


def _ccw_after(ref: tuple[int, int], u: tuple[int, int], v: tuple[int, int]) -> bool:
    """True iff u has a strictly larger anticlockwise angle from ref than v.

    Angles measured in (0, 2*pi); no candidate ever equals ref exactly.
    """

    def half(w):
        cross = ref[0] * w[1] - ref[1] * w[0]
        if cross > 0:
            return 0  # in (0, pi)
        if cross == 0:
            return 1  # exactly pi (opposite of ref)
        return 2  # in (pi, 2*pi)

    hu, hv = half(u), half(v)
    if hu != hv:
        return hu > hv
    return v[0] * u[1] - v[1] * u[0] > 0


def bounded_faces(arr: Arrangement) -> list[Face]:
    """All bounded faces via anticlockwise half-edge traversal, sorted by
    size then edges.

    Each line is cut by its crossings into segments, extended by one stub
    segment past each extreme crossing standing in for the unbounded rays.
    With the rays represented, every real vertex carries its full rotational
    order, so walking with "take the next edge in clockwise rotational
    order" at each vertex traverses every bounded face exactly once,
    anticlockwise.  Walks that reach a stub tip belong to unbounded faces
    and are discarded.  The walk runs once per arrangement; later calls
    return a fresh list of the same faces.
    """
    if arr.n < 3:
        raise ArrangementError("too-few-lines", "faces need at least 3 lines")
    return list(arr.faces)


def _orientation(p, q, r) -> int:
    """The 3x3 determinant of three homogeneous points with W > 0: positive
    iff p, q, r turn anticlockwise."""
    (px, py, pw), (qx, qy, qw), (rx, ry, rw) = p, q, r
    return (
        px * (qy * rw - qw * ry)
        - py * (qx * rw - qw * rx)
        + pw * (qx * ry - qy * rx)
    )


def _walk_faces(arr: Arrangement) -> list[Face]:
    """The face walk behind :attr:`Arrangement.faces`; see :func:`bounded_faces`.

    A closed walk is a convex polygon (faces of a line arrangement are
    convex), so it is a bounded face traversed anticlockwise exactly when
    every corner turns anticlockwise, which is checked on the integer
    vertices and is at least as strict as a positive area.
    """
    rows = arr.order_rows
    homog = arr._vertex_homog
    dirs = {i: arr.line(i).direction for i in arr.ids}

    # neighbour[(i, node)] = (prev node, next node) along line i; nodes are
    # real vertex keys plus ("stub", i, -1/+1) ray stand-ins.
    neighbour: dict[tuple[int, object], tuple[object, object]] = {}
    for i in arr.ids:
        seq = [("stub", i, -1)] + [_vkey(i, j) for j in rows[i - 1]] + [("stub", i, 1)]
        for k, nd in enumerate(seq):
            prv = seq[k - 1] if k > 0 else None
            nxt = seq[k + 1] if k + 1 < len(seq) else None
            neighbour[(i, nd)] = (prv, nxt)

    def lines_through(nd):
        return (nd[1],) if nd[0] == "stub" else nd

    def target(half_edge):
        nd, i, step = half_edge
        prv, nxt = neighbour[(i, nd)]
        return nxt if step == 1 else prv

    half_edges = [
        (nd, i, step)
        for (i, nd), (prv, nxt) in neighbour.items()
        for step, tgt in ((1, nxt), (-1, prv))
        if tgt is not None
    ]

    def next_half_edge(h):
        nd, i, step = h
        w = target(h)
        dx, dy = dirs[i]
        ref = (-step * dx, -step * dy)  # reversed incoming direction
        best = None
        best_dir = None
        for j in lines_through(w):
            for s in (1, -1):
                if j == i and s == -step:
                    continue  # the edge going straight back
                if target((w, j, s)) is None:
                    continue
                d = (s * dirs[j][0], s * dirs[j][1])
                if best is None or _ccw_after(ref, d, best_dir):
                    best, best_dir = (w, j, s), d
        return best  # None only at a stub tip (unbounded face)

    seen = set()
    faces = []
    for start in half_edges:
        if start in seen:
            continue
        cycle = []
        h = start
        closed = True
        while True:
            seen.add(h)
            cycle.append(h)
            h = next_half_edge(h)
            if h is None:
                closed = False
                break
            if h == start:
                break
            if h in seen:
                closed = False
                break
        if not closed:
            continue
        if any(nd[0] == "stub" for nd, _, _ in cycle):
            raise ArrangementError("internal-invariant", "a closed face walk passes a ray stub")
        pts = [homog[nd] for nd, _, _ in cycle]
        if not all(
            _orientation(pts[k - 1], pts[k], pts[(k + 1) % len(pts)]) > 0
            for k in range(len(pts))
        ):
            raise ArrangementError(
                "internal-invariant", f"face walk {cycle} is not an anticlockwise convex polygon"
            )
        edges = tuple((i, nd) for nd, i, _ in cycle)
        k = min(range(len(edges)), key=lambda t: edges[t])
        faces.append(Face(edges[k:] + edges[:k]))
    faces.sort(key=lambda f: (len(f), f.edges))
    return faces


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


def is_isomorphic_trivial_global(a1: Arrangement, a2: Arrangement) -> bool:
    """Stricter reading: one orientation choice shared by all lines."""
    if a1.n != a2.n:
        return False
    return all(r1 == r2 for r1, r2 in zip(a1.order_rows, a2.order_rows)) or all(
        r1 == tuple(reversed(r2)) for r1, r2 in zip(a1.order_rows, a2.order_rows)
    )


def triangle_equivalence_classes(triangles: TriangleSet) -> list[set]:
    """Partition under the transitive closure of sharing exactly two ids."""
    items = sorted(triangles)
    parent = {t: t for t in items}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for t1, t2 in combinations(items, 2):
        if len(set(t1) & set(t2)) == 2:
            r1, r2 = find(t1), find(t2)
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


def vertex_quadrant_empty(arr: Arrangement, i: int, j: int) -> bool:
    """Is some quadrant around the vertex of i and j free of all other vertices?"""
    occupied = set()
    for p, q in combinations([x for x in arr.ids if x not in (i, j)], 2):
        occupied.add((arr.side_at(i, p, q), arr.side_at(j, p, q)))
    return len(occupied) < 4
