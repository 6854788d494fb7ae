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
homogeneous triples (X, Y, W) with W > 0.  The kernel is one sweep: one
exact sort of all vertices, by one integer key per vertex, gives the order
in which a horizontal line moving upwards meets them, and restricted to a
line that order is the line's crossing order (its local sequence), in
O(n^2 log n).  One pass over that order, in the build, checks every swap
of two wires and gives the rows, each vertex's level (the gap between the
wires it swaps) and the side signs of all lines at it as one int, bit m
for line m.  The triangle oracle, the corner test and the line-at-infinity
test read these bits, many vertices per word operation; every bounded face
runs from one crossing at its level to the next.  The vertices live only
in the build; SVG output and the external-line test compute them from the
lines.  :class:`fractions.Fraction` appears only in the two offsets of the
translation into conventional position and in error texts.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key, reduce
from itertools import chain, combinations, compress, count
from operator import and_, eq

from .geometry import ArrangementError, Line, Point, cmp_angle, line

VertexKey = tuple[int, int]  # (i, j) with i < j, the pair of line ids
Triangle = tuple[int, int, int]  # sorted line ids
TriangleSet = set  # of Triangle
Rows = tuple[tuple[int, ...], ...]  # row i - 1: the other ids in crossing order


class Arrangement:
    """Immutable container for the lines plus their combinatorial tables.

    Construct through :func:`build_arrangement`, which validates, angle-sorts
    and conventionally embeds the lines and hands over their tables: the
    sweep order of the vertices (bottom to top, as (i, j) keys), the
    ``order_rows`` (row i - 1: the other ids along line i's conventional
    orientation), the side bits (bit m of vertex (i, j) is set iff line m has
    side +1 there; read single signs through :meth:`side_at`) and the levels
    (the sweep indices of each level).  It keeps no vertex coordinates; its
    methods read only these tables, and n is the number of rows.
    """

    def __init__(self, lines: tuple[Line, ...], order, rows: Rows, bits, levels):
        self.lines = lines
        self._sweep_order = order
        self.order_rows = rows
        self._side_bits = bits
        self._levels = levels

    @property
    def n(self) -> int:
        return len(self.order_rows)

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

    def side_at(self, m: int, i: int, j: int) -> int:
        """Side sign of line m at the vertex of lines i and j (m not in {i,j})."""
        key = (i, j) if i < j else (j, i)
        if m > 0 and self._side_bits[key] >> m & 1:
            return 1
        # a clear bit is side -1 only for a line off the vertex
        if m == i or m == j or not 0 < m <= self.n:
            raise KeyError((m, key))
        return -1

    @cached_property
    def _constant_sides(self) -> list[int]:
        """Entry x: bit m is set iff line m has one side at every vertex of
        line x off m, from ORs and ANDs of the bits of x's vertices (the
        other line's bit set, as it is on that line).  Entry 0 is their AND:
        bit m is set iff line m has one side at every vertex off m, as any
        two are joined through a third one on their lines."""
        n = self.n
        full = (1 << (n + 1)) - 2
        anyset, allset = [0] * (n + 1), [full] * (n + 1)
        for (i, j), b in self._side_bits.items():
            anyset[i] |= b
            anyset[j] |= b
            allset[i] &= b | 1 << j
            allset[j] &= b | 1 << i
        const = [a | full & ~o for a, o in zip(allset, anyset)]
        const[0] = reduce(and_, const[1:])
        return const

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        """The bounded faces, sorted by size then edges; read them through
        :func:`bounded_faces`."""
        order, levels = self._sweep_order, self._levels
        return tuple(sorted(
            (_face(order, levels, g, a) for g, level in enumerate(levels)
             for a in range(len(level) - 1)),
            key=_face_order,
        ))


def _homogeneous_vertices(lines) -> dict[VertexKey, tuple[int, int, int]]:
    """The :func:`~linearr.geometry.meet` of every pair of ``lines`` (ids from
    1, in angle order, so W needs no sign flip), in combination order."""
    abc = [(ln.a, ln.b, ln.c) for ln in lines]
    return {
        (i, j): (c1 * b2 - c2 * b1, a1 * c2 - a2 * c1, a1 * b2 - a2 * b1)
        for (i, (a1, b1, c1)), (j, (a2, b2, c2)) in combinations(enumerate(abc, 1), 2)
    }


def _sweep(lines, homog) -> tuple[list[VertexKey], Rows, dict[VertexKey, int], list]:
    """The sweep order, crossing orders, side bits and levels of ``lines``
    (ids from 1) with vertices ``homog`` (as :func:`_homogeneous_vertices`
    gives them), from one exact sort of all vertices and one pass over them.

    Every line is non-horizontal and runs towards increasing y, so a
    horizontal line moving upwards meets the crossings of each line in the
    line's own order.  A vertex (X, Y, W) gets the key ``(Y << s) // W``
    with ``s = 2 * bitlen(2 * max a * max |b|) + 1``, as no W = a_i * b_j -
    a_j * b_i exceeds 2 * max a * max |b|: two distinct values Y/W differ by
    at least 1 / (W1 * W2) > 2**-s, which the shift scales past 1, so the
    keys order the vertices exactly.  Sorted by key, ties in combination
    order, the vertices are the sweep order, and each row is that order
    restricted to its line.  Equal keys are crossings at one height, and two
    of them on one line are one point; the crossings of lines a < b < c < ...
    at one point come as neighbours (a, b), (a, c), so neighbours with equal
    keys and equal first ids are exactly the concurrencies, and give the
    least concurrent triple in combination order.

    The side sign of line k grows along line i iff k > i (the ids follow the
    direction angle) and is 0 at V_ik.  So line k has side +1 at V_ij iff
    "k crosses line i before j" equals "k > i": the bits of V_ij (i < j) are
    the set of ids before j in row i, xor the ids below i.

    Wires start in id order, their x order at y = -inf, and wire i moves
    right past higher ids and left past lower ones.  So just before it
    crosses j > i, wire i is at 0-based position (i - 1) + #higher ids
    crossed - #lower ids crossed, which is the popcount of the bits of V_ij:
    that crossing swaps the wires at positions g and g + 1, at level g.  The
    pass checks that wire j is at position g + 1, which certifies the sweep
    order as a sequence of adjacent swaps, and appends the crossing's sweep
    index to level g.  Levels run 0..n - 2; one more empty level, which
    index -1 also reads, gives each level a neighbour on both sides.  The
    order reversed, the sweep of the arrangement turned by 180 degrees,
    passes that check; the first vertex lying below the last rules it out.
    """
    if any(l1.a * l2.b <= l2.a * l1.b for l1, l2 in zip(lines, lines[1:])):
        raise ArrangementError(
            "internal-invariant", "line ids do not follow the direction angle"
        )
    n = len(lines)
    bound = 2 * max(ln.a for ln in lines) * max(abs(ln.b) for ln in lines)
    shift = 2 * bound.bit_length() + 1
    verts = list(homog)
    heights = [(y << shift) // w for _, y, w in homog.values()]
    ranks = sorted(range(len(verts)), key=heights.__getitem__)
    order = list(map(verts.__getitem__, ranks))
    keys = list(map(heights.__getitem__, ranks))
    concurrent = [
        (*order[t], order[t + 1][1])
        for t in compress(count(), map(eq, keys, keys[1:]))
        if order[t][0] == order[t + 1][0]
    ]
    if concurrent:
        i, j, k = min(concurrent)
        x, y, w = homog[(i, j)]
        v = Point(Fraction(x, w), Fraction(y, w))
        raise ArrangementError("concurrent-triple", f"lines {i},{j},{k} pass through {v}")
    (_, y0, w0), (_, y1, w1) = homog[order[0]], homog[order[-1]]
    if y0 * w1 > y1 * w0:
        raise ArrangementError("internal-invariant", "the sweep runs downwards")
    rows = [[] for _ in range(n + 1)]
    before = [0] * (n + 1)  # before[i]: the ids met so far in row i
    pos = list(range(-1, n))  # pos[i]: the position of wire i
    levels = [[] for _ in range(n)]
    bits = {}
    for t, v in enumerate(order):
        i, j = v
        g = pos[i]
        if pos[j] != g + 1:
            raise ArrangementError(
                "internal-invariant", f"the sweep meets V_{i},{j} off wire positions {g}, {g + 1}"
            )
        pos[i] = g + 1
        pos[j] = g
        levels[g].append(t)
        bits[v] = before[i] ^ ((1 << i) - 2)
        before[i] |= 1 << j
        before[j] |= 1 << i
        rows[i].append(j)
        rows[j].append(i)
    return order, tuple(map(tuple, rows[1:])), bits, levels


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

    given = lines
    lines = sorted(given, key=cmp_to_key(cmp_angle))
    # parallel lines share an angle, so they end up neighbours
    if any(l1.a * l2.b == l2.a * l1.b for l1, l2 in zip(lines, lines[1:])):
        _reject_parallel(given)

    # The sweep order, crossing orders, side signs and levels are
    # translation invariant, so those of the input lines, which the
    # concurrency check computes anyway, serve the translated ones.
    homog = _homogeneous_vertices(lines)
    order, rows, bits, levels = _sweep(lines, homog)

    # ty lifts the lowest vertex, the first of the sweep, to y = 1, then tx
    # moves the leftmost vertex or x intercept to x = 1; each is needed only
    # when that bound is <= 0.  Along a non-horizontal line x is monotone in
    # row order, so the leftmost vertex sits at an end of a row.  The check
    # below reads every vertex, so it does not rest on the sweep order.
    _, y, w = homog[order[0]]
    ty = 1 - Fraction(y, w) if y <= 0 else 0
    r, s = ty.numerator, ty.denominator
    min_x = Fraction(*_least(chain(
        (
            homog[(i, j) if i < j else (j, i)][::2]  # (X, W) of each row end
            for i, row in enumerate(rows, 1)
            for j in (row[0], row[-1])
        ),
        ((ln.c * s + ln.b * r, ln.a * s) for ln in lines),
    )))
    tx = 1 - min_x if min_x <= 0 else 0
    if tx or ty:
        # the vertices move to (X/W + p/q, Y/W + r/s): numerators over Wqs > 0
        p, q = tx.numerator, tx.denominator
        qs, ps, rq = q * s, p * s, r * q
        lines = [ln.translated(tx, ty) for ln in lines]
        inside = all(x * qs + ps * w > 0 and y * qs + rq * w > 0 for x, y, w in homog.values())
    else:
        inside = all(x > 0 and y > 0 for x, y, _ in homog.values())
    arr = Arrangement(tuple(lines), order, rows, bits, levels)
    if not inside:
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
    ends = [()] + [(row[0], row[-1]) for row in arr.order_rows]
    return {(i, j) for i in arr.ids for j in ends[i] if i < j and i in ends[j]}


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
    """All bounded faces, read off the levels of the sweep and sorted by size
    then edges; with ``zone``, only those with an edge on line ``zone``.

    Each bounded face lies between the wires at two adjacent positions and
    runs from one crossing of theirs to the next (Edelsbrunner & Guibas,
    "Topologically sweeping an arrangement", 1989; see :func:`_face`).  The
    faces are built once per arrangement; later calls return a fresh list of
    the same faces.

    ``zone`` builds only the faces beside each bounded segment of line k =
    ``zone``: after crossing V_kx, found at sweep index t by one scan of the
    order, at level g, line k is the wire at position g + 1 if k < x, else
    at g, so the faces on its two sides are those of levels g and g + 1, or
    g - 1 and g, open at t: at most 2(n - 2) faces, against (n - 1)(n - 2) / 2.
    """
    if zone is not None and not 0 < zone <= arr.n:
        raise ArrangementError("bad-position", f"line {zone} outside 1..{arr.n}")
    if arr.n < 3:
        raise ArrangementError("too-few-lines", "faces need at least 3 lines")
    if zone is None:
        return list(arr.faces)
    order, levels, bits = arr._sweep_order, arr._levels, arr._side_bits
    found = []
    crossings = [t for t, v in enumerate(order) if zone in v]
    for t in crossings[:-1]:  # the segment after each crossing but the last
        u = order[t]
        g = bits[u].bit_count()
        for h in (g, g + 1) if u[0] == zone else (g - 1, g):
            a = bisect(levels[h], t) - 1
            if 0 <= a < len(levels[h]) - 1:
                found.append(_face(order, levels, h, a))
    return sorted(found, key=_face_order)


def _face_order(f: Face) -> tuple:
    return (len(f), f.edges)


def _face(order, levels, g: int, a: int) -> Face:
    """The bounded face of level g from its crossing a to a + 1 (sweep
    indices into ``order``).

    Its anticlockwise corners are the lower crossing u, the crossings of
    level g + 1 between u and the upper crossing w in sweep order (its right
    chain), w, and those of level g - 1 between them in reverse (its left
    chain).  Each edge lies on the line its corner shares with the next, and
    the edges start at the least one.
    """
    t0, t1 = levels[g][a], levels[g][a + 1]
    right, left = levels[g + 1], levels[g - 1]
    ts = [t0, *right[bisect(right, t0):bisect(right, t1)], t1]
    ts += reversed(left[bisect(left, t0):bisect(left, t1)])
    corners = list(map(order.__getitem__, ts))
    edges = [
        (i if i in nxt else j, (i, j))
        for (i, j), nxt in zip(corners, corners[1:] + corners[:1])
    ]
    k = edges.index(min(edges))
    return Face(tuple(edges[k:] + edges[:k]))


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


def is_line_at_infinity_geom(arr: Arrangement, which) -> bool:
    """Line-at-infinity test, geometric form.

    ``which`` is a member id (vertices on the line itself are allowed) or an
    external :class:`Line` (must keep general position, else
    ``degenerate-extension``); true iff the relevant vertices all lie on one
    strict side.  A member's answer is one bit of a table the arrangement
    folds once from its side bits; an external line is tested against the
    vertices of the lines, computed for the call.
    """
    if isinstance(which, int):
        if which not in arr.ids:
            raise ArrangementError("bad-position", f"no line with id {which}")
        return bool(arr._constant_sides[0] >> which & 1)
    ln: Line = which
    for i, member in enumerate(arr.lines, 1):
        if member.a * ln.b == ln.a * member.b:
            raise ArrangementError(
                "degenerate-extension", f"external line is parallel to line {i}"
            )
    sides = set()
    for x, y, w in _homogeneous_vertices(arr.lines).values():
        s = ln.a * x + ln.b * y - ln.c * w  # the side's sign, as W > 0
        if s == 0:
            raise ArrangementError(
                "degenerate-extension", "external line passes through a vertex"
            )
        sides.add(s > 0)
    return len(sides) == 1


def corner_points_quadrant(arr: Arrangement) -> set[VertexKey]:
    """Corner points, independently: {i,j} is a corner iff every other line
    misses the same quadrant around the vertex of i and j.

    Along line m the sides of L_i and L_j change only at V_im and V_jm, so
    m misses the quadrant (-side of L_i at V_jm, -side of L_j at V_im), the
    one opposite its segment between them.  All lines m miss the same one
    iff line i has one side at every vertex of line j off i, and j at every
    vertex of line i off j.
    """
    const = arr._constant_sides
    return {(i, j) for i, j in combinations(arr.ids, 2) if const[i] >> j & const[j] >> i & 1}
