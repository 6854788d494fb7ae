"""Guards of the integer side-sign kernel.

The sweep kernel (one exact sort of all vertices, then rows and side bits
from prefix masks) equals the ``Fraction``-height sweep with
determinant-per-triple side bits and popcount-ranked rows it replaced, and
the tables read off the side bits (side signs, crossing orders, the
triangle oracle, Theorem B's triangle set, the greedy infinity permutation
and the derived nomenclature) and the faces read off the sweep equal the
direct forms they replaced, which are kept here as references (the faces'
reference is the half-edge walk with its convexity determinant); so do the
oracle, permutation and triangle classes read off the rows their cubic
forms, ``missed_quadrant`` its sample-point form, the corners, the members'
at-infinity statuses and the empty quadrants read off the side bits a word
at a time their forms with one ``side_at`` call per sign (and they call no
``side_at``), the opposite-orders fuzz check its crossing-parameter form
and the integer-intercept realizer the combinatorial type of the
``Fraction``-margin realizer; the realizer's
bound over slope-adjacent meets gives the lines of its scan over every
vertex, with at most two meets per line.  A build computes one vertex
table and translates it.  Detection builds only line 1's zone, the faces
are built once per arrangement, cached tables keep no reference cycle,
concurrency errors name the least triple, realized coefficients stay short,
and invariant checks, the sweep's among them, survive ``python -O``."""

import builtins
import gc
import inspect
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from itertools import chain, combinations, permutations, product
from math import isqrt
from pathlib import Path

import pytest

from linearr import arrangement, nomenclature
from linearr.arrangement import (
    Arrangement,
    Face,
    bounded_faces,
    build_arrangement,
    corner_points,
    corner_points_quadrant,
    is_line_at_infinity_geom,
    triangle_equivalence_classes,
    triangle_faces_oracle,
)
from linearr.cyclicity import detect_gonality_cycle, parse_cycle, realize_cycle
from linearr.fuzzing import (
    SplitMix64,
    at_infinity_in_subset,
    check_triangle_opposite_orders,
    gen_cyclic,
    gen_generic,
    gen_infinity_type,
    vertex_quadrant_empty,
)
from linearr.geometry import (
    ArrangementError,
    Line,
    Point,
    direction_ladder,
    ladder_direction_vector,
    line,
    meet,
    side,
)
from linearr.infinity import is_nomenclature_triangle, nomenclature_triangles
from linearr.nomenclature import (
    Nomenclature,
    canonical_infinity_permutation,
    derive_nomenclature,
    parse_nomenclature,
    realize_nomenclature,
)

SRC = Path(__file__).resolve().parent.parent / "src"

NOMENCLATURES = [
    "1^+1 2^-1 3^+1 7^+1 6^+1 4^-1 5^+1",
    "4^-1 2^+1 7^+1 1^+1 9^-1 3^-1 8^+1 5^+1 6^-1",
    "5^+1 3^-1 8^-1 1^-1 10^-1 2^+1 9^-1 4^+1 7^+1 6^-1",
]
CYCLES = ["(1 3 4 2 5)", "(1 2 5 7 3 4 6 8)", "(1 4 6 9 2 3 5 7 8 10)"]


def vertex(arr, i, j):
    """The exact vertex of lines i and j."""
    x, y, w = meet(arr.line(i), arr.line(j))
    return Point(Fraction(x, w), Fraction(y, w))


def missed_quadrant(arr, i, j, m):
    """The one sign pair (side of L_i, side of L_j) that line m never realizes.

    In general position every other line meets exactly three of the four
    quadrants cut out by lines i and j; the answer identifies the fourth.

    Along line m the side of L_i changes only at V_im and the side of L_j
    only at V_jm.  The segment between them therefore realizes the signs
    (side of L_i at V_jm, side of L_j at V_im); each ray beyond it flips one
    of the two, and the quadrant never met is the one with both flipped.
    """
    return (-arr.side_at(i, j, m), -arr.side_at(j, i, m))


def corner_points_by_missed_quadrant(arr):
    """{i,j} is a corner iff every other line misses the same quadrant."""
    return {
        (i, j) for i, j in combinations(arr.ids, 2)
        if len({missed_quadrant(arr, i, j, m) for m in arr.ids if m not in (i, j)}) <= 1
    }


def vertex_quadrant_empty_by_side_at(arr, i, j):
    """Some quadrant around V_ij holds no other vertex, from two side signs
    per vertex."""
    others = [x for x in arr.ids if x not in (i, j)]
    occupied = {(arr.side_at(i, p, q), arr.side_at(j, p, q)) for p, q in combinations(others, 2)}
    return len(occupied) < 4


def verdicts_by_side_at(arr, pairs):
    """The corners, every line's at-infinity status and the empty-quadrant
    verdict at each of ``pairs``, one ``side_at`` call per sign."""
    return (
        corner_points_by_missed_quadrant(arr),
        [at_infinity_in_subset(arr, m, arr.ids) for m in arr.ids],
        [vertex_quadrant_empty_by_side_at(arr, i, j) for i, j in pairs],
    )


def verdicts_by_words(arr, pairs):
    """The same verdicts from the library's word forms over the side bits."""
    return (
        corner_points_quadrant(arr),
        [is_line_at_infinity_geom(arr, m) for m in arr.ids],
        [vertex_quadrant_empty(arr, i, j) for i, j in pairs],
    )


def sampled_pairs(arr):
    """Every pair up to n = 12; beyond, the corners and the consecutive ids."""
    if arr.n <= 12:
        return list(combinations(arr.ids, 2))
    return sorted(corner_points(arr) | set(zip(arr.ids, arr.ids[1:])))


def missed_quadrant_by_samples(arr, i, j, m):
    """The three-sample-point form ``missed_quadrant`` had before the kernel:
    classify a point on each ray and on the segment of line m cut by lines
    i and j, and return the one sign pair none of them has."""
    vim, vjm = vertex(arr, i, m), vertex(arr, j, m)
    li, lj = arr.line(i), arr.line(j)
    samples = (
        Point(2 * vim.x - vjm.x, 2 * vim.y - vjm.y),
        Point((vim.x + vjm.x) / 2, (vim.y + vjm.y) / 2),
        Point(2 * vjm.x - vim.x, 2 * vjm.y - vim.y),
    )
    met = {(side(li, p), side(lj, p)) for p in samples}
    assert len(met) == 3 and all(s1 and s2 for s1, s2 in met)
    missing = [q for q in ((1, 1), (1, -1), (-1, 1), (-1, -1)) if q not in met]
    assert len(missing) == 1
    return missing[0]


def kernel_arrangements():
    for seed in range(200):
        yield gen_generic(3 + seed % 6, seed)
    for variant in (0, 1):
        for text in NOMENCLATURES:
            yield realize_nomenclature(parse_nomenclature(text), variant)
        for text in CYCLES:
            yield realize_cycle(parse_cycle(text), variant)


def test_missed_quadrant_equals_the_sample_point_form():
    checked = 0
    for arr in kernel_arrangements():
        for i, j, m in permutations(arr.ids, 3):
            assert missed_quadrant(arr, i, j, m) == missed_quadrant_by_samples(arr, i, j, m)
            checked += 1
    assert checked > 20000


def test_geometric_word_forms_equal_the_per_sign_forms():
    """Corners, at-infinity statuses and empty quadrants read off the side
    bits a word at a time equal the forms with one ``side_at`` call per sign."""
    seen = [set(), set(), set()]
    for arr in chain(kernel_arrangements(), large_realizations()):
        pairs = sampled_pairs(arr)
        corners, infinity, empty = verdicts_by_words(arr, pairs)
        assert (corners, infinity, empty) == verdicts_by_side_at(arr, pairs)
        seen[0].update(pair in corners for pair in pairs)
        seen[1].update(infinity)
        seen[2].update(empty)
    assert seen == [{True, False}] * 3


def test_geometric_word_forms_make_no_side_at_call(monkeypatch):
    """The word forms on fresh arrangements, with ``side_at`` raising, give
    what they give on other builds of the same lines."""
    cases = [realize_nomenclature(parse_nomenclature(NOMENCLATURES[0])), *large_realizations()]
    want = []
    for arr in cases:
        pairs = sampled_pairs(arr)
        want.append((arr, pairs, verdicts_by_words(build_arrangement(arr.lines), pairs)))

    def refuse(*args):
        raise AssertionError("side_at called")

    monkeypatch.setattr(Arrangement, "side_at", refuse)
    for arr, pairs, verdicts in want:
        assert verdicts_by_words(arr, pairs) == verdicts


def test_geometric_word_forms_read_the_side_bits():
    """On copies of the seven-line example with one side bit flipped, the
    word forms still equal the per-sign forms, which read the same bits,
    and each kind of verdict changes on some copy, while the rows stay."""
    arr = realize_nomenclature(parse_nomenclature(NOMENCLATURES[0]))
    pairs = list(combinations(arr.ids, 2))
    clean = verdicts_by_words(arr, pairs)
    changed = [False] * 3
    for v, m in product(arr._side_bits, arr.ids):
        if m in v:
            continue
        bits = dict(arr._side_bits)
        bits[v] ^= 1 << m
        bad = Arrangement(arr.lines, arr._sweep_order, arr.order_rows, bits, arr._levels)
        got = verdicts_by_words(bad, pairs)
        assert got == verdicts_by_side_at(bad, pairs)
        changed = [c or g != w for c, g, w in zip(changed, got, clean)]
    assert changed == [True, True, True]


def test_zone_query_builds_only_its_faces(monkeypatch):
    """Detection on a fresh arrangement builds at most 2(n - 2) faces, all
    with an edge on line 1, and leaves the full face list uncomputed; that
    list is then built once and equals the one-pass reference walk."""
    built = []
    face = arrangement._face

    def recording(*args):
        built.append(face(*args))
        return built[-1]

    monkeypatch.setattr(arrangement, "_face", recording)
    cases = [
        (realize_cycle(parse_cycle(CYCLES[2])), parse_cycle(CYCLES[2])),
        (realize_cycle(parse_cycle("(1 4 6 9 12 2 3 5 7 8 10 11)"), 1), None),
        (realize_nomenclature(parse_nomenclature(NOMENCLATURES[2])), None),
        (gen_infinity_type(30, 3)[1], None),
    ]
    for realized, cycle in cases:
        want = detect_gonality_cycle(realized)
        assert cycle is None or want == cycle
        arr = build_arrangement(realized.lines)  # fresh: no face built yet
        built.clear()
        assert detect_gonality_cycle(arr) == want
        assert 0 < len(built) <= 2 * (arr.n - 2)
        assert all(1 in f.line_ids for f in built)
        assert "faces" not in vars(arr)

        first = bounded_faces(arr)
        first.clear()  # a caller's list is its own
        again = bounded_faces(arr)
        assert len(again) == (arr.n - 1) * (arr.n - 2) // 2
        assert [f.edges for f in again] == faces_by_full_walk(realized)
        built.clear()
        assert bounded_faces(arr) == again and not built


def test_zone_faces_are_the_faces_on_that_line():
    """``bounded_faces(arr, zone=k)`` is the sorted list of faces with an edge
    on line k, whether asked before, between or after the full walk."""
    realized = realize_cycle(parse_cycle("(1 4 6 9 12 2 3 5 7 8 10 11)"), 1)
    everything = bounded_faces(realized)
    for order in ([1, 3, 2, 12, 7], [12, 1], [5, 5, 1]):
        arr = build_arrangement(realized.lines)
        for k in order:
            assert bounded_faces(arr, zone=k) == [f for f in everything if k in f.line_ids]
        assert bounded_faces(arr) == everything
        assert all(bounded_faces(arr, zone=k) for k in arr.ids)
    for bad in (0, 13, -1):
        with pytest.raises(ArrangementError) as err:
            bounded_faces(realized, zone=bad)
        assert err.value.code == "bad-position"


def test_cached_faces_and_cycle_keep_no_reference_cycle():
    """An arrangement whose tables, faces and cycle were computed is freed
    by reference counting alone."""
    gc.disable()
    try:
        arr = realize_cycle(parse_cycle(CYCLES[1]))  # detection ran
        bounded_faces(arr)
        triangle_faces_oracle(arr)
        assert arr._levels and arr.faces and arr.order_rows
        ref = weakref.ref(arr)
        del arr
        assert ref() is None
        fresh = build_arrangement(realize_nomenclature(parse_nomenclature(NOMENCLATURES[1])).lines)
        detect_gonality_cycle(fresh)
        ref = weakref.ref(fresh)
        del fresh
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "raw, message",
    [
        # four lines through (1, 1): every triple is concurrent
        (
            [(1, -1, 0), (1, 0, 1), (1, 1, 2), (1, -2, -1)],
            "lines 1,2,3 pass through Point(x=Fraction(1, 1), y=Fraction(1, 1))",
        ),
        # ids 1, 3, 5 meet at (0, 0) and ids 2, 4, 5 at (-2, 2)
        (
            [(1, 0, 0), (1, -2, 0), (1, 1, 0), (2, 1, -2), (1, -1, -4)],
            "lines 1,3,5 pass through Point(x=Fraction(0, 1), y=Fraction(0, 1))",
        ),
        # ids 1, 3, 5 meet at (-7/2, -5), before any translation
        (
            [(2, -1, -2), (1, 0, 6), (3, 2, -1), (4, 1, -19), (1, -1, 1), (2, -3, 8)],
            "lines 1,3,5 pass through Point(x=Fraction(-7, 2), y=Fraction(-5, 1))",
        ),
    ],
)
def test_concurrent_triple_names_the_first_triple_in_combination_order(raw, message):
    for kernel in (arrangement._sweep, sweep_by_determinants):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(arrangement, "_sweep", kernel)
            with pytest.raises(ArrangementError) as err:
                build_arrangement(raw)
        assert err.value.code == "concurrent-triple"
        assert str(err.value) == message


def test_build_computes_one_vertex_table_and_keeps_none(monkeypatch):
    """A build computes one vertex table, and the arrangement does not hold
    it.  A translated input's lines then meet with W > 0, and its lowest
    vertex and leftmost vertex or intercept land exactly on 1."""
    cases = list(chain(kernel_arrangements(), large_realizations()))
    homogeneous = arrangement._homogeneous_vertices
    tables = []

    def recording(lines):
        tables.append(homogeneous(lines))
        return tables[-1]

    monkeypatch.setattr(arrangement, "_homogeneous_vertices", recording)
    for realized in cases:
        tables.clear()
        arr = build_arrangement(realized.lines)
        assert arr.lines == realized.lines
        assert len(tables) == 1
        assert all(value is not tables[0] for value in vars(arr).values())

        tables.clear()
        moved = build_arrangement(ln.translated(-1000, -1000) for ln in realized.lines)
        assert len(tables) == 1
        assert moved.order_rows == realized.order_rows
        table = homogeneous(moved.lines)
        assert all(w > 0 for _, _, w in table.values())
        assert min(Fraction(y, w) for _, y, w in table.values()) == 1
        assert min(chain(
            (Fraction(x, w) for x, _, w in table.values()),
            (Fraction(ln.c, ln.a) for ln in moved.lines),
        )) == 1


def run_under_optimize(script: str) -> list[str]:
    """The words ``script`` prints when run by ``python -O``."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_realize_checks_its_labels_under_optimize():
    """With the direction ladder reversed the ids come out mirrored; the check
    that catches it must not vanish under ``python -O``."""
    script = "\n".join([
        "import linearr.nomenclature as nm",
        "from linearr.geometry import ArrangementError",
        "ladder = nm.direction_ladder",
        "nm.direction_ladder = lambda n, variant=0: ladder(n, variant)[::-1]",
        "print('debug' if __debug__ else 'optimized')",
        "try:",
        "    nm.realize_nomenclature(nm.parse_nomenclature('1^+1 2^-1 3^+1 5^-1 4^+1'))",
        "except ArrangementError as exc:",
        "    print(exc.code)",
        "else:",
        "    print('returned')",
    ])
    assert run_under_optimize(script) == ["optimized", "internal-invariant"]


def corrupted_sort(how):
    """``sorted`` with a build's vertex sort corrupted: two crossings of one
    line swapped (``"swap"``), the whole order reversed (``"reverse"``), or
    the first two crossings swapped when they share no line (``"first"``),
    which leaves a certified sweep whose first vertex need not be lowest."""

    def sort(items, key):
        out = builtins.sorted(items, key=key)
        if isinstance(items, range):  # the vertex ranks, not the angle sort
            n = (1 + isqrt(1 + 8 * len(out))) // 2
            pairs = list(combinations(range(1, n + 1), 2))  # rank order
            apart = [not set(pairs[a]) & set(pairs[b]) for a, b in zip(out, out[1:])]
            if how == "reverse":
                out.reverse()
            elif how == "swap":
                t = apart.index(False)
                out[t], out[t + 1] = out[t + 1], out[t]
            elif apart[0]:
                out[0], out[1] = out[1], out[0]
        return out

    return sort


def test_an_inconsistent_sweep_raises_under_optimize():
    """Two crossings of one line swapped in the build's vertex sort are
    caught by the build's wire check, and the sort reversed, which is the
    consistent sweep of the arrangement turned by 180 degrees, by its
    orientation check; both before any face is asked for."""
    script = "\n".join([
        "import builtins",
        "from itertools import combinations",
        "from math import isqrt",
        "from linearr import arrangement",
        "from linearr.cyclicity import parse_cycle, realize_cycle",
        "from linearr.geometry import ArrangementError",
        inspect.getsource(corrupted_sort),
        "print('debug' if __debug__ else 'optimized')",
        "lines = realize_cycle(parse_cycle('(1 3 4 2 5)')).lines",
        "for how in ('swap', 'reverse'):",
        "    arrangement.sorted = corrupted_sort(how)",
        "    try:",
        "        arrangement.build_arrangement(lines)",
        "    except ArrangementError as exc:",
        "        print(exc.code, str(exc).split()[2])",  # the sweep meets / runs
        "    else:",
        "        print('returned')",
    ])
    assert run_under_optimize(script) == [
        "optimized", "internal-invariant", "meets", "internal-invariant", "runs",
    ]


@pytest.mark.parametrize("how", ["swap", "reverse"])
def test_a_corrupted_vertex_sort_fails_the_build(monkeypatch, how):
    """Every kernel arrangement, built with two crossings of one line swapped
    in the vertex sort or with the sort reversed, fails the build."""
    cases = list(kernel_arrangements())
    monkeypatch.setattr(arrangement, "sorted", corrupted_sort(how), raising=False)
    for arr in cases:
        with pytest.raises(ArrangementError) as err:
            build_arrangement(arr.lines)
        assert err.value.code == "internal-invariant"


def test_the_first_quadrant_check_reads_every_vertex(monkeypatch):
    """The translation lifts the sweep's first vertex to y = 1.  With the
    first two crossings swapped where they share no line, the sweep is still
    certified, but that vertex is the lowest only at a tie in height.  On
    lines scaled by 10**6 and moved down and left by 10**9, so that the
    translation applies and a gap in height reaches 1, the lowest vertex then
    lands at y <= 0, and only a check over every vertex sees it."""
    draws = [gen_infinity_type(n, seed)[1] for n in (5, 8) for seed in range(20)]
    draws += [gen_cyclic(8, seed)[1] for seed in range(20)]
    cases = []
    for arr in draws:
        u, v = arr._sweep_order[:2]
        if not set(u) & set(v):
            (_, y0, w0), (_, y1, w1) = meet(*map(arr.line, u)), meet(*map(arr.line, v))
            lines = [line(ln.a, ln.b, ln.c * 10**6 - (ln.a + ln.b) * 10**9) for ln in arr.lines]
            cases.append((arr, lines, y0 * w1 != y1 * w0))
    assert [gap for *_, gap in cases].count(False) == 1 and len(cases) == 20
    monkeypatch.setattr(arrangement, "sorted", corrupted_sort("first"), raising=False)
    for arr, lines, gap in cases:
        if not gap:  # an equally lowest vertex comes first
            assert build_arrangement(lines).order_rows == arr.order_rows
            continue
        with pytest.raises(ArrangementError) as err:
            build_arrangement(lines)
        assert err.value.code == "internal-invariant"
        assert str(err.value) == "a vertex lies outside the open first quadrant"


def test_faces_need_three_lines():
    arr = build_arrangement([(1, -1, 0), (1, 0, 1)])
    for zone in (None, 1, 2):
        with pytest.raises(ArrangementError) as err:
            bounded_faces(arr, zone=zone)
        assert err.value.code == "too-few-lines"


# The direct forms the side-bit tables replaced.


def side_bits_by_determinants(lines, homog):
    """The side bits from one determinant per triple i < j < k: the value D
    of line k at V_ij is an alternating form in the three lines, so line k
    has the sign of D at V_ij, line i has it at V_jk and line j has its
    opposite at V_ik.  D == 0 reports the first concurrent triple in
    combination order."""
    if any(l1.a * l2.b <= l2.a * l1.b for l1, l2 in zip(lines, lines[1:])):
        raise ArrangementError(
            "internal-invariant", "line ids do not follow the direction angle"
        )
    n = len(lines)
    coeffs = [None] + [(ln.a, ln.b, ln.c) for ln in lines]
    table = [[0] * (n + 1) for _ in range(n + 1)]  # table[i][j] for i < j
    for (i, j), (x, y, w) in homog.items():
        row_i, row_j = table[i], table[j]
        bit_i, bit_j = 1 << i, 1 << j
        b_ij = 0
        for k in range(j + 1, n + 1):
            a, b, c = coeffs[k]
            d = a * x + b * y - c * w
            if d > 0:
                b_ij |= 1 << k
                row_j[k] |= bit_i
            elif d < 0:
                row_i[k] |= bit_j
            else:
                v = Point(Fraction(x, w), Fraction(y, w))
                raise ArrangementError(
                    "concurrent-triple", f"lines {i},{j},{k} pass through {v}"
                )
        row_i[j] |= b_ij
    return {(i, j): table[i][j] for i, j in homog}


def order_rows_by_popcount(n, bits):
    """Row i ranks j by the number of lines k crossing line i before j,
    counted in the side bits of V_ij."""
    full = (1 << (n + 1)) - 2
    rows = []
    for i in range(1, n + 1):
        low = (1 << i) - 2
        high = full & ~(low | 1 << i)
        row = [0] * (n - 1)
        for j in range(1, n + 1):
            if j != i:
                b = bits[(i, j) if i < j else (j, i)]
                row[((b & high) | (~b & low & ~(1 << j))).bit_count()] = j
        assert all(row), f"two crossings share a rank on line {i}"
        rows.append(tuple(row))
    return tuple(rows)


def levels_by_popcount(n, order, bits):
    """The sweep indices of ``order`` grouped by the popcount of each
    vertex's side bits, with one more empty level."""
    levels = [[] for _ in range(n)]
    for t, v in enumerate(order):
        levels[bits[v].bit_count()].append(t)
    return levels


def sweep_by_determinants(lines, homog):
    """The vertices sorted by ``Fraction`` height, ties in combination order,
    with the determinant side bits, the popcount rows and the popcount
    levels."""
    bits = side_bits_by_determinants(lines, homog)
    order = sorted(homog, key=lambda v: (Fraction(homog[v][1], homog[v][2]), v))
    n = len(lines)
    return order, order_rows_by_popcount(n, bits), bits, levels_by_popcount(n, order, bits)


def orientation(p, q, r) -> int:
    """The 3x3 determinant of three homogeneous points with W > 0: positive
    iff p, q, r turn anticlockwise."""
    (px, py, pw), (qx, qy, qw), (rx, ry, rw) = p, q, r
    return (
        px * (qy * rw - qw * ry)
        - py * (qx * rw - qw * rx)
        + pw * (qx * ry - qy * rx)
    )


def faces_by_full_walk(arr):
    """The edge lists of every bounded face, walked in one pass over the
    half-edges with a position table per row, each face checked to be an
    anticlockwise convex polygon by the determinant of every corner.

    A half-edge runs along one line between two consecutive crossings; the
    face on its left continues at its end by turning left onto the other
    line there, and a walk that runs off a row has reached an unbounded
    face."""
    rows = (None,) + arr.order_rows
    homog = arrangement._homogeneous_vertices(arr.lines)
    last = arr.n - 2
    pos = [None] + [{j: p for p, j in enumerate(row)} for row in rows[1:]]
    seen = set()
    faces = []
    for start in ((i, p, s) for i in arr.ids for p in range(last + 1) for s in (1, -1)):
        if start in seen or not 0 <= start[1] + start[2] <= last:
            continue
        cycle = []
        h = start
        while True:
            seen.add(h)
            cycle.append(h)
            i, p, s = h
            j = rows[i][p + s]
            h = (j, pos[j][i], s if i < j else -s)
            if h == start or h in seen or not 0 <= h[1] + h[2] <= last:
                break
        if h != start:
            continue
        edges = tuple((i, (i, rows[i][p]) if i < rows[i][p] else (rows[i][p], i))
                      for i, p, _ in cycle)
        pts = [homog[vk] for _, vk in edges]
        assert all(
            orientation(pts[k - 1], pts[k], pts[(k + 1) % len(pts)]) > 0
            for k in range(len(pts))
        )
        k = min(range(len(edges)), key=lambda t: edges[t])
        faces.append(Face(edges[k:] + edges[:k]))
    faces.sort(key=lambda f: (len(f), f.edges))
    return [f.edges for f in faces]


def large_realizations():
    """Realized nomenclatures and cycles up to n = 80, in both ladder variants."""
    for n in (40, 60, 80):
        nom, arr = gen_infinity_type(n, n)
        yield arr
        yield realize_nomenclature(nom, 1)
        cycle, arr = gen_cyclic(n, n)
        yield arr
        yield realize_cycle(cycle, 1)


def test_rows_and_bits_equal_the_determinant_form():
    for arr in chain(kernel_arrangements(), large_realizations()):
        homog = arrangement._homogeneous_vertices(arr.lines)
        assert homog == {
            (i, j): meet(arr.line(i), arr.line(j)) for i, j in combinations(arr.ids, 2)
        }
        got = arrangement._sweep(arr.lines, homog)
        assert got == sweep_by_determinants(arr.lines, homog)
        assert got == (arr._sweep_order, arr.order_rows, arr._side_bits, arr._levels)


def test_sweep_faces_equal_the_one_pass_walk():
    """All faces, and every zone asked of a fresh arrangement."""
    for arr in chain(kernel_arrangements(), large_realizations()):
        want = faces_by_full_walk(arr)
        fresh = build_arrangement(arr.lines)
        for k in arr.ids:
            zone = [f.edges for f in bounded_faces(fresh, zone=k)]
            assert zone == [edges for edges in want if any(i == k for i, _ in edges)]
        assert [f.edges for f in bounded_faces(arr)] == want


def order_rows_by_fraction_keys(arr):
    """Each row sorted by the exact position of its crossings along the line."""
    rows = []
    for i in arr.ids:
        dx, dy = arr.line(i).direction
        others = [j for j in arr.ids if j != i]
        others.sort(key=lambda j: dx * vertex(arr, i, j).x + dy * vertex(arr, i, j).y)
        rows.append(tuple(others))
    return tuple(rows)


def triangle_faces_by_lines(arr):
    """{i,j,k} is a triangle iff every other line, one at a time, sees its
    three vertices on one side."""
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


def nomenclature_triangles_by_triples(nom):
    """The union of the per-triple rule over all position triples."""
    return {
        tuple(sorted(nom.label_at(p) for p in (i, j, k)))
        for i, j, k in combinations(range(1, nom.n + 1), 3)
        if is_nomenclature_triangle(nom, i, j, k)
    }


def canonical_permutation_by_subsets(arr):
    """Strip the largest at-infinity line, testing each line on its own."""
    remaining = list(arr.ids)
    suffix = []
    while len(remaining) > 2:
        cands = [m for m in remaining if at_infinity_in_subset(arr, m, remaining)]
        if not cands:
            return None
        suffix.append(max(cands))
        remaining.remove(max(cands))
    return tuple(reversed(suffix + sorted(remaining, reverse=True)))


def derived_signs_by_side_at(arr, perm):
    """Signs from position 4 on, or the position of the first line that sees
    its prefix's vertices on both sides."""
    signs = []
    for l in range(3, arr.n + 1):
        m = perm[l - 1]
        seen = {arr.side_at(m, i, j) for i, j in combinations(perm[: l - 1], 2)}
        if len(seen) != 1:
            return l
        signs.append(-seen.pop())
    return tuple(signs[1:])


def triangle_faces_by_triples(arr):
    """The triangle oracle over all C(n, 3) triples, one definition test on
    the side bits each."""
    bits = arr._side_bits
    full = (1 << (arr.n + 1)) - 2
    out = set()
    for i, j in combinations(arr.ids, 2):
        b_ij = bits[(i, j)]
        others = full & ~(1 << i | 1 << j)
        for k in range(j + 1, arr.n + 1):
            b_jk, b_ik = bits[(j, k)], bits[(i, k)]
            if not ((b_ij ^ b_jk) | (b_ij ^ b_ik)) & others & ~(1 << k):
                out.add((i, j, k))
    return out


def canonical_permutation_by_bit_folds(arr):
    """The greedy permutation with each stage folding the side bits of every
    vertex of the remaining lines: bit m of plus (minus) is set iff line m has
    side +1 (-1) at some such vertex off m.  Also returns the number of
    lines stripped before a stage found no line at infinity."""
    bits = arr._side_bits
    remaining = list(arr.ids)
    suffix = []
    while len(remaining) > 2:
        plus = minus = 0
        for i, j in combinations(remaining, 2):
            b = bits[(i, j)]
            plus |= b
            minus |= ~(b | 1 << i | 1 << j)
        mixed = plus & minus
        cands = [m for m in remaining if not mixed >> m & 1]
        if not cands:
            return None, len(suffix)
        pick = max(cands)
        suffix.append(pick)
        remaining.remove(pick)
    suffix.extend(sorted(remaining, reverse=True))
    return tuple(reversed(suffix)), len(suffix)


def triangle_classes_by_pairs(triangles):
    """The equivalence classes by testing every pair of triangles."""
    items = sorted(triangles)
    parent = {t: t for t in items}

    def find(t):
        while parent[t] != t:
            t = parent[t]
        return t

    for t1, t2 in combinations(items, 2):
        if len(set(t1) & set(t2)) == 2:
            r1, r2 = find(t1), find(t2)
            if r1 != r2:
                parent[r2] = r1
    groups = {}
    for t in items:
        groups.setdefault(find(t), set()).add(t)
    return sorted(groups.values(), key=min)


def row_read_cases():
    """The kernel set, the large realizations and 400 more generic seeds."""
    yield from kernel_arrangements()
    yield from large_realizations()
    for seed in range(200, 600):
        yield gen_generic(3 + seed % 10, seed)


def test_row_read_tables_equal_the_cubic_forms():
    """The oracle from row-adjacent pairs, the permutation from row ends and
    the classes from shared pairs equal the forms they replaced, including
    where the greedy rule strips some lines before it gets stuck."""
    stuck_midway = 0
    for arr in row_read_cases():
        oracle = triangle_faces_oracle(arr)
        assert oracle == triangle_faces_by_triples(arr)
        perm, stripped = canonical_permutation_by_bit_folds(arr)
        assert canonical_infinity_permutation(arr) == perm
        stuck_midway += perm is None and stripped > 0
        assert triangle_equivalence_classes(oracle) == triangle_classes_by_pairs(oracle)
    assert stuck_midway > 20


def all_nomenclatures(n):
    for labels in permutations(range(1, n + 1)):
        i, j, k = sorted(labels[:3])
        for lead in ({i: 1, j: -1, k: 1}, {i: -1, j: 1, k: -1}):
            for tail in product((1, -1), repeat=n - 3):
                yield Nomenclature(labels, tuple(lead[x] for x in labels[:3]) + tail)


def seeded_arrangements():
    """Realizations up to n = 30 beside the kernel set."""
    yield from kernel_arrangements()
    for n in range(3, 31, 3):
        for seed in range(3):
            yield gen_infinity_type(n, 100 * n + seed)[1]
    for n in range(4, 31, 4):
        yield gen_cyclic(n, n)[1]


def test_side_bits_equal_the_sign_at_each_vertex():
    for arr in kernel_arrangements():
        # the table of the realization and that of a fresh build of its lines
        fresh = build_arrangement(arr.lines)
        for i, j in combinations(arr.ids, 2):
            v = vertex(arr, i, j)
            for m in arr.ids:
                if m not in (i, j):
                    want = side(arr.line(m), v)
                    assert arr.side_at(m, i, j) == want == fresh.side_at(m, j, i)


def test_side_at_refuses_a_line_through_the_vertex():
    arr = realize_nomenclature(parse_nomenclature(NOMENCLATURES[0]))
    for m, i, j in ((2, 2, 5), (5, 2, 5), (0, 2, 5), (-1, 2, 5), (8, 2, 5)):
        with pytest.raises(KeyError):
            arr.side_at(m, i, j)


def test_lazy_side_bits_report_a_concurrent_triple():
    # three angle-sorted lines through (1, 1), never passed through build
    lines = (Line(1, -1, 0), Line(1, 0, 1), Line(1, 1, 2))
    with pytest.raises(ArrangementError) as err:
        arrangement._sweep(lines, arrangement._homogeneous_vertices(lines))
    assert err.value.code == "concurrent-triple"
    assert str(err.value).startswith("lines 1,2,3 pass through")


def test_side_bits_refuse_lines_out_of_angle_order():
    lines = realize_nomenclature(parse_nomenclature(NOMENCLATURES[0])).lines[::-1]
    with pytest.raises(ArrangementError) as err:
        arrangement._sweep(lines, arrangement._homogeneous_vertices(lines))
    assert err.value.code == "internal-invariant"


def test_order_rows_equal_the_fraction_key_sort():
    for arr in seeded_arrangements():
        assert arr.order_rows == order_rows_by_fraction_keys(arr)


def test_triangle_oracle_equals_the_per_line_loop():
    for arr in seeded_arrangements():
        assert triangle_faces_oracle(arr) == triangle_faces_by_lines(arr)


def test_greedy_permutation_and_derived_signs_equal_the_per_line_forms():
    shuffled = 0
    for index, arr in enumerate(seeded_arrangements()):
        perm = canonical_infinity_permutation(arr)
        assert perm == canonical_permutation_by_subsets(arr)
        if perm is not None and arr.n >= 4:
            assert derive_nomenclature(arr, perm).signs[3:] == derived_signs_by_side_at(arr, perm)
        ids = list(arr.ids)
        SplitMix64(index).shuffle(ids)
        want = derived_signs_by_side_at(arr, ids)
        if isinstance(want, int):
            shuffled += 1
            with pytest.raises(ArrangementError) as err:
                derive_nomenclature(arr, ids)
            assert f"(position {want})" in str(err.value)
        elif arr.n >= 4:
            assert derive_nomenclature(arr, ids).signs[3:] == want
    assert shuffled > 50


def test_theorem_b_scan_equals_the_per_triple_rule():
    count = 0
    for n in range(3, 7):
        for nom in all_nomenclatures(n):
            assert nomenclature_triangles(nom) == nomenclature_triangles_by_triples(nom)
            count += 1
    assert count == 12 + 96 + 960 + 11520
    rng = SplitMix64(2024)
    for n in range(7, 31):
        for _ in range(4):
            labels = list(range(1, n + 1))
            rng.shuffle(labels)
            i, j, k = sorted(labels[:3])
            lead = {i: 1, j: -1, k: 1} if rng.below(2) else {i: -1, j: 1, k: -1}
            signs = [lead[x] for x in labels[:3]] + [rng.sign() for _ in range(n - 3)]
            nom = Nomenclature(tuple(labels), tuple(signs))
            assert nomenclature_triangles(nom) == nomenclature_triangles_by_triples(nom)


def nomenclature_triangles_by_prefix_scans(nom):
    """Theorem B's scan with the prefix flags of each pair (i, j) computed by
    a pass over all labels up to position j."""
    labels, signs = nom.labels, nom.signs
    n = nom.n
    out = {tuple(sorted(labels[:3]))}
    for i in range(n - 2):
        li = labels[i]
        for j in range(i + 1, n - 1):
            lj, aj = labels[j], signs[j]
            lo, hi = (li, lj) if li < lj else (lj, li)
            outside = not any(lo < v < hi for v in labels[: j + 1])
            inside = all(lo <= v <= hi for v in labels[: j + 1])
            turn = aj if lj > li else -aj
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
                outside = outside and sk == -want
                inside = inside and sk == -want
    return out


def test_theorem_b_scan_equals_the_prefix_scan_form():
    """On the nomenclatures derived from the kernel set and the large
    realizations, and on each of those with one sign flipped."""
    checked = 0
    for arr in chain(kernel_arrangements(), large_realizations()):
        if canonical_infinity_permutation(arr) is None:
            continue
        nom = derive_nomenclature(arr)
        flips = [
            Nomenclature(nom.labels, nom.signs[:p] + (-nom.signs[p],) + nom.signs[p + 1 :])
            for p in range(3, nom.n)
        ]
        for case in [nom] + flips:
            assert nomenclature_triangles(case) == nomenclature_triangles_by_prefix_scans(case)
            checked += 1
    assert checked > 700


def triangle_opposite_orders_by_parameters(nom, arr, oracle):
    """``check_triangle_opposite_orders`` with each crossing placed by its
    ``Fraction`` parameter along the base line's direction."""
    pos = {lab: p for p, lab in enumerate(nom.labels, 1)}
    for tri in oracle:
        i, j, k = sorted(pos[x] for x in tri)
        if k <= 3:
            continue
        li, lj, lk = nom.label_at(i), nom.label_at(j), nom.label_at(k)
        for base, other in ((li, lj), (lj, li)):
            dx, dy = arr.line(base).direction

            def param(lab):
                v = vertex(arr, base, lab)
                return dx * v.x + dy * v.y

            centre = param(other)
            far = param(lk) - centre
            for l in range(j + 1, k):
                near = param(nom.label_at(l)) - centre
                if (near > 0) == (far > 0):
                    return False
    return True


def realize_nomenclature_fraction_margin(nom, variant=0):
    """``realize_nomenclature`` as it was before integer intercepts: each line
    exactly 1 beyond its ``Fraction`` bound."""
    ladder = direction_ladder(nom.n, variant)
    placed, verts = [], []
    shift = Fraction(0)
    for pos in range(1, nom.n + 1):
        want = nom.sign_at(pos)
        dx, dy = ladder_direction_vector(ladder[nom.label_at(pos) - 1])
        a, b = dy, -dx
        p = Fraction(1)
        if verts:
            bounds = (Fraction(a * x + b * y, a * w) for x, y, w in verts)
            p = shift + max(bounds, key=lambda v: want * v) + want
            if p <= 0:
                shift += 1 - p
                p = Fraction(1)
        new = line(a, b, a * (p - shift))
        verts.extend(meet(new, ln) for ln in placed)
        placed.append(new)
    return build_arrangement(ln.translated(shift, 0) for ln in placed)


def realize_nomenclature_full_scan(nom, variant=0):
    """``realize_nomenclature`` as it was before the hull candidates: the
    extreme bound of each new line over every vertex of the placed lines."""
    ladder = direction_ladder(nom.n, variant)
    placed, verts = [], []
    shift = 0
    for pos in range(1, nom.n + 1):
        want = nom.sign_at(pos)
        dx, dy = ladder_direction_vector(ladder[nom.label_at(pos) - 1])
        a, b = dy, -dx
        p = 1
        if verts:
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
        verts.extend(meet(new, ln) for ln in placed)
        placed.append(new)
    return build_arrangement(ln.translated(shift, 0) for ln in placed)


def seeded_nomenclatures(n_values, seeds):
    for n in n_values:
        for seed in seeds:
            yield gen_infinity_type(n, 1000 * n + seed)[0]


def test_opposite_orders_check_equals_the_parameter_form():
    """Matched pairs all pass; a realization of another nomenclature of the
    same size makes the check fail often enough to compare failures too."""
    matched, mismatched = [], []
    for n in range(4, 17):
        noms = list(seeded_nomenclatures([n], range(6)))
        for nom, stranger in zip(noms, noms[1:] + noms[:1]):
            arr = realize_nomenclature(nom)
            oracle = triangle_faces_oracle(arr)
            for case, results in ((nom, matched), (stranger, mismatched)):
                got = check_triangle_opposite_orders(case, arr, oracle)
                assert got == triangle_opposite_orders_by_parameters(case, arr, oracle)
                results.append(got)
    assert all(matched)
    assert mismatched.count(False) > 20 and True in mismatched


def test_realized_coefficients_stay_short():
    """Integer intercepts keep each line to its small ladder direction; a
    ``Fraction`` bound scaled them by its denominator (up to 463 bits here)."""
    most = 0
    for seed in range(40):
        nom, arr = gen_infinity_type(40, seed)
        for realized in (arr, realize_nomenclature(nom, 1)):
            for ln in realized.lines:
                most = max(most, abs(ln.a).bit_length(), abs(ln.b).bit_length(),
                           abs(ln.c).bit_length())
    assert most <= 160


def test_integer_intercepts_keep_the_combinatorial_type():
    for nom in seeded_nomenclatures(range(3, 31), range(2)):
        for variant in (0, 1):
            arr = realize_nomenclature(nom, variant)
            ref = realize_nomenclature_fraction_margin(nom, variant)
            assert arr.order_rows == ref.order_rows
            assert [f.edges for f in bounded_faces(arr)] == [f.edges for f in bounded_faces(ref)]


def test_hull_candidates_equal_the_full_scan():
    """Every nomenclature up to n = 5, seeded ones at n = 6..40 and one each
    at n = 80 and 160, in both ladder variants, give the same lines."""
    cases = chain(
        chain.from_iterable(all_nomenclatures(n) for n in range(3, 6)),
        seeded_nomenclatures(range(6, 41), range(3)),
        seeded_nomenclatures((80, 160), range(1)),
    )
    for nom in cases:
        for variant in (0, 1):
            got = realize_nomenclature(nom, variant).lines
            assert got == realize_nomenclature_full_scan(nom, variant).lines, (str(nom), variant)


def test_realizer_meets_each_new_line_with_two_neighbours(monkeypatch):
    """The bound comes from the meets of slope-adjacent lines only: at most
    two per new line, where the full scan made n(n - 1)/2 (12,720 at n = 160)."""
    nom = next(seeded_nomenclatures([160], [0]))  # realizes it once, uncounted
    calls = []

    def counting_meet(l1, l2):
        calls.append(None)
        return meet(l1, l2)

    monkeypatch.setattr(nomenclature, "meet", counting_meet)
    realize_nomenclature(nom)
    assert 0 < len(calls) <= 2 * nom.n
