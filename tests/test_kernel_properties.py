"""Property test of the sweep kernel: on random sets of lines with small
coefficients, many of them through a few shared points, the build either
fails exactly as the determinant-per-triple kernel makes it fail, or gives
the same sweep order, rows, side bits and levels, the face edge lists and gonality
cycle of the one-pass half-edge walk, every zone of those faces, and the
triangle oracle, canonical infinity permutation and triangle classes read
off the rows equal their cubic reference forms; so do the corners, the
at-infinity statuses and the empty quadrants read off the side bits a word
at a time."""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from linearr import arrangement
from linearr.arrangement import (
    bounded_faces,
    build_arrangement,
    triangle_equivalence_classes,
    triangle_faces_oracle,
)
from linearr.cyclicity import detect_gonality_cycle, validate_cycle
from linearr.geometry import ArrangementError
from linearr.nomenclature import canonical_infinity_permutation

from test_kernel import (
    canonical_permutation_by_bit_folds,
    faces_by_full_walk,
    sweep_by_determinants,
    triangle_classes_by_pairs,
    triangle_faces_by_triples,
    verdicts_by_side_at,
    verdicts_by_words,
)

COEFF = st.integers(-6, 6)
# wider directions, with a == 0 (a horizontal line) in about one line of 75,
# so that most sets get past line validation and the parallel check
A = st.one_of(*[st.integers(-9, 9).filter(bool)] * 3, st.integers(-9, 9))
B = st.integers(-12, 12)


@st.composite
def line_sets(draw):
    n = draw(st.integers(3, 8))
    points = draw(st.lists(st.tuples(COEFF, COEFF), min_size=1, max_size=3))
    raw = []
    for _ in range(n):
        a, b = draw(A), draw(B)
        if draw(st.booleans()):
            x, y = draw(st.sampled_from(points))
            raw.append((a, b, a * x + b * y))
        else:
            raw.append((a, b, draw(COEFF)))
    return raw


def reference(raw):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arrangement, "_sweep", sweep_by_determinants)
        try:
            arr = build_arrangement(raw)
        except ArrangementError as exc:
            return exc.code, str(exc)
        faces = faces_by_full_walk(arr)
        ngon = next((edges for edges in faces if len(edges) == arr.n), None)
        cycle = None
        if ngon is not None:
            ids = tuple(i for i, _ in ngon)
            cycle = validate_cycle(ids[ids.index(1):] + ids[: ids.index(1)])
        zones = [[edges for edges in faces if any(i == k for i, _ in edges)] for k in arr.ids]
        oracle = triangle_faces_by_triples(arr)
        perm = canonical_permutation_by_bit_folds(arr)[0]
        classes = triangle_classes_by_pairs(oracle)
        rows = arr._sweep_order, arr.order_rows, arr._side_bits, arr._levels
        verdicts = verdicts_by_side_at(arr, list(combinations(arr.ids, 2)))
        return rows, oracle, perm, classes, faces, zones, cycle, verdicts


def rows_first(raw):
    try:
        arr = build_arrangement(raw)
    except ArrangementError as exc:
        return exc.code, str(exc)
    fresh = build_arrangement(arr.lines)  # no face built yet
    cycle = detect_gonality_cycle(fresh)  # line 1's zone first, then the rest
    zones = [[f.edges for f in bounded_faces(fresh, zone=k)] for k in arr.ids]
    faces = [f.edges for f in bounded_faces(fresh)]
    oracle = triangle_faces_oracle(arr)
    perm = canonical_infinity_permutation(arr)
    classes = triangle_equivalence_classes(oracle)
    rows = arr._sweep_order, arr.order_rows, arr._side_bits, arr._levels
    verdicts = verdicts_by_words(arr, list(combinations(arr.ids, 2)))
    return rows, oracle, perm, classes, faces, zones, cycle, verdicts


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(line_sets())
def test_rows_first_kernel_equals_the_determinant_form(raw):
    assert rows_first(raw) == reference(raw)
