"""Property test of the rows-first kernel: on random sets of lines with
small coefficients, many of them through a few shared points, the build
either fails exactly as the determinant-per-triple kernel makes it fail, or
gives the same rows, side bits, triangle oracle, face edge lists and
gonality cycle."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from linearr import arrangement
from linearr.arrangement import Arrangement, bounded_faces, build_arrangement, triangle_faces_oracle
from linearr.cyclicity import detect_gonality_cycle, validate_cycle
from linearr.geometry import ArrangementError

from test_kernel import faces_by_full_walk, rows_and_bits_by_determinants

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
        patch.setattr(arrangement, "_rows_and_bits_of", rows_and_bits_by_determinants)
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
        return arr.order_rows, arr._side_bits, triangle_faces_oracle(arr), faces, cycle


def rows_first(raw):
    try:
        arr = build_arrangement(raw)
    except ArrangementError as exc:
        return exc.code, str(exc)
    fresh = Arrangement(arr.lines)
    cycle = detect_gonality_cycle(fresh)  # line 1's zone first, then the rest
    faces = [f.edges for f in bounded_faces(fresh)]
    return arr.order_rows, arr._side_bits, triangle_faces_oracle(arr), faces, cycle


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(line_sets())
def test_rows_first_kernel_equals_the_determinant_form(raw):
    assert rows_first(raw) == reference(raw)
