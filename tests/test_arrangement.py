from fractions import Fraction

import pytest

from linearr.arrangement import (
    bounded_faces,
    build_arrangement,
    corner_points,
    corner_points_quadrant,
    is_isomorphic_trivial,
    is_line_at_infinity_geom,
    triangle_equivalence_classes,
    triangle_faces_oracle,
    triangles_from_faces,
)
from linearr.fuzzing import vertex_quadrant_empty
from linearr.geometry import ArrangementError, line
from linearr.nomenclature import parse_nomenclature, realize_nomenclature

THREE = [(1, -1, 0), (1, 0, 1), (1, 1, 3)]
SEVEN = "1^+1 2^-1 3^+1 7^+1 6^+1 4^-1 5^+1"


@pytest.fixture(scope="module")
def three():
    return build_arrangement(THREE)


@pytest.fixture(scope="module")
def seven():
    return realize_nomenclature(parse_nomenclature(SEVEN))


def test_build_translates_with_margin_one(three):
    # x intercepts (0, 1, 3) force a shift of +1: intercepts become (1, 2, 4)
    assert [ln.x_intercept() for ln in three.lines] == [1, 2, 4]
    assert all(v.x > 0 and v.y > 0 for v in three.vertices.values())


def test_build_assigns_ids_by_angle(three):
    # input already listed by increasing angle: pi/4, pi/2, 3*pi/4
    assert three.line(1).direction == (1, 1)
    assert three.line(2).direction == (0, 1)
    assert three.line(3).direction == (-1, 1)


def test_build_is_idempotent_on_conventional_input(three):
    again = build_arrangement(three.lines)
    assert again.lines == three.lines


def test_build_rejects_parallel():
    with pytest.raises(ArrangementError) as err:
        build_arrangement([(1, -1, 0), (2, -2, 5), (1, 0, 1)])
    assert err.value.code == "parallel-lines"


def test_build_rejects_concurrent_triple():
    with pytest.raises(ArrangementError) as err:
        build_arrangement([(1, -1, 0), (1, 0, 1), (1, 1, 2)])  # all through (1, 1)
    assert err.value.code == "concurrent-triple"


def test_build_rejects_horizontal():
    with pytest.raises(ArrangementError) as err:
        build_arrangement([(1, -1, 0), (0, 1, 1)])
    assert err.value.code == "horizontal-line"


def test_build_needs_two_lines():
    with pytest.raises(ArrangementError) as err:
        build_arrangement([(1, 0, 1)])
    assert err.value.code == "too-few-lines"


def test_line_orders_three_line(three):
    assert three.order_rows == ((2, 3), (1, 3), (1, 2))


def test_line_orders_two_line():
    arr = build_arrangement([(1, -1, 0), (1, 0, 1)])
    assert arr.order_rows == ((2,), (1,))


def test_line_orders_stable_under_translation(three):
    shifted = build_arrangement(
        [ln.translated(Fraction(9), Fraction(7)) for ln in three.lines]
    )
    assert shifted.order_rows == three.order_rows
    assert corner_points(shifted) == corner_points(three)
    assert triangle_faces_oracle(shifted) == triangle_faces_oracle(three)


def test_corner_points_three_line(three):
    assert corner_points(three) == {(1, 2), (1, 3), (2, 3)}


def test_corner_points_seven_line(seven):
    assert corner_points(seven) == {(3, 4), (4, 5), (5, 6)}


def test_corner_points_four_line_cycle():
    from linearr.cyclicity import realize_cycle, validate_cycle

    arr = realize_cycle(validate_cycle((1, 2, 4, 3)))
    assert corner_points(arr) == {(1, 4), (2, 3), (3, 4)}


def test_oracle_three_line(three):
    assert triangle_faces_oracle(three) == {(1, 2, 3)}


def test_oracle_seven_line(seven):
    assert triangle_faces_oracle(seven) == {
        (1, 2, 3), (1, 2, 4), (2, 3, 7), (1, 6, 7), (5, 6, 7),
    }


def test_faces_three_line(three):
    faces = bounded_faces(three)
    assert len(faces) == 1 and len(faces[0]) == 3


def test_faces_four_line_cycle_has_quadrilateral():
    from linearr.cyclicity import realize_cycle, validate_cycle

    arr = realize_cycle(validate_cycle((1, 2, 4, 3)))
    quads = [f for f in bounded_faces(arr) if len(f) == 4]
    assert len(quads) == 1
    assert sorted(quads[0].line_ids) == [1, 2, 3, 4]


def test_faces_match_oracle(seven, three):
    for arr in (seven, three):
        assert triangles_from_faces(arr) == triangle_faces_oracle(arr)


def test_face_census_formula(seven):
    assert len(bounded_faces(seven)) == 6 * 5 // 2


def test_isomorphic_to_itself(seven):
    assert is_isomorphic_trivial(seven, seven)


def test_six_line_pair_not_isomorphic():
    a = realize_nomenclature(parse_nomenclature("1^+1 2^-1 5^+1 3^+1 4^-1 6^+1"))
    b = realize_nomenclature(parse_nomenclature("1^+1 2^-1 5^+1 3^+1 6^+1 4^-1"))
    assert not is_isomorphic_trivial(a, b)


def test_same_cycle_realizations_isomorphic():
    from linearr.cyclicity import enumerate_cycles, realize_cycle

    for c in enumerate_cycles(5):
        assert is_isomorphic_trivial(realize_cycle(c, 0), realize_cycle(c, 1))


def test_equivalence_classes_seven_line(seven):
    classes = triangle_equivalence_classes(triangle_faces_oracle(seven))
    assert classes == [
        {(1, 2, 4), (1, 2, 3), (2, 3, 7)},
        {(1, 6, 7), (5, 6, 7)},
    ]


def test_equivalence_classes_singleton():
    assert triangle_equivalence_classes({(1, 2, 3)}) == [{(1, 2, 3)}]


def test_equivalence_classes_chain():
    t = {(1, 3, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4)}
    assert triangle_equivalence_classes(t) == [t]


def test_members_of_triangle_are_at_infinity(three):
    for i in (1, 2, 3):
        assert is_line_at_infinity_geom(three, i)


def test_seven_line_member_five_at_infinity(seven):
    assert is_line_at_infinity_geom(seven, 5)


def test_external_far_line_is_at_infinity():
    arr = realize_nomenclature(parse_nomenclature("1^+1 2^-1 3^+1"))
    assert is_line_at_infinity_geom(arr, line(1, 1, 10**6))


def test_external_degenerate_extensions(three):
    assert is_line_at_infinity_geom(three, line(1, 2, 10**6))
    with pytest.raises(ArrangementError) as err:
        is_line_at_infinity_geom(three, line(1, 1, 10**6))  # parallel to line 3
    assert err.value.code == "degenerate-extension"
    v = three.vertex(1, 2)
    with pytest.raises(ArrangementError) as err:
        is_line_at_infinity_geom(three, line(1, 2, v.x + 2 * v.y))
    assert err.value.code == "degenerate-extension"


def test_corner_quadrant_characterization_agrees(three, seven):
    for arr in (three, seven):
        direct = corner_points(arr)
        assert direct == corner_points_quadrant(arr)
        assert all(vertex_quadrant_empty(arr, i, j) for i, j in direct)
