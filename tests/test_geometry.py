from fractions import Fraction

import pytest

from linearr.geometry import (
    ArrangementError,
    EQUAL,
    GREATER,
    LESS,
    Point,
    cmp_angle,
    direction_ladder,
    intersect,
    ladder_direction_vector,
    line,
    side,
)
from linearr.cyclicity import parse_cycle, realize_cycle
from linearr.nomenclature import parse_nomenclature, realize_nomenclature

from test_kernel import kernel_arrangements


def pt(x, y):
    return Point(Fraction(x), Fraction(y))


def test_line_canonicalization():
    assert line(2, 2, 4) == line(1, 1, 2)
    assert line(-1, 1, 0) == line(1, -1, 0)
    assert line(Fraction(1, 2), Fraction(-1, 3), Fraction(5, 6)) == line(3, -2, 5)


def test_line_rejects_horizontal_and_degenerate():
    with pytest.raises(ArrangementError) as err:
        line(0, 1, 5)
    assert err.value.code == "horizontal-line"
    with pytest.raises(ArrangementError) as err:
        line(0, 0, 1)
    assert err.value.code == "invalid-line"


def build_or_error(a, b, c):
    try:
        return line(a, b, c)
    except ArrangementError as exc:
        return exc.code, str(exc)


def test_integer_coefficients_give_the_fraction_path_line():
    """Integer input skips Fraction but gives the same line, error code and
    text."""
    values = (-12, -6, -4, -3, -1, 0, 1, 2, 3, 4, 6, 9, 10**30 + 2)
    for a in values:
        for b in values:
            for c in values:
                got = build_or_error(a, b, c)
                assert got == build_or_error(Fraction(a), Fraction(b), Fraction(c))
                if not isinstance(got, tuple):
                    assert type(got.a) is type(got.b) is type(got.c) is int


def test_direction_has_positive_y():
    for coeffs in ((1, 1, 2), (3, -2, 5), (7, 0, 1)):
        dx, dy = line(*coeffs).direction
        assert dy > 0


def test_side_examples():
    ln = line(1, 1, 2)
    assert side(ln, pt(0, 0)) == -1
    assert side(ln, pt(2, 2)) == 1
    assert side(ln, pt(1, 1)) == 0


def test_intersect_examples():
    p = intersect(line(1, -1, 0), line(1, 1, 2))
    assert (p.x, p.y) == (1, 1)
    p = intersect(line(1, 0, 1), line(1, 1, 3))
    assert (p.x, p.y) == (1, 2)


def test_intersect_parallel_is_an_error():
    with pytest.raises(ArrangementError) as err:
        intersect(line(1, -1, 0), line(2, -2, 5))
    assert err.value.code == "parallel-lines"


def test_intersection_lies_on_both_lines():
    l1, l2 = line(3, -2, 7), line(1, 5, 11)
    p = intersect(l1, l2)
    assert side(l1, p) == 0 and side(l2, p) == 0


def test_cmp_angle_quarter_turns():
    diag_up = line(1, -1, 0)  # pi/4
    vertical = line(1, 0, 1)  # pi/2
    diag_down = line(1, 1, 2)  # 3*pi/4
    assert cmp_angle(diag_up, vertical) == LESS
    assert cmp_angle(vertical, diag_down) == LESS
    assert cmp_angle(diag_down, diag_up) == GREATER
    assert cmp_angle(diag_up, line(3, -3, 7)) == EQUAL


def test_side_is_translation_covariant():
    ln = line(2, -3, 5)
    p = pt(4, -1)
    s = side(ln, p)
    for dx, dy in ((1, 0), (0, 1), (-7, 3), (Fraction(1, 3), Fraction(-5, 2))):
        moved = ln.translated(Fraction(dx), Fraction(dy))
        assert side(moved, Point(p.x + dx, p.y + dy)) == s


@pytest.mark.parametrize("variant", [0, 1])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
def test_direction_ladder_is_strictly_increasing(n, variant):
    entries = direction_ladder(n, variant)
    lines = []
    for entry in entries:
        dx, dy = ladder_direction_vector(entry)
        assert dy > 0
        lines.append(line(dy, -dx, 1))
    for a, b in zip(lines, lines[1:]):
        assert cmp_angle(a, b) == LESS


@pytest.mark.parametrize("n, variant, code", [
    (0, 0, "n-out-of-range"), (-3, 1, "n-out-of-range"), (5, 2, "bad-token"), (5, -1, "bad-token"),
])
def test_direction_ladder_rejects_bad_input_with_a_code(n, variant, code):
    with pytest.raises(ArrangementError) as exc:
        direction_ladder(n, variant)
    assert exc.value.code == code


@pytest.mark.parametrize("realize, text", [
    (lambda t, v: realize_nomenclature(parse_nomenclature(t), v), "1^+1 2^-1 3^+1 5^-1 4^+1"),
    (lambda t, v: realize_cycle(parse_cycle(t), v), "(1 3 4 2 5)"),
], ids=["nomenclature", "cycle"])
@pytest.mark.parametrize("variant", [2, -1, "1"])
def test_realizers_reject_an_unknown_ladder_variant(realize, text, variant):
    with pytest.raises(ArrangementError) as exc:
        realize(text, variant)
    assert exc.value.code == "bad-token"


def test_ladder_entries_sit_on_the_unit_circle():
    for p, q, w in direction_ladder(9):
        dx, dy = q * q - p * p, 2 * p * q
        assert dx * dx + dy * dy == w * w


def test_cmp_angle_is_a_strict_total_order_up_to_parallels():
    lines = [
        line(a, b, 1)
        for a in range(1, 5)
        for b in range(-4, 5)
    ]
    for a in lines:
        for b in lines:
            ab, ba = cmp_angle(a, b), cmp_angle(b, a)
            assert ab == -ba
            assert (ab == EQUAL) == (a.direction == b.direction)
            for c in lines:
                if ab == LESS and cmp_angle(b, c) == LESS:
                    assert cmp_angle(a, c) == LESS


def cmp_angle_by_directions(l1, l2):
    """The form ``cmp_angle`` had: the cross product of the two primitive
    direction vectors, each (-b, a) divided by its gcd."""
    (d1x, d1y), (d2x, d2y) = l1.direction, l2.direction
    cross = d1x * d2y - d1y * d2x
    return LESS if cross > 0 else GREATER if cross < 0 else EQUAL


def test_cmp_angle_equals_the_direction_vector_form():
    pairs = 0
    for arr in kernel_arrangements():
        for a in arr.lines:
            for b in arr.lines:
                assert cmp_angle(a, b) == cmp_angle_by_directions(a, b)
                pairs += 1
    assert pairs > 5000
