from itertools import combinations, permutations, product

import pytest

from linearr.arrangement import is_line_at_infinity_geom, triangle_faces_oracle
from linearr.geometry import ArrangementError
from linearr.infinity import (
    is_line_at_infinity_symbolic,
    is_nomenclature_triangle,
    nomenclature_triangles,
)
from linearr.nomenclature import (
    Nomenclature,
    derive_nomenclature,
    parse_nomenclature,
    realize_nomenclature,
)

SEVEN = parse_nomenclature("1^+1 2^-1 3^+1 7^+1 6^+1 4^-1 5^+1")
SIX_A = parse_nomenclature("1^+1 2^-1 5^+1 3^+1 4^-1 6^+1")
SIX_B = parse_nomenclature("1^+1 2^-1 5^+1 3^+1 6^+1 4^-1")


def test_base_positions_always_triangle():
    assert is_nomenclature_triangle(SEVEN, 1, 2, 3)
    assert is_nomenclature_triangle(SIX_A, 1, 2, 3)


def test_outside_interval_case():
    # positions (4, 5, 7) carry lines {7, 6, 5}; nothing lies strictly
    # between 6 and 7, and the sign products line up
    assert is_nomenclature_triangle(SEVEN, 4, 5, 7)


def test_inside_interval_case():
    # positions (1, 4, 5) carry lines {1, 7, 6}; every earlier label lies
    # inside [1, 7] and the tail signs repeat the middle sign
    assert is_nomenclature_triangle(SEVEN, 1, 4, 5)


def test_position_errors():
    with pytest.raises(ArrangementError) as err:
        is_nomenclature_triangle(SEVEN, 2, 1, 3)
    assert err.value.code == "bad-positions"
    with pytest.raises(ArrangementError) as err:
        is_nomenclature_triangle(SEVEN, 1, 2, 9)
    assert err.value.code == "bad-positions"
    with pytest.raises(ArrangementError) as err:
        is_line_at_infinity_symbolic(SEVEN, 0)
    assert err.value.code == "bad-position"


def test_triangle_set_seven_line():
    assert nomenclature_triangles(SEVEN) == {
        (1, 2, 3), (1, 2, 4), (2, 3, 7), (1, 6, 7), (5, 6, 7),
    }


def test_triangle_set_six_line_pair_identical():
    expected = {(1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 6), (4, 5, 6)}
    assert nomenclature_triangles(SIX_A) == expected
    assert nomenclature_triangles(SIX_B) == expected


def test_triangle_set_of_plain_triangle():
    nom = parse_nomenclature("2^-1 1^+1 3^+1")
    assert nomenclature_triangles(nom) == {(1, 2, 3)}


def test_last_position_always_at_infinity():
    for nom in (SEVEN, SIX_A, SIX_B):
        assert is_line_at_infinity_symbolic(nom, nom.n)


def test_line_four_statuses_from_the_figures():
    assert not is_line_at_infinity_symbolic(SIX_A, SIX_A.position_of(4))
    assert is_line_at_infinity_symbolic(SEVEN, SEVEN.position_of(4))


def test_line_six_differs_between_the_six_line_pair():
    assert is_line_at_infinity_symbolic(SIX_A, SIX_A.position_of(6))
    assert not is_line_at_infinity_symbolic(SIX_B, SIX_B.position_of(6))


def test_negation_handling_is_an_involution():
    for nom in (SEVEN, SIX_A, SIX_B):
        for t in range(1, nom.n + 1):
            assert is_line_at_infinity_symbolic(nom, t) == is_line_at_infinity_symbolic(
                nom.negated(), t
            )


def _all_nomenclatures(n):
    for labels in permutations(range(1, n + 1)):
        i, j, k = sorted(labels[:3])
        for case in (0, 1):
            pattern = {i: 1, j: -1, k: 1} if case == 0 else {i: -1, j: 1, k: -1}
            lead = tuple(pattern[x] for x in labels[:3])
            for tail in product((1, -1), repeat=n - 3):
                yield Nomenclature(labels, lead + tuple(tail))


def test_exhaustive_small_agreement_with_geometry():
    """Every well-formed nomenclature with n <= 6: the realization reads back
    as the nomenclature, Theorem B gives its triangles and the symbolic
    infinity rule its at-infinity lines."""
    count = 0
    for n in range(3, 7):
        for nom in _all_nomenclatures(n):
            arr = realize_nomenclature(nom)
            assert derive_nomenclature(arr, nom.labels) == nom
            assert nomenclature_triangles(nom) == triangle_faces_oracle(arr)
            for t in range(1, n + 1):
                assert is_line_at_infinity_symbolic(nom, t) == is_line_at_infinity_geom(
                    arr, nom.label_at(t)
                )
            count += 1
    assert count == 12 + 96 + 960 + 11520


def _necessary_condition(nom, i, j, k):
    lo, hi = sorted((nom.label_at(i), nom.label_at(j)))
    prefix = [nom.label_at(p) for p in range(1, k + 1)]
    return all(not lo < v < hi for v in prefix) or all(lo <= v <= hi for v in prefix)


def test_necessary_condition_holds_for_oracle_triangles():
    from linearr.fuzzing import gen_infinity_type

    for seed in range(12):
        nom, arr = gen_infinity_type(3 + seed % 6, seed)
        pos = {lab: p for p, lab in enumerate(nom.labels, 1)}
        for tri in triangle_faces_oracle(arr):
            i, j, k = sorted(pos[x] for x in tri)
            assert _necessary_condition(nom, i, j, k)


def test_interval_cases_are_mutually_exclusive():
    for n in (4, 5):
        for nom in _all_nomenclatures(n):
            for i, j, k in combinations(range(1, n + 1), 3):
                if (i, j, k) == (1, 2, 3):
                    continue
                lo, hi = sorted((nom.label_at(i), nom.label_at(j)))
                prefix = [nom.label_at(p) for p in range(1, k + 1)]
                outside = all(not lo < v < hi for v in prefix)
                inside = all(lo <= v <= hi for v in prefix)
                assert not (outside and inside)
