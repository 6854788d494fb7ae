import pytest

from linearr.arrangement import (
    bounded_faces,
    is_isomorphic_trivial,
    triangle_equivalence_classes,
    triangle_faces_oracle,
)
from linearr.cyclicity import (
    GonalityCycle,
    _unrank_cycle,
    cycle_triangles,
    detect_gonality_cycle,
    enumerate_cycles,
    format_cycle,
    parse_cycle,
    realize_cycle,
    reconstruct_cycle,
    validate_cycle,
)
from linearr.geometry import ArrangementError
from linearr.nomenclature import parse_nomenclature, realize_nomenclature


def test_validate_examples():
    c = validate_cycle((1, 3, 4, 2, 5))
    assert c is not None and c.r == 3
    assert validate_cycle((1, 2, 3, 4)) is None
    c = validate_cycle((1, 3, 2))
    assert c is not None and c.r == 2


def test_validate_malformed_inputs():
    with pytest.raises(ArrangementError) as err:
        validate_cycle((1, 2, 2))
    assert err.value.code == "not-a-permutation"
    with pytest.raises(ArrangementError) as err:
        validate_cycle((2, 1, 3))
    assert err.value.code == "must-start-at-1"
    with pytest.raises(ArrangementError) as err:
        validate_cycle(())
    assert err.value.code == "must-start-at-1"


def test_cycle_text_roundtrip():
    c = parse_cycle("(1 4 5 2 3)")
    assert c.seq == (1, 4, 5, 2, 3)
    assert format_cycle(c) == "(1 4 5 2 3)"
    with pytest.raises(ArrangementError):
        parse_cycle("1 5 2")
    with pytest.raises(ArrangementError):
        parse_cycle("(1 2 3)")  # shape-invalid


@pytest.mark.parametrize(
    "text",
    ["(\u0661 \u0663 \u0662)", "(1 3 \uff12)", "(1 3 2 " + "4" * 5000 + ")", "(1 +3 2)"],
    ids=["arabic-indic", "fullwidth", "5000-digits", "plus-sign"],
)
def test_cycle_labels_follow_the_file_loader(text):
    with pytest.raises(ArrangementError) as err:
        parse_cycle(text)
    assert err.value.code == "bad-token"


@pytest.mark.parametrize("n,count", [(3, 1), (4, 4), (5, 11), (6, 26), (7, 57)])
def test_census_counts(n, count):
    cycles = enumerate_cycles(n)
    assert len(cycles) == count == 2 ** (n - 1) - n
    assert len({c.seq for c in cycles}) == count


def test_unrank_equals_the_census_at_every_rank():
    for n in range(3, 15):
        cycles = enumerate_cycles(n)
        assert [_unrank_cycle(n, k) for k in range(len(cycles))] == cycles
    with pytest.raises(ArrangementError) as err:
        _unrank_cycle(6, 2 ** 5 - 6)
    assert err.value.code == "n-out-of-range"


def test_unrank_at_sampled_ranks_of_larger_censuses():
    cycles = enumerate_cycles(16)
    for k in range(0, len(cycles), 97):
        assert _unrank_cycle(16, k) == cycles[k]
    # n = 20 without its census: sampled ranks give valid cycles in seq
    # order, from the least cycle to the greatest
    count = 2 ** 19 - 20
    ranks = sorted({0, 1, count - 2, count - 1} | {k * 7919 % count for k in range(300)})
    got = [_unrank_cycle(20, k) for k in ranks]
    assert all(validate_cycle(c.seq) == c for c in got)
    assert all(a.seq < b.seq for a, b in zip(got, got[1:]))
    assert got[0].seq == tuple(range(1, 19)) + (20, 19)
    assert got[-1].seq == (1, 20) + tuple(range(2, 20))
    with pytest.raises(ArrangementError):
        _unrank_cycle(20, count)


def test_census_range_guard():
    for n in (2, 25):
        with pytest.raises(ArrangementError) as err:
            enumerate_cycles(n)
        assert err.value.code == "n-out-of-range"


def test_unique_three_cycle():
    assert [c.seq for c in enumerate_cycles(3)] == [(1, 3, 2)]


def test_cycle_triangles_fixtures():
    c = validate_cycle((1, 2, 4, 3))
    assert cycle_triangles(c) == {(1, 2, 4), (1, 2, 3)}
    c = validate_cycle((1, 3, 4, 2, 5))
    assert cycle_triangles(c) == {(1, 3, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4)}


def test_cycle_triangles_needs_four_lines():
    with pytest.raises(ArrangementError) as err:
        cycle_triangles(validate_cycle((1, 3, 2)))
    assert err.value.code == "n-too-small"


def test_three_line_detection():
    from linearr.arrangement import build_arrangement

    arr = build_arrangement([(1, -1, 0), (1, 0, 1), (1, 1, 3)])
    assert detect_gonality_cycle(arr).seq == (1, 3, 2)


def test_realize_detect_roundtrip_exhaustive_small():
    for n in (4, 5, 6):
        for c in enumerate_cycles(n):
            assert detect_gonality_cycle(realize_cycle(c)) == c


def test_realized_cycles_match_oracle_exhaustive_small():
    for n in (4, 5, 6):
        for c in enumerate_cycles(n):
            arr = realize_cycle(c)
            oracle = triangle_faces_oracle(arr)
            assert cycle_triangles(c) == oracle
            assert len(triangle_equivalence_classes(oracle)) <= 2


def test_seven_line_figure_has_no_cycle():
    arr = realize_nomenclature(
        parse_nomenclature("1^+1 2^-1 3^+1 7^+1 6^+1 4^-1 5^+1")
    )
    assert detect_gonality_cycle(arr) is None


def test_every_cycle_realization_has_single_ngon_face():
    for c in enumerate_cycles(5):
        faces = bounded_faces(realize_cycle(c))
        assert sum(1 for f in faces if len(f) == 5) == 1


def test_face_structure_is_ngon_quads_and_adjacent_triangles():
    from linearr.fuzzing import check_ngon_face_structure

    for c in enumerate_cycles(6):
        assert check_ngon_face_structure(realize_cycle(c), c)


def test_juxtaposed_side_criterion():
    from linearr.fuzzing import check_juxtaposed_sides

    for c in enumerate_cycles(6):
        assert check_juxtaposed_sides(c, triangle_faces_oracle(realize_cycle(c)))


def test_reconstruct_fixture():
    assert reconstruct_cycle({(1, 2, 4), (1, 2, 3)}, 4).seq == (1, 2, 4, 3)


def test_reconstruct_empty_and_unknown():
    for n in (4, 5, 9):
        assert reconstruct_cycle(set(), n) is None
    assert reconstruct_cycle({(1, 2, 3)}, 4) is None


def test_reconstruct_inverts_triangle_listing():
    for n in (4, 5, 6, 7, 8):
        for c in enumerate_cycles(n):
            assert reconstruct_cycle(cycle_triangles(c), n) == c


def test_reconstruct_range_guard():
    with pytest.raises(ArrangementError) as err:
        reconstruct_cycle(set(), 3)
    assert err.value.code == "n-out-of-range"
    with pytest.raises(ArrangementError) as err:
        reconstruct_cycle(set(), 21)
    assert err.value.code == "n-out-of-range"


def test_realizations_isomorphic_iff_same_cycle():
    for n in (5, 6, 7):
        cycles = enumerate_cycles(n)
        arrs = {c.seq: realize_cycle(c) for c in cycles}
        others = {c.seq: realize_cycle(c, variant=1) for c in cycles}
        for c1 in cycles:
            for c2 in cycles:
                expected = c1 == c2
                assert is_isomorphic_trivial(arrs[c1.seq], others[c2.seq]) == expected


def test_cycle_value_object():
    c = GonalityCycle((1, 2, 4, 3), 3)
    assert c.n == 4
    assert str(c) == "(1 2 4 3)"


def test_reconstruct_beyond_the_indexed_range():
    # n above the cached-index threshold takes the census-scan path
    from linearr.cyclicity import _INDEXED_N

    n = _INDEXED_N + 1
    c = enumerate_cycles(n)[123]
    assert reconstruct_cycle(cycle_triangles(c), n) == c
