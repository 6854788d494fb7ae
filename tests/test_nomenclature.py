import pytest

from linearr.arrangement import build_arrangement, is_isomorphic_trivial
from linearr.geometry import ArrangementError, side
from linearr.fuzzing import SplitMix64, find_infinity_permutation, gen_infinity_type
from linearr.nomenclature import (
    Nomenclature,
    canonical_infinity_permutation,
    derive_nomenclature,
    format_nomenclature,
    parse_nomenclature,
    realize_nomenclature,
    triangle_signs,
)

SEVEN = "1^+1 2^-1 3^+1 7^+1 6^+1 4^-1 5^+1"
SEVEN_ALT = "1^+1 2^-1 3^+1 4^-1 7^+1 6^+1 5^+1"


def test_parse_basic():
    nom = parse_nomenclature("1^+1 2^-1 3^+1")
    assert nom.labels == (1, 2, 3)
    assert nom.signs == (1, -1, 1)


def test_parse_formats_back():
    for text in (SEVEN, SEVEN_ALT, "1^+1 2^-1 5^+1 3^+1 4^-1 6^+1"):
        assert format_nomenclature(parse_nomenclature(text)) == text


def test_parse_normalizes_spacing():
    assert format_nomenclature(parse_nomenclature("  1^+1   2^-1\t3^+1 ")) == "1^+1 2^-1 3^+1"


@pytest.mark.parametrize(
    "text,code",
    [
        ("1^+1 2^-1 3^2", "bad-token"),
        ("1^+1 x^-1 3^+1", "bad-token"),
        ("1^+1 1^-1 2^+1", "not-a-permutation"),
        ("1^+1 2^-1 4^+1", "not-a-permutation"),
        ("1^+1 2^+1 3^+1", "bad-leading-signs"),
        ("1^+1 2^-1", "bad-leading-signs"),
    ],
)
def test_parse_errors(text, code):
    with pytest.raises(ArrangementError) as err:
        parse_nomenclature(text)
    assert err.value.code == code


@pytest.mark.parametrize(
    "text, code",
    [
        ("\u0661^+1 \u0662^-1 \u0663^+1", "bad-token"),
        ("1^+1 \uff12^-1 3^+1", "bad-token"),
        ("1^+1 2^-1 " + "3" * 5000 + "^+1", "bad-token"),
        ("1^+1 2^-1 " + "3" * 4300 + "^+1", "not-a-permutation"),
    ],
    ids=["arabic-indic", "fullwidth", "5000-digits", "4300-digits"],
)
def test_parse_labels_follow_the_file_loader(text, code):
    """Labels are the loader's integers: ASCII digits, at most MAX_DIGITS."""
    with pytest.raises(ArrangementError) as err:
        parse_nomenclature(text)
    assert err.value.code == code


def test_triangle_signs_case_one():
    arr = build_arrangement([(1, -1, 0), (1, 0, 1), (1, 1, 3)])
    assert triangle_signs(arr) == (1, -1, 1)


def test_triangle_signs_case_two():
    arr = realize_nomenclature(parse_nomenclature("1^-1 2^+1 3^-1"))
    assert triangle_signs(arr) == (-1, 1, -1)


def test_canonical_permutation_of_a_triangle():
    arr = build_arrangement([(1, -1, 0), (1, 0, 1), (1, 1, 3)])
    assert canonical_infinity_permutation(arr) == (1, 2, 3)
    assert format_nomenclature(derive_nomenclature(arr)) == "1^+1 2^-1 3^+1"


def test_canonical_permutation_seven_line():
    arr = realize_nomenclature(parse_nomenclature(SEVEN))
    perm = canonical_infinity_permutation(arr)
    assert perm is not None and perm[-1] == 5
    # the greedy order reproduces the alternative nomenclature of the figure
    assert format_nomenclature(derive_nomenclature(arr, perm)) == SEVEN_ALT


def test_derive_realize_roundtrip_both_orders():
    for text in (SEVEN, SEVEN_ALT):
        nom = parse_nomenclature(text)
        arr = realize_nomenclature(nom)
        assert derive_nomenclature(arr, nom.labels) == nom


def test_seven_line_arrangement_admits_both_nomenclatures():
    arr = realize_nomenclature(parse_nomenclature(SEVEN))
    alt = parse_nomenclature(SEVEN_ALT)
    assert derive_nomenclature(arr, alt.labels) == alt


def test_derive_rejects_non_infinity_permutation():
    arr = realize_nomenclature(parse_nomenclature(SEVEN))
    with pytest.raises(ArrangementError) as err:
        derive_nomenclature(arr, (1, 2, 3, 4, 5, 6, 7))
    assert err.value.code == "not-an-infinity-permutation"


def test_realize_prefix_infinity_property():
    nom = parse_nomenclature(SEVEN)
    arr = realize_nomenclature(nom)
    # every prefix line keeps all earlier vertices strictly on one side
    from linearr.arrangement import at_infinity_in_subset

    for l in range(2, nom.n + 1):
        assert at_infinity_in_subset(arr, nom.labels[l - 1], nom.labels[:l])


def test_origin_is_on_the_minus_side_of_every_line():
    from fractions import Fraction
    from linearr.geometry import Point

    origin = Point(Fraction(0), Fraction(0))
    for text in (SEVEN, "1^-1 2^+1 3^-1", "1^+1 2^-1 5^+1 3^+1 4^-1 6^+1"):
        arr = realize_nomenclature(parse_nomenclature(text))
        assert all(side(ln, origin) == -1 for ln in arr.lines)


def test_realization_variants_are_isomorphic():
    rng = SplitMix64(2024)
    for _ in range(15):
        n = 3 + rng.below(7)
        nom, arr = gen_infinity_type(n, rng.next_u64())
        assert is_isomorphic_trivial(arr, realize_nomenclature(nom, variant=1))


def test_canonical_idempotence_on_random_samples():
    rng = SplitMix64(99)
    for _ in range(10):
        n = 3 + rng.below(6)
        _, arr = gen_infinity_type(n, rng.next_u64())
        nom = derive_nomenclature(arr)
        again = derive_nomenclature(realize_nomenclature(nom))
        assert again == nom


def test_greedy_matches_backtracking_when_it_succeeds():
    rng = SplitMix64(5)
    for _ in range(10):
        n = 3 + rng.below(6)
        _, arr = gen_infinity_type(n, rng.next_u64())
        assert canonical_infinity_permutation(arr) is not None
        assert find_infinity_permutation(arr) is not None


def test_nomenclature_value_object():
    nom = Nomenclature((2, 1, 3), (-1, 1, 1))
    assert nom.label_at(1) == 2 and nom.sign_at(1) == -1
    assert nom.position_of(3) == 3
    assert nom.negated().signs == (1, -1, -1)
    assert nom.negated().negated() == nom
