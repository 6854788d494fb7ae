from fractions import Fraction

import pytest

from linearr.arrangement import build_arrangement
from linearr.fileio import (
    format_arrangement,
    load_arrangement,
    parse_arrangement,
    parse_rational,
    save_arrangement,
)
from linearr.geometry import ArrangementError, line

THREE = [(1, -1, 0), (1, 0, 1), (1, 1, 3)]


def test_save_load_roundtrip_is_byte_identical(tmp_path):
    arr = build_arrangement(THREE)
    path = tmp_path / "three.arr"
    save_arrangement(arr, path)
    again = load_arrangement(path)
    assert again.lines == arr.lines
    assert format_arrangement(again) == path.read_text()


def test_format_shape():
    text = format_arrangement(build_arrangement(THREE))
    lines = text.splitlines()
    assert lines[0] == "arr v1 n=3"
    assert lines[1] == "1 1 -1 1"
    assert len(lines) == 4


def test_parse_accepts_comments_and_rationals():
    text = "\n".join(
        [
            "# a comment",
            "arr v1 n=2",
            "1 1 -1/2 1/4",
            "",
            "# another",
            "2 1 1/3 2",
        ]
    )
    arr = parse_arrangement(text)
    assert arr.n == 2
    assert arr.line(1).a > 0


def test_parse_normalizes_nonconventional_input():
    # same lines, translated so an intercept goes negative: loads fine and
    # comes back in conventional position with identical combinatorics
    base = build_arrangement(THREE)
    shifted = [ln.translated(-50, 0) for ln in base.lines]
    text = "arr v1 n=3\n" + "\n".join(
        f"{i} {ln.a} {ln.b} {ln.c}" for i, ln in enumerate(shifted, 1)
    )
    arr = parse_arrangement(text)
    assert arr.order_rows == base.order_rows
    assert arr.lines == base.lines


def test_integer_and_fraction_tokens_give_the_same_lines():
    """Integer tokens reach ``line`` as ``int``; the lines equal those of the
    same values written as fractions, and a zero ``a`` is still refused with
    the ``Fraction`` path's code and text."""
    base = build_arrangement([(1, -1, 0), (1, 0, 1), (1, 1, 3), (2, 5, 9)])
    records = [
        (k * ln.a, k * ln.b, k * ln.c) for k, ln in zip((2, -3, 1, 6), base.lines)
    ]
    whole = "\n".join(f"{i} {a} {b} {c}" for i, (a, b, c) in enumerate(records, 1))
    split = "\n".join(
        f"{i} {2 * a}/2 {3 * b}/3 {c}/1" for i, (a, b, c) in enumerate(records, 1)
    )
    arr = parse_arrangement(f"arr v1 n=4\n{whole}\n")
    assert arr.lines == parse_arrangement(f"arr v1 n=4\n{split}\n").lines
    assert arr.lines == build_arrangement(
        tuple(map(Fraction, r)) for r in records
    ).lines
    assert parse_rational("-12") == -12 and type(parse_rational("-12")) is Fraction
    for coeffs in ((0, 2, 3), (0, 0, 1), (0, -1, 0)):
        with pytest.raises(ArrangementError) as want:
            line(*map(Fraction, coeffs))
        with pytest.raises(ArrangementError) as got:
            parse_arrangement("arr v1 n=2\n1 1 -1 0\n2 %d %d %d\n" % coeffs)
        assert (got.value.code, str(got.value)) == (want.value.code, str(want.value))


def test_id_order_mismatch_suggests_relabeling():
    with pytest.raises(ArrangementError) as err:
        parse_arrangement("arr v1 n=2\n1 1 1 3\n2 1 -1 0\n")
    assert err.value.code == "id-order-mismatch"
    assert "1->2" in str(err.value)


@pytest.mark.parametrize(
    "text",
    [
        "nope\n1 1 1 3\n",
        "arr v1 n=3\n1 1 -1 0\n2 1 0 1\n",
        "arr v1 n=2\n1 1 -1 0\n1 1 0 1\n",
        "arr v1 n=2\n1 1 -1 0\n2 1 0\n",
        "arr v1 n=2\n1 1 -1 0\n2 1 x 1\n",
        "arr v1 n=2\n1 1 -1 0\n3 1 0 1\n",
    ],
)
def test_parse_rejects_malformed_files(text):
    with pytest.raises(ArrangementError) as err:
        parse_arrangement(text)
    assert err.value.code == "bad-file"


def test_parse_rejects_zero_denominator():
    with pytest.raises(ArrangementError) as err:
        parse_arrangement("arr v1 n=2\n1 1 -1 1/0\n2 1 0 1\n")
    assert err.value.code == "bad-file"


@pytest.mark.parametrize(
    "token",
    ["1.5", "2e0", "1_0", "+3", "1e5000", "0x10", "٣", "1/-2", "-", "1/", "/2",
     "1" * 4301, "1/" + "1" * 4301],
)
def test_parse_rejects_loose_coefficient_tokens(token):
    with pytest.raises(ArrangementError) as err:
        parse_arrangement(f"arr v1 n=2\n1 1 -1 0\n2 1 1 {token}\n")
    assert err.value.code == "bad-file"


def test_parse_accepts_coefficients_up_to_the_digit_limit():
    big = 10**4299  # 4300 digits
    arr = parse_arrangement(f"arr v1 n=2\n1 1 -1 0\n2 1 1 -{big}/{big + 1}\n")
    assert arr.n == 2


@pytest.mark.parametrize(
    "text",
    [
        "arr v1 n=1\n² 1 -1 0\n",  # "²".isdigit() holds but int("²") raises
        "arr v1 n=+2\n1 1 -1 0\n2 1 1 1\n",
        "arr v1 n=0_2\n1 1 -1 0\n2 1 1 1\n",
    ],
)
def test_parse_rejects_loose_ids_and_counts(text):
    with pytest.raises(ArrangementError) as err:
        parse_arrangement(text)
    assert err.value.code == "bad-file"
