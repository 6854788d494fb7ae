import json
from fractions import Fraction
from pathlib import Path

import pytest

from linearr import fuzzing
from linearr.cli import cli_main
from linearr.fileio import load_arrangement
from linearr.svg import RenderSpec, svg_text

SEVEN = "1^+1 2^-1 3^+1 7^+1 6^+1 4^-1 5^+1"
SIX_A = "1^+1 2^-1 5^+1 3^+1 4^-1 6^+1"


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_triangles_thmb_fixture(capsys):
    code, out, _ = run(capsys, "triangles", "--nomenclature", SEVEN, "--method", "thmB")
    assert code == 0
    assert out == "1 2 3\n1 2 4\n1 6 7\n2 3 7\n5 6 7\n"


def test_triangles_all_methods_agree(capsys):
    outs = set()
    for method in ("oracle", "thmB"):
        code, out, _ = run(capsys, "triangles", "--nomenclature", SEVEN, "--method", method)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_triangles_thma_needs_a_cycle(capsys):
    code, _, err = run(capsys, "triangles", "--nomenclature", SEVEN, "--method", "thmA")
    assert code == 1
    assert "no gonality cycle" in err


def test_triangles_thma_from_cycle_file(capsys, tmp_path):
    path = str(tmp_path / "c.arr")
    assert cli_main(["realize", "--cycle", "(1 3 4 2 5)", "-o", path]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "triangles", path, "--method", "thmA")
    assert code == 0
    assert out == "1 2 5\n1 3 4\n1 3 5\n2 3 4\n"


def test_triangles_input_validation(capsys):
    code, _, err = run(capsys, "triangles", "--method", "oracle")
    assert code == 2
    code, _, err = run(
        capsys, "triangles", "f.arr", "--nomenclature", SEVEN, "--method", "oracle"
    )
    assert code == 2


def test_census_output(capsys):
    code, out, _ = run(capsys, "census", "-n", "5")
    assert code == 0
    assert out == "valid cycles: 11 (formula 2^{n-1}-n = 11)\n"


def test_census_range_error(capsys):
    code, _, err = run(capsys, "census", "-n", "40")
    assert code == 2
    assert "n-out-of-range" in err


def test_infinity_line_false_gives_exit_one(capsys):
    code, out, _ = run(capsys, "infinity-line", "--nomenclature", SIX_A, "--line", "4")
    assert code == 1
    assert out == "false\n"


def test_infinity_line_true(capsys):
    code, out, _ = run(capsys, "infinity-line", "--nomenclature", SIX_A, "--line", "6")
    assert code == 0
    assert out == "true\n"


def test_infinity_line_geometric_agrees(capsys):
    for label in ("4", "6"):
        sym = run(capsys, "infinity-line", "--nomenclature", SIX_A, "--line", label)
        geo = run(
            capsys, "infinity-line", "--nomenclature", SIX_A, "--line", label, "--geometric"
        )
        assert sym[:2] == geo[:2]


def test_infinity_line_unknown_label(capsys):
    code, _, err = run(capsys, "infinity-line", "--nomenclature", SIX_A, "--line", "9")
    assert code == 2


def test_realize_and_analyze_pipeline(capsys, tmp_path):
    path = str(tmp_path / "seven.arr")
    assert cli_main(["realize", "--nomenclature", SEVEN, "-o", path]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert "n=7\n" in out
    assert out.count("order ") == 7
    assert "corner points: {3,4} {4,5} {5,6}\n" in out
    assert "gonality cycle: none\n" in out
    assert "triangles[oracle]: 1 2 3; 1 2 4; 1 6 7; 2 3 7; 5 6 7\n" in out
    assert "triangles[thmB]: 1 2 3; 1 2 4; 1 6 7; 2 3 7; 5 6 7\n" in out
    assert "equivalence classes: [1 2 3; 1 2 4; 2 3 7] [1 6 7; 5 6 7]\n" in out
    assert "MISMATCH" not in out


def test_analyze_cyclic_file_shows_cycle_and_thma(capsys, tmp_path):
    path = str(tmp_path / "c.arr")
    assert cli_main(["realize", "--cycle", "(1 2 4 3)", "-o", path]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert "gonality cycle: (1 2 4 3)\n" in out
    assert "triangles[thmA]: 1 2 3; 1 2 4\n" in out


def test_analyze_rejects_bad_file(capsys, tmp_path):
    path = tmp_path / "bad.arr"
    path.write_text("arr v1 n=2\n1 1 1 3\n2 1 -1 0\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "id-order-mismatch" in err


@pytest.mark.parametrize(
    "option, text",
    [
        ("--nomenclature", "1^+1 2^-1 " + "3" * 5000 + "^+1"),
        ("--nomenclature", "\u0661^+1 \u0662^-1 \u0663^+1"),
        ("--cycle", "(1 3 2 " + "4" * 5000 + ")"),
        ("--cycle", "(\u0661 \u0663 \u0662)"),
    ],
    ids=["nomenclature-5000-digits", "nomenclature-arabic-indic", "cycle-5000-digits",
         "cycle-arabic-indic"],
)
def test_realize_rejects_labels_the_loader_rejects(capsys, tmp_path, option, text):
    code, _, err = run(capsys, "realize", option, text, "-o", str(tmp_path / "x.arr"))
    assert code == 2
    assert err.startswith("error: bad-token: ")


def test_realize_argument_validation(capsys, tmp_path):
    code, _, _ = run(capsys, "realize", "-o", str(tmp_path / "x.arr"))
    assert code == 2
    code, _, _ = run(
        capsys, "realize", "--nomenclature", SEVEN, "--cycle", "(1 3 2)",
        "-o", str(tmp_path / "x.arr"),
    )
    assert code == 2


def test_render_writes_svg(capsys, tmp_path):
    arr_path = str(tmp_path / "t.arr")
    svg_path = str(tmp_path / "t.svg")
    assert cli_main(["realize", "--nomenclature", "1^+1 2^-1 3^+1", "-o", arr_path]) == 0
    assert cli_main(["render", arr_path, "-o", svg_path, "--padding", "3/2"]) == 0
    capsys.readouterr()
    body = Path(svg_path).read_text()
    assert body.startswith("<?xml") and body.count("<line ") == 3


def test_render_padding_keeps_its_output(capsys, tmp_path):
    arr_path = str(tmp_path / "t.arr")
    svg_path = str(tmp_path / "t.svg")
    assert cli_main(["realize", "--nomenclature", "1^+1 2^-1 3^+1", "-o", arr_path]) == 0
    assert cli_main(["render", arr_path, "-o", svg_path, "--padding", "3/2"]) == 0
    capsys.readouterr()
    spec = RenderSpec(path=svg_path, padding=Fraction(3, 2))
    assert Path(svg_path).read_text() == svg_text(load_arrangement(arr_path), spec)


@pytest.mark.parametrize("padding", ["abc", "-1", "1e3"])
def test_render_rejects_a_bad_padding(capsys, tmp_path, padding):
    arr_path = str(tmp_path / "t.arr")
    svg_path = tmp_path / "t.svg"
    assert cli_main(["realize", "--nomenclature", "1^+1 2^-1 3^+1", "-o", arr_path]) == 0
    capsys.readouterr()
    code, _, err = run(capsys, "render", arr_path, "-o", str(svg_path), "--padding", padding)
    assert code == 2
    assert err.startswith("error: bad-token: ")
    assert not svg_path.exists()


def test_fuzz_subcommand_with_json(capsys, tmp_path):
    json_path = str(tmp_path / "report.json")
    code, out, _ = run(
        capsys, "fuzz", "--family", "cyclic", "--trials", "4",
        "--n-min", "4", "--n-max", "6", "--seed", "11", "--json", json_path,
    )
    assert code == 0
    assert "result: OK" in out
    data = json.loads(Path(json_path).read_text())
    assert data["failures"] == 0 and data["trials_run"] == 4


def test_fuzz_json_counterexample_replays(capsys, tmp_path, monkeypatch):
    """A counterexample read back from ``fuzz --json`` rebuilds as a
    ``Counterexample`` and replays its failure."""
    monkeypatch.setattr(fuzzing, "check_face_census", lambda arr: False)
    json_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "fuzz", "--family", "cyclic", "--trials", "2",
        "--n-min", "5", "--n-max", "6", "--seed", "11", "--json", str(json_path),
    )
    assert code == 1 and "result: FAIL" in out
    data = json.loads(json_path.read_text())
    ce = fuzzing.Counterexample(**data["counterexample"])
    assert ce.check == "face_census" and ce.family == "cyclic"
    assert fuzzing.rerun_counterexample(ce) is True


def test_usage_errors_exit_two(capsys):
    assert cli_main([]) == 2
    assert cli_main(["triangles", "--method", "bogus", "--nomenclature", SEVEN]) == 2
    assert cli_main(["no-such-command"]) == 2
    capsys.readouterr()


def test_bad_nomenclature_reports_code(capsys):
    code, _, err = run(
        capsys, "triangles", "--nomenclature", "1^+1 1^-1 2^+1", "--method", "thmB"
    )
    assert code == 2
    assert "not-a-permutation" in err


def test_analyze_non_infinity_type_arrangement(capsys, tmp_path):
    # a generic sample that admits no valid insertion order (checked by the
    # backtracking search); frozen from gen_generic(6, 1)
    path = tmp_path / "generic.arr"
    path.write_text(
        "arr v1 n=6\n"
        "1 206 -1339 85630\n"
        "2 2369 -2575 1015152\n"
        "3 2884 -1751 1237221\n"
        "4 1236 -103 533218\n"
        "5 103 515 44973\n"
        "6 618 3193 278812\n"
    )
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "canonical nomenclature: not infinity-type\n" in out
    assert "triangles[oracle]: " in out


def test_analyze_two_line_file(capsys, tmp_path):
    path = tmp_path / "two.arr"
    path.write_text("arr v1 n=2\n1 1 -1 1\n2 1 0 2\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "corner points: {1,2}\n" in out
    assert "canonical nomenclature: not applicable (n < 3)\n" in out


def test_triangles_thmb_from_file(capsys, tmp_path):
    path = str(tmp_path / "seven.arr")
    assert cli_main(["realize", "--nomenclature", SEVEN, "-o", path]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "triangles", path, "--method", "thmB")
    assert code == 0
    assert out == "1 2 3\n1 2 4\n1 6 7\n2 3 7\n5 6 7\n"


def test_triangles_thmb_from_non_infinity_file(capsys, tmp_path):
    path = tmp_path / "generic.arr"
    path.write_text(
        "arr v1 n=6\n"
        "1 206 -1339 85630\n"
        "2 2369 -2575 1015152\n"
        "3 2884 -1751 1237221\n"
        "4 1236 -103 533218\n"
        "5 103 515 44973\n"
        "6 618 3193 278812\n"
    )
    code, _, err = run(capsys, "triangles", str(path), "--method", "thmB")
    assert code == 1
    assert "not infinity-type" in err
