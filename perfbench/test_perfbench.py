"""Tests of the benchmark itself; the library's own suite does not collect them.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from itertools import islice

import pytest

import run  # pytest puts this file's directory on sys.path

run.load_library()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from linearr.nomenclature import Nomenclature  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(cwd, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_minimal_run_emits_every_metric(workload, trace, section):
    proc = run_benchmark(run.ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(summary) == ["attempted", "correct", "failed", "metrics"]
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] >= 1
    got = {name: m["unit"] for name, m in summary["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC[section]}


def test_corrupted_expected_output_counts_as_failure(tmp_path):
    workload = workloads.LargeN(tmp_path)
    nom_item, cycle_item = islice(workload.items(5), 2)
    nom = nom_item.expected
    flipped = Nomenclature(nom.labels, nom.signs[:3] + (-nom.signs[3],) + nom.signs[4:])
    items = [replace(nom_item, expected=flipped), cycle_item]
    result = run.measure(workload, items, seconds=float("inf"))
    assert len(result.times) == 2
    assert result.failed == 1


def linearr_bindings() -> dict:
    return {
        (modname, attr): value
        for modname, mod in list(sys.modules.items())
        if modname == "linearr" or modname.startswith("linearr.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_traced_run_restores_every_rebound_name(tmp_path):
    before = linearr_bindings()
    tracer = tracing.Tracer()
    with tracer:
        during = linearr_bindings()
    rebound = {key for key, value in before.items() if during[key] is not value}
    assert {
        ("linearr.arrangement", "build_arrangement"),
        ("linearr.nomenclature", "build_arrangement"),
        ("linearr.cyclicity", "bounded_faces"),
        ("linearr.cli", "fuzz_differential"),
        ("linearr.fuzzing", "side"),
    } <= rebound

    workload = workloads.make("fuzz", tmp_path)
    trials = workload.pass_size
    # the first items are rerun untraced and their report bytes compared
    assert trials <= workloads.RERUN_ITEMS
    result = run.measure(workload, islice(workload.items(1), trials), float("inf"), tracer)
    assert result.failed == 0 and len(result.times) == trials
    assert all(value is before[key] for key, value in linearr_bindings().items())
    layers = tracer.layer_metrics(result.items_per_s)
    assert layers["fuzzing.fuzz_differential.calls"] == trials
    # two face walks per infinity trial, six per cyclic trial
    families = [family for family, _ in workloads.Fuzz.SIZES]
    walks = 2 * families.count("infinity") + 6 * families.count("cyclic")
    assert layers["arrangement.bounded_faces.calls"] == walks


def test_fails_without_library_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, "fuzz", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
