"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/record.py --label seed

Runs ``perfbench/run.py`` on every workload of BENCHMARK.json for seeds 1 to
10, one run at a time, each ``run_seconds`` long; for the first two seeds a
traced run follows right after the untraced one.  For every end-to-end
metric it reports the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound in BENCHMARK.json.  The tracing overhead is each traced
``items_per_s`` over the untraced one of the same seed, measured minutes
apart at most.  The record, with the machine's CPU model, core count and
Python version, is written to ``perfbench/baselines/<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TRACED = 2  # the first this many seeds are also run traced


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(argv)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in names}
    traced = {w: [] for w in names}
    for k, seed in enumerate(SEEDS):
        for w in names:
            out = run_once(w, seed, seconds, 0)
            runs[w].append(out)
            print(w, seed, json.dumps(out["metrics"]), flush=True)
            if k < TRACED:
                traced[w].append(run_once(w, seed, seconds, 1))

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "label": args.label,
        "machine": {
            "cpu_model": cpu_model(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
        },
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for w in names:
        untraced = {}
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in runs[w]])
            stats["bound"] = bound
            untraced[name] = stats
            flag = "" if stats["spread"] <= bound / 3 else "  <-- above bound/3"
            print(f"{w:14s} {name:15s} median {stats['median']:.6g}  "
                  f"spread {stats['spread']:.4f}  bound {bound}{flag}")
        overhead = [
            t["metrics"]["trace.items_per_s"]["value"] / r["metrics"]["items_per_s"]["value"]
            for t, r in zip(traced[w], runs[w])
        ]
        record["workloads"][w] = {
            "attempted": [r["attempted"] for r in runs[w]],
            "failed": [r["failed"] for r in runs[w]],
            "untraced": untraced,
            "traced": [
                {name: m["value"] for name, m in t["metrics"].items()} for t in traced[w]
            ],
            "traced_over_untraced_items_per_s": overhead,
        }
        print(f"{w:14s} traced/untraced items_per_s: {overhead}")

    out = HERE / "baselines" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
