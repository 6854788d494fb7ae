"""The linearr benchmark: one workload per invocation, in one thread.

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory, never from an installed copy.  The loop runs items until
their summed wall time reaches ``--seconds`` at the end of a whole pass, and
checks every output outside the timed region.  The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` every linearr function the tracer knows is wrapped while
an item runs, and the metrics are the per-layer ones.  The traced run also
saves its spans under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
SETUP_RUNS = 20  # set-up probes per untraced run; the fastest is reported


def load_library() -> None:
    """Put the checkout's ``src`` first on the import path; exit 1 when the
    checkout holds no linearr sources."""
    src = ROOT / "src"
    if not (src / "linearr" / "__init__.py").is_file():
        sys.exit(f"error: no linearr sources under {src}")
    sys.path.insert(0, str(src))


@dataclass
class Result:
    times: list[float] = field(default_factory=list)  # seconds per item
    failed: int = 0
    max_bits: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def items_per_s(self) -> float:
        return len(self.times) / sum(self.times)


def measure(workload, items, seconds: float, tracer=None, between_items=None) -> Result:
    """Closed loop: run items one after another until their summed wall time
    reaches ``seconds`` at the end of a whole pass and the first
    ``workload.fixed_items`` items have run, or until ``items`` runs out.  ``between_items`` is called,
    untimed, before each item."""
    result = Result()
    timed = 0.0
    for index, item in enumerate(items):
        if between_items is not None:
            between_items()
        if tracer is not None:
            tracer.item = index
        ok = False
        start = time.perf_counter()
        try:
            with tracer or contextlib.nullcontext():
                output = workload.run(item)
        except Exception as exc:  # a failed item is counted, never fatal
            elapsed = time.perf_counter() - start
            result.errors.append(f"item {index}: run raised {type(exc).__name__}: {exc}")
        else:
            elapsed = time.perf_counter() - start
            try:
                ok = workload.check(index, item, output)
                if index < workload.fixed_items:
                    result.max_bits = max(result.max_bits, workload.coeff_bits(item, output))
            except Exception as exc:
                result.errors.append(f"item {index}: check raised {type(exc).__name__}: {exc}")
            else:
                if not ok:
                    result.errors.append(f"item {index}: wrong output for {item}")
        result.times.append(elapsed)
        result.failed += not ok
        timed += elapsed
        done = index + 1
        if timed >= seconds and done >= workload.fixed_items and done % workload.pass_size == 0:
            break
    return result


def percentile(times: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest item time with at least ``pct``
    percent of the items at or below it."""
    ranked = sorted(times)
    return ranked[max(0, math.ceil(pct / 100 * len(ranked)) - 1)]


class SetupProbes:
    """Set-up time, timed in fresh processes from starting the interpreter to
    holding the first item's inputs (import linearr plus input generation).

    The machine has slow spells that last seconds, longer than a burst of
    0.1 s probes.  So the probes are spread over the whole run, one at most
    every ``interval`` seconds between items and outside the timed region,
    and the fastest of SETUP_RUNS is reported."""

    def __init__(self, workload: str, seed: int, interval: float):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                     "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-only"]
        self.interval = interval
        self.next_at = time.perf_counter()
        self.samples: list[float] = []

    def probe(self) -> None:
        start = time.perf_counter()
        with subprocess.Popen(self.argv, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            self.samples.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or line != b"ready\n":
            sys.exit(f"error: set-up probe failed with exit code {proc.returncode}")

    def between_items(self) -> None:
        if len(self.samples) < SETUP_RUNS and time.perf_counter() >= self.next_at:
            self.probe()
            self.next_at = time.perf_counter() + self.interval

    def fastest(self) -> float:
        while len(self.samples) < SETUP_RUNS:
            self.probe()
        return min(self.samples)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_library()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    WORKDIR.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, WORKDIR)
    items = workload.items(args.seed)
    if args.setup_only:
        next(items)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0

    if args.trace:
        tracer, probes, between_items = tracing.Tracer(), None, None
    else:
        tracer, probes = None, SetupProbes(args.workload, args.seed, args.seconds / SETUP_RUNS)
        between_items = probes.between_items
    result = measure(workload, items, args.seconds, tracer, between_items)
    for line in result.errors[:5]:
        print(line, file=sys.stderr)

    attempted = len(result.times)
    if tracer is not None:
        tracer.write(WORKDIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        values = tracer.layer_metrics(result.items_per_s)
        metrics = {m["name"]: metric(values[m["name"]], m["unit"]) for m in tracing.PER_LAYER}
    else:
        pct = workload.tail_percentile
        fixed = result.times[: workload.fixed_items]
        tail_ms = 1000 * percentile(fixed, pct)
        metrics = {
            "items_per_s": metric(result.items_per_s, "1/s"),
            "item_ms_p50": metric(1000 * statistics.median(result.times), "ms"),
            "item_ms_tail": metric(tail_ms, "ms"),
            "setup_s": metric(probes.fastest(), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
            "max_coeff_bits": metric(result.max_bits, "bits"),
        }
        beyond = sum(t * 1000 > tail_ms for t in fixed)
        print(f"item_ms_tail is p{pct} of the first {len(fixed)} items, {beyond} beyond it")
    print(f"failed_ratio {result.failed / attempted} ({result.failed} of {attempted} items)")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    summary = {
        "correct": result.failed == 0,
        "attempted": attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
