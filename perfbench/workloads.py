"""The benchmark's workloads: seeded inputs, the timed item and its checks.

Every workload is a closed loop with one caller, because linearr is a batch
library: the next item starts when the previous one returns.  Inputs come
only from the seed; linearr sees the generated fuzz configurations and
encoding texts, never the rule that made them.

Items come in passes of ``pass_size`` items with the same sizes in the same
order, and a run always ends on a whole pass.  Every run therefore times the
same mix of sizes whatever its length or the speed of the code, so medians
and percentiles of item time compare across runs and across commits.
The first ``fixed_items`` items, a whole number of passes, are run by every
run however short.  The item-time tail (the fixed percentile
``tail_percentile``) and ``max_coeff_bits`` read only these items, so the
items they read do not depend on how many the speed of the code lets a run
reach: a faster library would otherwise read a different order statistic.

A workload has four methods:

* ``items(seed)`` yields the inputs, the same ones for the same seed;
* ``run(item)`` is the timed call into linearr;
* ``check(index, item, output)`` runs outside the timed region and returns
  whether the output is right;
* ``coeff_bits(item, output)``, also untimed, is the largest bit length of
  a line coefficient in the arrangement the item produced.

Library functions are looked up on their module at call time (for example
``fuzzing.fuzz_differential``), so a traced run reaches the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from itertools import count
from pathlib import Path

from linearr import cli, cyclicity, fileio, fuzzing, nomenclature
from linearr.cyclicity import GonalityCycle
from linearr.fuzzing import FuzzConfig, SplitMix64, derive_seed
from linearr.nomenclature import Nomenclature

# The first fuzz items are run a second time after their timed run; the two
# report texts must be byte-identical.
RERUN_ITEMS = 32


def max_bits(arr) -> int:
    """Largest bit length of any line coefficient of ``arr``."""
    return max(abs(v).bit_length() for ln in arr.lines for v in (ln.a, ln.b, ln.c))


class Fuzz:
    """One item is one trial of ``fuzz_differential``.

    A pass is one infinity-family trial at each n in 3..10 followed by one
    cyclic-family trial at each n in 4..12.  Stepping n instead of drawing it
    keeps a run's throughput from hanging on how many large sizes its seed
    happened to draw.  A 45 s run holds 1000 or more trials.  The tail and
    the coefficient bits are read from the first 40 passes (680 trials),
    which leaves 13 trials beyond the 98th percentile; the largest
    coefficient of fewer trials varies more from seed to seed.
    """

    SIZES = [("infinity", n) for n in range(3, 11)] + [("cyclic", n) for n in range(4, 13)]
    pass_size = len(SIZES)
    tail_percentile = 98
    fixed_items = 40 * pass_size

    def items(self, seed: int):
        for index in count():
            family, n = self.SIZES[index % self.pass_size]
            yield FuzzConfig(
                seed=derive_seed(seed, index), trials=1, n_min=n, n_max=n, family=family
            )

    def run(self, cfg: FuzzConfig):
        return fuzzing.fuzz_differential(cfg)

    def check(self, index: int, cfg: FuzzConfig, report) -> bool:
        ok = report.failures == 0 and report.trials_run == cfg.trials
        if index < RERUN_ITEMS:
            ok = ok and fuzzing.fuzz_differential(cfg).to_text() == report.to_text()
        return ok

    def coeff_bits(self, cfg: FuzzConfig, report) -> int:
        """Of the arrangement trial 0 of ``cfg`` generates, derived as
        ``fuzz_differential`` derives it."""
        trial_seed = derive_seed(derive_seed(cfg.seed, 0), 1)
        gen = fuzzing.gen_infinity_type if cfg.family == "infinity" else fuzzing.gen_cyclic
        return max_bits(gen(cfg.n_min, trial_seed)[1])


@dataclass(frozen=True)
class RoundTrip:
    text: str  # the encoding as a user types it
    expected: Nomenclature | GonalityCycle  # what the text encodes


def draw_nomenclature(rng: SplitMix64, n: int) -> Nomenclature:
    """A uniformly drawn well-formed nomenclature, drawn as
    ``gen_infinity_type`` draws one."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    i, j, k = sorted(labels[:3])
    pattern = {i: 1, j: -1, k: 1} if rng.below(2) == 0 else {i: -1, j: 1, k: -1}
    signs = [pattern[x] for x in labels[:3]] + [rng.sign() for _ in range(n - 3)]
    return Nomenclature(tuple(labels), tuple(signs))


def draw_cycle(rng: SplitMix64, n: int) -> GonalityCycle:
    """A gonality cycle from a random first-run subset, as ``gen_cyclic``
    draws one for n > 20 (its smaller-n branch enumerates the whole census)."""
    while True:
        mask = rng.next_u64()
        first = [1] + [x for x in range(2, n + 1) if mask >> (x - 2) & 1]
        second = [x for x in range(2, n + 1) if not mask >> (x - 2) & 1]
        cycle = cyclicity.validate_cycle(tuple(first + second))
        if cycle is not None:
            return cycle


class LargeN:
    """One item is one round trip of a large arrangement, as a user runs it:
    realize the encoding text, format the arrangement, parse the text back,
    and run the full ``analyze`` report on the saved file.

    A pass is an infinity-type nomenclature and a gonality cycle at each of
    n = 24, 32, 40 and 48, with fresh encodings each pass.  Items take 0.3 s
    to 4 s, so a 45 s run holds only 32 to 48 of them.  The tail and the
    coefficient bits are read from the first 4 passes (32 items).  The
    slowest eighth of those are the n = 48 nomenclatures, one per pass, and
    the tail reported is the 95th percentile, the second slowest of them; a
    lower percentile would read the fastest of those few items, which the
    machine's noise moves most.
    """

    N_VALUES = (24, 32, 40, 48)
    pass_size = 2 * len(N_VALUES)
    tail_percentile = 95
    fixed_items = 4 * pass_size

    def __init__(self, workdir: Path):
        self.path = workdir / "large-n-item.arr"

    def items(self, seed: int):
        rng = SplitMix64(seed)
        while True:
            batch = []  # one pass of encodings, drawn before its first item runs
            for n in self.N_VALUES:
                nom = draw_nomenclature(rng, n)
                batch.append(RoundTrip(nomenclature.format_nomenclature(nom), nom))
                cycle = draw_cycle(rng, n)
                batch.append(RoundTrip(cyclicity.format_cycle(cycle), cycle))
            yield from batch

    def run(self, item: RoundTrip):
        if isinstance(item.expected, Nomenclature):
            arr = nomenclature.realize_nomenclature(nomenclature.parse_nomenclature(item.text))
        else:
            arr = cyclicity.realize_cycle(cyclicity.parse_cycle(item.text))
        text = fileio.format_arrangement(arr)
        self.path.write_text(text, encoding="ascii")
        parsed = fileio.parse_arrangement(text)
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            code = cli.cli_main(["analyze", str(self.path)])
        return arr, parsed, code

    def check(self, index: int, item: RoundTrip, output) -> bool:
        arr, parsed, code = output
        expected = item.expected
        if isinstance(expected, Nomenclature):
            same = nomenclature.derive_nomenclature(arr, expected.labels) == expected
        else:
            same = cyclicity.detect_gonality_cycle(arr) == expected
        # analyze exits 0 only when thmA/thmB agree with the triangle oracle
        return code == 0 and parsed == arr and same

    def coeff_bits(self, item: RoundTrip, output) -> int:
        return max_bits(output[0])


WORKLOADS = ("fuzz", "large-n")


def make(name: str, workdir: Path):
    if name == "fuzz":
        return Fuzz()
    if name == "large-n":
        return LargeN(workdir)
    raise ValueError(f"unknown workload {name!r}")
