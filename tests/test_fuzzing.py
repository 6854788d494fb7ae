from dataclasses import asdict

import pytest

import linearr.fuzzing as fz
from linearr.cyclicity import enumerate_cycles, format_cycle, realize_cycle, validate_cycle
from linearr.fileio import format_arrangement
from linearr.fuzzing import (
    CHECKS,
    FAMILIES,
    Counterexample,
    FuzzConfig,
    FuzzReport,
    SplitMix64,
    derive_seed,
    fuzz_differential,
    gen_cyclic,
    gen_generic,
    gen_infinity_type,
    rerun_counterexample,
    _minimize,
)
from linearr.geometry import ArrangementError
from linearr.nomenclature import (
    Nomenclature,
    format_nomenclature,
    parse_nomenclature,
    realize_nomenclature,
)


def test_splitmix64_reference_vector():
    # published first outputs for seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_shuffle_is_deterministic():
    items = list(range(10))
    SplitMix64(7).shuffle(items)
    again = list(range(10))
    SplitMix64(7).shuffle(again)
    assert items == again
    assert sorted(items) == list(range(10))


def test_generators_are_deterministic():
    assert gen_infinity_type(7, 11)[0] == gen_infinity_type(7, 11)[0]
    assert gen_cyclic(8, 11)[0] == gen_cyclic(8, 11)[0]
    assert gen_generic(5, 11).lines == gen_generic(5, 11).lines
    assert derive_seed(1, 0) != derive_seed(1, 1)


def test_generator_size_guards():
    with pytest.raises(ArrangementError):
        gen_infinity_type(2, 0)
    with pytest.raises(ArrangementError):
        gen_cyclic(3, 0)


def test_gen_cyclic_large_n_uses_rejection():
    cycle, arr = gen_cyclic(22, 5)
    assert cycle.n == 22 and arr.n == 22


def _one_word_draw(n, seed):
    """The cycle draw ``gen_cyclic`` used above n = 20 before it served
    every n: one ``next_u64()`` mask per try, bit x - 2 for label x."""
    rng = SplitMix64(seed)
    while True:
        mask = rng.next_u64()
        first = [1] + [x for x in range(2, n + 1) if mask >> (x - 2) & 1]
        second = [x for x in range(2, n + 1) if not mask >> (x - 2) & 1]
        cycle = validate_cycle(tuple(first + second))
        if cycle is not None:
            return cycle


def test_gen_cyclic_equals_the_one_word_draw_up_to_65_labels(monkeypatch):
    monkeypatch.setattr(fz, "realize_cycle", lambda cycle: None)
    for n in range(4, 66):
        for seed in (0, 1, 7, 12345, 2 ** 63 + 5):
            assert gen_cyclic(n, seed)[0] == _one_word_draw(n, seed)


def test_gen_cyclic_deals_every_label_to_both_runs_at_n70(monkeypatch):
    # labels 66..70 come from a second word; one word never dealt them first
    monkeypatch.setattr(fz, "realize_cycle", lambda cycle: None)
    n = 70
    runs = {x: set() for x in range(2, n + 1)}
    for seed in range(40):
        cycle = gen_cyclic(n, seed)[0]
        for k, x in enumerate(cycle.seq):
            if x != 1:
                runs[x].add(k < cycle.r)
    assert all(seen == {True, False} for seen in runs.values())


def test_config_validation():
    with pytest.raises(ArrangementError):
        FuzzConfig(seed=0, trials=1, n_min=3, n_max=5, family="cyclic")
    with pytest.raises(ArrangementError):
        FuzzConfig(seed=0, trials=1, n_min=5, n_max=4, family="infinity")
    with pytest.raises(ArrangementError):
        FuzzConfig(seed=0, trials=1, n_min=3, n_max=5, family="nope")


def test_zero_trials_gives_empty_report():
    rep = fuzz_differential(FuzzConfig(seed=1, trials=0, n_min=3, n_max=5, family="infinity"))
    assert rep.trials_run == 0 and rep.checks == {} and rep.failures == 0


@pytest.mark.parametrize(
    "family,n_min,n_max",
    [("infinity", 3, 8), ("cyclic", 4, 9), ("generic", 3, 7)],
)
def test_small_runs_are_clean_and_reproducible(family, n_min, n_max):
    cfg = FuzzConfig(seed=123, trials=12, n_min=n_min, n_max=n_max, family=family)
    rep = fuzz_differential(cfg)
    assert rep.failures == 0
    assert rep.counterexample is None
    assert rep.to_text() == fuzz_differential(cfg).to_text()
    assert rep.to_json_dict() == fuzz_differential(cfg).to_json_dict()


def test_cyclic_coverage_at_n5():
    # all 11 cycles show up within a coupon-collector-sized number of draws
    want = {c.seq for c in enumerate_cycles(5)}
    seen = set()
    for seed in range(200):
        seen.add(gen_cyclic(5, seed)[0].seq)
        if seen == want:
            break
    assert seen == want


def test_generic_family_finds_non_infinity_samples():
    cfg = FuzzConfig(seed=3, trials=30, n_min=5, n_max=8, family="generic")
    rep = fuzz_differential(cfg)
    assert rep.failures == 0
    assert rep.non_infinity_count > 0


def test_injected_failure_is_recorded_with_counterexample(monkeypatch):
    monkeypatch.setattr(fz, "check_face_census", lambda arr: False)
    cfg = FuzzConfig(seed=9, trials=3, n_min=4, n_max=5, family="infinity")
    rep = fuzz_differential(cfg)
    assert rep.checks["face_census"] == [0, 3]
    assert rep.failures == 3
    ce = rep.counterexample
    assert (ce.check, ce.family, ce.trial, ce.detail) == (
        "face_census", "infinity", 0, "bounded face count off",
    )
    # the minimizer shrank the failing nomenclature to three lines
    assert ce.n == 3 and parse_nomenclature(ce.witness).n == 3
    assert rerun_counterexample(ce) is True
    assert "check=face_census" in rep.to_text()
    assert rep.to_json_dict()["counterexample"] == asdict(ce)
    assert rep.to_json_dict()["counterexample"]["family"] == "infinity"


def test_counterexample_refails_from_serialized_form():
    # a cycle paired with the realization of a *different* cycle genuinely
    # fails the cycle-versus-oracle check, and keeps failing after a
    # serialize/parse roundtrip
    c_claimed = validate_cycle((1, 2, 4, 3))
    c_real = validate_cycle((1, 3, 4, 2))
    ce = Counterexample(
        check="cycle_rule_vs_oracle",
        trial=0,
        n=4,
        seed=0,
        detail="synthetic mismatch",
        arrangement_text=format_arrangement(realize_cycle(c_real)),
        witness=format_cycle(c_claimed),
        family="cyclic",
    )
    assert rerun_counterexample(ce) is True
    honest = Counterexample(
        check="cycle_rule_vs_oracle",
        trial=0,
        n=4,
        seed=0,
        detail="no mismatch",
        arrangement_text=format_arrangement(realize_cycle(c_claimed)),
        witness=format_cycle(c_claimed),
        family="cyclic",
    )
    assert rerun_counterexample(honest) is False


NOM5 = "1^+1 2^-1 3^+1 5^-1 4^+1"


@pytest.mark.parametrize("check, witness, family", [
    ("cycle_rule_vs_oracle", NOM5, "infinity"),  # the check runs on cycles only
    ("sign_rule_vs_oracle", "", "infinity"),  # it reads the encoding
    ("face_census", NOM5, "bogus"),
], ids=["family-without-the-check", "empty-witness", "unknown-family"])
def test_a_counterexample_that_cannot_replay_is_refused(check, witness, family):
    text = format_arrangement(realize_nomenclature(parse_nomenclature(NOM5)))
    ce = Counterexample(check, 0, 5, 0, "", text, witness, family)
    with pytest.raises(ArrangementError) as err:
        rerun_counterexample(ce)
    assert err.value.code == "bad-token"


def test_roundtrip_check_fails_on_labels_that_are_no_insertion_order():
    """Labels that are not an insertion order of the arrangement fail the
    check, with a detail saying so, and the failure replays; any other error
    of ``derive_nomenclature`` still propagates."""
    check = CHECKS["derive_realize_roundtrip"]
    nom, arr = gen_infinity_type(6, 0)
    other = gen_infinity_type(6, 1)[0]
    with pytest.raises(ArrangementError) as err:
        fz.derive_nomenclature(arr, other.labels)
    assert err.value.code == "not-an-infinity-permutation"
    case = fz.Case(arr, other)
    assert check.holds(case) is False
    assert check.detail(case) == "labels are not an insertion order of the arrangement"
    assert check.holds(fz.Case(arr, nom)) is True
    ce = fz._counterexample(check, "infinity", 0, 0, case)
    assert rerun_counterexample(ce) is True
    with pytest.raises(ArrangementError) as err:
        check.holds(fz.Case(arr, gen_infinity_type(5, 0)[0]))
    assert err.value.code == "not-a-permutation"


def test_minimizer_shrinks_while_failure_persists():
    nom = parse_nomenclature("1^+1 2^-1 3^+1 7^+1 6^+1 4^-1 5^+1")
    small = _minimize(nom, lambda candidate: True)
    assert small.n == 3
    untouched = _minimize(nom, lambda candidate: False)
    assert untouched == nom
    cycle = validate_cycle((1, 3, 4, 6, 2, 5))
    assert _minimize(cycle, lambda candidate: True).n == 4
    assert _minimize(cycle, lambda candidate: False) == cycle


def test_report_text_shape():
    cfg = FuzzConfig(seed=4, trials=2, n_min=3, n_max=4, family="infinity")
    text = fuzz_differential(cfg).to_text()
    assert text.startswith("fuzz family=infinity trials=2 n=[3,4] seed=4\n")
    assert text.rstrip().endswith("result: OK")


def test_trial_exception_is_recorded_not_raised(monkeypatch):
    def exploding_generator(n, seed):
        raise RuntimeError("boom")

    monkeypatch.setattr(fz, "gen_infinity_type", exploding_generator)
    cfg = FuzzConfig(seed=1, trials=2, n_min=3, n_max=4, family="infinity")
    rep = fuzz_differential(cfg)
    assert rep.trials_run == 2
    assert rep.checks["trial-exception"] == [0, 2]
    ce = rep.counterexample
    assert ce.detail == "RuntimeError: boom"
    assert (ce.family, ce.witness, ce.arrangement_text) == ("infinity", "", "")
    assert rerun_counterexample(ce) is True


def test_duality_is_checked_when_the_infinity_rule_fails(monkeypatch):
    # the realization's statuses are flipped, so they disagree with both the
    # symbolic rule and the realization of the negated nomenclature
    cfg = FuzzConfig(seed=21, trials=1, n_min=6, n_max=6, family="infinity")
    _, arr = gen_infinity_type(6, derive_seed(derive_seed(cfg.seed, 0), 1))
    real = fz.is_line_at_infinity_geom
    monkeypatch.setattr(
        fz, "is_line_at_infinity_geom", lambda a, which: real(a, which) != (a == arr)
    )
    rep = fuzz_differential(cfg)
    assert rep.checks["infinity_line_sym_vs_geom"] == [0, 1]
    assert rep.checks["negation_duality_geom"] == [0, 1]
    assert rep.counterexample.check == "infinity_line_sym_vs_geom"


def wrong_encodings(family, case, seed):
    """Encodings the case's arrangement does not realize: for a cycle,
    another cycle of the same size; for a nomenclature, each one with a
    single sign flipped, and another draw of the same size."""
    enc = case.encoding
    if family == "cyclic":
        return [next(c for c in enumerate_cycles(enc.n) if c != enc)]
    out = []
    for pos in range(3, enc.n):
        signs = list(enc.signs)
        signs[pos] = -signs[pos]
        out.append(Nomenclature(enc.labels, tuple(signs)))
    other = gen_infinity_type(enc.n, seed + 1)[0]
    if other != enc:
        out.append(other)
    return out


def test_every_check_replays_its_verdict():
    """The counterexample a passing trial would give replays False for every
    registered check.  Paired with a wrong encoding, a check that reads the
    encoding never raises, replays the verdict it has on the live objects,
    and replays True on some pairing; for the roundtrip check the pairings
    include labels that are no insertion order of the arrangement."""
    replayed, caught, no_order = set(), set(), 0
    for family in FAMILIES:
        for trial in range(8):
            seed = derive_seed(31, trial)
            case = fz._generate(family, 5 + trial % 3, seed)
            fmt = format_cycle if family == "cyclic" else format_nomenclature
            for check in fz._FAMILY_CHECKS[family]:
                if check.reads_encoding and case.encoding is None:
                    continue
                ce = fz._counterexample(check, family, trial, seed, case)
                assert ce.family == family
                assert rerun_counterexample(ce) is False, (family, check.name)
                replayed.add((family, check.name))
                if not check.reads_encoding:
                    continue
                for wrong in wrong_encodings(family, case, seed):
                    ce.witness = fmt(wrong)
                    wrong_case = fz.Case(case.arr, wrong)
                    verdict = check.holds(wrong_case)
                    assert rerun_counterexample(ce) is not verdict, (family, check.name)
                    if check.name == "derive_realize_roundtrip":
                        no_order += fz._derived(wrong_case) is None
                    if not verdict:
                        caught.add((family, check.name))
    registered = {(f, c.name) for c in CHECKS.values() for f in c.families}
    assert replayed == registered
    assert caught == {(f, c) for f, c in registered if CHECKS[c].reads_encoding}
    assert no_order > 0
