import copy

import workloads as wl


def _reference():
    return {
        "cli": {
            "verify --all --format json": {
                "exit_code": 0,
                "stdout_sha256": wl.sha256(b"verdicts\n"),
                "verdicts": 3,
            }
        },
        "pairs": {"2x3": {"sha256": "abc", "verdicts": 24}},
    }


def test_matching_outputs_give_zero_mismatch_ratio():
    ref = _reference()
    checks = [
        wl.cli_matches(ref, wl.VERIFY_ARGV, 0, wl.sha256(b"verdicts\n")),
        wl.pair_matches(ref, (2, 3), "abc"),
    ]
    assert wl.mismatch_ratio(checks) == 0.0


def test_corrupted_reference_is_caught():
    ref = copy.deepcopy(_reference())
    ref["cli"]["verify --all --format json"]["stdout_sha256"] = wl.sha256(b"corrupted")
    ref["pairs"]["2x3"]["sha256"] = "0" * 64
    out = wl.sha256(b"verdicts\n")
    checks = [wl.cli_matches(ref, wl.VERIFY_ARGV, 0, out)] * 3 + [wl.pair_matches(ref, (2, 3), "abc")]
    assert wl.mismatch_ratio(checks) == 1.0
    good = _reference()
    mixed = [wl.cli_matches(good, wl.VERIFY_ARGV, 0, out), wl.cli_matches(ref, wl.VERIFY_ARGV, 0, out)]
    assert wl.mismatch_ratio(mixed) == 0.5


def test_wrong_exit_code_or_unknown_input_is_a_mismatch():
    ref = _reference()
    out = wl.sha256(b"verdicts\n")
    assert not wl.cli_matches(ref, wl.VERIFY_ARGV, 1, out)
    assert not wl.cli_matches(ref, ("verify",), 0, out)
    assert not wl.pair_matches(ref, (3, 2), "abc")


def test_pinned_reference_covers_every_generated_input():
    ref = wl.load_reference()
    assert set(wl.cli_key(argv) for argv in [wl.VERIFY_ARGV] + wl.export_menu()) <= set(ref["cli"])
    assert {wl.pair_key(p) for p in wl.SWEEP_PAIRS} <= set(ref["pairs"])
    import random

    for workload in wl.WORKLOADS:
        stream = wl.units(workload, random.Random(5))
        for _ in range(3):
            for job in next(stream):
                if workload == "two-mode-sweep":
                    assert wl.pair_key(job) in ref["pairs"]
                else:
                    assert wl.cli_key(job) in ref["cli"]


def test_units_repeat_for_a_seed():
    import random

    for workload in wl.WORKLOADS:
        a = wl.units(workload, random.Random(3))
        b = wl.units(workload, random.Random(3))
        assert [next(a) for _ in range(3)] == [next(b) for _ in range(3)]
