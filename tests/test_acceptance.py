"""End-to-end acceptance checks.

Each test exercises one quantitative contract at its full trial count and
stated tolerance, and prints a single status line (run pytest with -s to see
them). Failures carry the worst offending check in the assertion message.
"""

import json

from matnorm.cli import main
from matnorm.suites import run_suite

SEED = 2024


def report_line(tag, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {tag}: {'PASS' if ok else 'FAIL'}{suffix}")


def assert_suite(tag, report):
    failed = [c for c in report["checks"] if c["status"] != "pass"]
    report_line(tag, not failed, f"{len(report['checks'])} checks")
    assert not failed, f"{tag}: failing checks {json.dumps(failed, indent=2)}"


def test_01_axiom_suite_catalog_and_planted_fault():
    # every catalog space passes both axioms at 1e-9 over 1000 trials per
    # level up to 4; the corrupted evaluator is flagged at >= 0.05
    assert_suite("axioms", run_suite("axioms", seed=SEED, trials=1000, m_max=4))


def test_02_correspondence_identities():
    # identity action exact on the basis up to n=6, element recovery exact
    # for 1000 elements per space, naturality within 1e-12 on 100 pairs
    assert_suite("correspondence", run_suite("correspondence", seed=SEED, trials=1000))


def test_03_level_one_norm_is_trace_norm():
    # 1000 random single blocks, n up to 4: witness couple achieves the
    # trace norm, nothing exceeds it, intervals are degenerate. The suite's
    # size-1 checks also run here: thm6.size1_unit_couple (the unit couple on
    # the trace-norm scalars gives the trace norm of 1000 scalar matrices,
    # levels up to 5) and thm6.size1_search_agrees (the budget-8 catalog
    # search with the fast optimizer neither misses nor exceeds it), both to
    # 1e-9
    assert_suite("level-1 trace norm", run_suite("thm6", seed=SEED, trials=1000))


def test_04_flip_element_norm_pinched_at_one():
    # n in {2, 3, 4}: >= 10^4 sampled/optimized couples, best value within
    # 1e-9 of 1 on both sides
    assert_suite("flip norm", run_suite("prop7", seed=SEED, trials=10500))


def test_05_block_diagonal_lower_bound():
    # 100 random PSD tuples: couple value equals the closed form within 1e-9
    # and never exceeds the full-catalog bound
    assert_suite("block-diagonal bound", run_suite("prop13", seed=SEED, trials=100))


def test_06_convexity_violation_witness():
    # all n in 1..4 and p in {1.01, 1.5, 2, 10, inf}: doubled flip element
    # reaches 2 > 2^(1/p), and is certified [2, 2] as an l_1 sum would be;
    # n in 2..6: diag(e_11, ..., e_nn) is certified below n, its l_1 sum
    report = run_suite("convexity", seed=SEED)
    ids = [c["id"] for c in report["checks"] if c["kind"] == "bool"]
    assert len(ids) == 20
    assert sum(c["id"].startswith("convexity.additive.") for c in report["checks"]) == 4
    assert sum(c["id"].startswith("convexity.not_l1.") for c in report["checks"]) == 5
    assert_suite("convexity violation", report)


def test_07_trace_functional_image():
    # n in 2..6: entrywise trace of the flip element is exactly the
    # identity, trace norm exactly n
    assert_suite("trace functional", run_suite("prop14", seed=SEED))


def test_09_coproduct_additivity_and_injections():
    # norm additivity exact on l1 sums; coproduct maps restrict to their
    # factors exactly on 100 samples
    assert_suite("coproduct", run_suite("coproduct", seed=SEED, trials=100))


def test_10_verify_reports_are_deterministic(tmp_path):
    # same seed and flags give byte-identical reports, elapsed time aside
    args = ["verify", "--suite", "thm6", "--trials", "40", "--seed", "11"]
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for path in paths:
        assert main(args + ["--out", str(path)]) == 0
    payloads = []
    for path in paths:
        data = json.loads(path.read_text())
        data.pop("elapsed_ms")
        payloads.append(json.dumps(data, sort_keys=False))
    ok = payloads[0] == payloads[1]
    report_line("report determinism", ok, f"{len(payloads[0])} bytes compared")
    assert ok
