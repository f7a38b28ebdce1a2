"""Tests of the benchmark itself: tiny runs, the output checks, traced == untraced.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_engine()

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_loop(workload, **kwargs):
    # no time budget: exactly one input cycle
    return run.run_loop(workload, seconds=0.0, **kwargs)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_of_every_workload(name):
    workload = workloads.make(name, seed=5)
    loop = tiny_loop(workload)
    assert loop.attempted == workload.cycle
    assert not loop.wrong and not loop.crashes and not loop.errors
    metrics, notes = run.end_to_end_metrics(workload, loop, setup_s=1.0)
    assert all(value > 0 for value in metrics.values()), metrics
    assert notes["tail_samples_beyond"] in (0, run.TAIL_BEYOND)


def test_defect_probe_is_fixed_and_counts_every_request():
    # the probe ignores the run's seed, so every run reports the same counts
    first = workloads.make("single_block", seed=1).defect_probe()
    assert first == workloads.make("single_block", seed=2).defect_probe()
    assert sum(v for k, v in first.items() if k != "attempted") == first["attempted"]
    assert "wrong" not in first


def test_metric_names_and_units_match_the_spec():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


def _planted(out, **changes):
    return dataclasses.replace(out, bounds=dataclasses.replace(out.bounds, **changes))


def test_checker_flags_lower_above_upper():
    workload = workloads.make("gaussian_blocks", seed=0)
    inp = workload.make_input(0)
    out = workload.request(inp)
    assert workload.check(inp, out) is None
    wrong = workload.check(inp, _planted(out, lower=1.5 * out.bounds.upper))
    assert wrong is not None and "exceeds upper" in wrong


def test_checker_flags_flip_lower_of_1_1():
    workload = workloads.make("flip_search", seed=0)
    inp = workload.make_input(0)
    out = workload.request(inp)
    assert workload.check(inp, out) is None
    assert "is not 1" in workload.check(inp, _planted(out, lower=1.1))
    assert "couples evaluated" in workload.check(inp, dataclasses.replace(out, evaluated=9_999))


def test_checker_flags_interval_missing_the_trace_norm():
    workload = workloads.make("single_block", seed=0)
    inp = workload.make_input(1)
    out = workload.request(inp)
    assert workload.check(inp, out) is None
    tn = inp["trace_norm"]
    assert workload.check(inp, _planted(out, lower=1.01 * tn, upper=1.02 * tn)) is not None


def test_checker_flags_a_broken_axiom():
    workload = workloads.make("norm_eval", seed=0)
    inp = workload.make_input(3)
    out = workload.request(inp)
    assert workload.check(inp, out) is None
    norm, padded, acted, rotated = out.norms
    broken = dataclasses.replace(out, norms=(norm, padded * 1.01, acted, rotated))
    assert "padding" in workload.check(inp, broken)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_returns_identical_bounds_and_certificates(name):
    workload = workloads.make(name, seed=7)
    plain = tiny_loop(workload, keep_fingerprints=True)
    tracer = tracing.Tracer()
    original_svd = np.linalg.svd
    with tracing.installed(tracer):
        assert np.linalg.svd is not original_svd
        traced = tiny_loop(workload, tracer=tracer, keep_fingerprints=True)
    assert np.linalg.svd is original_svd
    assert plain.fingerprints == traced.fingerprints
    assert tracer.requests == traced.attempted
    metrics = tracing.layer_metrics(tracer, traced.factors, plain.requests_per_s,
                                    traced.requests_per_s)
    assert set(metrics) == set(tracing.UNITS)
    assert metrics["linalg.svd_calls"] > 0 and metrics["spaces.norm_calls"] > 0
    layers_hit = {n.split(".")[0] for n, v in tracer.totals().items() if v["calls"]}
    if name == "norm_eval":
        assert not layers_hit & {"hatspace", "optimizer", "correspondence"}
    else:
        assert {"hatspace", "optimizer", "correspondence"} <= layers_hit


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    a, b = tracer.name_id("a"), tracer.name_id("b")
    for name, start, end, parent in ((a, 0.0, 10.0, -1), (b, 1.0, 4.0, 0), (b, 5.0, 6.0, 0)):
        tracer.name.append(name)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.request.append(0)
    totals = tracer.totals()
    assert totals["a"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert totals["b"] == {"calls": 2, "s": 4.0, "self_s": 4.0}


def test_calibration_uses_samples_around_and_inside_a_request():
    sampler = calibration.Sampler()
    sampler.at.extend([0.0, 1.0, 2.0, 3.0, 4.0])
    sampler.kernel.extend([1e-4, 2e-4, 3e-4, 4e-4, 9e-4])
    sampler.spent.extend([0.1, 0.1, 0.1, 0.1, 0.1])
    # samples at 1 and 2 fall inside [0.5, 2.5]; 0 and 3 bracket it
    factor = sampler.factors(np.array([0.5]), np.array([2.5]))
    assert factor == pytest.approx([calibration.REF_KERNEL_S / 2.5e-4])
    assert sampler.spent_inside(np.array([0.5]), np.array([2.5])) == pytest.approx([0.2])


def test_tail_leaves_ten_samples_beyond():
    value, percentile, beyond = run.tail(range(1, 101))
    assert (value, percentile, beyond) == (90, 90.0, 10)
    # too few samples for a tail above the median: the maximum
    assert run.tail(range(21)) == (20, 100.0, 0)
    assert run.tail(range(22)) == (11, 100.0 * 12 / 22, 10)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, spec_key", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_the_result_line(trace, spec_key):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "norm_eval", "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[spec_key]}


def test_command_fails_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "single_block", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
