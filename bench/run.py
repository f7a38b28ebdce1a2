"""Closed-loop benchmark of the matnorm certified-interval engine.

One client sends one request at a time and sends the next only when the
previous one has returned, in a single process. Run from the repository
root:

    python3 bench/run.py --workload flip_search --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 5

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see bench/README.md). The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result, with its provenance, is also
written under ``.bench_out/``. The engine is imported from ``src/`` of the
checkout this file sits in, and from nowhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

# numpy, the engine and the benchmark's other modules are imported inside
# functions: a set-up probe runs this file in a fresh process and times
# their import.

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("single_block", "flip_search", "gaussian_blocks", "norm_eval")
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170
TAIL_BEYOND = 10
TAIL_MAX_PERCENTILE = 99.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "gap_ratio_p50": "ratio",
    "gap_ratio_max": "ratio",
    "peak_rss_mb": "MB",
}


class EngineMissing(RuntimeError):
    pass


def import_engine():
    """Import matnorm from this checkout's src/ and return the package."""
    if not (SRC / "matnorm" / "__init__.py").is_file():
        raise EngineMissing(f"no engine sources under {SRC}")
    for path in (str(BENCH), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import matnorm

    if Path(matnorm.__file__).resolve().parent != (SRC / "matnorm").resolve():
        raise EngineMissing(f"matnorm was imported from {matnorm.__file__}, not from {SRC}")
    return matnorm


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


@dataclass
class Loop:
    """What one closed-loop pass saw, request by request.

    ``latencies`` are wall times. ``scaled`` are the times the metrics use:
    the request's time on the CPU (its wall time whenever the host kept
    the process running), less calibration sampling inside it, scaled by
    its calibration factor (see calibration.py).
    """

    latencies: array = field(default_factory=lambda: array("d"))
    scaled: object = None
    factors: object = None
    gaps: list = field(default_factory=list)
    fingerprints: list = field(default_factory=list)
    errors: Counter = field(default_factory=Counter)
    wrong: list = field(default_factory=list)
    crashes: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.errors.values()) + len(self.wrong)

    @property
    def requests_per_s(self) -> float:
        return self.attempted / float(self.scaled.sum())


def fingerprint(out) -> tuple:
    """Everything a request returned, exactly, for comparing two runs."""
    if out is None:
        return (None,)
    if out.bounds is None:
        return tuple(out.norms)
    b = out.bounds
    cert = b.certificate
    return (b.lower, b.upper, b.upper_rule, cert.space.space_id, cert.v.coords.tobytes(), out.text)


def run_loop(workload, seconds: float, min_requests: int = 1, tracer=None,
             keep_fingerprints: bool = False) -> Loop:
    """Send requests until ``seconds`` of request time and a whole input cycle are done.

    Inputs are built and outputs checked between requests, outside the
    timed region. A request that raises or fails its check counts as
    failed; it is never retried and never dropped.
    """
    import numpy as np
    from matnorm.errors import MatnormError

    from calibration import REF_KERNEL_S, Sampler

    loop = Loop()
    starts, cpu = array("d"), array("d")
    measured = 0.0
    i = 0
    with Sampler() as sampler:
        # the budget is in calibrated seconds too, so a slow spell on the
        # host does not change how many requests, and which mix, a run sends
        while measured < seconds or i % workload.cycle or i < min_requests:
            inp = workload.make_input(i)
            out = None
            span = tracer.begin_request() if tracer is not None else None
            c0 = time.process_time()
            t0 = time.perf_counter()
            sampler.request_started(t0)
            try:
                out = workload.request(inp)
            except MatnormError as exc:
                loop.errors[type(exc).__name__] += 1
            except Exception as exc:  # a crash is a failed request and a wrong program
                loop.errors[type(exc).__name__] += 1
                loop.crashes.append(f"request {i}: {type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            dc = time.process_time() - c0
            sampler.request_ended()
            if tracer is not None:
                tracer.end_request(span, out.bounds.certificate if out is not None and out.bounds else None)
            measured += min(dt, dc) * REF_KERNEL_S / sampler.latest
            starts.append(t0)
            loop.latencies.append(dt)
            cpu.append(dc)
            if out is not None:
                reason = workload.check(inp, out)
                if reason is not None:
                    loop.wrong.append(f"request {i}: {reason}")
                elif i < workload.quality_requests and out.bounds is not None:
                    loop.gaps.append(out.bounds.upper / out.bounds.lower)
            if keep_fingerprints:
                loop.fingerprints.append(fingerprint(out))
            i += 1
    start = np.frombuffer(starts)
    wall = np.frombuffer(loop.latencies)
    busy = np.minimum(wall, np.frombuffer(cpu)) - sampler.spent_inside(start, start + wall)
    loop.factors = sampler.factors(start, start + wall)
    loop.scaled = np.maximum(busy, 0.0) * loop.factors
    return loop


def tail(latencies) -> tuple[float, float, int]:
    """Latency at the highest percentile, at most p99, with TAIL_BEYOND samples above it.

    Returns (value, percentile, samples above). The cap keeps a run of many
    short requests from reporting the host's rarest interruptions (p99.98
    of norm_eval's 60k requests). When the percentile would not even reach
    the median, the run is too short for a tail and the maximum is
    returned, with no samples above it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * (TAIL_BEYOND + 1):
        return ordered[-1], 100.0, 0
    beyond = max(TAIL_BEYOND, math.ceil(n * (1.0 - TAIL_MAX_PERCENTILE / 100.0)))
    index = n - beyond - 1
    return ordered[index], 100.0 * (index + 1) / n, beyond


def end_to_end_metrics(workload, loop: Loop, setup_s: float, times=None) -> tuple[dict, dict]:
    """The end-to-end metrics, from the calibrated request times unless ``times`` is given."""
    times = loop.scaled if times is None else times
    lat_ms = [1e3 * x for x in times]
    tail_ms, tail_pct, beyond = tail(lat_ms)
    # norm_eval evaluates norms exactly: each value is its own interval
    gaps = loop.gaps if workload.computes_intervals else [1.0]
    metrics = {
        "setup_s": setup_s,
        "requests_per_s": len(lat_ms) / (1e-3 * sum(lat_ms)),
        "request_p50_ms": statistics.median(lat_ms),
        "request_tail_ms": tail_ms,
        "gap_ratio_p50": statistics.median(gaps) if gaps else float("nan"),
        "gap_ratio_max": max(gaps) if gaps else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"tail_percentile": tail_pct, "tail_samples_beyond": beyond,
             "gap_samples": len(gaps)}
    return metrics, notes


# ---------------------------------------------------------------------------
# set-up time, in fresh processes
# ---------------------------------------------------------------------------


def setup_probe(name: str, seed: int) -> dict:
    """Import the engine, build the workload's catalog and serve one warm-up request.

    Returns the wall and CPU time it took.
    """
    c0 = time.process_time()
    t0 = time.perf_counter()
    import_engine()
    import workloads

    warm_up(workloads.make(name, seed))
    return {"wall_s": time.perf_counter() - t0, "cpu_s": time.process_time() - c0}


def warm_up(workload) -> None:
    """One request outside the measured loop; an engine error there still warms up."""
    from matnorm.errors import MatnormError

    try:
        workload.request(workload.make_input(0, warmup=True))
    except MatnormError:
        pass


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float], list[float]]:
    """Set-up times of fresh processes, one after another.

    Returns each probe's wall time, its min(wall, CPU) time, and that time
    calibrated by the kernel samples this process takes while the probe
    runs. The probe process is not sampled: a kernel timed inside it
    settles into one of two speeds for the process's life that do not
    follow the set-up's own speed, while the host's slow spells, which
    move set-up time by 20% from one quarter of an hour to the next, show
    in this process's samples too.
    """
    from calibration import Sampler

    wall, busy, spans = [], [], []
    with Sampler() as sampler:
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                 "--workload", name, "--seed", str(seed)],
                cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
            )
            spans.append((t0, time.perf_counter()))
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
            wall.append(probe["wall_s"])
            busy.append(min(probe["wall_s"], probe["cpu_s"]))
    starts, ends = zip(*spans)
    factors = sampler.factors(starts, ends)
    return wall, busy, [float(x * f) for x, f in zip(busy, factors)]


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "matnorm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "seed": seed,
    }


def emit(result: dict, metrics: dict, units: dict, name: str, seed: int, trace: int) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    print(json.dumps({"workload": name, "provenance": result["provenance"],
                      "counts": result["counts"]}))
    for key, value in metrics.items():
        print(f"{name:16s} {key:32s} {value:16.6g} {units[key]}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["counts"]["attempted"],
        "failed": result["counts"]["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def counts(*loops: Loop) -> dict:
    errors = Counter()
    for loop in loops:
        errors.update(loop.errors)
    return {
        "attempted": sum(loop.attempted for loop in loops),
        "failed": sum(loop.failed for loop in loops),
        "errors": dict(errors),
        "wrong": [w for loop in loops for w in loop.wrong][:20],
        "crashes": [c for loop in loops for c in loop.crashes][:20],
    }


def run_untraced(name: str, seed: int, seconds: float) -> None:
    setup_wall, setup_busy, setup = measure_setup(name, seed)
    import workloads

    workload = workloads.make(name, seed)
    warm_up(workload)
    loop = run_loop(workload, seconds, min_requests=max(1, workload.quality_requests))
    metrics, notes = end_to_end_metrics(workload, loop, statistics.median(setup))
    wall, _ = end_to_end_metrics(workload, loop, statistics.median(setup_wall), loop.latencies)
    c = counts(loop)
    # outside the timed loop and the request counts; see SingleBlock
    if hasattr(workload, "defect_probe"):
        c["known_defect_probe"] = workload.defect_probe()
    result = {
        "workload": name, "trace": 0, "seconds": seconds,
        # no workload sends a request that may fail, so any failure is wrong
        "correct": loop.failed == 0,
        "counts": {**c, "fail_ratio": c["failed"] / c["attempted"], **notes,
                   "setup_probes_s": setup, "setup_probes_busy_s": setup_busy,
                   "setup_probes_wall_s": setup_wall,
                   "mean_speed_factor": float(loop.factors.mean())},
        "metrics": metrics,
        "wall_metrics": wall,
        "provenance": provenance(seed),
    }
    emit(result, metrics, UNITS, name, seed, 0)


def run_traced(name: str, seed: int, seconds: float) -> None:
    """Half the time untraced, half traced, over the same leading inputs."""
    import tracing
    import workloads

    workload = workloads.make(name, seed)
    warm_up(workload)
    plain = run_loop(workload, seconds / 2, keep_fingerprints=True)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = run_loop(workload, seconds / 2, tracer=tracer, keep_fingerprints=True)
    common = min(plain.attempted, traced.attempted)
    same = plain.fingerprints[:common] == traced.fingerprints[:common]
    metrics = tracing.layer_metrics(tracer, traced.factors, plain.requests_per_s,
                                    traced.requests_per_s)
    tracer.save(OUT / f"spans-{name}.npz")
    result = {
        "workload": name, "trace": 1, "seconds": seconds,
        "correct": same and plain.failed == 0 and traced.failed == 0,
        "counts": {**counts(plain, traced), "traced_requests": traced.attempted,
                   "compared_requests": common, "traced_equals_untraced": same,
                   "span_calls": {k: v["calls"] for k, v in sorted(tracer.totals().items())
                                  if v["calls"]},
                   "spans": len(tracer.start)},
        "metrics": metrics,
        "provenance": provenance(seed),
    }
    emit(result, metrics, tracing.UNITS, name, seed, 1)


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process; one table of metrics per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 4 * seconds,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines[1:-1]))
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="request time to measure (split in two with --trace 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    if args.setup_probe and args.workload == "all":
        parser.error("a setup probe needs one workload")
    try:
        if args.setup_probe:
            print(json.dumps(setup_probe(args.workload, args.seed)))
            return 0
        import_engine()
    except EngineMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.trace:
        run_traced(args.workload, args.seed, args.seconds)
    else:
        run_untraced(args.workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
