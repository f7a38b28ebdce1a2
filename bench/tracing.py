"""Span tracer for the benchmark's traced run.

The engine has no tracing of its own, so this module wraps the entry points
one layer calls in the next, from the outside, for the duration of a
``with installed(tracer):`` block:

=================  ==========================================================
layer              wrapped entry points
=================  ==========================================================
``linalg``         ``numpy.linalg.svd`` (the SVD kernel every norm reaches)
``spaces``         ``MatricialSpace.norm``, ``Couple.__post_init__``
``correspondence`` ``amplified_image``
``hatspace``       ``hat_bounds``, ``search_lower_bound``,
                   ``structured_couples``, ``random_couple``, ``couple_value``,
                   ``hat_upper_bound``
``optimizer``      ``optimize_couple``
``serialize``      ``pairs_to_complex``, ``complex_to_pairs``
=================  ==========================================================

A span is (name, start, end, parent span, request). Spans are kept in
memory in flat arrays while the run goes on and written out once at the
end. A span's self time is its duration minus the durations of its direct
children; calls are sequential, so children never overlap.

Counts that spans cannot carry are kept at the same boundaries: matrices
and computed flops per SVD call, the phase that produced each couple
(structured, random or optimizer), and whether a couple raised the
search's running best.
"""

from __future__ import annotations

import math
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import matnorm as mn

REQUEST = "request"
PHASES = ("structured", "random", "optimizer")

UNITS = {
    "linalg.svd_calls": "count",
    "linalg.svd_ms": "ms",
    "linalg.svd_matrices": "count",
    "linalg.svd_us_per_matrix": "us",
    "linalg.svd_flops_computed": "flop",
    "spaces.norm_calls": "count",
    "spaces.norm_self_ms": "ms",
    "spaces.couple_checks": "count",
    "spaces.couple_check_ms": "ms",
    "correspondence.amplify_calls": "count",
    "correspondence.amplify_self_ms": "ms",
    "hatspace.structured_ms": "ms",
    "hatspace.random_ms": "ms",
    "hatspace.couples_evaluated": "count",
    "hatspace.couples_per_s": "1/s",
    "hatspace.upper_ms": "ms",
    "hatspace.win_structured": "ratio",
    "hatspace.win_random": "ratio",
    "hatspace.win_optimizer": "ratio",
    "hatspace.random_useful_ratio": "ratio",
    "optimizer.calls": "count",
    "optimizer.ms": "ms",
    "optimizer.improve_ratio": "ratio",
    "serialize.decode_ms": "ms",
    "serialize.encode_ms": "ms",
    "trace.request_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Counts:
    svd_matrices: int = 0
    svd_flops: float = 0.0
    couples_evaluated: int = 0
    random_evaluated: int = 0
    random_useful: int = 0
    optimizer_calls: int = 0
    optimizer_improved: int = 0
    wins: dict = field(default_factory=lambda: dict.fromkeys(PHASES + ("other",), 0))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self.request = array("q")
        self.counts = Counts()
        self.requests = 0
        self.recording = False
        self._stack: list[int] = []
        # per-request state: the phase that made each couple, and the best
        # value the request has seen so far
        self._phase: dict[int, str] = {}
        self._keep: list = []
        self.best = -np.inf

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.request.append(self.requests)
        self.end.append(np.nan)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def begin_request(self) -> int:
        self.recording = True
        return self.open(self.name_id(REQUEST))

    def end_request(self, index: int, certificate=None) -> None:
        self.close(index)
        self.recording = False
        if certificate is not None:
            self.counts.wins[self._phase.get(id(certificate), "other")] += 1
        self.requests += 1
        self._phase.clear()
        self._keep.clear()
        self.best = -np.inf

    def mark(self, couple, phase: str) -> None:
        # keep the couple alive so its id is not reused within the request
        self._phase[id(couple)] = phase
        self._keep.append(couple)

    def phase_of(self, couple) -> str:
        return self._phase.get(id(couple), "other")

    def offer(self, value: float) -> bool:
        """Feed a value to the request's running best; True if it raised it."""
        if value > self.best:
            self.best = value
            return True
        return False

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "request": np.frombuffer(self.request, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def totals(self, scale=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds, over all requests.

        ``scale`` (one factor per request) turns wall seconds into
        calibrated seconds, as for the end-to-end times.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        if scale is not None:
            dur = dur * np.asarray(scale)[a["request"]]
        nested = a["parent"] >= 0
        covered = np.bincount(a["parent"][nested], weights=dur[nested], minlength=len(dur))
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        incl = np.bincount(a["name"], weights=dur, minlength=k)
        excl = np.bincount(a["name"], weights=own, minlength=k)
        out = {name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(excl[i])}
               for i, name in enumerate(self.names)}
        # structured time counts only outermost structured spans (l1 sums recurse)
        if "hatspace.structured" in self._ids:
            sid = self._ids["hatspace.structured"]
            top = (a["name"] == sid) & ~(nested & (a["name"][np.maximum(a["parent"], 0)] == sid))
            out["hatspace.structured"]["outer_s"] = float(dur[top].sum())
        return out

    def save(self, path: Path) -> None:
        """Write every span (column arrays plus the name table) to an .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


def _svd_flops(shape, compute_uv: bool, complex_input: bool) -> float:
    """Golub and Van Loan's operation count for one SVD of an r x c matrix.

    Singular values only: 4 r c^2 - 4 c^3 / 3 (r >= c). Full factors:
    4 r^2 c + 8 r c^2 + 9 c^3. A complex flop is counted as four real ones.
    """
    r, c = max(shape[-2:]), min(shape[-2:])
    flops = 4 * r * r * c + 8 * r * c * c + 9 * c ** 3 if compute_uv else 4 * r * c * c - 4 * c ** 3 / 3
    return flops * (4 if complex_input else 1)


@contextmanager
def installed(tracer: Tracer):
    """Wrap the engine's entry points; every original is restored on exit."""
    saved = []

    def patch(owner, attr, make_wrapper):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def span(name, after=None):
        nid = tracer.name_id(name)

        def make_wrapper(fn):
            def traced(*args, **kwargs):
                if not tracer.recording:
                    return fn(*args, **kwargs)
                index = tracer.open(nid)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.close(index)
                if after is not None:
                    after(out, args, kwargs)
                return out

            traced.__wrapped__ = fn
            return traced

        return make_wrapper

    counts = tracer.counts

    def after_svd(out, args, kwargs):
        a = np.asarray(args[0])
        matrices = math.prod(a.shape[:-2])
        compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        counts.svd_matrices += matrices
        counts.svd_flops += matrices * _svd_flops(a.shape, compute_uv, a.dtype.kind == "c")

    def after_structured(out, args, kwargs):
        for couple in out:
            tracer.mark(couple, "structured")

    def after_random(out, args, kwargs):
        tracer.mark(out, "random")

    def after_search(out, args, kwargs):
        counts.couples_evaluated += out.couples_evaluated

    def after_optimize(out, args, kwargs):
        couple, value = out
        tracer.mark(couple, "optimizer")
        counts.optimizer_calls += 1
        counts.optimizer_improved += tracer.offer(value)

    value_ids = {phase: tracer.name_id(f"hatspace.couple_value.{phase}")
                 for phase in PHASES + ("other",)}

    def wrap_couple_value(fn):
        def traced(couple, u):
            if not tracer.recording:
                return fn(couple, u)
            phase = tracer.phase_of(couple)
            index = tracer.open(value_ids[phase])
            try:
                value = fn(couple, u)
            finally:
                tracer.close(index)
            raised = tracer.offer(value)
            if phase == "random":
                counts.random_evaluated += 1
                counts.random_useful += raised
            return value

        traced.__wrapped__ = fn
        return traced

    hs, sp, co, opt, ser = mn.hatspace, mn.spaces, mn.correspondence, mn.optimizer, mn.serialize
    try:
        patch(np.linalg, "svd", span("linalg.svd", after=after_svd))
        patch(sp.MatricialSpace, "norm", span("spaces.norm"))
        patch(sp.Couple, "__post_init__", span("spaces.couple_check"))
        for owner in (co, hs, opt):
            patch(owner, "amplified_image", span("correspondence.amplify"))
        patch(mn, "hat_bounds", span("hatspace.hat_bounds"))
        patch(hs, "search_lower_bound", span("hatspace.search", after=after_search))
        patch(hs, "structured_couples", span("hatspace.structured", after=after_structured))
        patch(hs, "random_couple", span("hatspace.random_couple", after=after_random))
        patch(hs, "couple_value", wrap_couple_value)
        patch(hs, "hat_upper_bound", span("hatspace.upper"))
        patch(hs, "optimize_couple", span("optimizer.optimize", after=after_optimize))
        patch(ser, "pairs_to_complex", span("serialize.decode"))
        for owner in (ser, hs):
            patch(owner, "complex_to_pairs", span("serialize.encode"))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, scale, untraced_rps: float, traced_rps: float) -> dict[str, float]:
    """Per-request means of every per-layer metric, from the spans and counts.

    Times are calibrated with the traced requests' factors ``scale``.
    """
    t = tracer.totals(scale)
    c = tracer.counts
    per = max(tracer.requests, 1)

    def get(name, key="s"):
        return t.get(name, {}).get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    svd_s = get("linalg.svd")
    search_s = get("hatspace.search")
    wins = sum(c.wins.values())
    return {
        "linalg.svd_calls": get("linalg.svd", "calls") / per,
        "linalg.svd_ms": 1e3 * svd_s / per,
        "linalg.svd_matrices": c.svd_matrices / per,
        "linalg.svd_us_per_matrix": 1e6 * ratio(svd_s, c.svd_matrices),
        "linalg.svd_flops_computed": c.svd_flops / per,
        "spaces.norm_calls": get("spaces.norm", "calls") / per,
        "spaces.norm_self_ms": 1e3 * get("spaces.norm", "self_s") / per,
        "spaces.couple_checks": get("spaces.couple_check", "calls") / per,
        "spaces.couple_check_ms": 1e3 * get("spaces.couple_check") / per,
        "correspondence.amplify_calls": get("correspondence.amplify", "calls") / per,
        "correspondence.amplify_self_ms": 1e3 * get("correspondence.amplify", "self_s") / per,
        "hatspace.structured_ms": 1e3 * (get("hatspace.structured", "outer_s")
                                         + get("hatspace.couple_value.structured")) / per,
        "hatspace.random_ms": 1e3 * (get("hatspace.random_couple")
                                     + get("hatspace.couple_value.random")) / per,
        "hatspace.couples_evaluated": c.couples_evaluated / per,
        "hatspace.couples_per_s": ratio(c.couples_evaluated, search_s),
        "hatspace.upper_ms": 1e3 * get("hatspace.upper") / per,
        "hatspace.win_structured": ratio(c.wins["structured"], wins),
        "hatspace.win_random": ratio(c.wins["random"], wins),
        "hatspace.win_optimizer": ratio(c.wins["optimizer"], wins),
        "hatspace.random_useful_ratio": ratio(c.random_useful, c.random_evaluated),
        "optimizer.calls": c.optimizer_calls / per,
        "optimizer.ms": 1e3 * get("optimizer.optimize") / per,
        "optimizer.improve_ratio": ratio(c.optimizer_improved, c.optimizer_calls),
        "serialize.decode_ms": 1e3 * get("serialize.decode") / per,
        "serialize.encode_ms": 1e3 * get("serialize.encode") / per,
        "trace.request_ms": 1e3 * get(REQUEST) / per,
        "trace.overhead_ratio": ratio(untraced_rps, traced_rps),
    }
