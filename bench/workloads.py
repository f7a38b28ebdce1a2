"""The benchmark's four workloads: seeded inputs, one request, one output check.

Each workload turns ``(seed, index)`` into one input with its own generator,
so a run is reproducible from its seed and request ``i`` is the same input
in a traced and an untraced run. Inputs are built and outputs are checked
outside the timed region; only :meth:`Workload.request` is timed.

Every call into the engine goes through an attribute lookup on the
``matnorm`` package or one of its modules at call time (``mn.hat_bounds``,
``mn.serialize.pairs_to_complex``), so the traced run's wrappers see it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

import matnorm as mn
from matnorm.optimizer import OptimizerConfig

# the verification suites' per-trial optimizer: one restart, two polar steps
FAST_OPTIMIZER = OptimizerConfig(restarts=1, iterations=2, stall_limit=2)

# prop7 evaluates at least 10^4 couples per block size; 10500 split evenly
FLIP_COUPLES = 10500
FLIP_MIN_EVALUATED = 10_000

RTOL = 1e-9


@dataclass
class Output:
    """What one request returned: the interval (or norms) and its JSON text."""

    bounds: Any = None
    text: str = ""
    evaluated: int = 0
    norms: tuple = ()


def pairs(arr: np.ndarray) -> list:
    """[re, im] nesting as the CLI reads it, built without the engine's encoder."""
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def trace_norm(a: np.ndarray) -> float:
    return float(np.linalg.svd(a, compute_uv=False).sum())


def operator_norm(a: np.ndarray) -> float:
    return float(np.linalg.svd(a, compute_uv=False)[0])


def flip_element(n: int) -> np.ndarray:
    """Block (p, q) is the elementary matrix e_qp."""
    out = np.zeros((n, n, n, n), dtype=complex)
    for p in range(n):
        for q in range(n):
            out[p, q, q, p] = 1.0
    return out


class Workload:
    """One request shape. Subclasses define ``make_input``, ``request`` and ``check``.

    ``cycle`` is the period of the input mix: a run stops only at a multiple
    of it, so every run sees the same mix. ``quality_requests`` is how many
    leading requests the interval-quality metrics are taken over, so those
    metrics do not depend on how many requests fit in the run.
    """

    name = ""
    cycle = 1
    quality_requests = 0
    computes_intervals = True

    def __init__(self, seed: int):
        self.seed = int(seed)

    def rng(self, index: int, warmup: bool = False) -> np.random.Generator:
        return np.random.default_rng([self.seed, int(warmup), index])

    def setup(self) -> None:
        """Build what every request shares (catalogs, spaces)."""

    def make_input(self, index: int, warmup: bool = False):
        raise NotImplementedError

    def request(self, inp) -> Output:
        raise NotImplementedError

    def check(self, inp, out: Output) -> str | None:
        """None when the output is correct, else the reason it is not."""
        raise NotImplementedError


class SingleBlock(Workload):
    """hat_bounds on one n x n block (m = 1): the thm6 shape, exact interval.

    The timed requests sweep scales 1e-3..1e3, where the engine's absolute
    consistency tolerance holds (0 of 400 requests fail at 1e3..1e4, 7 of
    400 at 1e5..1e6). Larger inputs raise the known spurious
    ``InconsistencyError``; :meth:`defect_probe` sends a fixed set of them
    outside the timed loop and reports how many raise, so the defect stays
    measured without making the timed run's failure count a matter of how
    many requests fit in it.
    """

    name = "single_block"
    cycle = 4
    quality_requests = 40
    SCALE_EXPONENTS = (-3.0, 3.0)
    PROBE_EXPONENTS = (6.0, 9.0)
    PROBE_REQUESTS = 40

    def make_input(self, index, warmup=False):
        return self._block_input(self.rng(index, warmup), index, self.SCALE_EXPONENTS)

    @staticmethod
    def _block_input(rng, index, exponents):
        n = 1 + index % 4
        scale = 10.0 ** rng.uniform(*exponents)
        block = scale * complex_gaussian(rng, (n, n))
        return {"n": n, "u": block.reshape(1, 1, n, n), "seed": int(rng.integers(2**32)),
                "trace_norm": trace_norm(block)}

    def defect_probe(self) -> dict:
        """Requests at scales 1e6..1e9 from a fixed seed; counts by outcome."""
        outcomes = {"attempted": self.PROBE_REQUESTS}
        for i in range(self.PROBE_REQUESTS):
            rng = np.random.default_rng([0, 0, i])
            inp = self._block_input(rng, i, self.PROBE_EXPONENTS)
            try:
                reason = self.check(inp, self.request(inp))
                key = "ok" if reason is None else "wrong"
            except mn.MatnormError as exc:
                key = type(exc).__name__
            outcomes[key] = outcomes.get(key, 0) + 1
        return outcomes

    def request(self, inp):
        bounds = mn.hat_bounds(inp["n"], inp["u"], budget=8, seed=inp["seed"],
                               optimizer_config=FAST_OPTIMIZER)
        return Output(bounds=bounds)

    def check(self, inp, out):
        b, tn = out.bounds, inp["trace_norm"]
        tol = RTOL * tn
        if not (b.lower <= tn + tol and b.upper >= tn - tol):
            return f"interval [{b.lower!r}, {b.upper!r}] misses the trace norm {tn!r}"
        return None


class FlipSearch(Workload):
    """hat_bounds on the flip element with prop7's couple budget (lower = 1 exactly)."""

    name = "flip_search"
    cycle = 3
    quality_requests = 3

    def setup(self):
        self.budgets = {n: math.ceil(FLIP_COUPLES / len(mn.default_catalog(n))) for n in (2, 3, 4)}

    def make_input(self, index, warmup=False):
        rng = self.rng(index, warmup)
        n = 2 + index % 3
        return {"n": n, "u": flip_element(n), "seed": int(rng.integers(2**32))}

    def request(self, inp):
        n = inp["n"]
        # hat_bounds returns no couple count, so read it off the inner search
        probe = _SearchProbe(mn.hatspace.search_lower_bound)
        mn.hatspace.search_lower_bound = probe
        try:
            bounds = mn.hat_bounds(n, inp["u"], budget=self.budgets[n], seed=inp["seed"])
        finally:
            mn.hatspace.search_lower_bound = probe.inner
        return Output(bounds=bounds, evaluated=probe.evaluated)

    def check(self, inp, out):
        b = out.bounds
        if abs(b.lower - 1.0) > RTOL:
            return f"flip lower bound {b.lower!r} is not 1"
        if b.lower > b.upper:
            return f"lower {b.lower!r} exceeds upper {b.upper!r}"
        if out.evaluated < FLIP_MIN_EVALUATED:
            return f"only {out.evaluated} couples evaluated"
        return None


class GaussianBlocks(Workload):
    """hat_bounds on complex Gaussian blocks, with one PSD block-diagonal input in four.

    The input arrives as JSON [re, im] pairs and the result leaves through
    ``NormBounds.to_json``, as with ``matnorm hat-bounds --json``.
    """

    name = "gaussian_blocks"
    cycle = 16
    quality_requests = 64
    SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3))

    def make_input(self, index, warmup=False):
        rng = self.rng(index, warmup)
        m, n = self.SHAPES[index % 4]
        # one request in every four is PSD block-diagonal; its shape rotates
        psd = (index + index // 4) % 4 == 3
        if psd:
            u = np.zeros((m, m, n, n), dtype=complex)
            for k in range(m):
                g = complex_gaussian(rng, (n, n))
                u[k, k] = g @ g.conj().T
        else:
            u = complex_gaussian(rng, (m, m, n, n))
        text = json.dumps({"n": n, "m": m, "blocks": pairs(u)})
        return {"n": n, "m": m, "u": u, "psd": psd, "text": text, "seed": int(rng.integers(2**32))}

    def request(self, inp):
        data = json.loads(inp["text"])
        n, m = data["n"], data["m"]
        u = mn.serialize.pairs_to_complex(data["blocks"])
        if u.shape != (m, m, n, n):
            raise mn.InvalidInputError(f"blocks have shape {u.shape}")
        bounds = mn.hat_bounds(n, u, seed=inp["seed"])
        return Output(bounds=bounds, text=json.dumps(bounds.to_json()))

    def check(self, inp, out):
        b, u, n = out.bounds, inp["u"], inp["n"]
        if not b.lower <= b.upper:
            return f"lower {b.lower!r} exceeds upper {b.upper!r}"
        cert = b.certificate
        if cert.space.norm(cert.v) > 1.0 + 1e-12:
            return "certificate lies outside the unit ball"
        again = mn.couple_value(cert, u)
        if abs(again - b.lower) > 1e-12 * max(1.0, b.lower):
            return f"certificate gives {again!r}, not the lower bound {b.lower!r}"
        if inp["psd"]:
            closed = sum(trace_norm(u[k, k]) for k in range(inp["m"])) / n
            if b.lower < closed - RTOL:
                return f"PSD lower {b.lower!r} below (1/n) sum of trace norms {closed!r}"
        sent = json.loads(out.text)
        if (sent["lower"], sent["upper"]) != (b.lower, b.upper):
            return "JSON output does not carry the computed interval"
        return None


class NormEval(Workload):
    """Norm, padded norm and two scalar-action norms of one decoded element."""

    name = "norm_eval"
    computes_intervals = False
    SPACE_IDS = ("cmin", "cmax", "op:1", "op:2", "op:3", "op:4", "op:5",
                 "l1:[cmax,cmax]", "l1:[cmin,cmax]", "l1:[op:2,l1:[cmin,cmax]]")
    PAD = 2
    cycle = 4 * len(SPACE_IDS)
    # a request takes about 0.2 ms and building its input longer, so the
    # run cycles over a fixed set of distinct inputs; the engine keeps no
    # cache, so a repeated input costs it as much as a new one
    DISTINCT = 10 * cycle

    def setup(self):
        self.spaces = {sid: mn.space_from_id(sid) for sid in self.SPACE_IDS}
        self._inputs = {}

    def make_input(self, index, warmup=False):
        key = (index % self.DISTINCT, warmup)
        if key not in self._inputs:
            self._inputs[key] = self._build_input(*key)
        return self._inputs[key]

    def _build_input(self, index, warmup):
        rng = self.rng(index, warmup)
        sid = self.SPACE_IDS[index % len(self.SPACE_IDS)]
        level = 1 + (index // len(self.SPACE_IDS)) % 4
        dim = self.spaces[sid].dim
        coords = complex_gaussian(rng, (level, level, dim))
        s = complex_gaussian(rng, (level, level))
        t = complex_gaussian(rng, (level, level))
        q1, _ = np.linalg.qr(complex_gaussian(rng, (level, level)))
        q2, _ = np.linalg.qr(complex_gaussian(rng, (level, level)))
        text = json.dumps({"space": sid, "m": level, "coords": pairs(coords)})
        return {"text": text, "s": s, "t": t, "q1": q1, "q2": q2,
                "s_op": operator_norm(s), "t_op": operator_norm(t)}

    def request(self, inp):
        data = json.loads(inp["text"])
        space = self.spaces[data["space"]]
        el = space.element(mn.serialize.pairs_to_complex(data["coords"]))
        return Output(norms=(
            space.norm(el),
            space.norm(mn.pad(el, self.PAD)),
            space.norm(mn.scalar_action(inp["s"], el, inp["t"])),
            space.norm(mn.scalar_action(inp["q1"], el, inp["q2"])),
        ))

    def check(self, inp, out):
        norm, padded, acted, rotated = out.norms
        tol = RTOL * max(1.0, norm)
        if abs(padded - norm) > tol:
            return f"padding moved the norm from {norm!r} to {padded!r}"
        if acted > inp["s_op"] * norm * inp["t_op"] + tol:
            return f"|S u T| = {acted!r} exceeds |S| |u| |T|"
        # unitary factors bound the norm from both sides, so it must not move
        if abs(rotated - norm) > tol:
            return f"unitary action moved the norm from {norm!r} to {rotated!r}"
        return None


class _SearchProbe:
    """Passes a ``search_lower_bound`` call through and keeps its couple count."""

    evaluated = 0

    def __init__(self, inner):
        self.inner = inner

    def __call__(self, *args, **kwargs):
        result = self.inner(*args, **kwargs)
        self.evaluated = result.couples_evaluated
        return result


WORKLOADS = {cls.name: cls for cls in (SingleBlock, FlipSearch, GaussianBlocks, NormEval)}


def make(name: str, seed: int) -> Workload:
    workload = WORKLOADS[name](seed)
    workload.setup()
    return workload
