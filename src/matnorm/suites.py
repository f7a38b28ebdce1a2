"""Named verification suites behind the CLI.

Each suite runs a family of checks and returns a JSON-ready report. A check
records what was measured, what was expected, the comparison kind and the
tolerance; the report is byte-reproducible for a fixed seed (only the
elapsed_ms field varies between runs).
"""

from __future__ import annotations

import math
import numbers
import time

import numpy as np

from . import hatspace, linalg, spaces
from .correspondence import (
    amplified_image,
    check_naturality,
    phi_of,
    reconstruct,
)
from .errors import InvalidInputError, require_int
from .optimizer import OptimizerConfig
from .spaces import Couple

DEFAULT_N_VALUES = (1, 2, 3, 4)

MAX_SUITE_N = 16
"""The largest ``n`` that ``run_suite`` takes; the suites allocate arrays sized by n.

At 16 every suite runs: ``verify --suite all --n 16 --trials 1`` passes its
45 checks in 12 s with a peak RSS of 118 MB (one run on a 2-core Xeon). The
arrays grow fast past it: prop7's 64-couple chunk of op:(n+1) holds
64 n^2 (n+1)^2 complex entries, 1.1 GB per array at n = 32.
"""

# cheap optimizer settings for per-trial searches inside suites; the polar
# step reaches the single-block optimum in one jump, so two iterations do
_FAST_OPT = OptimizerConfig(restarts=1, iterations=2, stall_limit=2)


def axiom_catalog() -> list[spaces.MatricialSpace]:
    cat = [spaces.c_min(), spaces.c_max()]
    cat.extend(spaces.concrete_operator_space(k) for k in range(1, 6))
    cat.append(spaces.l1_sum([spaces.c_max(), spaces.c_max()]))
    cat.append(spaces.l1_sum([spaces.c_min(), spaces.c_max()]))
    return cat


def _check(check_id, description, claim, kind, observed, expected, tolerance):
    if kind == "abs":
        ok = abs(observed - expected) <= tolerance
    elif kind == "le":
        ok = observed <= expected + tolerance
    elif kind == "lt":
        ok = observed + tolerance < expected
    elif kind == "ge":
        ok = observed >= expected - tolerance
    elif kind == "bool":
        ok = observed == expected
    else:
        raise InvalidInputError(f"unknown check kind {kind!r}")
    return {
        "id": check_id,
        "description": description,
        "claim": claim,
        "kind": kind,
        "observed": observed,
        "expected": expected,
        "tolerance": tolerance,
        "status": "pass" if ok else "fail",
    }


def _random_matrix(rng, n, target_trace_norm):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a *= target_trace_norm / linalg.trace_norm(a)
    return a


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_axioms(seed, trials, m_max, **_):
    trials = trials or 1000
    m_max = m_max or 4
    catalog = axiom_catalog()
    children = np.random.SeedSequence(seed).spawn(len(catalog) + 1)
    checks = []
    for space, child in zip(catalog, children):
        rep = spaces.check_axioms(space, trials, seed=child, max_level=m_max)
        checks.append(_check(
            f"axioms.{space.space_id}.padding", f"padding equality on {space.space_id}",
            "appending zero rows and columns leaves every level norm unchanged",
            "le", rep.axiom1_max_violation, 0.0, 1e-9,
        ))
        checks.append(_check(
            f"axioms.{space.space_id}.scalar_action", f"scalar-action bound on {space.space_id}",
            "left/right scalar multiplication is bounded by the operator norm of the factor",
            "le", rep.axiom2_max_violation, 0.0, 1e-9,
        ))
    fault = spaces.planted_fault_space()
    rep = spaces.check_axioms(fault, min(trials, 200), seed=children[-1], max_level=2)
    checks.append(_check(
        "axioms.planted_fault", "corrupted evaluator is detected",
        "a +0.1 bias planted at level 2 must surface as a padding violation",
        "ge", rep.axiom1_max_violation, 0.05, 0.0,
    ))
    return checks


def _suite_correspondence(seed, trials, n_values, **_):
    trials = trials or 1000
    n_values = n_values or DEFAULT_N_VALUES
    catalog = axiom_catalog()
    root = np.random.SeedSequence(seed)
    checks = []

    # the flip element represents the identity map, exactly: column p*n + q of its matrix is the image of e_pq
    worst = 0.0
    for n in range(1, 7):
        flip = spaces.concrete_operator_space(n).element(linalg.canonical_identity(n).reshape(n, n, n * n))
        worst = max(worst, float(np.abs(phi_of(flip).matrix - np.eye(n * n)).max()))
    checks.append(_check(
        "correspondence.identity_action", "flip element acts as the identity map (n up to 6)",
        "the map attached to the flip element fixes every elementary matrix",
        "le", worst, 0.0, 0.0,
    ))

    # the amplified map recovers its element from the flip, exactly
    worst_rec = 0.0
    worst_rt = 0.0
    for space, child in zip(catalog, root.spawn(len(catalog))):
        rng = np.random.default_rng(child)
        for t in range(trials):
            n = n_values[t % len(n_values)]
            v = spaces.random_element(space, n, rng)
            flip = linalg.canonical_identity(n)
            rec = amplified_image(v, flip)
            worst_rec = max(worst_rec, float(np.abs(rec.coords - v.coords).max()))
            back = reconstruct(phi_of(v))
            worst_rt = max(worst_rt, float(np.abs(back.coords - v.coords).max()))
    checks.append(_check(
        "correspondence.universal_recovery", "amplified map on the flip element returns the element",
        "for every level-n element v, applying its map entrywise to the flip gives back v",
        "le", worst_rec, 0.0, 0.0,
    ))
    checks.append(_check(
        "correspondence.round_trip", "element -> map -> element is the identity",
        "the element-to-map correspondence is a bijection with exact inverse",
        "le", worst_rt, 0.0, 0.0,
    ))

    # postcomposition naturality
    pairs = min(100, trials)
    rng = np.random.default_rng(root.spawn(len(catalog) + 1)[-1])
    worst_nat = 0.0
    for t in range(pairs):
        src = catalog[t % len(catalog)]
        dst = catalog[int(rng.integers(len(catalog)))]
        n = n_values[t % len(n_values)]
        psi = (rng.standard_normal((dst.dim, src.dim)) + 1j * rng.standard_normal((dst.dim, src.dim)))
        psi /= math.sqrt(src.dim)
        v = spaces.random_element(src, n, rng)
        worst_nat = max(worst_nat, check_naturality(psi, v))
    checks.append(_check(
        "correspondence.naturality", f"postcomposition commutes with representation ({pairs} random pairs)",
        "mapping coordinates then representing equals representing then mapping",
        "le", worst_nat, 0.0, 1e-12,
    ))
    return checks


def _suite_thm6(seed, trials, n_values, budget, **_):
    trials = trials or 1000
    n_values = n_values or DEFAULT_N_VALUES
    budget = 8 if budget is None else budget
    root = np.random.SeedSequence(seed)
    rng = np.random.default_rng(root.spawn(1)[0])
    cmin = spaces.c_min()
    cmax = spaces.c_max()

    worst_witness = 0.0
    worst_excess = -np.inf
    worst_width = 0.0
    for t in range(trials):
        n = n_values[t % len(n_values)]
        a = _random_matrix(rng, n, target_trace_norm=float(rng.uniform(0.5, 5.0)))
        tn = linalg.trace_norm(a)
        u = a.reshape(1, 1, n, n)

        witness = Couple(cmin, cmin.element(linalg.dual_witness(a).reshape(n, n, 1)))
        worst_witness = max(worst_witness, abs(hatspace.couple_value(witness, u) - tn))

        bounds = hatspace.hat_bounds(n, u, budget=budget, seed=int(rng.integers(2**32)),
                                     optimizer_config=_FAST_OPT)
        worst_excess = max(worst_excess, bounds.lower - tn)
        worst_width = max(worst_width, abs(bounds.upper - bounds.lower))

    checks = [
        _check(
            "thm6.witness_achieves", f"dual-witness couple reaches the trace norm ({trials} matrices)",
            "the operator-norm scalar couple built from the dual witness evaluates a single block to its trace norm",
            "le", worst_witness, 0.0, 1e-9,
        ),
        _check(
            "thm6.no_couple_exceeds", "no sampled or optimized couple exceeds the trace norm",
            "at one block the supremum norm equals the trace norm, so every couple value is capped by it",
            "le", worst_excess, 0.0, 1e-9,
        ),
        _check(
            "thm6.degenerate_interval", "single-block intervals collapse",
            "lower and upper bounds coincide at one block: the norm there is exactly the trace norm",
            "le", worst_width, 0.0, 1e-9,
        ),
    ]

    # size-1 blocks: every level norm is the trace norm of the scalar matrix
    rng1 = np.random.default_rng(root.spawn(2)[-1])
    unit = Couple(cmax, cmax.element(np.ones((1, 1, 1), dtype=complex)))
    worst_scalar = 0.0
    worst_scalar_search = 0.0
    for t in range(trials):
        m = 1 + t % 5
        u = (rng1.standard_normal((m, m)) + 1j * rng1.standard_normal((m, m))).reshape(m, m, 1, 1)
        tn = linalg.trace_norm(u[:, :, 0, 0])
        worst_scalar = max(worst_scalar, abs(hatspace.couple_value(unit, u) - tn))
        result = hatspace.search_lower_bound(1, u, budget=budget, seed=int(rng1.integers(2**32)),
                                             optimizer_config=_FAST_OPT)
        worst_scalar_search = max(worst_scalar_search, abs(result.value - tn))
    checks.append(_check(
        "thm6.size1_unit_couple", f"size-1 blocks: the unit trace-norm couple gives the trace norm (levels up to 5, {trials} samples)",
        "for 1 x 1 blocks the supremum norm at every level is the trace norm of the scalar matrix",
        "le", worst_scalar, 0.0, 1e-9,
    ))
    checks.append(_check(
        "thm6.size1_search_agrees", "size-1 blocks: the catalog search neither misses nor exceeds the trace norm",
        "couple search over the catalog reproduces the trace norm for 1 x 1 blocks",
        "le", worst_scalar_search, 0.0, 1e-9,
    ))
    return checks


def _suite_prop7(seed, trials, n_values, budget, **_):
    trials = trials or 10500
    n_values = n_values or (2, 3, 4)
    checks = []
    children = np.random.SeedSequence(seed).spawn(len(n_values))
    for n, child in zip(n_values, children):
        catalog = hatspace.default_catalog(n)
        per_space = budget if budget is not None else max(1, -(-trials // len(catalog)))
        flip = linalg.canonical_identity(n)
        result = hatspace.search_lower_bound(n, flip, catalog=catalog, budget=per_space,
                                             seed=int(np.random.default_rng(child).integers(2**32)))
        target = 10000 if per_space * len(catalog) >= 10000 else per_space * len(catalog)
        checks.append(_check(
            f"prop7.flip_norm.n{n}", f"flip element norm pinched at 1 (n={n})",
            "every unit-ball couple reproduces its own element from the flip, so the best value is exactly 1",
            "abs", result.value, 1.0, 1e-9,
        ))
        checks.append(_check(
            f"prop7.sample_size.n{n}", f"couple sample size (n={n})",
            "the pinch is confirmed over a large sampled and optimized couple population",
            "ge", result.couples_evaluated, target, 0,
        ))
    return checks


def _suite_prop13(seed, trials, n_values, budget, **_):
    trials = trials or 100
    n_values = n_values or (2, 3)
    budget = 16 if budget is None else budget
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    cmax = spaces.c_max()
    worst_closed = 0.0
    worst_closed_rotated = 0.0
    worst_vs_search = -np.inf
    for t in range(trials):
        n = n_values[t % len(n_values)]
        count = (2, 3)[(t // 2) % 2]
        blocks = []
        for _ in range(count):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b = g @ g.conj().T
            b *= rng.uniform(0.3, 2.0) / linalg.trace_norm(b)
            blocks.append(b)
        closed = sum(linalg.trace_norm(b) for b in blocks) / n
        u = np.zeros((count, count, n, n), dtype=complex)
        rotated = np.zeros_like(u)  # each block turned to diag(s) by its SVD's unitaries, a norm-preserving move
        for k, b in enumerate(blocks):
            u[k, k] = b
            rotated[k, k] = np.diag(np.linalg.svd(b, compute_uv=False))
        couple = Couple(cmax, cmax.element((np.eye(n) / n).reshape(n, n, 1)))
        value = hatspace.couple_value(couple, u)
        worst_closed = max(worst_closed, abs(value - closed))
        worst_closed_rotated = max(worst_closed_rotated, abs(hatspace.couple_value(couple, rotated) - closed))
        result = hatspace.search_lower_bound(n, u, budget=budget, seed=int(rng.integers(2**32)),
                                             optimizer_config=_FAST_OPT)
        worst_vs_search = max(worst_vs_search, value - result.value)
    return [
        _check(
            "prop13.closed_form", f"identity/n couple matches the closed form on PSD blocks ({trials} tuples)",
            "on positive semidefinite diagonal blocks the trace-norm scalar couple evaluates to (1/n) sum of trace norms",
            "le", worst_closed, 0.0, 1e-9,
        ),
        _check(
            "prop13.rotated_closed_form", "rotation-based bound matches the closed form",
            "rotating each block to a positive diagonal before the couple evaluation reproduces the same value",
            "le", worst_closed_rotated, 0.0, 1e-9,
        ),
        _check(
            "prop13.within_catalog", "the couple never beats the full catalog search",
            "the identity/n couple is a member of the catalog, so the full search is at least as large",
            "le", worst_vs_search, 0.0, 1e-9,
        ),
    ]


def _suite_prop14(n_values, **_):
    n_values = n_values or (2, 3, 4, 5, 6)
    checks = []
    for n in n_values:
        image = np.einsum("klaa->kl", linalg.canonical_identity(n))
        image_dev = float(np.abs(image - np.eye(n)).max())
        checks.append(_check(
            f"prop14.image.n{n}", f"entrywise trace of the flip element is the identity (n={n})",
            "applying the trace entrywise to the flip element yields exactly the identity matrix",
            "le", image_dev, 0.0, 0.0,
        ))
        checks.append(_check(
            f"prop14.trace_norm.n{n}", f"image trace norm is exactly n (n={n})",
            "the image has trace norm n, exceeding the flip element's own unit norm",
            "abs", linalg.trace_norm(image), float(n), 0.0,
        ))
    return checks


def _suite_convexity(n_values, p_values, **_):
    witness_n = [n for n in (n_values or range(2, 7)) if n > 1]
    n_values = n_values or DEFAULT_N_VALUES
    p_values = p_values or (1.01, 1.5, 2.0, 10.0, math.inf)
    cmax = spaces.c_max()
    checks = []
    min_lower = np.inf
    off_two = {}
    for n in n_values:
        # The flip element has norm 1, so p-convexity would cap its doubled block-diagonal at 2^(1/p). The
        # identity/n couple's image of it is that element twice, of trace norm 2; the realignment rule gives 2.
        doubled = np.zeros((2 * n, 2 * n, n, n), dtype=complex)
        doubled[:n, :n] = doubled[n:, n:] = linalg.canonical_identity(n)
        lower = hatspace.couple_value(Couple(cmax, cmax.element((np.eye(n) / n).reshape(n, n, 1))), doubled)
        min_lower = min(min_lower, lower)
        off_two[n] = max(abs(lower - 2.0), abs(hatspace.hat_upper_bound(n, doubled).value - 2.0))
        for p in p_values:
            checks.append(_check(
                f"convexity.violated.n{n}.p{p:g}", f"block-doubling beats the l_{p:g} bound (n={n})",
                f"the doubled flip element reaches 2 while p-convexity would cap it at 2^(1/{p:g})",
                "bool", lower > 2.0 ** (1.0 / p) + 1e-6, True, 0.0,
            ))
    checks.append(_check(
        "convexity.lower_on_sum", "doubled flip element always reaches 2",
        "the trace-norm scalar couple evaluates the doubled flip element to twice its unit trace norm",
        "ge", float(min_lower), 2.0, 1e-9,
    ))
    for n, off in off_two.items():
        checks.append(_check(
            f"convexity.additive.n{n}", f"doubled flip element certified [2, 2] (n={n})",
            "on the doubled flip element the norm adds like an l_1 sum: both ends of its interval are 2",
            "le", off, 0.0, 1e-9,
        ))
    for n in witness_n:
        x = np.zeros((n, n, n, n), dtype=complex)
        x[range(n), range(n), range(n), range(n)] = 1.0
        cert = hatspace.hat_upper_bound(n, x)
        upper = cert.value if hatspace.check_upper_certificate(cert, x) else math.inf
        # each summand e_kk is a single block, whose norm is its trace norm (thm6)
        l1_sum = sum(linalg.trace_norm(x[k, k]) for k in range(n))
        checks.append(_check(
            f"convexity.not_l1.n{n}", f"diag(e_11, ..., e_nn) is certified below the l_1 sum of its summands (n={n})",
            "an L^1 direct-sum rule would give the sum n of the summands' unit norms; "
            "a checked realignment certificate bounds the norm by about 1",
            "lt", upper, l1_sum, 0.0,
        ))
    return checks


def _suite_coproduct(seed, trials, **_):
    trials = trials or 100
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sums = [
        spaces.l1_sum([spaces.c_max(), spaces.c_max()]),
        spaces.l1_sum([spaces.c_min(), spaces.c_max()]),
        spaces.l1_sum([spaces.concrete_operator_space(2), spaces.c_max()]),
        spaces.l1_sum([spaces.c_min(), spaces.l1_sum([spaces.c_max(), spaces.c_max()])]),
    ]
    worst_add = 0.0
    for t in range(trials):
        space = sums[t % len(sums)]
        u = spaces.random_element(space, 1 + t % 3, rng)
        total = space.norm(u)
        by_parts = sum(part.norm(spaces.l1_component(space, u, i))
                       for i, part in enumerate(space.parts))
        worst_add = max(worst_add, abs(total - by_parts))

    worst_comp = 0.0
    out_dim = 3
    for t in range(trials):
        space = sums[t % len(sums)]
        psis = [rng.standard_normal((out_dim, p.dim)) + 1j * rng.standard_normal((out_dim, p.dim))
                for p in space.parts]
        index = t % len(space.parts)
        x = spaces.random_element(space.parts[index], 1 + t % 2, rng)
        via_sum = spaces.coproduct_apply(space, psis, spaces.l1_embed(space, x, index))
        direct = np.einsum("fd,kld->klf", psis[index], x.coords)
        worst_comp = max(worst_comp, float(np.abs(via_sum - direct).max()))

    return [
        _check(
            "coproduct.additivity", f"norms add across summands ({trials} random elements)",
            "the level norm of an l1-sum element is exactly the sum of its component norms",
            "le", worst_add, 0.0, 0.0,
        ),
        _check(
            "coproduct.injection_identity", f"coproduct maps restrict to their factors ({trials} samples)",
            "composing the coproduct of maps with a coordinate injection gives back the injected map, exactly",
            "le", worst_comp, 0.0, 0.0,
        ),
    ]


_SUITES = {
    "axioms": _suite_axioms,
    "correspondence": _suite_correspondence,
    "thm6": _suite_thm6,
    "prop7": _suite_prop7,
    "prop13": _suite_prop13,
    "prop14": _suite_prop14,
    "convexity": _suite_convexity,
    "coproduct": _suite_coproduct,
}
SUITE_NAMES = tuple(_SUITES)  # the CLI's choices and the order of "all"


def run_suite(name: str, *, seed: int = 0, trials: int | None = None, n: int | None = None,
              m_max: int | None = None, p: float | None = None,
              budget: int | None = None) -> dict:
    """Run one named suite (or "all") and assemble the report.

    Every parameter is checked before any suite runs, whichever suites read it.
    """
    if name not in (*SUITE_NAMES, "all"):  # compared, not hashed: a list is no suite either
        raise InvalidInputError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)} or all")
    require_int("seed", seed, 0)
    for key, value, low in (("trials", trials, 1), ("m_max", m_max, 1), ("n", n, 1), ("budget", budget, 0)):
        if value is not None:
            require_int(key, value, low)
    if n is not None and n > MAX_SUITE_N:  # the message leaves n out: str() refuses ints of more than 4,300 digits
        raise InvalidInputError(f"n must be at most {MAX_SUITE_N}")
    if p is not None and not (isinstance(p, numbers.Real) and p > 1):  # also rejects nan
        raise InvalidInputError(f"exponent must exceed 1, got {p!r}")
    names = SUITE_NAMES if name == "all" else (name,)
    kwargs = {
        "seed": seed,
        "trials": trials,
        "m_max": m_max,
        "n_values": (n,) if n is not None else None,
        "p_values": (p,) if p is not None else None,
        "budget": budget,
    }
    started = time.perf_counter()
    checks = []
    for suite in names:
        checks.extend(_SUITES[suite](**kwargs))
    if not checks:
        raise InvalidInputError(f"suite {name!r} ran no checks with these parameters")
    return {
        "suite": name,
        "checks": checks,
        "seed": seed,
        "elapsed_ms": int((time.perf_counter() - started) * 1000),
    }
