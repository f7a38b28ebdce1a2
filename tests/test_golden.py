"""Pinned outputs of ``hat_bounds``: SHA-256 of ``json.dumps(bounds.to_json())``.

The digests were taken before the random couples were evaluated in chunks,
so any change in draws, evaluation order, tie-breaking or rounding of the
search shows here. The budgets cross the chunk boundaries, and two cases ask
for more optimizer restarts than there are structured couples, so the
restarts start from random draws. The cases ``flip_n4``,
``polar_proposal_vanishes`` and ``restarts_4_default_catalog`` were pinned
before the optimizer ran its restarts in lockstep; in the second, restart 0
of every polar space starts with no polar proposal and ends while restart 1
takes polar steps. ``bare_spaces_random_starts`` and
``polar_proposal_vanishes`` were re-pinned when the optimizer's random
search went: a restart with no polar proposal now ends instead of drawing
random steps. Every digest was re-pinned when the upper bound became the
realignment certificate: the ``upper`` and ``rule`` fields changed, and the
lower bounds and couples stayed bitwise equal. Ten digests and the verify
report were re-pinned when the optimizer stopped rescaling its line-search
points and took its polar proposals from the images it had valued: the
``upper`` fields stayed bitwise equal, and the lower bounds moved by 4 ulps
or less (``flip_n4`` kept its lower bound with a couple of another space).
Three digests were re-pinned when an optimizer step went straight to its
polar proposal, dropping the line-search points between the current point
and the proposal: ``gauss_m1_n2_seed5`` and ``gauss_m3_n2`` lost 1 ulp of
their lower bounds, ``flip_n4`` kept its lower bound with the couple of
another space, and every ``upper`` and the verify report stayed the same.
Seven digests and the verify report were re-pinned when ``cmin`` became
``op:1`` under its own id and the default catalog stopped searching that
space twice as ``cmin`` and ``op:1``: every later ``op:k`` draws from a
shifted spawned seed, every ``upper`` stayed bitwise equal, and the lower
bounds moved by 1 ulp or less except ``restarts_from_random`` (-1.6e-6
relative, from other random restarts); in the verify report only prop7's
flip values (by an ulp) and sample sizes moved. Three digests were
re-pinned when an optimizer step began to value its proposals with the
full SVD that also gives the next proposal (values that differ from
``norm_batch``'s in the last bits) and cmax's pullback became one ``@``
product per row: ``gauss_m2_n2`` lost 1 ulp of its lower bound and its
certificate moved from op:2 to cmin, ``restarts_4_default_catalog`` lost 2
ulps, ``gauss_m3_n2`` kept its lower bound with another cmax couple, and
every ``upper`` and the verify report stayed the same. The size-1 flip
element, the identity, left op:1's (cmin's) structured stack at n = 1 in
that change too; no pinned case searches n = 1 with two restarts, so none
moved for it. ``restarts_4_default_catalog`` was re-pinned when the stall
rule became relative (a step gaining at most ``TOLERANCE`` times the current
value counts as a stall): its lower bound gained 2 ulps (8.440482709238717
to 8.440482709238719), and its ``upper`` and space stayed the same.
Six digests, the verify report and the two CLI fixtures were re-pinned when
the optimizer began to pull each support functional back through
``correspondence.pullbacks`` (op:k's pull became the functional
``conj(x) y^T`` first, then one ``@``, where it had been one three-operand
einsum per element; cmax's pullback kept its bits). Every ``upper`` stayed
bitwise equal. ``gauss_m2_n2`` lost 1 ulp (-1.7e-16 relative) with its
certificate moving from cmin to op:3; ``polar_proposal_vanishes`` lost 1 ulp
(-1.2e-16) moving from op:3 to cmin; ``restarts_from_random`` gained 1 ulp
(+1.5e-16) on op:2; ``gauss_m2_n3`` kept its lower bound with an op:2 couple
in place of op:3; ``flip_n4`` kept its lower bound with an op:3 couple in
place of op:5; ``flip_n3`` kept its lower bound and space with other couple
bits. In the verify report only prop7's flip values moved, down by 1 or 2
ulps.

Thirteen digests were re-pinned when the upper bound began to rotate pairs
of atoms (pairwise unitary sweeps): every case with m, n > 1 but the flip
elements moved its ``upper`` down, by 8% to 21% (``gauss_m3_n2``
14.158595772118062 to 11.19215566887559, ``budget_0`` through
``budget_130`` 7.806971253455036 to 7.166551546603302). Every lower bound and certificate
couple stayed bitwise equal, as did ``flip_n2``, ``flip_n3``, ``flip_n4``
(rank one, no sweep), the m = 1 cases and the verify report.

``test_verify_report_is_pinned`` pins the whole ``verify`` report the same
way, with its one timing field removed.
"""

import hashlib
import json

import numpy as np
import pytest

from matnorm import OptimizerConfig, c_max, c_min, canonical_identity, hat_bounds
from matnorm.suites import run_suite

from helpers import Bare, gauss

FAST = OptimizerConfig(restarts=1, iterations=2, stall_limit=2)


def traceless(seed, shape):
    # every block has trace exactly 0, so the identity couples of the polar
    # spaces (cmin, cmax, op:k) have a zero image and no polar proposal
    u = gauss(np.random.default_rng(seed), shape)
    u[..., 1, 1] = -u[..., 0, 0]
    return u


def bare_catalog():
    # no structured couples and no polar proposal: the optimizer takes no
    # step, so the best random couple is the lower bound
    return [Bare("bare-cmin", 1, c_min()), Bare("bare-cmax", 1, c_max())]


CASES = {
    "flip_n2": lambda: hat_bounds(2, canonical_identity(2)),
    "flip_n3": lambda: hat_bounds(3, canonical_identity(3)),
    "gauss_m2_n2": lambda: hat_bounds(2, gauss(np.random.default_rng(1), (2, 2, 2, 2)), seed=1),
    "gauss_m3_n2": lambda: hat_bounds(2, gauss(np.random.default_rng(2), (3, 3, 2, 2)), seed=2),
    "gauss_m2_n3": lambda: hat_bounds(3, gauss(np.random.default_rng(3), (2, 2, 3, 3)), seed=3),
    "gauss_m1_n2_seed5": lambda: hat_bounds(2, gauss(np.random.default_rng(4), (1, 1, 2, 2)), seed=5),
    **{f"single_n{n}_fast": (lambda n=n: hat_bounds(n, gauss(np.random.default_rng(10 + n), (1, 1, n, n)),
                                                     budget=8, seed=20 + n, optimizer_config=FAST))
       for n in (1, 2, 3, 4)},
    "budget_0": lambda: hat_bounds(2, gauss(np.random.default_rng(7), (2, 2, 2, 2)), budget=0, seed=7),
    # without optimizer steps the best random couple is the lower bound
    **{f"budget_{b}": (lambda b=b: hat_bounds(
        2, gauss(np.random.default_rng(7), (2, 2, 2, 2)), catalog=bare_catalog(), budget=b, seed=7,
        optimizer_config=OptimizerConfig(restarts=2, iterations=0)))
       for b in (1, 63, 64, 65, 130)},
    "restarts_from_random": lambda: hat_bounds(
        2, gauss(np.random.default_rng(8), (2, 2, 2, 2)), budget=8, seed=8,
        optimizer_config=OptimizerConfig(restarts=4, iterations=6, stall_limit=3)),
    "bare_spaces_random_starts": lambda: hat_bounds(
        2, gauss(np.random.default_rng(9), (2, 2, 2, 2)), catalog=bare_catalog(), budget=70, seed=9,
        optimizer_config=OptimizerConfig(restarts=3, iterations=8, stall_limit=4)),
    "flip_n4": lambda: hat_bounds(4, canonical_identity(4)),
    # restart 0 starts at the identity, has no polar proposal and ends while
    # restart 1 (a dual witness) takes polar steps
    "polar_proposal_vanishes": lambda: hat_bounds(2, traceless(13, (2, 2, 2, 2)), seed=13),
    "restarts_4_default_catalog": lambda: hat_bounds(
        2, gauss(np.random.default_rng(14), (3, 3, 2, 2)), seed=14, optimizer_config=OptimizerConfig(restarts=4)),
}

DIGESTS = {
    "bare_spaces_random_starts": "cead81aaa00bd50d1d975ea2f2ba0b5e832803e00754edc916b814f8ff2f0d6d",
    "budget_0": "72c75aa9576c67174cb4d01f8890571c06ec868abf8c18337fc8b01a6c08aaaf",
    "budget_1": "2eea895e0c200ab598042e41023dbdbf712db0154da08e95f6ac921cf1c8a862",
    "budget_130": "fbb2f9a00b2cdaeacff4c7e0b62119f66d919cec0469d9e6f8421301a235daed",
    "budget_63": "2fb18f34b4d595c9325e0157863c8ecbd56ceb675fa1921a1862948695ee871c",
    "budget_64": "2fb18f34b4d595c9325e0157863c8ecbd56ceb675fa1921a1862948695ee871c",
    "budget_65": "2fb18f34b4d595c9325e0157863c8ecbd56ceb675fa1921a1862948695ee871c",
    "flip_n2": "6a68e815a9009af1d34f1c8a6ad9d1b28c0ab58e604472666582782b98e77a53",
    "flip_n4": "fa18f685977376656c15b395b5238cc6c6b2fd9f934b9a15a6b54dc677d8664b",
    "flip_n3": "1c291759b4c0609e78aab2b6f17dd70c0c3cea861235b313b5ae7cd9bd3703ce",
    "gauss_m1_n2_seed5": "93364da37539c593594ff5dfe643091e92e7852bb270455f2fc9179e37f58037",
    "gauss_m2_n2": "e843b7807ef3ece4dab0f1f55e289ddb49fda719e76516c665889101ad53b265",
    "gauss_m2_n3": "a838eab47a7b4e50030ee640f84288a8f1bfe0431d5ee3073d950a99ae784d50",
    "gauss_m3_n2": "3ad267380199b821111599dbd06e455a549173f4b058bc45085cdcae756f9af7",
    "polar_proposal_vanishes": "6ae1aee77ea820759afcad62fe4303038b23efd9ad6667dc9c0ba31b61a4b346",
    "restarts_4_default_catalog": "af2cb00d2a732786394583b18b84d9068f366232bb8117f70ae12936622a0b03",
    "restarts_from_random": "bb26d2b383b6d17f67ff2cd6ff322be4d2704bf2f8fa19cfd43bd42848454507",
    "single_n1_fast": "1252493daf05a72ea59471a608a36b7e975b593a2b4784d8e1511c4d199417ab",
    "single_n2_fast": "d8d247bd3edd77764b957ce252cfebd16a137b7fbbf5b9a1eb4cab5673bbed02",
    "single_n3_fast": "133a8a45d2aaa4b923ed60e96649d6ae9b390831edcec02778eb62317a3c0538",
    "single_n4_fast": "9da5a3368602e30e1ca34dd30bb9ed990357aa2a52d0f72907c07ccf7f32df2d",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_hat_bounds_output_is_pinned(name):
    text = json.dumps(CASES[name]().to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]


VERIFY_ALL_2024 = "ff927c7810aa0a1aa4f356e48c2dc1b119defc7b75093fdc6be29a0e1d52bb0f"


def test_verify_report_is_pinned():
    report = run_suite("all", seed=2024, trials=20)
    del report["elapsed_ms"]
    assert len(report["checks"]) == 79
    assert hashlib.sha256(json.dumps(report).encode()).hexdigest() == VERIFY_ALL_2024
