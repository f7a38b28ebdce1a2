"""Command-line front end.

Subcommands:

* ``norm``        evaluate a catalog-space norm on an element read from JSON
* ``hat-bounds``  certified interval for the supremum norm of a block matrix
* ``verify``      run named verification suites and emit a JSON report

Exit codes: 0 success, 1 at least one failed check, 2 input or parse error
(bad arguments included), 3 internal inconsistency (a lower bound exceeded
an upper bound), 4 unexpected internal error (the traceback goes to
stderr). The environment variable MATNORM_SEED provides the default
seed; like ``--seed`` it must be a nonnegative integer.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import traceback

from .errors import InconsistencyError, InvalidInputError, MatnormError
from .hatspace import hat_bounds
from .optimizer import OptimizerConfig
from .serialize import pairs_to_complex
from .spaces import space_from_id
from .suites import MAX_SUITE_N, SUITE_NAMES, run_suite


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past int's digit limit
        raise InvalidInputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInputError(f"{path}: expected a JSON object")
    return data


def _block_matrix(data: dict, path: str):
    """Validate a parsed block-matrix object {n, m, blocks} into (n, m, (m, m, n, n) array)."""
    for key in ("n", "m", "blocks"):
        if key not in data:
            raise InvalidInputError(f"{path}: missing key {key!r}")
    n, m = data["n"], data["m"]
    if any(type(k) is not int or k < 1 for k in (n, m)):  # json's true and 1.0 are not sizes
        raise InvalidInputError(f"{path}: n and m must be positive integers")
    arr = pairs_to_complex(data["blocks"])
    if arr.shape != (m, m, n, n):
        raise InvalidInputError(f"{path}: blocks have shape {arr.shape}, expected {(m, m, n, n)}")
    return n, m, arr


def load_element_file(path: str, space):
    """Read an element of ``space`` from JSON.

    Two layouts are accepted: {m, dim, coords} with an (m, m, dim) coordinate
    array, or the block-matrix layout {n, m, blocks} for spaces whose
    coordinates are flattened n x n matrices. Either may declare ``dim``,
    which must then be the JSON integer ``space.dim``.
    """
    data = _load_json(path)
    if "dim" in data and (type(data["dim"]) is not int or data["dim"] != space.dim):
        raise InvalidInputError(f"{path}: dim {data['dim']} does not match {space.space_id} (dim {space.dim})")
    if "coords" in data:
        element = space.element(pairs_to_complex(data["coords"]))
    elif "blocks" in data:
        n, m, arr = _block_matrix(data, path)
        if space.dim != n * n:
            raise InvalidInputError(
                f"{path}: {n} x {n} blocks do not fit {space.space_id} (dim {space.dim})"
            )
        element = space.element(arr.reshape(m, m, n * n))
    else:
        raise InvalidInputError(f"{path}: expected key 'coords' or 'blocks'")
    if "m" in data and (type(data["m"]) is not int or data["m"] != element.level):
        raise InvalidInputError(f"{path}: declared level {data['m']} does not match data ({element.level})")
    return element


def cmd_norm(args) -> int:
    space = space_from_id(args.space)
    element = load_element_file(args.file, space)
    if element.level != args.level:
        raise InvalidInputError(f"file holds a level-{element.level} element, expected level {args.level}")
    print(f"{space.norm(element):.12g}")
    return 0


def parse_optimizer_config(text: str | None) -> OptimizerConfig | None:
    """Build an OptimizerConfig from a JSON object of field overrides.

    Omitted fields keep the search defaults; the field checks are the
    config's own.
    """
    if not text:
        return None
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past int's digit limit
        raise InvalidInputError(f"bad optimizer config: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInputError("optimizer config must be a JSON object")
    unknown = set(data) - {f.name for f in dataclasses.fields(OptimizerConfig)}
    if unknown:
        raise InvalidInputError(f"unknown optimizer config keys: {sorted(unknown)}")
    return OptimizerConfig(**data)


def cmd_hat_bounds(args) -> int:
    n, m, blocks = _block_matrix(_load_json(args.file), args.file)
    if args.n is not None and args.n != n:
        raise InvalidInputError(f"--n {args.n} does not match the file (n={n})")
    bounds = hat_bounds(n, blocks, budget=args.budget, seed=args.seed,
                        optimizer_config=parse_optimizer_config(args.opt_config))
    if args.json:
        print(json.dumps(bounds.to_json()))
    else:
        print(f"n={bounds.n} m={bounds.level}")
        print(f"lower={bounds.lower:.12g} via couple on {bounds.certificate.space.space_id}")
        print(f"upper={bounds.upper:.12g} by rule {bounds.upper_rule}")
    return 0


def cmd_verify(args) -> int:
    if args.n is not None and 4 < args.n <= MAX_SUITE_N:  # a larger n is rejected, not run
        print(f"warning: n={args.n} grows the assembled matrices quickly; expect long runtimes",
              file=sys.stderr)
    new = bool(args.out) and not os.path.lexists(args.out)
    try:  # opened before the suite, which can take minutes, and emptied only once the report exists
        out = open(args.out, "a", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise InvalidInputError(f"cannot write the report to {args.out}: {exc}") from exc
    with out as fh:
        try:
            report = run_suite(args.suite, seed=args.seed, trials=args.trials, n=args.n,
                               m_max=args.m, p=args.p, budget=args.budget)
        except BaseException:  # no report: a file this run made goes, an existing one keeps its bytes
            if new:
                os.unlink(args.out)
            raise
        if args.out:
            fh.truncate(0)
        print(json.dumps(report, indent=2), file=fh)
    failed = [c for c in report["checks"] if c["status"] != "pass"]
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matnorm",
        description="Norm evaluation and certified supremum-norm bounds for block matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # a string default goes through type=int when --seed is absent
    seed = os.environ.get("MATNORM_SEED") or "0"

    p_norm = sub.add_parser("norm", help="evaluate a catalog-space norm from a JSON file")
    p_norm.add_argument("space", help='space id: "cmin", "cmax", "op:k" or "l1:[...]"')
    p_norm.add_argument("level", type=int, help="expected level of the element")
    p_norm.add_argument("file", help="JSON element file ({m, dim, coords} or {n, m, blocks})")

    p_hat = sub.add_parser("hat-bounds", help="certified interval for the supremum norm")
    p_hat.add_argument("file", help="JSON block-matrix file {n, m, blocks}")
    p_hat.add_argument("--n", type=int, default=None, help="block size (cross-checked with the file)")
    p_hat.add_argument("--budget", type=int, default=None, help="random couples per catalog space")
    p_hat.add_argument("--seed", type=int, default=seed, help="default: MATNORM_SEED or 0")
    p_hat.add_argument("--json", action="store_true", help="emit the bounds as JSON")
    p_hat.add_argument("--opt-config", default=None, metavar="JSON",
                       help='optimizer overrides of "restarts", "iterations" and "stall_limit", '
                            'e.g. \'{"restarts": 4, "iterations": 100}\'; omitted keys keep the search defaults')

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("--suite", choices=list(SUITE_NAMES) + ["all"], default="all")
    p_ver.add_argument("--n", type=int, default=None, help="restrict suites to one block size")
    p_ver.add_argument("--m", type=int, default=None, help="maximum level for axiom trials")
    p_ver.add_argument("--p", type=float, default=None, help="convexity exponent")
    p_ver.add_argument("--trials", type=int, default=None, help="override per-suite trial counts")
    p_ver.add_argument("--budget", type=int, default=None, help="override per-space couple budgets")
    p_ver.add_argument("--seed", type=int, default=seed, help="default: MATNORM_SEED or 0")
    p_ver.add_argument("--out", default=None, help="write the JSON report to a file instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, low in (("n", 1), ("m", 1), ("trials", 1), ("budget", 0), ("seed", 0)):
        value = getattr(args, name, None)
        if value is not None and value < low:
            parser.error(f"argument --{name}: must be at least {low}, got {value}")
    try:
        if args.command == "norm":
            return cmd_norm(args)
        if args.command == "hat-bounds":
            return cmd_hat_bounds(args)
        return cmd_verify(args)
    except InconsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidInputError, MatnormError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
