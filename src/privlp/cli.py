"""Command-line front end: privatize, solve, bound, sweep.

All subcommands read the JSON problem schema documented in
:mod:`privlp.problem`; ``sweep`` alternatively takes a gridworld config via
``--grid-config``. Privacy parameters come from the problem file's
``privacy`` block, overridable per-flag; they are required for anything
that privatizes.
"""
from __future__ import annotations

import argparse
import functools
import json
import secrets
import sys
from pathlib import Path

from . import simplex
from .accuracy import cost_bound
from .cmdp import load_grid_config
from .experiment import ExperimentConfig, records_to_csv, records_to_json, run_sweep
from .mechanism import privatize_matrix, privatized_document
from .problem import FEAS_TOL, LinearProgram, PrivacyParams, load_problem, validate


_SECRET_SEED = ("seed of the noise (default: a fresh random one); anyone who knows it can "
                "regenerate the noise and recover the private entries of A, so pass one only "
                "for reproducible runs and keep it secret")


class CliError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _load_validated(path: str) -> LinearProgram:
    lp = load_problem(_read(path))
    validate(lp)
    return lp


def _resolve_delta_k(base: PrivacyParams | None, args) -> tuple[float, float]:
    """Each of delta and k from its flag, else the problem's privacy block, else the default."""
    delta = args.delta if args.delta is not None else (base.delta if base else 0.05)
    k = args.k if args.k is not None else (base.k if base else 1.0)
    return delta, k


def _resolve_privacy(lp: LinearProgram, args) -> PrivacyParams:
    base = lp.privacy
    epsilon = args.epsilon if args.epsilon is not None else (base.epsilon if base else None)
    delta, k = _resolve_delta_k(base, args)
    if epsilon is None:
        raise CliError("no epsilon given: pass --epsilon or include a privacy block in the problem")
    return PrivacyParams(epsilon=epsilon, delta=delta, k=k)


def _write(path: str, text: str):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from None


def _emit(text: str, out: str | None):
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _solution_payload(sol: simplex.Solution) -> dict:
    payload = {"status": sol.status}
    if sol.is_optimal:
        payload["x"] = sol.x.tolist()
        payload["objective"] = sol.objective
        payload["basis"] = list(sol.basis)
    return payload


def cmd_privatize(args) -> int:
    lp = _load_validated(args.problem)
    params = _resolve_privacy(lp, args)
    priv = privatize_matrix(lp.system, params, args.seed)
    _emit(json.dumps(privatized_document(lp, priv), indent=2) + "\n", args.out)
    return 0


def cmd_solve(args) -> int:
    lp = _load_validated(args.problem)
    if not args.private:
        payload = _solution_payload(simplex.solve_lp(lp.c, lp.system))
    else:
        params = _resolve_privacy(lp, args)
        priv = privatize_matrix(lp.system, params, args.seed)
        tightened = lp.system.tightened(priv.A_tilde)
        sol = simplex.solve_lp(lp.c, tightened)
        payload = _solution_payload(sol)
        if sol.is_optimal:
            payload["original_feasible"] = bool(lp.system.violation(sol.x) <= FEAS_TOL)
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_bound(args) -> int:
    lp = _load_validated(args.problem)
    params = _resolve_privacy(lp, args)
    report = cost_bound(lp, params)
    _emit(json.dumps(report.to_dict(), indent=2) + "\n", args.out)
    return 0


def cmd_sweep(args) -> int:
    if (args.problem is None) == (args.grid_config is None):
        raise CliError("sweep needs exactly one source: a problem file or --grid-config")
    try:
        eps_grid = tuple(float(tok) for tok in args.eps_grid.split(",") if tok.strip())
    except ValueError as exc:
        raise CliError(f"--eps-grid: {exc}") from None
    if args.problem is not None:
        problem = load_problem(_read(args.problem))  # the sweep validates it first
        base = problem.privacy
    else:
        problem = load_grid_config(_read(args.grid_config))
        base = None
    delta, k = _resolve_delta_k(base, args)
    config = ExperimentConfig(eps_grid=eps_grid, trials=args.trials, base_seed=args.seed,
                              delta=delta, k=k)
    records = run_sweep(problem, config)
    csv_text = records_to_csv(records)
    if args.out:
        _write(args.out + ".csv", csv_text)
        _write(args.out + ".json", records_to_json(records))
    else:
        sys.stdout.write(csv_text)
    return 0


def _add_privacy_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--epsilon", type=float, default=None, help="privacy leakage parameter")
    parser.add_argument("--delta", type=float, default=None, help="privacy failure probability")
    parser.add_argument("--k", type=float, default=None, help="adjacency bound on one coefficient")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privlp",
        description="Solve linear-constrained programs with a differentially private "
                    "coefficient matrix; the private solution always satisfies the "
                    "original constraints.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("privatize", help="privatize a problem's coefficient matrix")
    p.add_argument("problem", help="path to a problem JSON file")
    _add_privacy_flags(p)
    p.add_argument("--seed", type=int, default=None, help=_SECRET_SEED)
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=cmd_privatize)

    p = sub.add_parser("solve", help="solve a problem, optionally privately")
    p.add_argument("problem")
    p.add_argument("--private", action="store_true",
                   help="privatize the matrix first, then solve the tightened problem; the "
                        "output's original_feasible is computed from the true A and is not "
                        "part of the differentially private release")
    _add_privacy_flags(p)
    p.add_argument("--seed", type=int, default=None, help=_SECRET_SEED)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bound", help="report the expected performance-loss bound")
    p.add_argument("problem")
    _add_privacy_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sweep", help="cost-of-privacy sweep over an epsilon grid")
    p.add_argument("problem", nargs="?", default=None, help="path to a problem JSON file")
    p.add_argument("--grid-config", default=None, help="path to a gridworld config JSON file")
    p.add_argument("--eps-grid", default="0.5,1,2,3,4,5",
                   help="comma-separated epsilon values")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="base seed; trials derive from it")
    p.add_argument("--delta", type=float, default=None, help="privacy failure probability")
    p.add_argument("--k", type=float, default=None, help="adjacency bound on one coefficient")
    p.add_argument("--out", default=None,
                   help="output prefix; writes <out>.csv and <out>.json")
    p.set_defaults(func=cmd_sweep)
    return parser


_parser = functools.cache(build_parser)  # built once per process, on first use


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "seed", 0) is None:  # privatize, solve: a secret seed no one can regenerate
        args.seed = secrets.randbits(64)
    try:
        return args.func(args)
    except (CliError, ValueError, RuntimeError, MemoryError) as exc:  # a refused allocation too
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
