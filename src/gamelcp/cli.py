"""Command line front end.

Subcommands: gen, solve, reduce, certify, bench, plot.  Global flags
(--seed, --tol, --output) come before the subcommand.  --seed applies to
gen --family random, certify and bench (default 0), --tol to solve and
bench (default 1e-9, and it must be positive and finite; solve also
refuses a --tol below the rounding level of the game's values); given to any
other command, either is a usage error.  gen, solve, reduce and certify
write their one artifact to --output, or to stdout without it.

Exit codes: 0 on success, 1 when a solver fails, a solution does not
verify or certify cannot decide that M is a P-matrix, 2 on usage or I/O
errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bench import (
    random_game,
    read_bench_csv,
    render_loglog_svg,
    run_bench,
    write_bench_csv,
)
from .conditioning import CertifyOptions, certify, report_json, write_report_csv
from .game import GameValidationError, game_json, is_optimal, load_game
from .hard_instances import A_MODES, HardInstanceSpec, build_hard_instance
from .lcp import (
    RecoveryError,
    default_partition,
    lcp_json,
    load_partition,
    recover,
    to_lcp,
)
from .lcp_solvers import IpmOptions, solve_pivoting, solve_potential_reduction
from .solvers import (
    SolverFailure,
    brute_force_solve,
    strategy_iteration,
    value_iteration,
)

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_USAGE = 2

# solve refuses a --tol below TOL_FLOOR_ULPS * UNIT_ROUNDOFF * max|cost| /
# (1 - gamma): the values reach max|cost| / (1 - gamma), and a reduced cost
# smaller than a few of their roundings cannot be told apart from rounding.
# The check is on the flag as given; the default 1e-9 is left to the solvers
UNIT_ROUNDOFF = 2.0**-53
TOL_FLOOR_ULPS = 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gamelcp",
        description="Solve discounted turn-based stochastic games through "
        "their linear complementarity reduction and certify conditioning.",
    )
    # None marks "not given": a command that ignores the flag refuses it
    parser.add_argument("--seed", type=int, default=None, help="base RNG seed (0)")
    parser.add_argument("--tol", type=float, default=None, help="tolerance (1e-9)")
    parser.add_argument("--output", default=None, help="output path (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a game as JSON")
    p_gen.add_argument("--family", choices=("gn", "random"), required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--gamma", type=float, required=True)
    p_gen.add_argument("--a-mode", choices=A_MODES, default=None)
    p_gen.add_argument("--a", type=float, default=None)
    p_gen.set_defaults(func=_cmd_gen)

    p_solve = sub.add_parser("solve", help="solve a game and print the equilibrium")
    p_solve.add_argument("--game", required=True)
    p_solve.add_argument(
        "--method", choices=("vi", "si", "brute", "ipm", "pivot"), default="ipm"
    )
    p_solve.add_argument("--partition", default=None)
    p_solve.set_defaults(func=_cmd_solve)

    p_reduce = sub.add_parser("reduce", help="write the game's LCP (M, q) as JSON")
    p_reduce.add_argument("--game", required=True)
    p_reduce.add_argument("--partition", default=None)
    p_reduce.set_defaults(func=_cmd_reduce)

    p_cert = sub.add_parser("certify", help="estimate kappa/delta/theta with bounds")
    p_cert.add_argument("--game", required=True)
    p_cert.add_argument("--partition", default=None)
    p_cert.add_argument("--samples", type=int, default=10_000)
    p_cert.add_argument("--csv", default=None, help="also write a one-row CSV")
    p_cert.set_defaults(func=_cmd_certify)

    p_bench = sub.add_parser("bench", help="sweep the hard family and write CSV")
    p_bench.add_argument("--ns", required=True, help="comma list, e.g. 8,16,32")
    p_bench.add_argument("--gammas", required=True, help="comma list, e.g. 0.5,0.9")
    # no --a here, so "custom" could never run
    p_bench.add_argument(
        "--a-mode", choices=tuple(m for m in A_MODES if m != "custom"), default="kappa"
    )
    p_bench.add_argument("--samples", type=int, default=2000)
    p_bench.set_defaults(func=_cmd_bench)

    p_plot = sub.add_parser("plot", help="render a benchmark CSV as SVG")
    p_plot.add_argument("--input", required=True)
    p_plot.add_argument("--quantity", choices=tuple(_QUANTITIES), default="kappa_est")
    p_plot.set_defaults(func=_cmd_plot)
    return parser


def _write_or_print(text, path):
    text = text if text.endswith("\n") else text + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _resolve_global_flags(args):
    """Refuse --seed and --tol where the command ignores them, then fill in
    their defaults."""
    seeded = args.command in ("certify", "bench") or (
        args.command == "gen" and args.family == "random"
    )
    if args.seed is not None and not seeded:
        raise ValueError(
            "--seed applies to gen --family random, certify and bench only"
        )
    if args.tol is not None and args.command not in ("solve", "bench"):
        raise ValueError("--tol applies to solve and bench only")
    args.seed = 0 if args.seed is None else args.seed
    args.tol_given = args.tol is not None
    args.tol = 1e-9 if args.tol is None else args.tol
    if not 0.0 < args.tol < math.inf:  # NaN too
        raise ValueError(f"--tol must be a positive finite number, got {args.tol}")


def _cmd_gen(args):
    if args.family == "random":
        for flag, value in (("--a-mode", args.a_mode), ("--a", args.a)):
            if value is not None:
                raise ValueError(f"{flag} applies to --family gn only")
        game = random_game(args.n, args.gamma, args.seed)
    else:
        if args.a is not None and args.a_mode != "custom":
            raise ValueError("--a needs --a-mode custom")
        spec = HardInstanceSpec(
            n=args.n, gamma=args.gamma, a_mode=args.a_mode or "kappa", a=args.a
        )
        game, _ = build_hard_instance(spec)
    _write_or_print(game_json(game), args.output)
    return EXIT_OK


def _load_partition_or_default(game, path):
    if path is None:
        return default_partition(game)
    return load_partition(path)


def _cmd_solve(args):
    game = load_game(args.game)
    floor = TOL_FLOOR_ULPS * UNIT_ROUNDOFF * float(abs(game.costs).max()) / (1.0 - game.gamma)
    if args.tol_given and args.tol < floor:  # a game the default misses fails in its solver
        raise ValueError(
            f"--tol {args.tol:.3g} is below what float64 can certify for this game: "
            f"{floor:.3g} = {TOL_FLOOR_ULPS} u max|cost| / (1 - gamma), u = 2^-53"
        )
    if args.method in ("vi", "si", "brute"):
        if args.partition is not None:
            raise ValueError("--partition applies to --method ipm and pivot only")
        if args.method == "vi":
            result = value_iteration(game, eps=args.tol)
        elif args.method == "si":
            result = strategy_iteration(game, tol=args.tol)
        else:
            result = brute_force_solve(game, tol=args.tol)
    else:
        partition = _load_partition_or_default(game, args.partition)
        lcp = to_lcp(game, partition)
        if args.method == "ipm":
            w, z, trace = solve_potential_reduction(lcp, IpmOptions(epsilon=args.tol))
            iterations = len(trace)
        else:
            w, z, iterations = solve_pivoting(lcp)
        # recover's checks are no tighter than the tolerance the IPM stopped at
        result = recover(lcp, w, z, tol=max(args.tol, 1e-6))
        result.iterations = iterations
    result.method = args.method

    ok, violations = is_optimal(
        game, result.profile, tol=max(args.tol, 1e-9), values=result.values
    )
    lines = [
        f"method={result.method} iterations={result.iterations} optimal={ok}"
    ]
    for i, (slot, val) in enumerate(zip(result.profile, result.values, strict=True)):
        lines.append(f"state {i}: action {int(slot)}  value {float(val)!r}")
    payload = {
        "method": result.method,
        "iterations": int(result.iterations),
        "optimal": bool(ok),
        "values": [float(v) for v in result.values],
        "profile": [int(s) for s in result.profile],
    }
    if args.output is None:
        _write_or_print("\n".join(lines), None)
    else:
        _write_or_print(json.dumps(payload, indent=2), args.output)
        sys.stdout.write(lines[0] + "\n")
    if not ok:
        sys.stderr.write(f"optimality check failed on actions {violations}\n")
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_reduce(args):
    game = load_game(args.game)
    lcp = to_lcp(game, _load_partition_or_default(game, args.partition))
    _write_or_print(lcp_json(lcp), args.output)
    return EXIT_OK


def _cmd_certify(args):
    game = load_game(args.game)
    partition = _load_partition_or_default(game, args.partition)
    lcp = to_lcp(game, partition)
    report = certify(lcp, CertifyOptions(seed=args.seed, samples=args.samples))
    _write_or_print(report_json(report), args.output)
    if args.output is not None:
        sys.stdout.write(
            f"n={report.n} gamma={report.gamma} kappa_est={report.kappa_est:.6g} "
            f"delta={report.delta:.6g} theta_est={report.theta_est:.6g} "
            f"pmatrix={report.pmatrix}\n"
        )
    if args.csv is not None:
        write_report_csv(report, args.csv)
    if report.pmatrix != "structural":
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_bench(args):
    try:
        ns = [int(tok) for tok in args.ns.split(",") if tok]
        gammas = [float(tok) for tok in args.gammas.split(",") if tok]
    except ValueError as exc:
        raise ValueError(f"bad sweep list: {exc}") from exc
    if not ns or not gammas:
        raise ValueError("bench needs at least one n and one gamma")
    out_path = args.output if args.output is not None else "bench.csv"

    rows = []

    def flush(row):
        rows.append(row)
        write_bench_csv(rows, out_path)
        sys.stdout.write(
            f"n={row.n} gamma={row.gamma} kappa_est={row.kappa_est:.6g} "
            f"delta={row.delta:.6g} theta_est={row.theta_est:.6g} "
            f"iters={row.solver_iters:.0f}\n"
        )

    run_bench(
        ns,
        gammas,
        a_mode=args.a_mode,
        seed=args.seed,
        samples=args.samples,
        ipm_epsilon=args.tol,
        on_row=flush,
    )
    return EXIT_OK


_QUANTITIES = {
    "kappa_est": lambda r: r.kappa_est,
    "neg_delta": lambda r: -r.delta,
    "inv_theta": lambda r: 1.0 / r.theta_est,
    "cond": lambda r: r.cond,
    "solver_iters": lambda r: r.solver_iters,
    "wall_ms": lambda r: r.wall_ms,
}


def _render_rows(rows, quantity):
    getter = _QUANTITIES[quantity]
    gammas = sorted({row.gamma for row in rows})
    series = []
    for gamma in gammas:
        cells = sorted((r.n, getter(r)) for r in rows if r.gamma == gamma)
        series.append(
            (f"gamma={gamma:g}", [c[0] for c in cells], [c[1] for c in cells])
        )
    return render_loglog_svg(
        series, title=f"{quantity} vs n (log-log)", xlabel="n", ylabel=quantity
    )


def _cmd_plot(args):
    rows = read_bench_csv(args.input)
    svg = _render_rows(rows, args.quantity)
    out = args.output
    if out is None:
        stem = args.input[:-4] if args.input.endswith(".csv") else args.input
        out = f"{stem}.{args.quantity}.svg"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    sys.stdout.write(f"wrote {out}\n")
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_global_flags(args)
        return args.func(args)
    except (SolverFailure, RecoveryError, ArithmeticError) as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return EXIT_SOLVER
    except (OSError, json.JSONDecodeError, GameValidationError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
