"""Command line front end.

Subcommands: gen, solve, reduce, certify, bench, plot.  gen --family gn
takes its tail cost as --a-mode (a named cost, default kappa) or as --a,
not both.  Global flags (--seed, --tol, --output) come before the
subcommand.  --seed applies to gen --family random, certify and bench
(default 0, and it must be nonnegative), --tol to solve and bench
(default 1e-9, and it must be positive and finite; solve also refuses a
--tol below the reduced costs' rounding at the values' bound); given to
any other command, either is a usage error.  gen, reduce and certify
write their one artifact to --output, or to stdout without it.  solve
prints a "method=... iterations=... optimal=True" line; without --output
one "state i: action a  value v" line per state follows it, and with
--output the result goes to the file as one JSON line.  optimal=True
states the method's own check: each passes its profile through
is_optimal at --tol (vi at --tol * (1 - gamma)) before it returns it.
solve --method ipm|pivot, reduce and certify go through the LCP, whose
sigma is each state's first action and tau its second: to swap the two
for a state, reorder its actions in the game file.

Exit codes: 0 on success, 1 when a solve certifies no profile
(SolverFailure, or an ArithmeticError: a near-singular system or
non-finite values) or certify cannot decide that M is a P-matrix, 2 on
usage or I/O errors.
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
from .conditioning import certify, report_json, write_report_csv
from .game import GameValidationError, game_json, load_game, reduced_cost_rounding
from .hard_instances import A_MODES, build_hard_instance, hard_cost
from .lcp import lcp_json, recover, to_lcp
from .lcp_solvers import solve_pivoting, solve_potential_reduction
from .solvers import (
    SolverFailure,
    brute_force_solve,
    strategy_iteration,
    value_iteration,
)

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_USAGE = 2


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
    cost = p_gen.add_mutually_exclusive_group()  # gn's tail cost, named or given
    cost.add_argument("--a-mode", choices=A_MODES, help="a named cost (default kappa)")
    cost.add_argument("--a", type=float, help="the cost itself")
    p_gen.set_defaults(func=_cmd_gen)

    p_solve = sub.add_parser("solve", help="solve a game and print the equilibrium")
    p_solve.add_argument("--game", required=True)
    p_solve.add_argument(
        "--method", choices=("vi", "si", "brute", "ipm", "pivot"), default="ipm"
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_reduce = sub.add_parser("reduce", help="write the game's LCP (M, q) as JSON")
    p_reduce.add_argument("--game", required=True)
    p_reduce.set_defaults(func=_cmd_reduce)

    p_cert = sub.add_parser("certify", help="estimate kappa/delta/theta with bounds")
    p_cert.add_argument("--game", required=True)
    p_cert.add_argument(
        "--samples",
        type=int,
        default=10_000,
        help="gaussian directions to sample (default 10000); streamed in chunks, "
        "so memory does not grow with it",
    )
    p_cert.add_argument("--csv", default=None, help="also write a one-row CSV")
    p_cert.set_defaults(func=_cmd_certify)

    p_bench = sub.add_parser("bench", help="sweep the hard family and write CSV")
    p_bench.add_argument("--ns", required=True, help="comma list, e.g. 8,16,32")
    p_bench.add_argument("--gammas", required=True, help="comma list, e.g. 0.5,0.9")
    p_bench.add_argument("--a-mode", choices=A_MODES, default="kappa")
    p_bench.add_argument(
        "--samples",
        type=int,
        default=2000,
        help="gaussian directions per cell's certify (default 2000); streamed in "
        "chunks, so memory does not grow with it",
    )
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
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
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
        a_mode = args.a_mode or "kappa"
        a = args.a if args.a is not None else hard_cost(args.n, args.gamma, a_mode)
        game = build_hard_instance(args.n, args.gamma, a)
    _write_or_print(game_json(game), args.output)
    return EXIT_OK


def _cmd_solve(args):
    game = load_game(args.game)
    # the reduced costs' rounding at the values' bound: is_optimal floors no
    # --tol at or above it (the default is left to the solvers)
    floor = reduced_cost_rounding(game, float(abs(game.costs).max()) / (1.0 - game.gamma))
    if args.tol_given and args.tol < floor:
        raise ValueError(
            f"--tol {args.tol:.3g} is below what float64 can certify for this game: "
            f"{floor:.3g}, the reduced costs' rounding at values of max|cost| / (1 - gamma)"
        )
    if args.method == "vi":
        result = value_iteration(game, eps=args.tol)
    elif args.method == "si":
        result = strategy_iteration(game, tol=args.tol)
    elif args.method == "brute":
        result = brute_force_solve(game, tol=args.tol)
    else:
        lcp = to_lcp(game)
        if args.method == "ipm":
            w, z, trace = solve_potential_reduction(lcp, epsilon=args.tol)
            steps = len(trace)
        else:
            w, z, steps = solve_pivoting(lcp)
        result = recover(lcp, w, z, steps, tol=args.tol)
    # every method returns only a profile that passed is_optimal at --tol
    # (vi at --tol * (1 - gamma)) and raises SolverFailure otherwise
    summary = f"method={args.method} iterations={result.iterations} optimal=True"
    if args.output is None:
        lines = [summary] + [
            f"state {i}: action {int(slot)}  value {float(val)!r}"
            for i, (slot, val) in enumerate(zip(result.profile, result.values, strict=True))
        ]
        _write_or_print("\n".join(lines), None)
    else:
        payload = {
            "method": args.method,
            "iterations": int(result.iterations),
            "optimal": True,
            "values": [float(v) for v in result.values],
            "profile": [int(s) for s in result.profile],
        }
        _write_or_print(json.dumps(payload), args.output)
        sys.stdout.write(summary + "\n")
    return EXIT_OK


def _cmd_reduce(args):
    game = load_game(args.game)
    lcp = to_lcp(game)
    _write_or_print(lcp_json(lcp), args.output)
    return EXIT_OK


def _cmd_certify(args):
    game = load_game(args.game)
    lcp = to_lcp(game)
    report = certify(lcp, args.seed, samples=args.samples)
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
    except (SolverFailure, ArithmeticError) as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return EXIT_SOLVER
    except (OSError, json.JSONDecodeError, GameValidationError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
