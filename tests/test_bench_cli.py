"""Benchmark sweeps, CSV/SVG output, and the command line front end."""

import json
import math
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import gamelcp
from conftest import hard_instance, swap_actions
from gamelcp.bench import (
    BENCH_COLUMNS,
    fit_loglog_slope,
    random_game,
    read_bench_csv,
    render_loglog_svg,
    run_bench,
    write_bench_csv,
)
from gamelcp import cli
from gamelcp.cli import main
from gamelcp.conditioning import CSV_COLUMNS
from gamelcp.game import (
    build_game,
    game_json,
    game_to_dict,
    is_optimal,
    load_game,
    reduced_cost_rounding,
    save_game,
    validate_game,
    value_vector,
)
from gamelcp.lcp import lcp_json, to_lcp
from gamelcp.solvers import strategy_iteration

WALL = BENCH_COLUMNS.index("wall_ms")


# -- random game generator -----------------------------------------------------


def test_random_game_is_valid_and_seeded():
    game = random_game(9, 0.8, seed=42)
    validate_game(game_to_dict(game))
    assert game.n == 9
    assert np.array_equal(game.offsets, np.arange(0, 20, 2))
    assert np.abs(game.p.sum(axis=1) - 1.0).max() <= 1e-12
    again = random_game(9, 0.8, seed=42)
    assert np.array_equal(again.p, game.p) and np.array_equal(again.costs, game.costs)
    assert not np.array_equal(random_game(9, 0.8, seed=43).p, game.p)


def test_random_game_rejects_empty():
    with pytest.raises(ValueError, match="n must be at least 1"):
        random_game(0, 0.5, seed=0)


# -- sweep rows -----------------------------------------------------------------


def test_bench_rows_kappa_mode():
    rows = run_bench([6, 10], [0.5], a_mode="kappa", seed=7, samples=500)
    assert [r.n for r in rows] == [6, 10]
    assert [r.seed for r in rows] == [7, 8]
    for row in rows:
        predicted = (row.n - 2) / 8.0 - 0.25
        assert row.kappa_lb_pred == predicted
        assert row.kappa_est == pytest.approx(predicted, abs=1e-6)
        assert row.kappa_est <= row.kappa_ub + 1e-6
        assert row.theta_lb - 1e-9 <= row.theta_est
        assert row.delta >= row.delta_lb - 1e-6
        assert row.cond == -row.delta / row.theta_est
        assert row.solver_iters >= 1.0
        assert math.isfinite(row.wall_ms) and row.wall_ms >= 0.0


def test_bench_rows_eigenvalue_mode():
    rows = run_bench([8], [0.5, 0.9], a_mode="eigenvalue", seed=0, samples=500)
    assert [r.gamma for r in rows] == [0.5, 0.9]
    for row in rows:
        assert row.delta <= row.delta_ub_pred + 1e-6
        assert row.delta >= row.delta_lb - 1e-6


def test_bench_rows_theta_mode():
    rows = run_bench([10], [0.5], a_mode="theta", seed=0, samples=500)
    (row,) = rows
    assert row.theta_ub_pred == 1.0 / 32.0
    assert row.theta_lb - 1e-9 <= row.theta_est <= row.theta_ub_pred + 1e-12


# -- CSV persistence -------------------------------------------------------------


def test_bench_csv_round_trip(tmp_path):
    rows = run_bench([4, 6], [0.5], a_mode="kappa", seed=3, samples=200)
    path = tmp_path / "sweep.csv"
    write_bench_csv(rows, path)
    back = read_bench_csv(path)
    assert len(back) == len(rows)
    for a, b in zip(rows, back, strict=True):
        for name in BENCH_COLUMNS:
            va, vb = getattr(a, name), getattr(b, name)
            if isinstance(va, float) and math.isnan(va):
                assert math.isnan(vb)
            else:
                assert va == vb


def test_bench_csv_deterministic_modulo_wall(tmp_path):
    first = run_bench([4, 6], [0.5, 0.9], a_mode="kappa", seed=11, samples=300)
    second = run_bench([4, 6], [0.5, 0.9], a_mode="kappa", seed=11, samples=300)

    def masked(rows):
        out = []
        for row in rows:
            parts = row.csv_row().split(",")
            parts[WALL] = "-"
            out.append(",".join(parts))
        return out

    assert masked(first) == masked(second)


def test_bench_csv_rejects_garbage(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("nope,nope\n1,2\n")
    with pytest.raises(ValueError, match="unrecognized benchmark CSV header"):
        read_bench_csv(bad_header)

    bad_row = tmp_path / "b.csv"
    bad_row.write_text(",".join(BENCH_COLUMNS) + "\n1,2,3\n")
    with pytest.raises(ValueError, match="malformed benchmark CSV row"):
        read_bench_csv(bad_row)


# -- slope fits -------------------------------------------------------------------


def test_fit_loglog_slope_exact():
    xs = [1.0, 2.0, 4.0, 8.0]
    assert fit_loglog_slope(xs, [x**2 for x in xs]) == pytest.approx(2.0, abs=1e-12)
    assert fit_loglog_slope(xs, [5.0] * 4) == pytest.approx(0.0, abs=1e-12)
    # nonpositive and nan points are dropped before fitting
    assert fit_loglog_slope([1.0, 2.0, -3.0], [1.0, 4.0, 9.0]) == pytest.approx(
        2.0, abs=1e-12
    )
    with pytest.raises(ValueError, match="at least two positive finite points"):
        fit_loglog_slope([1.0], [1.0])
    with pytest.raises(ValueError, match="at least two positive finite points"):
        fit_loglog_slope([1.0, -2.0], [1.0, 4.0])


def test_fit_loglog_slope_refuses_points_with_one_x():
    # `gamelcp bench --ns 8,8` gives such a series; the fit was 0 / 0, a nan
    # slope printed in the plot's legend
    with pytest.raises(ValueError, match="two distinct x values"):
        fit_loglog_slope([8.0, 8.0], [3.0, 5.0])
    with pytest.raises(ValueError, match="two distinct x values"):
        fit_loglog_slope([8.0, 8.0, 8.0, -1.0], [3.0, 5.0, 7.0, 9.0])
    svg = render_loglog_svg([("gamma=0.5", [8.0, 8.0], [3.0, 5.0])], "t", "n", "y")
    assert "gamma=0.5</text>" in svg and "slope" not in svg


def test_kappa_grows_linearly_in_size():
    rows = run_bench([8, 16, 32, 64], [0.9], a_mode="kappa", seed=0, samples=500)
    slope = fit_loglog_slope([r.n for r in rows], [r.kappa_est for r in rows])
    assert 0.85 <= slope <= 1.15


def test_kappa_grows_quadratically_in_horizon():
    gammas = [0.9, 0.95, 0.98]
    rows = run_bench([64], gammas, a_mode="kappa", seed=0, samples=500)
    horizons = [1.0 / (1.0 - g) for g in gammas]
    slope = fit_loglog_slope(horizons, [r.kappa_est for r in rows])
    assert 1.85 <= slope <= 2.15


# -- SVG rendering ------------------------------------------------------------------


def test_render_svg_structure():
    xs = [8.0, 16.0, 32.0]
    series = [
        ("gamma=0.5", xs, [x**1.5 for x in xs]),
        ("gamma=0.9", xs, [3.0 * x for x in xs]),
    ]
    svg = render_loglog_svg(series, title="t", xlabel="n", ylabel="y")
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2
    assert "slope 1.50" in svg and "slope 1.00" in svg
    assert "gamma=0.5" in svg and "gamma=0.9" in svg


def test_render_svg_rejects_empty():
    with pytest.raises(ValueError, match="no positive finite points"):
        render_loglog_svg([("x", [0.0, -1.0], [1.0, 2.0])], "t", "x", "y")


# -- command line -------------------------------------------------------------------


def write_g3(tmp_path):
    game = hard_instance(3, 0.5, a=1.0)
    path = tmp_path / "g3.json"
    save_game(game, path)
    return path


def test_cli_gen_hard_family(tmp_path):
    out = tmp_path / "g6.json"
    rc = main(
        ["--output", str(out), "gen", "--family", "gn", "--n", "6", "--gamma", "0.5"]
    )
    assert rc == 0
    game = load_game(out)
    assert game.n == 6 and game.gamma == 0.5
    built = hard_instance(6, 0.5, a_mode="kappa")
    assert out.read_text() == game_json(built)
    # the family's partition is its action order, so gen writes one file
    # and reduce, solve and certify read no other
    assert list(tmp_path.iterdir()) == [out]


def test_cli_gen_stdout(capsys):
    rc = main(["gen", "--family", "gn", "--n", "4", "--gamma", "0.75"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gamma"] == 0.75
    assert len(payload["states"]) == 4


def test_cli_gen_random_is_seeded(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    base = ["gen", "--family", "random", "--n", "5", "--gamma", "0.7"]
    assert main(["--seed", "9", "--output", str(a)] + base) == 0
    assert main(["--seed", "9", "--output", str(b)] + base) == 0
    assert main(["--seed", "10", "--output", str(c)] + base) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    want = random_game(5, 0.7, 9)
    got = load_game(a)
    for name in ("p", "costs", "owners", "offsets"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_cli_gen_rejects_tiny_hard_instance(tmp_path):
    rc = main(
        [
            "--output",
            str(tmp_path / "bad.json"),
            "gen",
            "--family",
            "gn",
            "--n",
            "2",
            "--gamma",
            "0.5",
        ]
    )
    assert rc == 2


GEN = ["gen", "--n", "4", "--gamma", "0.5"]
SOLVE_METHODS = ("vi", "si", "brute", "ipm", "pivot")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (GEN + ["--family", "gn", "--a", "2"], "--a"),
        (GEN + ["--family", "gn", "--a-mode", "theta", "--a", "2"], "--a"),
        (GEN + ["--family", "random", "--a", "2"], "--a"),
        (GEN + ["--family", "random", "--a-mode", "custom", "--a", "2"], "--a"),
        (GEN + ["--family", "random", "--partition", "{tmp}/p.json"], "--partition"),
        *(
            (["solve", "--game", "{tmp}/g3.json", "--method", method,
              "--partition", "{tmp}/absent.json"], "--partition")
            for method in ("vi", "si", "brute")
        ),
        (GEN + ["--family", "random", "--a-mode", "theta"], "--a-mode"),
        (GEN + ["--family", "random", "--a-mode", "kappa"], "--a-mode"),
        # global flags of commands that ignore them
        (["--seed", "3"] + GEN + ["--family", "gn"], "--seed"),
        (["--seed", "3", "solve", "--game", "{tmp}/g3.json"], "--seed"),
        (["--seed", "3", "reduce", "--game", "{tmp}/g3.json"], "--seed"),
        (["--seed", "3", "plot", "--input", "{tmp}/absent.csv"], "--seed"),
        (["--tol", "1e-6"] + GEN + ["--family", "random"], "--tol"),
        (["--tol", "5", "reduce", "--game", "{tmp}/g3.json"], "--tol"),
        (["--tol", "1e-6", "certify", "--game", "{tmp}/g3.json"], "--tol"),
        (["--tol", "1e-6", "plot", "--input", "{tmp}/absent.csv"], "--tol"),
        # flags that only wrote what the program already had
        (GEN + ["--family", "gn", "--partition", "{tmp}/p.json"], "--partition"),
        (["reduce", "--game", "{tmp}/g3.json", "--emit-partition", "{tmp}/p.json"],
         "--emit-partition"),
        (["bench", "--ns", "4", "--gammas", "0.5", "--plot", "{tmp}/s.svg"], "--plot"),
        (["bench", "--ns", "4", "--gammas", "0.5", "--plot-quantity", "cond"],
         "--plot-quantity"),
        # a partition file only restated the game's action order
        *(
            (["solve", "--game", "{tmp}/g3.json", "--method", method,
              "--partition", "{tmp}/p.json"], "--partition")
            for method in ("ipm", "pivot")
        ),
        (["reduce", "--game", "{tmp}/g3.json", "--partition", "{tmp}/p.json"],
         "--partition"),
        (["certify", "--game", "{tmp}/g3.json", "--partition", "{tmp}/p.json"],
         "--partition"),
    ],
)
def test_cli_rejects_flags_it_would_ignore(tmp_path, capsys, argv, flag):
    write_g3(tmp_path)
    out = tmp_path / "out.json"
    argv = ["--output", str(out)] + [a.format(tmp=tmp_path) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses a flag the command lacks
        code = exc.code
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
@pytest.mark.parametrize(
    "command",
    [["solve", "--game", "{g3}", "--method", m] for m in SOLVE_METHODS]
    + [["bench", "--ns", "4", "--gammas", "0.5"]],
    ids=[*SOLVE_METHODS, "bench"],
)
def test_cli_refuses_a_tol_that_is_not_positive(
    tmp_path, capsys, builds, command, tol
):
    # at NaN every comparison is false: si and brute certified any profile
    game_path = write_g3(tmp_path)
    builds.update(build_game=0)
    out = tmp_path / "out"
    argv = ["--tol", tol, "--output", str(out)]
    assert main(argv + [a.format(g3=game_path) for a in command]) == 2
    assert "--tol must be a positive finite number" in capsys.readouterr().err
    assert not out.exists()
    assert builds["build_game"] == 0  # refused before any game is built


@pytest.mark.parametrize("method", SOLVE_METHODS)
def test_cli_solve_refuses_a_tol_below_the_rounding_of_the_values(
    tmp_path, capsys, method
):
    # here 1e-16 once made si, brute and ipm fail (exit 1) while vi and pivot
    # passed; the floor is reduced_cost_rounding at values of max|cost| /
    # (1 - gamma) = 4.19e-14, so 1e-14, once taken but checked at SI's
    # level 2.82e-14, is refused too
    path = tmp_path / "g.json"
    gen = ["gen", "--family", "random", "--n", "4", "--gamma", "0.5"]
    assert main(["--output", str(path)] + gen) == 0
    solve = ["solve", "--game", str(path), "--method", method]
    for tol in ("1e-16", "1e-300", "1e-14"):
        assert main(["--tol", tol] + solve) == 2
        err = capsys.readouterr().err
        assert "below what float64 can certify" in err and "4.19e-14" in err
    assert main(["--tol", "1e-13"] + solve) == 0
    assert "optimal=True" in capsys.readouterr().out.splitlines()[0]


def test_cli_gen_custom_cost(tmp_path):
    out = tmp_path / "g.json"
    argv = ["--output", str(out)] + GEN + ["--family", "gn", "--a-mode", "custom"]
    assert main(argv + ["--a", "2.5"]) == 0
    assert load_game(out).costs[4] == 2.5  # state 2's slot 0
    out.unlink()
    for bad in ("nan", "inf"):  # solve would refuse the written game
        assert main(argv + ["--a", bad]) == 2
        assert not out.exists()


@pytest.mark.parametrize("method", ["vi", "si", "brute", "ipm", "pivot"])
def test_cli_solve_methods_agree(tmp_path, capsys, method):
    path = write_g3(tmp_path)
    out = tmp_path / f"{method}.json"
    rc = main(
        ["--output", str(out), "solve", "--game", str(path), "--method", method]
    )
    assert rc == 0
    head = capsys.readouterr().out.splitlines()[0]
    assert f"method={method}" in head and "optimal=True" in head
    payload = json.loads(out.read_text())
    assert payload["values"] == pytest.approx([2.0, -2.0, 2.0], abs=1e-6)
    assert payload["profile"][2] == 0


@pytest.mark.parametrize("tol", ["1e-3", "1e-5"])
def test_cli_solve_ipm_at_a_loose_tol(tmp_path, capsys, tol):
    # recover checks the IPM's pair at the tolerance it stopped at, not
    # tighter: at 1e-6 these games fail with "LCP residuals too large"
    for n, gamma, seed in ((16, 0.9, 1), (16, 0.99, 2), (32, 0.9, 3), (32, 0.99, 4)):
        path = tmp_path / f"g{n}_{seed}.json"
        save_game(random_game(n, gamma, seed), path)
        argv = ["--tol", tol, "solve", "--game", str(path), "--method", "ipm"]
        assert main(argv) == 0, capsys.readouterr().err
        assert "optimal=True" in capsys.readouterr().out.splitlines()[0]


def test_cli_solve_checks_at_the_reduced_cost_rounding_near_gamma_one(tmp_path, capsys):
    # the reduced costs here round at 1.48e-8, above the default tol 1e-9:
    # checked at 1e-9, si cycled and vi, ipm and pivot failed on three actions
    game = random_game(64, 0.999999, 1)
    path = tmp_path / "g.json"
    save_game(game, path)
    states = {}
    for method in ("si", "vi", "ipm", "pivot"):
        assert main(["solve", "--game", str(path), "--method", method]) == 0, (
            capsys.readouterr().err
        )
        head, *states[method] = capsys.readouterr().out.splitlines()
        assert f"method={method}" in head and "optimal=True" in head
    assert states["si"] == states["vi"] == states["ipm"] == states["pivot"]
    values = np.array([float(line.split()[-1]) for line in states["si"]])
    assert reduced_cost_rounding(game, values) == pytest.approx(1.48e-8, rel=0.01)


def test_is_optimal_floors_its_tol_at_the_reduced_cost_rounding():
    # the game above: strategy iteration's profile passes at the rounding
    # level 1.48e-8, and a check at 1e-9, or at 0, is no tighter than that
    game = random_game(64, 0.999999, 1)
    res = strategy_iteration(game)
    assert reduced_cost_rounding(game, res.values) == pytest.approx(1.48e-8, rel=0.01)
    assert is_optimal(game, res.profile, 1e-9, values=res.values)[0]
    assert is_optimal(game, res.profile, 0.0, values=res.values)[0]
    assert is_optimal(game, res.profile, 0.0)[0]


def test_cli_solve_hands_its_tol_to_recover_and_the_final_check(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.json"
    save_game(random_game(16, 0.9, 1), path)
    tols = {}

    def spy(fn):
        def recording(*args, tol, **kwargs):
            tols.setdefault(fn.__name__, []).append(tol)
            return fn(*args, tol=tol, **kwargs)

        return recording

    monkeypatch.setattr(cli, "recover", spy(cli.recover))
    monkeypatch.setattr(cli, "is_optimal", spy(cli.is_optimal))
    argv = ["--tol", "1e-12", "solve", "--game", str(path), "--method", "ipm"]
    assert main(argv) == 0, capsys.readouterr().err
    assert "optimal=True" in capsys.readouterr().out.splitlines()[0]
    assert tols == {"recover": [1e-12], "is_optimal": [1e-12]}


def test_cli_solve_vi_near_gamma_one_exits_1(tmp_path, capsys):
    # the first block end's value solve refuses the near-singular system
    path = tmp_path / "near_one.json"
    save_game(random_game(16, 1 - 1e-14, 1), path)
    assert main(["solve", "--game", str(path), "--method", "vi"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "solver failure: condition number bound 2.047e+14 exceeds 1e+13" in (
        captured.err
    )


@pytest.fixture
def builds(monkeypatch):
    """Calls of build_game, to_lcp, value_vector and the two dense solves,
    wherever gamelcp binds them."""
    counts = {
        "build_game": 0,
        "to_lcp": 0,
        "value_vector": 0,
        "solve_discounted": 0,
        "solve": 0,
    }
    for name in counts:
        real = getattr(gamelcp._kernels if "solve" in name else gamelcp, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "gamelcp" or mod_name.startswith("gamelcp."):
                for attr, val in list(vars(mod).items()):
                    if val is real:
                        monkeypatch.setattr(mod, attr, counting)
    return counts


# value_vector calls of one op: (fixed, per iteration).  SI solves once per
# round and once at the optimum, brute force once per profile examined.
VALUE_SOLVES = {
    "certify": (0, 0),
    "ipm": (1, 0),
    "pivot": (1, 0),
    "vi": (1, 0),
    "si": (1, 1),
    "brute": (0, 1),
}


@pytest.mark.parametrize(
    "command, matrix_builds",
    [
        (["certify", "--samples", "200"], 1),
        (["solve", "--method", "ipm"], 1),
        (["solve", "--method", "pivot"], 1),
        (["solve", "--method", "vi"], 1),
        (["solve", "--method", "si"], 1),
        (["solve", "--method", "brute"], 1),
    ],
)
def test_cli_builds_the_game_matrices_once_per_op(
    tmp_path, builds, command, matrix_builds
):
    # load_game builds the one game the solver and the CLI's own
    # optimality check of its profile share, with the result's value solve
    path = tmp_path / "game.json"
    save_game(random_game(12, 0.9, 5), path)
    builds.update(build_game=0)  # random_game's build is not the op's
    out = tmp_path / "out.json"
    argv = ["--output", str(out), command[0], "--game", str(path), *command[1:]]
    assert main(argv) == 0
    method = command[-1] if command[0] == "solve" else "certify"
    fixed, per_iteration = VALUE_SOLVES[method]
    iterations = json.loads(out.read_text()).get("iterations", 0)
    lcps = 0 if method in ("vi", "si", "brute") else 1
    value_solves = fixed + per_iteration * iterations
    # one game-system solve per to_lcp, one for recover's value formula and
    # one per value vector; the gated general solve only for Lemke's
    # terminal basis, which holds 6 of this game's z's
    assert builds == {
        "build_game": matrix_builds,
        "to_lcp": lcps,
        "value_vector": value_solves,
        "solve_discounted": lcps + (method in ("ipm", "pivot")) + value_solves,
        "solve": 1 if method == "pivot" else 0,
    }


def test_is_optimal_on_given_values_is_the_same_rule():
    # the CLI and recover hand is_optimal the values they hold; that must
    # give the verdict and violations of is_optimal's own solve
    tol = 1e-9
    rng = np.random.default_rng(12)
    cases = []
    for seed in range(20):
        game = random_game(int(rng.integers(1, 13)), float(rng.uniform(0.1, 0.99)), seed)
        cases += [(game, rng.integers(0, 2, size=game.n)) for _ in range(5)]
    # two self-looping states whose slot-0 values are exactly 0, so slot 1's
    # reduced cost is exactly its cost: player 1's at or below -tol, player
    # 2's at or above tol
    below, above = np.nextafter(-tol, -1.0), np.nextafter(tol, 1.0)
    for rc_min in (below, -tol, tol):
        for rc_max in (-tol, tol, above):
            game = build_game(
                0.9,
                [
                    (1, [(0.0, [(0, 1.0)]), (float(rc_min), [(0, 1.0)])]),
                    (2, [(0.0, [(1, 1.0)]), (float(rc_max), [(1, 1.0)])]),
                ],
            )
            ok, _ = is_optimal(game, [0, 0], tol)
            assert ok == (rc_min != below and rc_max != above)
            cases.append((game, [0, 0]))
    verdicts = set()
    for game, profile in cases:
        ok, violations = is_optimal(game, profile, tol)
        got_ok, got_violations = is_optimal(
            game, profile, tol, values=value_vector(game, profile)
        )
        assert got_ok == ok and np.array_equal(got_violations, violations)
        verdicts.add(ok)
    assert verdicts == {True, False}


def test_bench_builds_the_game_matrices_once_per_cell(builds):
    rows = run_bench([6, 10], [0.5, 0.9], samples=50)
    assert all(math.isfinite(r.solver_iters) for r in rows)
    assert builds == {
        "build_game": 4,
        "to_lcp": 4,
        "value_vector": 0,
        "solve_discounted": 4,
        "solve": 0,
    }


def test_cli_solve_missing_file(tmp_path):
    assert main(["solve", "--game", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize(
    "states, message",
    [
        # a TypeError once escaped as a traceback (exit 1)
        (5, "malformed game object"),
        (None, "malformed game object"),
        ([{"owner": 2, "actions": 5}], "state 0: malformed entry"),
        # int() once truncated these, and the wrong game solved with exit 0
        ([{"owner": 1.9, "actions": []}], "state 0: malformed entry: 1.9 is not an integer"),
        (
            [{"owner": 2, "actions": [{"cost": 1.0, "dist": [[1.99, 1.0]]}]}],
            "state 0 action 0: malformed entry: 1.99 is not an integer",
        ),
        ([], "game has no states"),
    ],
)
def test_cli_solve_refuses_a_malformed_game_file(tmp_path, capsys, states, message):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"gamma": 0.5, "states": states}))
    assert main(["solve", "--game", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_cli_solve_refuses_strings_and_booleans_for_numbers(tmp_path, capsys):
    # this file once solved as gamma 0.5, owner 1, cost 7 and P = [[1.0]]
    state = {"owner": True, "actions": [{"cost": "7", "dist": [[False, "1.0"]]}]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"gamma": "0.5", "states": [state]}))
    assert main(["solve", "--game", str(path)]) == 2
    assert "malformed game object: '0.5' is not a number" in capsys.readouterr().err


def test_cli_solve_refuses_a_cost_past_the_float_range(tmp_path, capsys):
    # the OverflowError of float() once exited 1, as a solver failure
    state = {"owner": 2, "actions": [{"cost": 10**400, "dist": [[0, 1.0]]}]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"gamma": 0.5, "states": [state]}))
    assert main(["solve", "--game", str(path)]) == 2
    assert "state 0 action 0: malformed entry: int too large" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("method", ["vi", "si", "brute", "ipm", "pivot"])
def test_cli_solve_fails_where_the_values_leave_the_float_range(tmp_path, capsys, method):
    # every cost is finite, so the file loads, but the values overflow: no
    # method may report optimal=True with a non-finite value (the IPM's
    # potential overflows, and its warning is not the point here)
    game = random_game(4, 0.99, 1)
    game.costs = game.costs * 1e306
    path = tmp_path / "huge.json"
    save_game(game, path)
    assert main(["solve", "--game", str(path), "--method", method]) == 1
    captured = capsys.readouterr()
    assert "optimal=" not in captured.out
    assert "solver failure: " in captured.err


def test_cli_solve_takes_integral_floats_as_indices(tmp_path, capsys):
    state = {"owner": 2.0, "actions": [{"cost": 1.0, "dist": [[0.0, 1.0]]}]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"gamma": 0.5, "states": [state]}))
    assert main(["solve", "--game", str(path), "--method", "vi"]) == 0
    assert "optimal=True" in capsys.readouterr().out


def test_cli_rejects_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--nope"])
    assert exc.value.code == 2


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_reduce_matches_library(tmp_path, capsys):
    path = write_g3(tmp_path)
    rc = main(["reduce", "--game", str(path)])
    assert rc == 0
    printed = capsys.readouterr().out
    payload = json.loads(printed)
    game = hard_instance(3, 0.5, a=1.0)
    lcp = to_lcp(game)
    assert np.array_equal(np.array(payload["M"]), lcp.m)
    assert np.array_equal(np.array(payload["q"]), lcp.q)

    out = tmp_path / "g3.lcp.json"
    rc = main(["--output", str(out), "reduce", "--game", str(path)])
    assert rc == 0
    # one serialization, to the file or to stdout
    assert out.read_text() == printed == lcp_json(lcp)


def test_cli_certify_hard_instance(tmp_path, capsys):
    game_path = tmp_path / "g10.json"
    game = hard_instance(10, 0.5, a_mode="kappa")
    save_game(game, game_path)
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    rc = main(
        [
            "--output",
            str(report_path),
            "certify",
            "--game",
            str(game_path),
            "--samples",
            "2000",
            "--csv",
            str(csv_path),
        ]
    )
    assert rc == 0
    assert "pmatrix=" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report["n"] == 10
    assert report["kappa_est"] >= 0.75 - 1e-9
    assert report["pmatrix"] == "structural"
    header, row = csv_path.read_text().splitlines()
    assert header == ",".join(CSV_COLUMNS)
    assert row.split(",")[0] == "10"


def test_cli_certify_single_state(tmp_path, capsys):
    game = validate_game(
        {
            "gamma": 0.5,
            "states": [
                {
                    "owner": 1,
                    "actions": [
                        {"cost": 1.0, "dist": [[0, 1.0]]},
                        {"cost": 1.0, "dist": [[0, 1.0]]},
                    ],
                }
            ],
        }
    )
    path = tmp_path / "one.json"
    save_game(game, path)
    rc = main(["certify", "--game", str(path), "--samples", "500"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kappa_est"] == 0.0
    assert report["pmatrix"] == "structural"


@pytest.mark.skipif(json.encoder.c_make_encoder is None, reason="no C JSON encoder")
def test_game_and_solve_writers_run_the_c_json_encoder(tmp_path, monkeypatch, capsys):
    # indent= sends json.dumps through the pure-Python encoder, several
    # times slower on a game file
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        json.dumps([1.5], indent=2)
    game = random_game(8, 0.9, 3)
    path, out = tmp_path / "g.json", tmp_path / "r.json"
    text = game_json(game)
    save_game(game, path)
    assert path.read_text() == text
    argv = ["--output", str(out), "solve", "--game", str(path), "--method", "si"]
    assert main(argv) == 0
    payload = json.loads(out.read_text())
    assert len(out.read_text().splitlines()) == 1
    assert payload["profile"] == strategy_iteration(game).profile.tolist()


def test_cli_bench_and_plot_round_trip(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    svg_path = tmp_path / "sweep.svg"
    rc = main(
        [
            "--output",
            str(csv_path),
            "bench",
            "--ns",
            "4,6",
            "--gammas",
            "0.5",
            "--samples",
            "200",
        ]
    )
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    rows = read_bench_csv(csv_path)
    assert [r.n for r in rows] == [4, 6]

    argv = ["--output", str(svg_path), "plot", "--input", str(csv_path)]
    assert main(argv + ["--quantity", "inv_theta"]) == 0
    series = [("gamma=0.5", [4, 6], [1.0 / r.theta_est for r in rows])]
    assert svg_path.read_text() == render_loglog_svg(
        series, title="inv_theta vs n (log-log)", xlabel="n", ylabel="inv_theta"
    )

    out_svg = tmp_path / "replot.svg"
    rc = main(
        [
            "--output",
            str(out_svg),
            "plot",
            "--input",
            str(csv_path),
            "--quantity",
            "kappa_est",
        ]
    )
    assert rc == 0
    assert "<svg " in out_svg.read_text()


def test_cli_bench_rejects_empty_sweep(tmp_path):
    rc = main(
        [
            "--output",
            str(tmp_path / "x.csv"),
            "bench",
            "--ns",
            "",
            "--gammas",
            "0.5",
        ]
    )
    assert rc == 2


@pytest.mark.parametrize("gamma", ["1.5", "-0.5", "1.0", "0.0"])
def test_cli_gen_random_refuses_discount_out_of_range(tmp_path, capsys, gamma):
    # the game would be written, and then refused by every command reading it
    out = tmp_path / "g.json"
    argv = ["--output", str(out), "gen", "--family", "random", "--n", "3", "--gamma", gamma]
    assert main(argv) == 2
    assert "discount out of range" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match="discount out of range"):
        random_game(3, float(gamma), 0)


def test_cli_refuses_negative_samples(tmp_path, capsys):
    game_path = write_g3(tmp_path)
    report = tmp_path / "report.json"
    certify_argv = ["--output", str(report), "certify", "--game", str(game_path)]
    assert main(certify_argv + ["--samples", "-3"]) == 2
    assert "samples must be nonnegative" in capsys.readouterr().err
    assert not report.exists()
    csv_path = tmp_path / "sweep.csv"
    bench_argv = ["--output", str(csv_path), "bench", "--ns", "4", "--gammas", "0.5"]
    assert main(bench_argv + ["--samples", "-3"]) == 2
    assert "samples must be nonnegative" in capsys.readouterr().err
    assert not csv_path.exists()  # refused before the first cell
    with pytest.raises(ValueError, match="samples"):
        run_bench([4], [0.5], samples=-1)
    # no sampled directions is still a valid request
    assert main(certify_argv + ["--samples", "0"]) == 0
    assert json.loads(report.read_text())["samples"] == 0
    assert main(bench_argv + ["--samples", "0"]) == 0
    assert read_bench_csv(csv_path)[0].kappa_est >= 0.0


def test_cli_bench_refuses_a_negative_seed(tmp_path, capsys):
    # default_rng(-1) raises ValueError inside certify, which a cell once
    # caught and wrote as a NaN row with exit 0
    csv_path = tmp_path / "b.csv"
    argv = ["--seed", "-1", "--output", str(csv_path), "bench", "--ns", "8", "--gammas", "0.5"]
    assert main(argv) == 2
    assert "seed must be nonnegative, got -1" in capsys.readouterr().err
    assert not csv_path.exists()  # refused before the first cell
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        run_bench([4], [0.5], seed=-1)


def test_cli_gen_and_certify_refuse_a_negative_seed(tmp_path, capsys):
    # numpy's own refusal, "expected non-negative integer", named neither
    # the flag nor the value
    game_path = write_g3(tmp_path)
    out = tmp_path / "out.json"
    for command in (
        ["gen", "--family", "random", "--n", "6", "--gamma", "0.9"],
        ["certify", "--game", str(game_path)],
    ):
        assert main(["--seed", "-1", "--output", str(out)] + command) == 2
        assert "error: --seed must be nonnegative, got -1" in capsys.readouterr().err
        assert not out.exists()


def test_cli_bench_keeps_a_refused_reduction_as_a_nan_row(tmp_path, capsys):
    # at n = 8 and gamma 1 - 1e-12, to_lcp refuses B_t (condition number
    # bound 6.4e13 > 1e13); the sweep once stopped there with exit 1
    csv_path = tmp_path / "fb.csv"
    argv = ["--output", str(csv_path), "bench", "--ns", "3,8"]
    assert main(argv + ["--gammas", "0.999999999999", "--samples", "50"]) == 0
    kept, refused = read_bench_csv(csv_path)
    assert math.isfinite(kept.kappa_est) and math.isfinite(kept.theta_est)
    assert refused.n == 8 and refused.seed == 1
    assert all(math.isfinite(v) for v in (refused.kappa_ub, refused.delta_lb, refused.theta_lb))
    measured = ("kappa_est", "delta", "theta_est", "cond", "solver_iters", "wall_ms")
    assert all(math.isnan(getattr(refused, c)) for c in measured)
    # a cell that cannot be built is still a usage error
    with pytest.raises(ValueError, match="n >= 3"):
        run_bench([2], [0.5], samples=0)


def test_cli_solve_swapped_game_mirrors_the_profile(tmp_path, capsys):
    # reordering a state's two actions in the game file is how sigma and tau
    # are swapped there: the LCP methods give the same values and a profile
    # mirrored on the swapped states
    game = random_game(8, 0.9, 5)
    flip = np.array([1, 0, 0, 1, 1, 0, 1, 0], dtype=bool)
    paths = tmp_path / "g.json", tmp_path / "swapped.json"
    save_game(game, paths[0])
    save_game(swap_actions(game, np.flatnonzero(flip)), paths[1])
    for method in ("ipm", "pivot"):
        base, out = (
            tmp_path / f"{method}.json", tmp_path / f"{method}.swapped.json"
        )
        for path, result in zip(paths, (base, out)):
            argv = ["--output", str(result), "solve", "--game", str(path), "--method", method]
            assert main(argv) == 0, capsys.readouterr().err
        base, out = json.loads(base.read_text()), json.loads(out.read_text())
        assert np.abs(np.subtract(out["values"], base["values"])).max() <= 1e-12
        assert (np.array(out["profile"]) ^ flip).tolist() == base["profile"]


def test_cli_bench_offers_no_custom_a_mode(tmp_path, capsys):
    # bench has no --a, and a_mode 'custom' needs one
    argv = ["--output", str(tmp_path / "x.csv"), "bench", "--ns", "4", "--gammas", "0.5"]
    with pytest.raises(SystemExit) as exc_info:
        main(argv + ["--a-mode", "custom"])
    assert exc_info.value.code == 2
    assert "invalid choice: 'custom'" in capsys.readouterr().err
    for mode in ("kappa", "eigenvalue", "theta"):
        assert main(argv + ["--a-mode", mode]) == 0


GEN_ARGV = ["gen", "--family", "gn", "--n", "4", "--gamma", "0.5"]


def _check_gen_output(proc):
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["gamma"] == 0.5


def test_console_script_entry_point(tmp_path):
    """The console script pyproject.toml declares starts from argv, exits 0
    and prints the game JSON.  It is run as the setuptools wrapper runs it,
    sys.exit(func()), in a fresh interpreter, so no install is needed."""
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["gamelcp"]
    entry = EntryPoint(name="gamelcp", value=target, group="console_scripts")
    assert callable(entry.load())
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"entry = EntryPoint(name='gamelcp', value={target!r},"
        " group='console_scripts')\n"
        "sys.argv[0] = 'gamelcp'\n"
        "sys.exit(entry.load()())\n"
    )
    package_root = str(Path(gamelcp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, *GEN_ARGV],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    _check_gen_output(proc)


@pytest.mark.skipif(
    shutil.which("gamelcp") is None, reason="gamelcp is not installed on PATH"
)
def test_installed_console_script(tmp_path):
    proc = subprocess.run(
        ["gamelcp", *GEN_ARGV], capture_output=True, text=True, cwd=tmp_path
    )
    _check_gen_output(proc)
