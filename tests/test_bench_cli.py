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
from conftest import hard_instance
from gamelcp.bench import (
    BENCH_COLUMNS,
    fit_loglog_slope,
    random_game,
    read_bench_csv,
    render_loglog_svg,
    run_bench,
    write_bench_csv,
)
from gamelcp.cli import main
from gamelcp.conditioning import CSV_COLUMNS
from gamelcp.game import load_game, save_game, validate_game
from gamelcp.lcp import read_lcp, load_partition, to_lcp

WALL = BENCH_COLUMNS.index("wall_ms")


# -- random game generator -----------------------------------------------------


def test_random_game_is_valid_and_seeded():
    game = random_game(9, 0.8, seed=42)
    validate_game(game)
    assert game.n_states == 9
    assert all(len(st.actions) == 2 for st in game.states)
    for st in game.states:
        for act in st.actions:
            assert abs(sum(p for _, p in act.dist) - 1.0) <= 1e-12
    again = random_game(9, 0.8, seed=42)
    assert again == game
    assert random_game(9, 0.8, seed=43) != game


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
    game, _ = hard_instance(3, 0.5, a=1.0)
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
    assert game.n_states == 6 and game.gamma == 0.5
    sidecar = tmp_path / "g6.json.partition.json"
    partition = load_partition(sidecar)
    assert np.array_equal(partition.sigma, np.zeros(6))
    assert np.array_equal(partition.tau, np.ones(6))


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


def test_cli_solve_missing_file(tmp_path):
    assert main(["solve", "--game", str(tmp_path / "absent.json")]) == 2


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
    payload = json.loads(capsys.readouterr().out)
    game, partition = hard_instance(3, 0.5, a=1.0)
    lcp = to_lcp(game, partition)
    assert np.array_equal(np.array(payload["M"]), lcp.m)
    assert np.array_equal(np.array(payload["q"]), lcp.q)

    out = tmp_path / "g3.lcp.json"
    side = tmp_path / "g3.partition.json"
    rc = main(
        [
            "--output",
            str(out),
            "reduce",
            "--game",
            str(path),
            "--emit-partition",
            str(side),
        ]
    )
    assert rc == 0
    back = read_lcp(out)
    assert np.array_equal(back.m, lcp.m) and np.array_equal(back.q, lcp.q)
    assert np.array_equal(load_partition(side).tau, np.ones(3))


def test_cli_certify_hard_instance(tmp_path, capsys):
    game_path = tmp_path / "g10.json"
    game, _ = hard_instance(10, 0.5, a_mode="kappa")
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
            "--plot",
            str(svg_path),
            "--plot-quantity",
            "inv_theta",
        ]
    )
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    rows = read_bench_csv(csv_path)
    assert [r.n for r in rows] == [4, 6]
    assert svg_path.read_text().startswith("<svg ")

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
