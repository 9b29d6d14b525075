"""Tests of the benchmark's own checks and of the tracer's counts.

    python3 -m pytest perfbench -q
"""

import dataclasses
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (pins the BLAS threads before numpy loads)
from tracer import Tracer, layer_metrics  # noqa: E402

gl = run.import_gamelcp()

REPORT = {
    "kappa_est": 0.5,
    "kappa_ub": 10.0,
    "delta": -0.1,
    "delta_lb": -5.0,
    "theta_est": 0.05,
    "theta_lb": 0.01,
}


def test_nonzero_exit_counts_as_failed():
    ok = {"optimal": True, "values": [1.0, -2.0]}
    results = [("g", 0, ok), ("g", 1, ok), ("g", "ValueError: boom", None), ("g", 0, ok)]
    assert run.solve_failures(results) == [None, "exit 1", "exit ValueError: boom", None]
    assert run.certify_failure(0, REPORT) is None
    assert run.certify_failure(1, REPORT) == "exit 1"


def test_solve_output_checks():
    ok = {"optimal": True, "values": [1.0, -2.0]}
    off = {"optimal": True, "values": [1.0, -2.0 + 1e-4]}
    not_opt = {"optimal": False, "values": [1.0, -2.0]}
    results = [("g", 0, ok), ("g", 0, ok), ("g", 0, off), ("g", 0, not_opt), ("h", 0, None)]
    assert run.solve_failures(results) == [
        None,
        None,
        "values disagree with the other methods",
        "optimal=false",
        "no output file",
    ]


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("kappa_est", 11.0, "kappa_est > kappa_ub"),
        ("delta", -5.5, "delta < delta_lb"),
        ("theta_est", 0.009, "theta_est < theta_lb"),
        ("kappa_est", math.nan, "kappa_est > kappa_ub"),
    ],
)
def test_certify_fence_breach_counts_as_failed(field, value, reason):
    assert run.certify_failure(0, {**REPORT, field: value}) == reason


@pytest.fixture(scope="module")
def rows():
    return {
        mode: gl.run_bench([8], [0.5], a_mode=mode, samples=50)[0]
        for mode in ("kappa", "eigenvalue", "theta")
    }


def test_nan_sweep_row_counts_as_failed(rows):
    for row in rows.values():
        assert run.sweep_failure(row) is None
    bad = dataclasses.replace(rows["kappa"], solver_iters=math.nan, wall_ms=math.nan)
    assert run.sweep_failure(bad) == "NaN in solver_iters,wall_ms"
    assert run.sweep_failure(None) == "cell not produced"


@pytest.mark.parametrize(
    "mode, field, make, reason",
    [
        ("eigenvalue", "kappa_est", lambda r: r.kappa_ub * 1.001, "kappa_est > kappa_ub"),
        ("eigenvalue", "delta", lambda r: r.delta_lb * 1.001, "delta < delta_lb"),
        ("eigenvalue", "theta_est", lambda r: r.theta_lb * 0.999, "theta_est < theta_lb"),
        ("eigenvalue", "delta", lambda r: r.delta_ub_pred + 1e-3, "delta > delta_ub_pred"),
        ("kappa", "kappa_est", lambda r: r.kappa_lb_pred - 1e-3, "kappa_est < kappa_lb_pred"),
        ("theta", "theta_est", lambda r: r.theta_ub_pred * 1.001, "theta_est > theta_ub_pred"),
    ],
)
def test_fence_breach_counts_as_failed(rows, mode, field, make, reason):
    row = rows[mode]
    assert run.sweep_failure(dataclasses.replace(row, **{field: make(row)})) == reason


def test_fence_allowance_is_relative(rows):
    row = rows["kappa"]
    inside = dataclasses.replace(row, kappa_est=row.kappa_ub * (1.0 + 1e-12))
    assert run.sweep_failure(inside) is None


def test_unreadable_game_fails_its_operations(tmp_path):
    workload = run.SolveRandom(gl, 0, tmp_path, games={5: 2}, gammas=(0.9,))
    broken = workload.ops[0][2][workload.ops[0][2].index("--game") + 1]
    Path(broken).write_text("{}", encoding="utf-8")
    result = workload.run_pass(Tracer())
    assert result.reasons == ["exit 2"] * 4 + [None] * 4


TINY = [
    (run.SolveRandom, {"games": {6: 1}, "gammas": (0.9,)}),
    (run.CertifyRandom, {"games": {6: 1, 24: 1}, "gammas": (0.9,)}),
    (run.SweepHard, {"ns": (8,), "gammas": (0.5, 0.9)}),
]


@pytest.mark.parametrize("cls, sizes", TINY, ids=[c.name for c, _ in TINY])
def test_traced_counts_repeat(tmp_path, cls, sizes):
    workload = cls(gl, 0, tmp_path, **sizes)
    originals = {name: getattr(gl.cli, name) for name in ("to_lcp", "main")}
    counts, digests = [], []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            result = workload.run_pass(tracer)
        assert result.problems == []
        assert all(reason is None for reason in result.reasons)
        metrics = layer_metrics(tracer.spans, result.wall_s)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit.startswith("count")})
        digests.append(result.digest)
    assert counts[0] == counts[1]
    assert digests[0] == digests[1]
    assert any(counts[0].values())
    assert {name: getattr(gl.cli, name) for name in originals} == originals


@pytest.mark.parametrize("cls, sizes", TINY, ids=[c.name for c, _ in TINY])
def test_reference_speed_is_timed_around_every_operation(tmp_path, cls, sizes):
    result = cls(gl, 0, tmp_path, **sizes).run_pass(Tracer(), run.reference_s)
    assert len(result.refs) == len(result.latencies) == len(result.reasons)
    assert all(ref > 0.0 for ref in result.refs)
