"""Interior point and complementary pivoting solver tests."""

import math

import numpy as np
import pytest

from gamelcp.bench import random_game
from gamelcp.hard_instances import HardInstanceSpec, build_hard_instance
from gamelcp.lcp import Lcp, Partition, default_partition, recover, to_lcp, verify_solution
from gamelcp.lcp_solvers import IpmOptions, solve_pivoting, solve_potential_reduction
from gamelcp.solvers import SolverFailure


def test_ipm_options_validation():
    with pytest.raises(ValueError, match="epsilon"):
        IpmOptions(epsilon=0.0)
    with pytest.raises(ValueError, match="max_iters"):
        IpmOptions(max_iters=0)


def test_ipm_identity_lcp():
    lcp = Lcp(m=np.eye(4), q=np.ones(4))
    w, z, trace = solve_potential_reduction(lcp)
    assert float(w @ z) < 1e-9
    assert np.abs(w - 1.0).max() <= 1e-8
    assert z.max() <= 1e-8
    assert trace.termination == "converged"


def test_ipm_solves_g3(g3):
    game, part = g3
    lcp = to_lcp(game, part)
    opts = IpmOptions(epsilon=1e-10)
    w, z, trace = solve_potential_reduction(lcp, opts)
    assert float(w @ z) < 1e-10
    # the shift has been driven (almost) all the way home
    feas = np.abs(w - lcp.q - lcp.m @ z).max()
    assert feas <= opts.epsilon * 1e-3 * 1.01
    res = recover(game, part, lcp, w, z, tol=1e-6)
    assert np.allclose(res.values, [2.0, -2.0, 2.0], atol=1e-6)
    assert np.allclose(z, [0.0, 0.0, 2.0], atol=1e-5)


def test_ipm_trace_shape_and_monotonicity(g3):
    game, part = g3
    lcp = to_lcp(game, part)
    _, _, trace = solve_potential_reduction(lcp)
    k = len(trace)
    assert k >= 1
    for rows in (trace.iters, trace.gaps, trace.potentials, trace.steps, trace.shifts):
        assert len(rows) == k
    lo_hi = trace.stages()
    assert lo_hi[0][0] == 0
    assert lo_hi[-1][1] == k
    for (a, b), (c, _) in zip(lo_hi, lo_hi[1:]):
        assert b == c
    assert trace.monotone_within_stages()
    assert trace.iters == sorted(trace.iters)


def test_ipm_trace_csv(tmp_path, g3):
    game, part = g3
    _, _, trace = solve_potential_reduction(to_lcp(game, part))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,gap,potential,step,shift"
    assert len(lines) == len(trace) + 1
    first = lines[1].split(",")
    assert int(first[0]) == trace.iters[0]
    assert float(first[1]) == trace.gaps[0]


def test_centering_direction_against_full_system(g3):
    # solve the unreduced 2n x 2n Newton system independently and compare
    game, part = g3
    lcp = to_lcp(game, part)
    n = lcp.n
    rho = n + math.sqrt(n)
    z = np.ones(n)
    t0 = max(0.0, 1.0 - float(np.min(lcp.q + lcp.m @ z)))
    w = lcp.q + t0 + lcp.m @ z
    gap = float(w @ z)
    rhs_small = (gap / rho) - w * z

    big = np.zeros((2 * n, 2 * n))
    big[:n, :n] = np.eye(n)
    big[:n, n:] = -lcp.m
    big[n:, :n] = np.diag(z)
    big[n:, n:] = np.diag(w)
    sol = np.linalg.solve(big, np.concatenate([np.zeros(n), rhs_small]))
    dw_full, dz_full = sol[:n], sol[n:]

    dz = np.linalg.solve(z[:, None] * lcp.m + np.diag(w), rhs_small)
    dw = lcp.m @ dz
    assert np.abs(dz - dz_full).max() <= 1e-10
    assert np.abs(dw - dw_full).max() <= 1e-10

    def pot(wv, zv):
        return rho * math.log(float(wv @ zv)) - float(np.sum(np.log(wv * zv)))

    alpha = 1e-3
    w1, z1 = w + alpha * dw, z + alpha * dz
    assert w1.min() > 0 and z1.min() > 0
    assert pot(w1, z1) < pot(w, z)


def test_ipm_budget_failure_carries_trace(g3):
    game, part = g3
    lcp = to_lcp(game, part)
    with pytest.raises(SolverFailure, match="max_iters") as exc_info:
        solve_potential_reduction(lcp, IpmOptions(max_iters=1))
    trace = exc_info.value.context["trace"]
    assert len(trace) <= 1
    assert "max_iters" in trace.termination


def test_pivoting_shortcut_on_nonnegative_q(g3):
    game, _ = g3
    swapped = Partition(
        sigma=np.ones(3, dtype=np.int64), tau=np.zeros(3, dtype=np.int64)
    )
    lcp = to_lcp(game, swapped)
    w, z, pivots = solve_pivoting(lcp)
    assert pivots == 0
    assert np.array_equal(w, lcp.q)
    assert np.array_equal(z, np.zeros(3))


def test_pivoting_g3_exact(g3):
    game, part = g3
    lcp = to_lcp(game, part)
    w, z, pivots = solve_pivoting(lcp)
    assert np.array_equal(w, [0.0, 0.0, 0.0])
    assert np.array_equal(z, [0.0, 0.0, 2.0])
    assert pivots == 2
    assert verify_solution(lcp, w, z, tol=1e-12).ok


def test_pivoting_ray_termination():
    lcp = Lcp(m=-np.eye(2), q=np.array([-1.0, -2.0]))
    with pytest.raises(SolverFailure, match="ray termination"):
        solve_pivoting(lcp)


def test_pivoting_exact_complementarity_random():
    rng = np.random.default_rng(41)
    for k in range(15):
        n = int(rng.integers(2, 13))
        game = random_game(n, float(rng.uniform(0.3, 0.9)), seed=900 + k)
        lcp = to_lcp(game, default_partition(game))
        w, z, _ = solve_pivoting(lcp)
        check = verify_solution(lcp, w, z, tol=1e-10)
        assert check.ok
        assert check.complementarity == 0.0  # basic-z rows are zeroed exactly


def test_solvers_agree_on_game_lcps():
    rng = np.random.default_rng(43)
    for k in range(12):
        n = int(rng.integers(2, 13))
        game = random_game(n, float(rng.uniform(0.3, 0.95)), seed=1100 + k)
        part = default_partition(game)
        lcp = to_lcp(game, part)
        w_p, z_p, _ = solve_pivoting(lcp)
        w_i, z_i, _ = solve_potential_reduction(lcp, IpmOptions(epsilon=1e-11))
        assert np.abs(z_p - z_i).max() <= 1e-6
        assert np.abs(w_p - w_i).max() <= 1e-6
        assert verify_solution(lcp, w_p, z_p).ok
        res_p = recover(game, part, lcp, w_p, z_p)
        res_i = recover(game, part, lcp, w_i, z_i)
        assert np.abs(res_p.values - res_i.values).max() <= 1e-9


@pytest.mark.parametrize(
    "case",
    ["random-64-1903", "hard-48-kappa", "hard-48-eigenvalue", "hard-48-theta"],
)
def test_ipm_tangent_keeps_tiny_slacks_at_gamma_099(case):
    # near shift 1e-7 the smallest w_i (~1e-14) lies below the rounding of
    # q + t + M z; rebuilding w from that sum stalled the homotopy on these
    # games, advancing it along the tangent does not
    if case.startswith("random"):
        game = random_game(64, 0.99, 1903)
        part = default_partition(game)
    else:
        game, part = build_hard_instance(HardInstanceSpec(48, 0.99, case.split("-")[2]))
    lcp = to_lcp(game, part)
    w, z, trace = solve_potential_reduction(lcp, IpmOptions(epsilon=1e-9))
    assert trace.termination == "converged"
    recover(game, part, lcp, w, z)
