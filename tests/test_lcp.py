"""LCP reduction, verification, and recovery tests."""

import dataclasses
import json
import re

import numpy as np
import pytest

import gamelcp.lcp as lcp_module
from gamelcp._kernels import SingularMatrixError, _gamma, solve
from gamelcp.bench import random_game
from gamelcp.cli import main
from gamelcp.conditioning import certify
from gamelcp.game import GameValidationError, build_game, is_optimal, restrict, save_game
from gamelcp.lcp import (
    Lcp,
    LcpCheck,
    lcp_json,
    recover,
    reduction,
    to_lcp,
    verify_solution,
)
from gamelcp.solvers import SolverFailure

from conftest import sigma_tau, swap_actions

G3_M = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 1.0, 1.0]])
G3_Q = np.array([0.0, 0.0, -2.0])


def test_default_partition_slots(three_state):
    # the action order is the partition: sigma is slot 0, tau slot 1
    game = three_state
    red = reduction(game)
    first = game.offsets[:-1]
    eye = np.eye(game.n)
    assert np.array_equal(red.b_sig, eye - game.gamma * game.p[first])
    assert np.array_equal(red.b_tau, eye - game.gamma * game.p[first + 1])
    assert red.c_sig.tolist() == [7.0, -4.0, 5.0]
    assert red.c_tau.tolist() == [3.0, 2.0, -10.0]


def test_default_partition_rejects_three_actions():
    game = build_game(
        0.5,
        [
            (1, [(0.0, [(0, 1.0)]), (1.0, [(1, 1.0)]), (2.0, [(0, 1.0)])]),
            (2, [(0.0, [(1, 1.0)]), (1.0, [(0, 1.0)])]),
        ],
    )
    message = r"^state 0 has 3 actions; the reduction needs exactly 2 per state$"
    with pytest.raises(GameValidationError, match=message):
        reduction(game)
    with pytest.raises(GameValidationError, match=message):
        to_lcp(game)


def test_g3_reduction_exact(g3):
    lcp = to_lcp(g3)
    assert np.array_equal(lcp.m, G3_M)
    assert np.array_equal(lcp.q, G3_Q)
    assert lcp.n == 3


def test_identical_rows_give_identity_m():
    # both slots share a distribution, so B_sigma = B_tau and M = S I S = I
    spec = [
        (1, [(1.0, [(1, 1.0)]), (4.0, [(1, 1.0)])]),
        (2, [(-2.0, [(0, 0.5), (1, 0.5)]), (3.0, [(0, 0.5), (1, 0.5)])]),
    ]
    game = build_game(0.7, spec)
    lcp = to_lcp(game)
    signs = game.ownership_signs
    assert np.allclose(lcp.m, np.eye(2), atol=1e-12)
    c_sig = np.array([1.0, -2.0])
    c_tau = np.array([4.0, 3.0])
    assert np.allclose(lcp.q, signs * (c_tau - c_sig), atol=1e-12)


def test_reduction_identity_random(monkeypatch):
    # M S (I - gamma P_tau) x == S (I - gamma P_sigma) x for any x
    from gamelcp import bench

    monkeypatch.setattr(bench, "MAX_SUPPORT", 3)
    rng = np.random.default_rng(31)
    for k in range(10):
        game = bench.random_game(int(rng.integers(2, 9)), 0.8, seed=700 + k)
        sigma, tau = sigma_tau(game)
        lcp = to_lcp(game)
        p_sig, _ = restrict(game, sigma)
        p_tau, _ = restrict(game, tau)
        b_sig = np.eye(game.n) - game.gamma * p_sig
        b_tau = np.eye(game.n) - game.gamma * p_tau
        s = game.ownership_signs
        for _ in range(10):
            x = rng.standard_normal(game.n)
            lhs = lcp.m @ (s * (b_tau @ x))
            rhs = s * (b_sig @ x)
            assert np.abs(lhs - rhs).max() <= 1e-9 * (1.0 + np.abs(rhs).max())


def test_cost_scaling_scales_q_only(g3):
    lam = 3.5
    scaled = dataclasses.replace(g3, costs=lam * g3.costs)
    base = to_lcp(g3)
    out = to_lcp(scaled)
    assert np.allclose(out.m, base.m, atol=1e-12)
    assert np.allclose(out.q, lam * base.q, atol=1e-12)


def test_swapped_partition_nonnegative_q(g3):
    lcp = to_lcp(swap_actions(g3, [0, 1, 2]))
    assert np.allclose(lcp.q, [0.0, 0.0, 2.0], atol=1e-12)
    # q >= 0 means w = q, z = 0 solves the LCP outright
    check = verify_solution(lcp, lcp.q, np.zeros(3))
    assert check.ok
    res = recover(lcp, lcp.q, np.zeros(3), 0)
    assert np.allclose(res.values, [2.0, -2.0, 2.0], atol=1e-9)


def test_recover_g3_exact(g3):
    w = np.zeros(3)
    z = np.array([0.0, 0.0, 2.0])
    res = recover(to_lcp(g3), w, z, 0)
    assert np.allclose(res.values, [2.0, -2.0, 2.0], atol=1e-12)
    assert res.profile[2] == 0
    ok, _ = is_optimal(g3, res.profile)
    assert ok


def test_recover_tolerates_tiny_noise(g3):
    rng = np.random.default_rng(37)
    w = rng.uniform(0.0, 1e-10, 3)
    z = np.array([0.0, 0.0, 2.0]) + rng.uniform(0.0, 1e-10, 3)
    res = recover(to_lcp(g3), w, z, 0)
    assert np.allclose(res.values, [2.0, -2.0, 2.0], atol=1e-8)


def test_recover_rejects_garbage(g3):
    with pytest.raises(SolverFailure, match="residuals too large") as info:
        recover(to_lcp(g3), np.zeros(3), np.zeros(3), 0)
    check = info.value.context["check"]
    assert isinstance(check, LcpCheck) and not check.ok


def _refuse_optimality(monkeypatch):
    # the check flags action 5, the last state's second action
    monkeypatch.setattr(lcp_module, "is_optimal", lambda *a, **k: (False, np.array([5])))
    return "fails the optimality check", lambda check: check.tolist() == [5]


@pytest.mark.parametrize("refuse", [_refuse_optimality], ids=["optimality"])
def test_recover_refusals_are_solver_failures(g3, tmp_path, capsys, monkeypatch, refuse):
    lcp = to_lcp(g3)
    message, holds = refuse(monkeypatch)
    with pytest.raises(SolverFailure, match=message) as info:
        recover(lcp, np.zeros(3), np.array([0.0, 0.0, 2.0]), 0)
    assert holds(info.value.context["check"])
    path = tmp_path / "g3.json"
    save_game(g3, path)
    for method in ("ipm", "pivot"):
        assert main(["solve", "--game", str(path), "--method", method]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("solver failure: ") and message in err


def test_verify_solution_reports(g3):
    lcp = to_lcp(g3)
    good = verify_solution(lcp, np.zeros(3), np.array([0.0, 0.0, 2.0]))
    assert good.ok
    assert good.feasibility == 0.0
    assert good.complementarity == 0.0
    bad = verify_solution(lcp, np.zeros(3), np.zeros(3))
    assert not bad.ok
    assert bad.feasibility == pytest.approx(2.0)
    neg = verify_solution(lcp, np.zeros(3), np.array([0.0, 0.0, -1.0]))
    assert not neg.ok
    assert neg.min_z == -1.0


def test_lcp_file_round_trip(g3):
    lcp = to_lcp(g3)
    back = json.loads(lcp_json(lcp))
    assert back["n"] == 3
    assert np.array_equal(back["M"], lcp.m)
    assert np.array_equal(back["q"], lcp.q)


def test_reduction_accepts_well_posed_game_near_gamma_one():
    # B_t's condition number is about 1e6 and the solve is backward stable;
    # a residual bound of 1e-10 (1 + max|rhs|) refused its tau value system
    game = random_game(4, 0.999999, 0)
    lcp = to_lcp(game)
    red = lcp.reduction
    s = red.game.ownership_signs
    x = np.random.default_rng(3).standard_normal(4)
    lhs = lcp.m @ (s * (red.b_tau @ x))
    assert np.abs(lhs - s * (red.b_sig @ x)).max() <= 1e-6


def test_reduction_refuses_perturbed_solve(monkeypatch):
    real = lcp_module.solve_discounted

    def off_by_1e8(b, rhs, transpose=False):
        return real(b, rhs, transpose) * (1.0 + 1e-8)

    monkeypatch.setattr(lcp_module, "solve_discounted", off_by_1e8)
    with pytest.raises(SingularMatrixError, match="reduction system: .* rounding bound"):
        to_lcp(random_game(8, 0.9, 3))


def _two_solve_q(red):
    """to_lcp's q when it solved the tau value system apart from M's
    system (verbatim, less that system's residual check: it refused
    random_game(9, 0.999, 90), residual 7.6e-14 against a bound of 4.1e-14,
    which the one-solve q builds)."""
    h = solve(red.b_tau, red.c_tau)
    s = red.game.ownership_signs
    return s * (red.b_sig @ h) - s * red.c_sig


def test_q_from_the_reduction_solve_matches_two_solves():
    # both q's are within first-order forward error of the exact one:
    # gamma_3n kappa(B_t) ||B_s|| |h|, with kappa(B_t) <= (1 + g) / (1 - g),
    # ||B_s|| <= 1 + g and |h| <= |c_tau| / (1 - g)
    rng = np.random.default_rng(16)
    for seed in range(200):
        n = int(rng.integers(1, 65))
        g = float(rng.choice([0.5, 0.9, 0.99, 0.999]))
        lcp = to_lcp(random_game(n, g, seed))
        red = lcp.reduction
        tol = 2 * _gamma(3 * n) * ((1 + g) / (1 - g)) ** 2 * np.abs(red.c_tau).max()
        assert np.abs(lcp.q - _two_solve_q(red)).max() <= tol


def test_lcp_keeps_q_as_a_float64_vector():
    lcp = Lcp(np.eye(2), [1.0, -2.0])
    assert lcp.q.dtype == np.float64 and lcp.q.tolist() == [1.0, -2.0]
    assert lcp.n == 2
    assert json.loads(lcp_json(lcp)) == {"n": 2, "M": [[1.0, 0.0], [0.0, 1.0]], "q": [1.0, -2.0]}
    # to_lcp's q is already one: kept, not copied
    built = to_lcp(random_game(8, 0.9, 1))
    assert Lcp(built.m, built.q).q is built.q


@pytest.mark.parametrize(
    "m, q",
    [(np.eye(3), np.ones(2)), (np.eye(2), np.ones((2, 2))), (np.ones(2), np.ones(2))],
    ids=["n_mismatch", "q_matrix", "m_vector"],
)
def test_lcp_refuses_m_and_q_of_different_sizes(m, q):
    with pytest.raises(ValueError, match=re.escape(f"M has shape {m.shape} and q {q.shape}")):
        Lcp(m, q)


def test_certify_and_recover_need_the_lcp_from_to_lcp(g3):
    lcp = to_lcp(g3)
    assert lcp.reduction is not None
    # an LCP built by hand carries no game
    bare = Lcp(m=lcp.m, q=lcp.q)
    assert bare.reduction is None
    with pytest.raises(ValueError, match="to_lcp"):
        recover(bare, np.zeros(3), np.array([0.0, 0.0, 2.0]), 0)
    with pytest.raises(ValueError, match="to_lcp"):
        certify(bare, seed=0, samples=10)
