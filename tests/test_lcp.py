"""LCP reduction, verification, and recovery tests."""

import numpy as np
import pytest

from gamelcp.game import GameValidationError, is_optimal, matrix_representation, restrict
from gamelcp.lcp import (
    Lcp,
    Partition,
    RecoveryError,
    default_partition,
    load_partition,
    read_lcp,
    recover,
    save_partition,
    to_lcp,
    verify_solution,
    write_lcp,
)

from conftest import make_game

G3_M = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 1.0, 1.0]])
G3_Q = np.array([0.0, 0.0, -2.0])


def test_default_partition_slots(three_state):
    part = default_partition(three_state)
    assert part.sigma.tolist() == [0, 0, 0]
    assert part.tau.tolist() == [1, 1, 1]


def test_default_partition_rejects_three_actions():
    game = make_game(
        0.5,
        [
            (1, [(0.0, [(0, 1.0)]), (1.0, [(1, 1.0)]), (2.0, [(0, 1.0)])]),
            (2, [(0.0, [(1, 1.0)]), (1.0, [(0, 1.0)])]),
        ],
    )
    with pytest.raises(GameValidationError, match="state 0 has 3 actions"):
        default_partition(game)
    with pytest.raises(GameValidationError, match="state 0"):
        to_lcp(game)


def test_partition_must_cover_both_actions(g3):
    game, _ = g3
    bad = Partition(sigma=np.zeros(3, dtype=np.int64), tau=np.zeros(3, dtype=np.int64))
    with pytest.raises(GameValidationError, match="cover both actions"):
        to_lcp(game, bad)


def test_g3_reduction_exact(g3):
    game, part = g3
    lcp = to_lcp(game, part)
    assert np.array_equal(lcp.m, G3_M)
    assert np.array_equal(lcp.q, G3_Q)
    assert lcp.n == 3


def test_identical_rows_give_identity_m():
    # both slots share a distribution, so B_sigma = B_tau and M = S I S = I
    spec = [
        (1, [(1.0, [(1, 1.0)]), (4.0, [(1, 1.0)])]),
        (2, [(-2.0, [(0, 0.5), (1, 0.5)]), (3.0, [(0, 0.5), (1, 0.5)])]),
    ]
    game = make_game(0.7, spec)
    lcp = to_lcp(game)
    signs = matrix_representation(game).ownership_signs
    assert np.allclose(lcp.m, np.eye(2), atol=1e-12)
    c_sig = np.array([1.0, -2.0])
    c_tau = np.array([4.0, 3.0])
    assert np.allclose(lcp.q, signs * (c_tau - c_sig), atol=1e-12)


def test_reduction_identity_random():
    # M S (I - gamma P_tau) x == S (I - gamma P_sigma) x for any x
    from gamelcp.bench import random_game

    rng = np.random.default_rng(31)
    for k in range(10):
        game = random_game(int(rng.integers(2, 9)), 0.8, seed=700 + k, max_support=3)
        rep = matrix_representation(game)
        part = default_partition(game)
        lcp = to_lcp(game, part)
        p_sig, _ = restrict(rep, part.sigma)
        p_tau, _ = restrict(rep, part.tau)
        b_sig = np.eye(rep.n) - rep.gamma * p_sig
        b_tau = np.eye(rep.n) - rep.gamma * p_tau
        s = rep.ownership_signs
        for _ in range(10):
            x = rng.standard_normal(rep.n)
            lhs = lcp.m @ (s * (b_tau @ x))
            rhs = s * (b_sig @ x)
            assert np.abs(lhs - rhs).max() <= 1e-9 * (1.0 + np.abs(rhs).max())


def test_cost_scaling_scales_q_only(g3):
    game, part = g3
    lam = 3.5
    scaled = make_game(
        game.gamma,
        [
            (
                st.owner,
                [(lam * act.cost, list(act.dist)) for act in st.actions],
            )
            for st in game.states
        ],
    )
    base = to_lcp(game, part)
    out = to_lcp(scaled, part)
    assert np.allclose(out.m, base.m, atol=1e-12)
    assert np.allclose(out.q, lam * base.q, atol=1e-12)


def test_swapped_partition_nonnegative_q(g3):
    game, _ = g3
    swapped = Partition(
        sigma=np.ones(3, dtype=np.int64), tau=np.zeros(3, dtype=np.int64)
    )
    lcp = to_lcp(game, swapped)
    assert np.allclose(lcp.q, [0.0, 0.0, 2.0], atol=1e-12)
    # q >= 0 means w = q, z = 0 solves the LCP outright
    check = verify_solution(lcp, lcp.q, np.zeros(3))
    assert check.ok
    res = recover(game, swapped, lcp, lcp.q, np.zeros(3))
    assert np.allclose(res.values, [2.0, -2.0, 2.0], atol=1e-9)


def test_recover_g3_exact(g3):
    game, part = g3
    w = np.zeros(3)
    z = np.array([0.0, 0.0, 2.0])
    res = recover(game, part, to_lcp(game, part), w, z)
    assert np.allclose(res.values, [2.0, -2.0, 2.0], atol=1e-12)
    assert res.profile[2] == 0
    rep = matrix_representation(game)
    ok, _ = is_optimal(rep, res.profile)
    assert ok
    assert res.method == "lcp"


def test_recover_tolerates_tiny_noise(g3):
    game, part = g3
    rng = np.random.default_rng(37)
    w = rng.uniform(0.0, 1e-10, 3)
    z = np.array([0.0, 0.0, 2.0]) + rng.uniform(0.0, 1e-10, 3)
    res = recover(game, part, to_lcp(game, part), w, z)
    assert np.allclose(res.values, [2.0, -2.0, 2.0], atol=1e-8)


def test_recover_rejects_garbage(g3):
    game, part = g3
    with pytest.raises(RecoveryError, match="residuals too large"):
        recover(game, part, to_lcp(game, part), np.zeros(3), np.zeros(3))


def test_verify_solution_reports(g3):
    game, part = g3
    lcp = to_lcp(game, part)
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


def test_lcp_file_round_trip(tmp_path, g3):
    game, part = g3
    lcp = to_lcp(game, part)
    path = tmp_path / "g3.lcp.json"
    write_lcp(lcp, path)
    back = read_lcp(path)
    assert np.array_equal(back.m, lcp.m)
    assert np.array_equal(back.q, lcp.q)


def test_read_lcp_rejects_inconsistent_shapes(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3, "M": [[1.0]], "q": [0.0]}')
    with pytest.raises(ValueError, match="inconsistent"):
        read_lcp(path)


def test_partition_file_round_trip(tmp_path, g3):
    _, part = g3
    path = tmp_path / "part.json"
    save_partition(part, path)
    back = load_partition(path)
    assert np.array_equal(back.sigma, part.sigma)
    assert np.array_equal(back.tau, part.tau)
    assert back.sigma.dtype == np.int64
