"""Value iteration, strategy iteration, and brute force against each other."""

import numpy as np
import pytest

from gamelcp.game import PLAYER_MIN, matrix_representation, reduced_costs, value_vector
from gamelcp.solvers import (
    SolverFailure,
    bellman_backup,
    brute_force_solve,
    strategy_iteration,
    value_iteration,
)
from gamelcp.bench import random_game

from conftest import three_state_game, hard_instance, make_game


def test_g3_first_bellman_iterate(g3):
    game, _ = g3
    rep = matrix_representation(game)
    v1 = bellman_backup(rep, np.zeros(3))
    assert np.array_equal(v1, [1.0, -1.0, 1.0])


def _two_reduceat_backup(rep, v):
    # the backup as first written: both reductions, then pick per owner
    y = rep.costs + rep.gamma * (rep.p @ v)
    starts = rep.offsets[:-1]
    mins = np.minimum.reduceat(y, starts)
    maxs = np.maximum.reduceat(y, starts)
    return np.where(rep.owners == PLAYER_MIN, mins, maxs)


def test_bellman_backup_matches_two_reduceat_oracle():
    # max(y) = -min(-y) is exact, so the signed reduction is bit-identical;
    # the hand-built game has 1- and 3-action states for uneven segments
    uneven = make_game(
        0.9,
        [
            (1, [(1.5, [(1, 1.0)])]),
            (2, [(-2.0, [(0, 0.5), (2, 0.5)]), (3.0, [(1, 1.0)]), (0.25, [(2, 1.0)])]),
            (1, [(4.0, [(0, 1.0)]), (-1.0, [(1, 0.3), (2, 0.7)]), (0.0, [(2, 1.0)])]),
            (2, [(-7.0, [(3, 1.0)])]),
        ],
    )
    games = [uneven] + [random_game(n, 0.95, seed=700 + n) for n in (1, 5, 16, 64)]
    rng = np.random.default_rng(17)
    for game in games:
        rep = matrix_representation(game)
        for _ in range(20):
            v = rng.normal(scale=10.0, size=rep.n)
            assert np.array_equal(bellman_backup(rep, v), _two_reduceat_backup(rep, v))
    assert {1, 2} <= set(matrix_representation(uneven).owners.tolist())


def test_bellman_fixed_point(g3):
    game, _ = g3
    rep = matrix_representation(game)
    v_star = np.array([2.0, -2.0, 2.0])
    assert np.abs(bellman_backup(rep, v_star) - v_star).max() <= 1e-12


def test_value_iteration_g3(g3):
    game, _ = g3
    res = value_iteration(game, eps=1e-8)
    assert np.allclose(res.values, [2.0, -2.0, 2.0], atol=1e-8)
    assert res.method == "value_iteration"
    assert res.iterations >= 1


def test_value_iteration_accuracy_guarantee():
    rng = np.random.default_rng(21)
    for k in range(10):
        game = random_game(5, float(rng.uniform(0.2, 0.9)), seed=100 + k)
        oracle = brute_force_solve(game)
        res = value_iteration(game, eps=1e-6)
        assert np.abs(res.values - oracle.values).max() <= 1e-6


def test_value_iteration_contraction():
    game, _ = hard_instance(4, 0.8, a=2.0)
    oracle = brute_force_solve(game)
    rep = matrix_representation(game)
    v = np.zeros(4)
    err = np.abs(v - oracle.values).max()
    for _ in range(60):
        v = bellman_backup(rep, v)
        new_err = np.abs(v - oracle.values).max()
        assert new_err <= game.gamma * err + 1e-12
        err = new_err


def test_strategy_iteration_from_tau(g3):
    game, part = g3
    res = strategy_iteration(game, initial_profile=part.tau)
    assert np.allclose(res.values, [2.0, -2.0, 2.0], atol=1e-12)
    assert res.profile[2] == 0  # tail state switched to the sigma slot
    assert res.iterations == 1


def test_strategy_iteration_zero_switches_at_optimum(g3):
    game, part = g3
    res = strategy_iteration(game, initial_profile=part.sigma)
    assert res.iterations == 0
    assert np.array_equal(res.profile, part.sigma)


def test_strategy_iteration_improves_single_player_games():
    # maximizer-only games: all-switch rounds never decrease any value
    rng = np.random.default_rng(23)
    made = 0
    for k in range(40):
        game = random_game(6, 0.7, seed=300 + k)
        if any(st.owner != 2 for st in game.states):
            continue
        made += 1
        rep = matrix_representation(game)
        choice = np.zeros(6, dtype=np.int64)
        for _ in range(20):
            v = value_vector(rep, choice)
            rc = reduced_costs(rep, choice, v)
            new_choice = choice.copy()
            for i in range(6):
                seg = rc[rep.offsets[i] : rep.offsets[i + 1]]
                if seg.max() > 1e-9:
                    new_choice[i] = int(np.argmax(seg))
            if np.array_equal(new_choice, choice):
                break
            v_new = value_vector(rep, new_choice)
            assert np.all(v_new >= v - 1e-9)
            assert v_new.max() > v.max() - 1e-12  # strict somewhere
            choice = new_choice
    assert made >= 1


def test_brute_force_g3(g3):
    game, _ = g3
    res = brute_force_solve(game)
    assert np.array_equal(res.profile, [0, 0, 0])
    assert np.allclose(res.values, [2.0, -2.0, 2.0], atol=1e-12)


def test_brute_force_single_action_game():
    game = make_game(0.9, [(1, [(1.0, [(1, 1.0)])]), (2, [(-1.0, [(0, 1.0)])])])
    res = brute_force_solve(game)
    assert np.array_equal(res.profile, [0, 0])


def test_brute_force_cap():
    game, _ = hard_instance(21, 0.5, a=1.0)  # 2^21 profiles exceeds the cap
    with pytest.raises(SolverFailure, match="cap"):
        brute_force_solve(game)


def test_three_state_brute_matches_value_iteration():
    game = three_state_game(0.5)
    res_b = brute_force_solve(game)
    res_v = value_iteration(game, eps=1e-8)
    assert np.abs(res_b.values - res_v.values).max() <= 1e-6


def test_cross_method_agreement_random():
    rng = np.random.default_rng(29)
    for k in range(20):
        gamma = float(rng.uniform(0.2, 0.9))
        game = random_game(int(rng.integers(2, 7)), gamma, seed=500 + k)
        res_b = brute_force_solve(game)
        res_v = value_iteration(game, eps=1e-8)
        res_s = strategy_iteration(game)
        assert np.abs(res_b.values - res_v.values).max() <= 1e-6
        assert np.abs(res_b.values - res_s.values).max() <= 1e-6
