"""Model encoding, validation, and the per-profile linear algebra."""

import functools
import json

import numpy as np
import pytest

from gamelcp.bench import random_game
from gamelcp.game import (
    PLAYER_MIN,
    GameValidationError,
    MatrixRep,
    game_to_dict,
    is_optimal,
    load_game,
    markov_step_distribution,
    matrix_representation,
    reduced_costs,
    restrict,
    save_game,
    validate_game,
    value_vector,
)

from conftest import three_state_game, hard_instance, make_game

FIG1_P = np.array(
    [
        [0.0, 0.5, 0.5],
        [1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.5, 0.25, 0.25],
        [0.0, 1.0, 0.0],
        [0.0, 1 / 3, 2 / 3],
    ]
)
FIG1_C = np.array([7.0, 3.0, -4.0, 2.0, 5.0, -10.0])


def test_three_state_matrix_representation_exact(three_state):
    rep = matrix_representation(three_state)
    assert np.array_equal(rep.p, FIG1_P)
    assert np.array_equal(rep.costs, FIG1_C)
    expect_j = np.zeros((6, 3))
    expect_j[[0, 1], 0] = 1.0
    expect_j[[2, 3], 1] = 1.0
    expect_j[[4, 5], 2] = 1.0
    assert np.array_equal(rep.source, expect_j)
    assert np.array_equal(rep.ownership_signs, [1.0, -1.0, 1.0])
    assert np.array_equal(rep.ownership_matrix(), np.diag([1.0, -1.0, 1.0]))


def test_three_state_restrict(three_state):
    p_sigma, c_sigma = restrict(matrix_representation(three_state), [0, 1, 0])
    assert np.array_equal(p_sigma, [[0, 0.5, 0.5], [0.5, 0.25, 0.25], [0, 1, 0]])
    assert np.array_equal(c_sigma, [7.0, 2.0, 5.0])


def test_three_state_markov_steps(three_state):
    p_sigma, _ = restrict(matrix_representation(three_state), [0, 1, 0])
    expect = {
        0: np.array([1.0, 0.0, 0.0]),
        1: np.array([0.0, 0.5, 0.5]),
        2: np.array([2 / 8, 5 / 8, 1 / 8]),
        3: np.array([10 / 32, 13 / 32, 9 / 32]),
    }
    for t, row in expect.items():
        got = markov_step_distribution(p_sigma, 0, t)
        assert np.abs(got - row).max() <= 1e-15


def test_markov_chapman_kolmogorov(three_state):
    p_sigma, _ = restrict(matrix_representation(three_state), [0, 1, 0])
    for s, t in ((1, 2), (2, 3), (0, 4)):
        via = markov_step_distribution(p_sigma, 0, s)
        stepped = via.copy()
        for _ in range(t):
            stepped = stepped @ p_sigma
        direct = markov_step_distribution(p_sigma, 0, s + t)
        assert np.abs(direct - stepped).max() <= 1e-12


def test_validation_rejections():
    ok = {
        "gamma": 0.5,
        "states": [{"owner": 2, "actions": [{"cost": 1.0, "dist": [[0, 1.0]]}]}],
    }
    validate_game(ok)

    bad = json.loads(json.dumps(ok))
    bad["states"][0]["actions"][0]["dist"] = [[0, 0.9]]
    with pytest.raises(GameValidationError, match="distribution sum"):
        validate_game(bad)

    bad = json.loads(json.dumps(ok))
    bad["gamma"] = 1.0
    with pytest.raises(GameValidationError, match="discount out of range"):
        validate_game(bad)

    bad = json.loads(json.dumps(ok))
    bad["states"][0]["actions"] = []
    with pytest.raises(GameValidationError, match="no actions"):
        validate_game(bad)

    bad = json.loads(json.dumps(ok))
    bad["states"][0]["actions"][0]["dist"] = [[5, 1.0]]
    with pytest.raises(GameValidationError, match="out of range"):
        validate_game(bad)

    bad = json.loads(json.dumps(ok))
    bad["states"][0]["owner"] = 3
    with pytest.raises(GameValidationError, match="owner"):
        validate_game(bad)

    for cost in (float("inf"), float("-inf"), float("nan")):
        bad = json.loads(json.dumps(ok))
        bad["states"][0]["actions"][0]["cost"] = cost
        with pytest.raises(GameValidationError, match="^state 0 action 0: non-finite cost$"):
            validate_game(bad)

    for prob, shown in ((float("inf"), "inf"), (float("nan"), "nan"), (-0.5, "-0.5")):
        bad = json.loads(json.dumps(ok))
        bad["states"][0]["actions"][0]["dist"] = [[0, prob], [0, 1.0]]
        with pytest.raises(
            GameValidationError, match=f"^state 0 action 0: bad probability {shown}$"
        ):
            validate_game(bad)


def test_single_state_minimizer_rep():
    game = make_game(0.5, [(1, [(2.0, [(0, 1.0)])])])
    rep = matrix_representation(game)
    assert np.array_equal(rep.p, [[1.0]])
    assert np.array_equal(rep.source, [[1.0]])
    assert np.array_equal(rep.ownership_signs, [-1.0])


def test_g3_restrictions(g3):
    game, part = g3
    rep = matrix_representation(game)
    p_sigma, _ = restrict(rep, part.sigma)
    p_tau, _ = restrict(rep, part.tau)
    assert np.array_equal(p_sigma, [[1, 0, 0], [0, 1, 0], [1, 0, 0]])
    assert np.array_equal(p_tau, [[1, 0, 0], [0, 1, 0], [0, 1, 0]])


def test_g3_value_vectors(g3):
    game, part = g3
    rep = matrix_representation(game)
    assert np.allclose(value_vector(rep, part.tau), [2.0, -2.0, 0.0], atol=1e-12)
    assert np.allclose(value_vector(rep, part.sigma), [2.0, -2.0, 2.0], atol=1e-12)


def test_zero_costs_zero_values(three_state):
    zero = make_game(
        0.5,
        [
            (2, [(0.0, [(1, 0.5), (2, 0.5)]), (0.0, [(0, 1.0)])]),
            (1, [(0.0, [(0, 1.0)]), (0.0, [(0, 0.5), (1, 0.25), (2, 0.25)])]),
            (2, [(0.0, [(1, 1.0)]), (0.0, [(1, 1 / 3), (2, 2 / 3)])]),
        ],
    )
    rep = matrix_representation(zero)
    for profile in ([0, 0, 0], [1, 1, 1], [0, 1, 0]):
        assert np.abs(value_vector(rep, profile)).max() <= 1e-15


def test_g3_reduced_costs(g3):
    game, part = g3
    rep = matrix_representation(game)
    rc_tau = reduced_costs(rep, part.tau)
    # under tau, the unused jump of the tail state has advantage a + gamma*v(0) - v(2) = 2
    assert abs(rc_tau[4] - 2.0) <= 1e-12
    rc_sigma = reduced_costs(rep, part.sigma)
    assert abs(rc_sigma[5] - (-2.0)) <= 1e-12


def test_chosen_actions_have_zero_reduced_cost(three_state):
    rng = np.random.default_rng(7)
    rep = matrix_representation(three_state)
    for _ in range(10):
        profile = rng.integers(0, 2, size=3)
        rc = reduced_costs(rep, profile)
        chosen = rep.offsets[:-1] + profile
        assert np.abs(rc[chosen]).max() <= 1e-9


def test_g3_optimality_verdicts(g3):
    game, part = g3
    rep = matrix_representation(game)
    ok, violations = is_optimal(rep, part.sigma)
    assert ok and violations.size == 0
    ok, violations = is_optimal(rep, part.tau)
    assert not ok
    assert violations.tolist() == [4]  # the tail state's jump to the +1 anchor


def test_single_action_game_always_optimal():
    game = make_game(0.9, [(1, [(1.0, [(1, 1.0)])]), (2, [(-1.0, [(0, 1.0)])])])
    ok, violations = is_optimal(matrix_representation(game), [0, 0])
    assert ok and violations.size == 0


def test_row_sum_identity():
    rng = np.random.default_rng(11)
    for gamma in (0.3, 0.9):
        game = three_state_game(gamma)
        ones_cost = make_game(
            gamma,
            [
                (st.owner, [(1.0, list(a.dist)) for a in st.actions])
                for st in game.states
            ],
        )
        for profile in ([0, 0, 0], [1, 1, 1], [1, 0, 1]):
            v = value_vector(matrix_representation(ones_cost), profile)
            assert np.abs(v - 1.0 / (1.0 - gamma)).max() <= 1e-9
        for _ in range(5):
            profile = rng.integers(0, 2, size=3)
            shifted = make_game(
                gamma,
                [
                    (st.owner, [(a.cost + 1.0, list(a.dist)) for a in st.actions])
                    for st in game.states
                ],
            )
            v0 = value_vector(matrix_representation(game), profile)
            v1 = value_vector(matrix_representation(shifted), profile)
            # adding 1 to every cost adds the geometric series 1/(1-gamma)
            assert np.abs(v1 - v0 - 1.0 / (1.0 - gamma)).max() <= 1e-9


def test_cost_scaling_homogeneity(three_state):
    lam = 3.5
    scaled = make_game(
        three_state.gamma,
        [
            (st.owner, [(lam * a.cost, list(a.dist)) for a in st.actions])
            for st in three_state.states
        ],
    )
    rep = matrix_representation(three_state)
    rep_s = matrix_representation(scaled)
    rng = np.random.default_rng(13)
    for _ in range(8):
        profile = rng.integers(0, 2, size=3)
        v = value_vector(rep, profile)
        v_s = value_vector(rep_s, profile)
        assert np.abs(v_s - lam * v).max() <= 1e-9 * max(1.0, np.abs(v).max())
        rc = reduced_costs(rep, profile)
        rc_s = reduced_costs(rep_s, profile)
        assert np.abs(rc_s - lam * rc).max() <= 1e-9 * max(1.0, np.abs(rc).max())
        assert is_optimal(rep, profile)[0] == is_optimal(rep_s, profile)[0]


@pytest.mark.parametrize(
    "check",
    [
        restrict,
        value_vector,
        reduced_costs,
        functools.partial(reduced_costs, values=np.zeros(5)),
        is_optimal,
        functools.partial(is_optimal, values=np.zeros(5)),
    ],
    ids=[
        "restrict",
        "value_vector",
        "reduced_costs",
        "reduced_costs-values",
        "is_optimal",
        "is_optimal-values",
    ],
)
def test_profile_checked_against_the_matrix_rep(check):
    # the messages are those the Game-taking functions gave
    rep = matrix_representation(random_game(5, 0.9, 1))
    for profile, message in (
        ([2, 0, 0, 0, 0], r"^profile slot 2 out of range at state 0 \(2 actions\)$"),
        ([0, 0, -1, 0, 0], r"^profile slot -1 out of range at state 2 \(2 actions\)$"),
        ([0, 0, 0, 0], r"^profile length \(4,\) does not match 5 states$"),
        ([[0] * 5], r"^profile length \(1, 5\) does not match 5 states$"),
    ):
        with pytest.raises(GameValidationError, match=message):
            check(rep, profile)


def test_profile_check_reads_each_states_action_count():
    rep = matrix_representation(_repeated_target_game())  # 2, 1 and 3 actions
    assert value_vector(rep, [1, 0, 2]).shape == (3,)
    with pytest.raises(GameValidationError, match=r"slot 1 .* state 1 \(1 actions\)$"):
        value_vector(rep, [0, 1, 0])
    with pytest.raises(GameValidationError, match=r"slot 3 .* state 2 \(3 actions\)$"):
        value_vector(rep, [0, 0, 3])


def test_json_roundtrip(tmp_path, three_state):
    d = game_to_dict(three_state)
    again = validate_game(d)
    assert game_to_dict(again) == d
    path = tmp_path / "game.json"
    save_game(three_state, str(path))
    loaded = load_game(str(path))
    assert game_to_dict(loaded) == d


def _matrix_representation_loop(game):
    """Oracle: the per-entry loop that matrix_representation replaced."""
    n = game.n_states
    m = game.n_actions
    p = np.zeros((m, n))
    costs = np.empty(m)
    offsets = np.zeros(n + 1, dtype=np.int64)
    state_of_action = np.empty(m, dtype=np.int64)
    owners = np.empty(n, dtype=np.int64)
    row = 0
    for i, s in enumerate(game.states):
        owners[i] = s.owner
        offsets[i] = row
        for a in s.actions:
            costs[row] = a.cost
            for j, prob in a.dist:
                p[row, j] += prob
            state_of_action[row] = i
            row += 1
    offsets[n] = row
    signs = np.where(owners == PLAYER_MIN, -1.0, 1.0)
    return MatrixRep(
        gamma=game.gamma,
        p=p,
        costs=costs,
        ownership_signs=signs,
        offsets=offsets,
        state_of_action=state_of_action,
        owners=owners,
    )


def _repeated_target_game():
    # repeated targets whose sums depend on the order of accumulation:
    # (0.1 + 0.2) + 0.7 != 0.1 + (0.2 + 0.7) in floating point
    return make_game(
        0.9,
        [
            (1, [(1.0, [(0, 0.1), (1, 0.2), (0, 0.7)]), (-2.5, [(2, 1.0)])]),
            (2, [(0.5, [(2, 0.1), (2, 0.2), (2, 0.7)])]),
            (
                1,
                [
                    (3.0, [(1, 0.3), (0, 0.3), (1, 0.1), (1, 0.3)]),
                    (0.0, [(0, 0.5), (0, 0.5)]),
                    (-1.0, [(1, 1.0)]),
                ],
            ),
        ],
    )


def test_matrix_representation_matches_entry_loop():
    games = [three_state_game(), _repeated_target_game()]
    games += [random_game(n, 0.9, 40 + n) for n in (1, 2, 7, 33, 64)]
    games += [hard_instance(12, 0.99, mode)[0] for mode in ("kappa", "theta")]
    assert (0.1 + 0.2) + 0.7 != 0.1 + (0.2 + 0.7)
    for game in games:
        got = matrix_representation(game)
        want = _matrix_representation_loop(game)
        for name in (
            "p", "costs", "ownership_signs", "offsets", "state_of_action", "owners"
        ):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b), name
        assert got.gamma == want.gamma
    rep = matrix_representation(_repeated_target_game())
    assert rep.p[0, 0] == (0.0 + 0.1) + 0.7
    assert rep.p[2, 2] == ((0.0 + 0.1) + 0.2) + 0.7


def test_matrix_representation_refuses_targets_out_of_range():
    game = make_game(0.5, [(1, [(1.0, [(0, 0.5), (1, 0.5)])])])
    with pytest.raises(IndexError):
        _matrix_representation_loop(game)
    with pytest.raises(IndexError):
        matrix_representation(game)
