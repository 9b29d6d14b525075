"""Model encoding, validation, and the per-profile linear algebra."""

import dataclasses
import functools
import json
import types

import numpy as np
import pytest

from gamelcp.bench import random_game
from gamelcp.game import (
    PLAYER_MAX,
    PLAYER_MIN,
    GameValidationError,
    build_game,
    game_json,
    game_to_dict,
    is_optimal,
    load_game,
    reduced_cost_rounding,
    reduced_costs,
    restrict,
    save_game,
    validate_game,
    value_vector,
)

from conftest import THREE_STATE_SPEC, three_state_game, hard_instance, sigma_tau
from oracles import markov_step_distribution

ARRAYS = ("p", "costs", "ownership_signs", "offsets", "state_of_action", "owners")

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


def test_state_of_action_is_read_from_offsets(three_state):
    # the action layout is recorded once: a game with other offsets maps
    # its rows by them, so restrict and is_optimal read one layout
    regrouped = dataclasses.replace(three_state, offsets=np.array([0, 1, 4, 6]))
    assert np.array_equal(regrouped.state_of_action, [0, 1, 1, 1, 2, 2])
    assert np.array_equal(three_state.state_of_action, [0, 0, 1, 1, 2, 2])
    assert three_state.state_of_action is three_state.state_of_action  # once per game
    assert "state_of_action" not in {f.name for f in dataclasses.fields(three_state)}


def test_three_state_game_arrays_exact(three_state):
    assert np.array_equal(three_state.p, FIG1_P)
    assert np.array_equal(three_state.costs, FIG1_C)
    assert np.array_equal(three_state.offsets, [0, 2, 4, 6])
    assert np.array_equal(three_state.state_of_action, [0, 0, 1, 1, 2, 2])
    assert np.array_equal(three_state.ownership_signs, [1.0, -1.0, 1.0])


def test_three_state_restrict(three_state):
    p_sigma, c_sigma = restrict(three_state, [0, 1, 0])
    assert np.array_equal(p_sigma, [[0, 0.5, 0.5], [0.5, 0.25, 0.25], [0, 1, 0]])
    assert np.array_equal(c_sigma, [7.0, 2.0, 5.0])


def test_three_state_markov_steps(three_state):
    p_sigma, _ = restrict(three_state, [0, 1, 0])
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
    p_sigma, _ = restrict(three_state, [0, 1, 0])
    for s, t in ((1, 2), (2, 3), (0, 4)):
        via = markov_step_distribution(p_sigma, 0, s)
        stepped = via.copy()
        for _ in range(t):
            stepped = stepped @ p_sigma
        direct = markov_step_distribution(p_sigma, 0, s + t)
        assert np.abs(direct - stepped).max() <= 1e-12


def test_validation_rejections():
    for obj in (three_state_game(), [], None):
        with pytest.raises(GameValidationError, match="^expected dict, got "):
            validate_game(obj)

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


def _set_gamma(obj, value):
    obj["gamma"] = value


def _set_owner(obj, value):
    obj["states"][0]["owner"] = value


def _set_cost(obj, value):
    obj["states"][0]["actions"][0]["cost"] = value


def _set_target(obj, value):
    obj["states"][0]["actions"][0]["dist"][0][0] = value


def _set_prob(obj, value):
    obj["states"][0]["actions"][0]["dist"][0][1] = value


# float() and int() take strings and booleans: each of these once loaded as
# the number it spells (True as owner 1, "0.5" as gamma 0.5)
@pytest.mark.parametrize(
    "set_field, value, message",
    [
        (_set_gamma, "0.5", "^malformed game object: '0.5' is not a number$"),
        (_set_gamma, True, "^malformed game object: True is not a number$"),
        (_set_owner, "2", "^state 0: malformed entry: '2' is not a number$"),
        (_set_owner, True, "^state 0: malformed entry: True is not a number$"),
        (_set_cost, "7", "^state 0 action 0: malformed entry: '7' is not a number$"),
        (_set_cost, False, "^state 0 action 0: malformed entry: False is not a number$"),
        (_set_target, "0", "^state 0 action 0: malformed entry: '0' is not a number$"),
        (_set_target, False, "^state 0 action 0: malformed entry: False is not a number$"),
        (_set_prob, "1.0", "^state 0 action 0: malformed entry: '1.0' is not a number$"),
        (_set_prob, True, "^state 0 action 0: malformed entry: True is not a number$"),
    ],
)
def test_validation_refuses_strings_and_booleans_for_numbers(set_field, value, message):
    obj = {
        "gamma": 0.5,
        "states": [{"owner": 2, "actions": [{"cost": 1.0, "dist": [[0, 1.0]]}]}],
    }
    set_field(obj, value)
    with pytest.raises(GameValidationError, match=message):
        validate_game(obj)


@pytest.mark.parametrize("set_field", [_set_gamma, _set_owner, _set_cost, _set_target, _set_prob])
def test_validation_refuses_integers_past_the_float_range(set_field):
    # float() raised OverflowError here, which escaped as a solver failure
    obj = {
        "gamma": 0.5,
        "states": [{"owner": 2, "actions": [{"cost": 1.0, "dist": [[0, 1.0]]}]}],
    }
    set_field(obj, 10**400)
    with pytest.raises(GameValidationError, match="int too large to convert to float$"):
        validate_game(obj)


def test_validation_takes_ints_and_integral_floats():
    game = validate_game(
        {"gamma": 0.5, "states": [{"owner": 1.0, "actions": [{"cost": 7, "dist": [[0.0, 1]]}]}]}
    )
    assert game.costs.dtype == np.float64 and np.array_equal(game.costs, [7.0])
    assert np.array_equal(game.p, [[1.0]]) and np.array_equal(game.owners, [1])


def test_single_state_minimizer_rep():
    game = build_game(0.5, [(1, [(2.0, [(0, 1.0)])])])
    assert np.array_equal(game.p, [[1.0]])
    assert np.array_equal(game.state_of_action, [0])
    assert np.array_equal(game.ownership_signs, [-1.0])


def test_g3_restrictions(g3):
    game = g3
    sigma, tau = sigma_tau(game)
    p_sigma, _ = restrict(game, sigma)
    p_tau, _ = restrict(game, tau)
    assert np.array_equal(p_sigma, [[1, 0, 0], [0, 1, 0], [1, 0, 0]])
    assert np.array_equal(p_tau, [[1, 0, 0], [0, 1, 0], [0, 1, 0]])


def test_g3_value_vectors(g3):
    game = g3
    sigma, tau = sigma_tau(game)
    assert np.allclose(value_vector(game, tau), [2.0, -2.0, 0.0], atol=1e-12)
    assert np.allclose(value_vector(game, sigma), [2.0, -2.0, 2.0], atol=1e-12)


def test_zero_costs_zero_values(three_state):
    zero = build_game(0.5, _with_costs(lambda cost: 0.0))
    for profile in ([0, 0, 0], [1, 1, 1], [0, 1, 0]):
        assert np.abs(value_vector(zero, profile)).max() <= 1e-15


def test_g3_reduced_costs(g3):
    game = g3
    sigma, tau = sigma_tau(game)
    rc_tau = reduced_costs(game, tau)
    # under tau, the unused jump of the tail state has advantage a + gamma*v(0) - v(2) = 2
    assert abs(rc_tau[4] - 2.0) <= 1e-12
    rc_sigma = reduced_costs(game, sigma)
    assert abs(rc_sigma[5] - (-2.0)) <= 1e-12


def test_chosen_actions_have_zero_reduced_cost(three_state):
    rng = np.random.default_rng(7)
    for _ in range(10):
        profile = rng.integers(0, 2, size=3)
        rc = reduced_costs(three_state, profile)
        chosen = three_state.offsets[:-1] + profile
        assert np.abs(rc[chosen]).max() <= 1e-9


def test_g3_optimality_verdicts(g3):
    game = g3
    sigma, tau = sigma_tau(game)
    ok, violations = is_optimal(game, sigma)
    assert ok and violations.size == 0
    ok, violations = is_optimal(game, tau)
    assert not ok
    assert violations.tolist() == [4]  # the tail state's jump to the +1 anchor


def test_single_action_game_always_optimal():
    game = build_game(0.9, [(1, [(1.0, [(1, 1.0)])]), (2, [(-1.0, [(0, 1.0)])])])
    ok, violations = is_optimal(game, [0, 0])
    assert ok and violations.size == 0


def _owner_rule(game, profile, tol):
    """Oracle: player-1 rows need rc >= -t and player-2 rows rc <= t, with
    the owners read from the game's file form."""
    values = value_vector(game, profile)
    rc = reduced_costs(game, profile, values)
    tol = max(tol, reduced_cost_rounding(game, values))
    owners = np.array([state["owner"] for state in game_to_dict(game)["states"]])
    owner_of_action = owners[game.state_of_action]
    bad_min = (owner_of_action == PLAYER_MIN) & (rc < -tol)
    bad_max = (owner_of_action == PLAYER_MAX) & (rc > tol)
    violations = np.flatnonzero(bad_min | bad_max)
    return violations.size == 0, violations


def test_is_optimal_reads_the_signs_as_the_owner_rule():
    # a state's owner is stored once, as its sign in S; is_optimal flags
    # S rc > t, which must agree with the owner rule row for row
    three_actions = build_game(
        0.9,
        [
            (1, [(1.0, [(0, 1.0)]), (0.5, [(1, 1.0)]), (-0.2, [(0, 0.5), (1, 0.5)])]),
            (2, [(2.0, [(0, 1.0)]), (0.0, [(1, 1.0)])]),
        ],
    )
    cases = [(three_actions, [[a, b] for a in range(3) for b in range(2)])]
    for n in range(1, 17):
        game = random_game(n, 0.9, n)
        rng = np.random.default_rng(100 + n)
        counts = np.diff(game.offsets)
        cases.append((game, [rng.integers(0, counts) for _ in range(50)]))
    verdicts = set()
    for game, profiles in cases:
        owners = [state["owner"] for state in game_to_dict(game)["states"]]
        assert game.owners.tolist() == owners
        for profile in profiles:
            # the last tolerance puts one row exactly on the threshold
            edge = float(np.abs(reduced_costs(game, profile)).max())
            for tol in (0.0, 1e-9, 0.5, edge):
                ok, violations = is_optimal(game, profile, tol)
                want_ok, want = _owner_rule(game, profile, tol)
                assert ok == want_ok and np.array_equal(violations, want)
                verdicts.add(ok)
    assert verdicts == {True, False}


def _with_costs(new_cost):
    """THREE_STATE_SPEC with each action's cost c replaced by new_cost(c)."""
    return [
        (owner, [(new_cost(cost), dist) for cost, dist in actions])
        for owner, actions in THREE_STATE_SPEC
    ]


def test_row_sum_identity():
    rng = np.random.default_rng(11)
    for gamma in (0.3, 0.9):
        game = three_state_game(gamma)
        ones_cost = build_game(gamma, _with_costs(lambda cost: 1.0))
        for profile in ([0, 0, 0], [1, 1, 1], [1, 0, 1]):
            v = value_vector(ones_cost, profile)
            assert np.abs(v - 1.0 / (1.0 - gamma)).max() <= 1e-9
        for _ in range(5):
            profile = rng.integers(0, 2, size=3)
            shifted = build_game(gamma, _with_costs(lambda cost: cost + 1.0))
            v0 = value_vector(game, profile)
            v1 = value_vector(shifted, profile)
            # adding 1 to every cost adds the geometric series 1/(1-gamma)
            assert np.abs(v1 - v0 - 1.0 / (1.0 - gamma)).max() <= 1e-9


def test_cost_scaling_homogeneity(three_state):
    lam = 3.5
    scaled = build_game(three_state.gamma, _with_costs(lambda cost: lam * cost))
    rng = np.random.default_rng(13)
    for _ in range(8):
        profile = rng.integers(0, 2, size=3)
        v = value_vector(three_state, profile)
        v_s = value_vector(scaled, profile)
        assert np.abs(v_s - lam * v).max() <= 1e-9 * max(1.0, np.abs(v).max())
        rc = reduced_costs(three_state, profile)
        rc_s = reduced_costs(scaled, profile)
        assert np.abs(rc_s - lam * rc).max() <= 1e-9 * max(1.0, np.abs(rc).max())
        assert is_optimal(three_state, profile)[0] == is_optimal(scaled, profile)[0]


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
    game = random_game(5, 0.9, 1)
    for profile, message in (
        ([2, 0, 0, 0, 0], r"^profile slot 2 out of range at state 0 \(2 actions\)$"),
        ([0, 0, -1, 0, 0], r"^profile slot -1 out of range at state 2 \(2 actions\)$"),
        ([0, 0, 0, 0], r"^profile length \(4,\) does not match 5 states$"),
        ([[0] * 5], r"^profile length \(1, 5\) does not match 5 states$"),
    ):
        with pytest.raises(GameValidationError, match=message):
            check(game, profile)


def test_profile_check_reads_each_states_action_count():
    game = build_game(0.9, REPEATED_TARGET_SPEC)  # 2, 1 and 3 actions
    assert value_vector(game, [1, 0, 2]).shape == (3,)
    with pytest.raises(GameValidationError, match=r"slot 1 .* state 1 \(1 actions\)$"):
        value_vector(game, [0, 1, 0])
    with pytest.raises(GameValidationError, match=r"slot 3 .* state 2 \(3 actions\)$"):
        value_vector(game, [0, 0, 3])


def test_json_roundtrip(tmp_path, three_state):
    d = game_to_dict(three_state)
    again = validate_game(d)
    assert game_to_dict(again) == d
    path = tmp_path / "game.json"
    save_game(three_state, str(path))
    loaded = load_game(str(path))
    assert game_to_dict(loaded) == d


def _assert_same_arrays(got, want):
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name
    assert got.gamma == want.gamma


def test_save_load_gives_the_same_arrays(tmp_path):
    games = [random_game(n, 0.9, 50 + n) for n in range(1, 65)]
    games += [hard_instance(n, 0.95, m) for n in (3, 12) for m in ("kappa", "theta")]
    # repeated targets, and a zero entry (state 3 to itself)
    zero_entry = (2, [(4.0, [(3, 0.0), (1, 1.0)])])
    games.append(build_game(0.9, REPEATED_TARGET_SPEC + [zero_entry]))
    path = tmp_path / "game.json"
    for game in games:
        save_game(game, path)
        _assert_same_arrays(load_game(path), game)
    # the file lists each action's successors once, in state order
    states = json.loads(path.read_text())["states"]
    assert states[2]["actions"] == [
        {"cost": 3.0, "dist": [[0, 0.3], [1, game.p[3, 1]]]},
        {"cost": 0.0, "dist": [[0, 1.0]]},
        {"cost": -1.0, "dist": [[1, 1.0]]},
    ]
    assert states[3]["actions"] == [{"cost": 4.0, "dist": [[1, 1.0]]}]


def test_game_json_writes_one_state_per_line():
    for game in (random_game(1, 0.5, 0), random_game(16, 0.99, 7), three_state_game()):
        text = game_json(game)
        want = game_to_dict(game)
        assert json.loads(text) == want
        lines = text.splitlines()
        assert len(lines) == game.n + 2 and text.endswith("]}\n")
        states = [json.loads(line.rstrip(",")) for line in lines[1:-1]]
        assert states == want["states"]


def test_new_and_old_indented_layouts_load_the_same_arrays(tmp_path):
    games = [
        random_game(n, gamma, seed)
        for n in (1, 2, 16, 64)
        for gamma in (0.5, 0.9, 0.9999)
        for seed in (0, 3)
    ]
    games += [
        hard_instance(n, gamma, mode)
        for n in (3, 16)
        for gamma in (0.5, 0.99)
        for mode in ("kappa", "eigenvalue", "theta")
    ]
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    for game in games:
        new.write_text(game_json(game), encoding="utf-8")
        old.write_text(json.dumps(game_to_dict(game), indent=2) + "\n", encoding="utf-8")
        from_new, from_old = load_game(new), load_game(old)
        _assert_same_arrays(from_new, from_old)
        _assert_same_arrays(from_new, game)


def _spec(raw):
    """The builder's nested form of a game in file form."""
    return [
        (s["owner"], [(a["cost"], a["dist"]) for a in s["actions"]])
        for s in raw["states"]
    ]


def _matrix_representation_loop(gamma, states):
    """Oracle: the per-entry loop that build_game's scatter replaced."""
    n = len(states)
    m = sum(len(actions) for _, actions in states)
    p = np.zeros((m, n))
    costs = np.empty(m)
    offsets = np.zeros(n + 1, dtype=np.int64)
    state_of_action = np.empty(m, dtype=np.int64)
    owners = np.empty(n, dtype=np.int64)
    row = 0
    for i, (owner, actions) in enumerate(states):
        owners[i] = owner
        offsets[i] = row
        for cost, dist in actions:
            costs[row] = cost
            for j, prob in dist:
                p[row, j] += prob
            state_of_action[row] = i
            row += 1
    offsets[n] = row
    signs = np.where(owners == PLAYER_MIN, -1.0, 1.0)
    return types.SimpleNamespace(
        gamma=gamma,
        p=p,
        costs=costs,
        ownership_signs=signs,
        offsets=offsets,
        state_of_action=state_of_action,
        owners=owners,
    )


# repeated targets whose sums depend on the order of accumulation:
# (0.1 + 0.2) + 0.7 != 0.1 + (0.2 + 0.7) in floating point
REPEATED_TARGET_SPEC = [
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
]


def test_build_game_matches_entry_loop():
    specs = [(0.5, THREE_STATE_SPEC), (0.9, REPEATED_TARGET_SPEC)]
    specs += [
        (0.9, _spec(game_to_dict(random_game(n, 0.9, 40 + n)))) for n in (1, 2, 7, 33, 64)
    ]
    specs += [
        (0.99, _spec(game_to_dict(hard_instance(12, 0.99, mode))))
        for mode in ("kappa", "theta")
    ]
    assert (0.1 + 0.2) + 0.7 != 0.1 + (0.2 + 0.7)
    for gamma, states in specs:
        want = _matrix_representation_loop(gamma, states)
        _assert_same_arrays(build_game(gamma, states), want)
    game = build_game(0.9, REPEATED_TARGET_SPEC)
    assert game.p[0, 0] == (0.0 + 0.1) + 0.7
    assert game.p[2, 2] == ((0.0 + 0.1) + 0.2) + 0.7


def test_build_game_refuses_targets_out_of_range():
    states = [(1, [(1.0, [(0, 0.5), (1, 0.5)])])]
    with pytest.raises(IndexError):
        _matrix_representation_loop(0.5, states)
    with pytest.raises(IndexError):
        build_game(0.5, states)
