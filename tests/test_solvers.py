"""Value iteration, strategy iteration, and brute force against each other."""

import math

import numpy as np
import pytest

from gamelcp import game as game_module
from gamelcp import solvers
from gamelcp.game import (
    PLAYER_MIN,
    GameValidationError,
    build_game,
    is_optimal,
    reduced_cost_rounding,
    reduced_costs,
    value_vector,
)
from gamelcp.lcp import to_lcp, verify_solution
from gamelcp.solvers import (
    SolveResult,
    SolverFailure,
    bellman_backup,
    brute_force_solve,
    greedy_profile,
    strategy_iteration,
    value_iteration,
)
from gamelcp._kernels import SingularMatrixError
from gamelcp.bench import random_game

from conftest import three_state_game, hard_instance, sigma_tau


def test_g3_first_bellman_iterate(g3):
    game = g3
    v1 = bellman_backup(game, np.zeros(3))
    assert np.array_equal(v1, [1.0, -1.0, 1.0])


def _two_reduceat_backup(game, v):
    # the backup as first written: both reductions, then pick per owner
    y = game.costs + game.gamma * (game.p @ v)
    starts = game.offsets[:-1]
    mins = np.minimum.reduceat(y, starts)
    maxs = np.maximum.reduceat(y, starts)
    return np.where(game.owners == PLAYER_MIN, mins, maxs)


def _uneven_game(gamma=0.9):
    # 1- and 3-action states of both owners, for uneven segments
    return build_game(
        gamma,
        [
            (1, [(1.5, [(1, 1.0)])]),
            (2, [(-2.0, [(0, 0.5), (2, 0.5)]), (3.0, [(1, 1.0)]), (0.25, [(2, 1.0)])]),
            (1, [(4.0, [(0, 1.0)]), (-1.0, [(1, 0.3), (2, 0.7)]), (0.0, [(2, 1.0)])]),
            (2, [(-7.0, [(3, 1.0)])]),
        ],
    )


def test_bellman_backup_matches_two_reduceat_oracle():
    # max(y) = -min(-y) is exact, so the signed reduction is bit-identical;
    # the hand-built game has 1- and 3-action states for uneven segments
    uneven = _uneven_game()
    games = [uneven] + [random_game(n, 0.95, seed=700 + n) for n in (1, 5, 16, 64)]
    rng = np.random.default_rng(17)
    for game in games:
        for _ in range(20):
            v = rng.normal(scale=10.0, size=game.n)
            assert np.array_equal(bellman_backup(game, v), _two_reduceat_backup(game, v))
    assert {1, 2} <= set(uneven.owners.tolist())


def test_bellman_fixed_point(g3):
    game = g3
    v_star = np.array([2.0, -2.0, 2.0])
    assert np.abs(bellman_backup(game, v_star) - v_star).max() <= 1e-12


def test_value_iteration_g3(g3):
    game = g3
    res = value_iteration(game, eps=1e-8)
    assert np.allclose(res.values, [2.0, -2.0, 2.0], atol=1e-8)
    assert res.iterations >= 1


def test_value_iteration_accuracy_guarantee():
    rng = np.random.default_rng(21)
    for k in range(10):
        game = random_game(5, float(rng.uniform(0.2, 0.9)), seed=100 + k)
        oracle = brute_force_solve(game)
        res = value_iteration(game, eps=1e-6)
        assert np.abs(res.values - oracle.values).max() <= 1e-6
        # the returned profile certifies at the tolerance VI checks it at
        assert is_optimal(game, res.profile, 1e-6 * (1 - game.gamma), values=res.values)[0]


@pytest.mark.parametrize("n", [16, 64])
def test_value_iteration_certifies_near_gamma_one(n):
    # at gamma 0.9999, eps (1 - gamma) = 1e-13 lies below the rounding of the
    # reduced costs: checked at it alone, 9 of these 10 games fail on
    # rounding.  At the rounding level every game certifies within a few
    # blocks, at strategy iteration's profile
    for seed in range(1, 6):
        game = random_game(n, 0.9999, seed)
        res = value_iteration(game, eps=1e-9)
        want = strategy_iteration(game)
        assert res.iterations <= 12 * solvers.VI_BLOCK
        assert np.array_equal(res.profile, want.profile)
        assert np.array_equal(res.values, want.values)
        level = reduced_cost_rounding(game, res.values)
        assert level > 1e-9 * (1 - game.gamma)
        assert is_optimal(game, res.profile, level, values=res.values)[0]


def test_value_iteration_contraction():
    game = hard_instance(4, 0.8, a=2.0)
    oracle = brute_force_solve(game)
    v = np.zeros(4)
    err = np.abs(v - oracle.values).max()
    for _ in range(60):
        v = bellman_backup(game, v)
        new_err = np.abs(v - oracle.values).max()
        assert new_err <= game.gamma * err + 1e-12
        err = new_err


def test_strategy_iteration_from_tau(g3):
    game = g3
    _, tau = sigma_tau(game)
    res = strategy_iteration(game, initial_profile=tau)
    assert np.allclose(res.values, [2.0, -2.0, 2.0], atol=1e-12)
    assert res.profile[2] == 0  # tail state switched to the sigma slot
    assert res.iterations == 1


def test_strategy_iteration_zero_switches_at_optimum(g3):
    game = g3
    sigma, _ = sigma_tau(game)
    res = strategy_iteration(game, initial_profile=sigma)
    assert res.iterations == 0
    assert np.array_equal(res.profile, sigma)


def test_strategy_iteration_checks_its_initial_profile():
    game = random_game(5, 0.9, 1)
    for profile, message in (
        ([2, 0, 0, 0, 0], r"^profile slot 2 out of range at state 0 \(2 actions\)$"),
        ([0, 0, -1, 0, 0], r"^profile slot -1 out of range at state 2 \(2 actions\)$"),
        ([0, 0, 0, 0], r"^profile length \(4,\) does not match 5 states$"),
    ):
        with pytest.raises(GameValidationError, match=message):
            strategy_iteration(game, initial_profile=profile)


def test_strategy_iteration_improves_single_player_games():
    # maximizer-only games: all-switch rounds never decrease any value
    rng = np.random.default_rng(23)
    made = 0
    for k in range(40):
        game = random_game(6, 0.7, seed=300 + k)
        if np.any(game.owners != 2):
            continue
        made += 1
        choice = np.zeros(6, dtype=np.int64)
        for _ in range(20):
            v = value_vector(game, choice)
            rc = reduced_costs(game, choice, v)
            new_choice = choice.copy()
            for i in range(6):
                seg = rc[game.offsets[i] : game.offsets[i + 1]]
                if seg.max() > 1e-9:
                    new_choice[i] = int(np.argmax(seg))
            if np.array_equal(new_choice, choice):
                break
            v_new = value_vector(game, new_choice)
            assert np.all(v_new >= v - 1e-9)
            assert v_new.max() > v.max() - 1e-12  # strict somewhere
            choice = new_choice
    assert made >= 1


@pytest.mark.parametrize(
    "call",
    [
        lambda game, lcp: is_optimal(game, [0, 0, 0], math.nan),
        lambda game, lcp: brute_force_solve(game, tol=math.nan),
        lambda game, lcp: strategy_iteration(game, tol=math.nan),
        lambda game, lcp: value_iteration(game, eps=math.nan),
        lambda game, lcp: verify_solution(lcp, lcp.q, np.zeros(3), math.nan),
    ],
    ids=["is_optimal", "brute", "si", "vi", "verify_solution"],
)
def test_a_nan_tolerance_is_refused(g3, call):
    # every comparison with NaN is false, so an unchecked NaN tolerance
    # passes every optimality test (si and brute) or none (vi, the LCP checks)
    game = g3
    with pytest.raises(ValueError, match="got nan"):
        call(game, to_lcp(game))


def test_a_nan_cost_leaves_no_optimal_profile():
    # build_game takes a NaN cost unchecked; the profile holding it has NaN
    # values, which each method once returned as optimal
    nan_cost = (math.nan, [(0, 1.0)])
    game = build_game(
        0.9,
        [(1, [nan_cost, (1.0, [(1, 1.0)])]), (2, [(0.0, [(1, 1.0)]), (2.0, [(0, 1.0)])])],
    )
    for solve in (value_iteration, strategy_iteration, brute_force_solve):
        with pytest.raises(ArithmeticError, match="values are not finite"):
            solve(game)
    with pytest.raises(ArithmeticError, match="reduced costs or their rounding are not finite"):
        is_optimal(game, [0, 0], values=np.full(2, math.nan))


def test_values_near_the_float_range_leave_no_verdict():
    # the values near 1e308 are finite, but their reduced costs' rounding
    # level overflows, and a check at an infinite tolerance once passed SI's
    # all-slot-0 start, which is not optimal
    game = random_game(4, 0.99, 1)
    game.costs = game.costs * (1e308 / np.abs(strategy_iteration(game).values).max())
    for solve in (value_iteration, strategy_iteration):
        with pytest.raises(ArithmeticError, match="rounding are not finite"):
            solve(game)


def test_brute_force_g3(g3):
    game = g3
    res = brute_force_solve(game)
    assert np.array_equal(res.profile, [0, 0, 0])
    assert np.allclose(res.values, [2.0, -2.0, 2.0], atol=1e-12)


def test_brute_force_single_action_game():
    game = build_game(0.9, [(1, [(1.0, [(1, 1.0)])]), (2, [(-1.0, [(0, 1.0)])])])
    res = brute_force_solve(game)
    assert np.array_equal(res.profile, [0, 0])


def test_brute_force_cap():
    game = hard_instance(21, 0.5, a=1.0)  # 2^21 profiles exceeds the cap
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


def test_vi_si_and_brute_force_agree_bit_for_bit_near_gamma_one():
    # each reports value_vector of its profile, so equal profiles give
    # equal values
    for n in range(1, 9):
        for seed in range(20):
            game = random_game(n, 0.9999, seed)
            brute = brute_force_solve(game)
            for result in (value_iteration(game), strategy_iteration(game)):
                np.testing.assert_array_equal(result.profile, brute.profile)
                np.testing.assert_array_equal(result.values, brute.values)


# The stepwise, per-state solvers, with the two-reduceat backup for
# bellman_backup, as bit-exact oracles for the signed, block-checked and
# loop-free versions.


def _oracle_greedy_profile(game, v):
    y = game.costs + game.gamma * (game.p @ np.asarray(v, dtype=np.float64))
    n = game.n
    choice = np.empty(n, dtype=np.int64)
    for i in range(n):
        seg = y[game.offsets[i] : game.offsets[i + 1]]
        choice[i] = np.argmin(seg) if game.owners[i] == PLAYER_MIN else np.argmax(seg)
    return choice


def _oracle_value_iteration(game, eps=1e-8):
    # the certificate at every iterate that ends a block: the greedy
    # profile, unless checked before, is solved and checked at eps (1 - gamma)
    # with the is_optimal the solver uses
    tau = eps * (1.0 - game.gamma)
    checked = []
    v = np.zeros(game.n)
    for it in range(1, solvers.VI_MAX_ITERS + 1):
        v = _two_reduceat_backup(game, v)
        if it % solvers.VI_BLOCK == 0:
            choice = _oracle_greedy_profile(game, v)
            if not any(np.array_equal(choice, c) for c in checked):
                checked.append(choice)
                values = value_vector(game, choice)
                if solvers.is_optimal(game, choice, tau, values=values)[0]:
                    return SolveResult(values, choice, it)
    raise SolverFailure(
        f"value iteration certified no profile within {solvers.VI_MAX_ITERS} "
        "iterations",
        profiles_checked=len(checked),
    )


def _oracle_switch(game, choice, rc, tol):
    switched = False
    new_choice = choice.copy()
    for i in range(game.n):
        seg = rc[game.offsets[i] : game.offsets[i + 1]]
        if game.owners[i] == PLAYER_MIN:
            best = int(np.argmin(seg))
            improving = seg[best] < -tol
        else:
            best = int(np.argmax(seg))
            improving = seg[best] > tol
        if improving:
            new_choice[i] = best
            switched = True
    return new_choice if switched else None


def _oracle_strategy_iteration(game, tol=1e-9):
    # switches past tol floored at the reduced costs' rounding level, the
    # floor is_optimal applies
    choice = np.zeros(game.n, dtype=np.int64)
    rounds = 0
    while True:
        v = value_vector(game, choice)
        floor_tol = max(tol, reduced_cost_rounding(game, v))
        new_choice = _oracle_switch(game, choice, reduced_costs(game, choice, v), floor_tol)
        if new_choice is None:
            return SolveResult(v, choice, rounds)
        choice = new_choice
        rounds += 1


def _oracle_games():
    # at gamma 0.1 and 0.3 the iterates settle long before the first block end
    gammas = (0.1, 0.3, 0.5, 0.9, 0.99, 0.999)
    games = [_uneven_game(g) for g in gammas]
    for n in (1, 5, 16, 64):
        for gamma in gammas:
            games.append(random_game(n, gamma, seed=900 + n))
    return games


def _same_result(got, want):
    assert got.iterations == want.iterations
    assert got.profile.dtype == want.profile.dtype
    assert np.array_equal(got.profile, want.profile)
    assert np.array_equal(got.values, want.values)


def test_value_iteration_certificate_matches_stepwise_oracle():
    for game in _oracle_games():
        got = value_iteration(game)
        _same_result(got, _oracle_value_iteration(game))
        assert got.iterations % solvers.VI_BLOCK == 0


@pytest.mark.parametrize("cap", [1, 7, solvers.VI_BLOCK, 2 * solvers.VI_BLOCK + 5])
def test_value_iteration_cap_matches_oracle(cap, monkeypatch):
    # a run that never certifies fails at the cap, having checked each
    # distinct block-end profile once
    game = random_game(16, 0.999, seed=916)
    monkeypatch.setattr(solvers, "is_optimal", lambda *args, **kwargs: (False, None))
    monkeypatch.setattr(solvers, "VI_MAX_ITERS", cap)
    with pytest.raises(SolverFailure) as want:
        _oracle_value_iteration(game)
    with pytest.raises(SolverFailure) as got:
        value_iteration(game)
    assert str(got.value) == str(want.value)
    assert got.value.context == want.value.context
    checked = got.value.context["profiles_checked"]
    assert (checked >= 1) == (cap >= solvers.VI_BLOCK)
    assert checked <= cap // solvers.VI_BLOCK


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("gamma", [0.9, 0.99])
@pytest.mark.parametrize("a_mode", ["kappa", "eigenvalue", "theta"])
def test_value_iteration_certifies_the_hard_family_at_the_first_block(n, gamma, a_mode):
    game = hard_instance(n, gamma, a_mode=a_mode)
    res = value_iteration(game)
    assert res.iterations == solvers.VI_BLOCK
    assert is_optimal(game, res.profile, 1e-8 * (1 - gamma), values=res.values)[0]


def test_value_iteration_certifies_at_eps_times_one_minus_gamma():
    # state 0's second action leads to a state worth 0 instead of 200 and
    # is better by 7.5e-9: between tau = eps (1 - gamma) = 5e-9 and eps.
    # The iterate at the first block end still prefers the first action, a
    # profile that passes at eps but not at tau, so the run goes on to the
    # second block end, iterate 64, and certifies the second action there.
    eps, gamma = 1e-8, 0.5
    game = build_game(
        gamma,
        [
            (1, [(7.5e-9, [(1, 1.0)]), (100.0, [(2, 1.0)])]),
            (1, [(100.0, [(1, 1.0)])]),
            (1, [(0.0, [(2, 1.0)])]),
        ],
    )
    v = np.zeros(3)
    for _ in range(solvers.VI_BLOCK):
        v = bellman_backup(game, v)
    early = greedy_profile(game, v)
    assert early.tolist() == [0, 0, 0]
    assert is_optimal(game, early, eps)[0]
    assert not is_optimal(game, early, eps * (1 - gamma))[0]
    res = value_iteration(game, eps=eps)
    assert res.iterations == 2 * solvers.VI_BLOCK
    assert res.profile.tolist() == [1, 0, 0]


def test_value_iteration_solves_each_profile_once(monkeypatch):
    solved = []

    def counted(game, profile):
        solved.append(bytes(np.asarray(profile, dtype=np.int64)))
        return value_vector(game, profile)

    monkeypatch.setattr(solvers, "value_vector", counted)
    games = _oracle_games() + [hard_instance(16, 0.99, a_mode="kappa")]
    for game in games:
        for eps in (1e-8, 1e-12):
            solved.clear()
            value_iteration(game, eps=eps)
            assert 1 <= len(solved) == len(set(solved))


def test_value_iteration_fails_early_near_gamma_one():
    # the first block end's value solve refuses the near-singular system
    # instead of iterating to the cap
    game = random_game(16, 1 - 1e-14, 1)
    with pytest.raises(SingularMatrixError, match="condition number bound 2.047e"):
        value_iteration(game, eps=1e-9)


def _tie_game():
    # duplicated actions give exact ties in 1-, 2- and 3-action states
    twin = (1.0, [(0, 0.5), (1, 0.5)])
    return build_game(
        0.9,
        [
            (1, [twin, twin, (2.0, [(2, 1.0)])]),
            (2, [twin, (1.0, [(1, 0.5), (0, 0.5)]), twin]),
            (1, [(0.0, [(2, 1.0)])]),
            (2, [(3.0, [(3, 1.0)]), (3.0, [(3, 1.0)])]),
        ],
    )


def test_greedy_profile_matches_per_state_oracle():
    rng = np.random.default_rng(31)
    for game in [_tie_game(), _uneven_game()] + _oracle_games()[4::3]:
        # integer values and costs tie often; v = 0 ties every twin
        vs = [np.zeros(game.n)] + [rng.integers(-2, 3, game.n).astype(float) for _ in range(20)]
        vs += [rng.normal(size=game.n) for _ in range(5)]
        for v in vs:
            got = greedy_profile(game, v)
            assert got.dtype == np.int64
            assert np.array_equal(got, _oracle_greedy_profile(game, v))
    game = _tie_game()
    assert greedy_profile(game, np.zeros(4)).tolist() == [0, 0, 0, 0]


def _first_round(game, choice, rc, tol, monkeypatch):
    """SI's first round from ``choice`` when the reduced costs of ``choice``
    are ``rc`` (and 0 at every later profile), with is_optimal's verdict on
    ``choice``: (profile after the round or None, flagged states)."""
    def fake(game_, profile, values=None):
        same = np.array_equal(np.asarray(profile), choice)
        return rc.copy() if same else np.zeros(len(game_.costs))

    monkeypatch.setattr(game_module, "reduced_costs", fake)
    monkeypatch.setattr(solvers, "reduced_costs", fake)
    flagged = set(game.state_of_action[is_optimal(game, choice, tol)[1]].tolist())
    res = strategy_iteration(game, initial_profile=choice, tol=tol)
    monkeypatch.undo()
    assert res.iterations in (0, 1)
    return (res.profile if res.iterations else None), flagged


def test_switch_rule_matches_per_state_oracle(monkeypatch):
    # SI switches the states is_optimal flags, each to its first best; the
    # reduced costs are drawn where the rule's edges lie: exact ties and
    # values exactly at -tol, 0 and +tol
    rng = np.random.default_rng(37)
    tol = 0.25
    for game in (_tie_game(), _uneven_game(), random_game(16, 0.9, seed=3)):
        m = game.p.shape[0]
        choice = np.zeros(game.n, dtype=np.int64)
        chosen = game.offsets[:-1] + choice
        for _ in range(200):
            rc = rng.choice([-2 * tol, -tol, 0.0, tol, 2 * tol], size=m)
            rc[chosen] = 0.0  # a profile's own actions cost nothing against its values
            want = _oracle_switch(game, choice, rc, tol)
            got, flagged = _first_round(game, choice, rc, tol, monkeypatch)
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got, want)
            switched = set() if want is None else set(np.flatnonzero(want != choice).tolist())
            assert flagged == switched
    game = _tie_game()
    choice = np.array([2, 1, 0, 1])
    # reduced costs exactly at +-tol pass is_optimal and switch nothing
    for edge in (tol, -tol):
        rc = np.full(9, edge)
        rc[game.offsets[:-1] + choice] = 0.0
        assert _first_round(game, choice, rc, tol, monkeypatch) == (None, set())
    # a state improves past tol to its lowest tied slot, others keep theirs
    rc = np.array([-1.0, -1.0, 0.0, 1.0, 0.0, 1.0, 0.0, tol, 0.0])
    got, flagged = _first_round(game, choice, rc, tol, monkeypatch)
    assert got.tolist() == [0, 0, 0, 1] and flagged == {0, 1}
    # a NaN reduced cost leaves no verdict, and SI raises
    rc[1] = np.nan
    monkeypatch.setattr(game_module, "reduced_costs", lambda *args, **kwargs: rc.copy())
    with pytest.raises(ArithmeticError, match="reduced costs or their rounding are not finite"):
        strategy_iteration(game, initial_profile=choice, tol=tol)


def test_strategy_iteration_matches_per_state_oracle():
    for game in [_tie_game()] + _oracle_games():
        _same_result(strategy_iteration(game), _oracle_strategy_iteration(game))


@pytest.mark.parametrize("tol", [0.0, 1e-12])
def test_strategy_iteration_matches_the_oracle_where_the_rounding_floor_binds(tol):
    # optimal values near 8e6 put the reduced costs' rounding level near
    # 1.5e-8, past tol and past the default 1e-9
    game = random_game(64, 0.999999, 1)
    want = _oracle_strategy_iteration(game, tol)
    assert reduced_cost_rounding(game, want.values) > 1e-9
    _same_result(strategy_iteration(game, tol=tol), want)
