"""The bad-conditioning family: builder, closed forms, predicted measures."""

import itertools
import math

import numpy as np
import pytest

from conftest import hard_instance, sigma_tau
from oracles import closed_forms, gaussian_sample
from gamelcp.conditioning import (
    _kappa_batch,
    _theta_batch,
    certify,
    kappa_at,
    smallest_eigenvalue_sym,
    theta_at,
)
from gamelcp.game import PLAYER_MAX, is_optimal, restrict, value_vector
from gamelcp.hard_instances import (
    A_MODES,
    build_hard_instance,
    exact_conditioning,
    hard_cost,
    predicted_eig_ub,
    predicted_kappa_lb,
    predicted_theta_ub,
)
from gamelcp.lcp import reduction, to_lcp
from gamelcp.solvers import brute_force_solve

GRID = [
    (3, 0.5),
    (4, 0.5),
    (10, 0.5),
    (6, 0.9),
    (16, 0.75),
    (10, 0.99),
]


def beta_of(gamma):
    return gamma / (1.0 - gamma)


# -- builder shape ------------------------------------------------------------


def test_builder_shape_and_partition():
    game = hard_instance(7, 0.6, a_mode="kappa")
    assert game.n == 7
    assert np.array_equal(game.owners, [PLAYER_MAX] * 7)
    assert np.array_equal(game.offsets, np.arange(0, 16, 2))
    # the family's partition is its action order: sigma (slot 0) jumps to
    # anchor 0 and tau (slot 1) to anchor 1 from every tail state
    sigma, tau = sigma_tau(game)
    p_sig, _ = restrict(game, sigma)
    p_tau, _ = restrict(game, tau)
    assert np.array_equal(p_sig[2:], np.tile(np.eye(7)[0], (5, 1)))
    assert np.array_equal(p_tau[2:], np.tile(np.eye(7)[1], (5, 1)))
    red = reduction(game)
    assert np.array_equal(red.b_sig, np.eye(7) - 0.6 * p_sig)
    assert np.array_equal(red.b_tau, np.eye(7) - 0.6 * p_tau)


def test_anchor_states_have_duplicate_self_loops():
    game = hard_instance(5, 0.5, a_mode="theta")
    for i in (0, 1):
        first, second = 2 * i, 2 * i + 1
        assert np.array_equal(game.p[first], game.p[second])
        assert game.costs[first] == game.costs[second]
        assert np.array_equal(game.p[first], np.eye(5)[i])
    assert game.costs[0] == 1.0
    assert game.costs[2] == -1.0


def test_tail_states_jump_to_the_anchors():
    game = build_hard_instance(6, 0.8, 3.0)
    for i in range(2, 6):
        to_zero, to_one = 2 * i, 2 * i + 1
        assert game.costs[to_zero] == 3.0 and game.costs[to_one] == 3.0
        assert np.array_equal(game.p[to_zero], np.eye(6)[0])
        assert np.array_equal(game.p[to_one], np.eye(6)[1])


# -- closed forms vs the actual game ------------------------------------------


@pytest.mark.parametrize("n,gamma", GRID)
@pytest.mark.parametrize("mode", ["kappa", "eigenvalue", "theta"])
def test_closed_forms_match_game(n, gamma, mode):
    game = hard_instance(n, gamma, mode)
    _, tau = sigma_tau(game)
    forms = closed_forms(n, gamma, hard_cost(n, gamma, mode))

    _, c_tau = restrict(game, tau)
    assert np.array_equal(c_tau, forms.c_tau)

    v_tau = value_vector(game, tau)
    scale = 1.0 + np.abs(forms.v_tau).max()
    assert np.abs(v_tau - forms.v_tau).max() <= 1e-9 * scale

    lcp = to_lcp(game)
    image = lcp.m @ forms.c_tau
    assert np.abs(image - forms.image).max() <= 1e-9 * (1.0 + np.abs(image).max())
    assert np.array_equal(forms.products, forms.c_tau * forms.image)


def test_closed_form_entries_at_a_known_point():
    forms = closed_forms(10, 0.5, hard_cost(10, 0.5, "kappa"))
    assert forms.a == 1.0 and forms.beta == 1.0
    assert np.array_equal(forms.c_tau, [1.0, -1.0] + [1.0] * 8)
    assert np.array_equal(forms.v_tau, [2.0, -2.0] + [0.0] * 8)
    assert np.array_equal(forms.image, [1.0, -1.0] + [-1.0] * 8)
    assert np.array_equal(forms.products, [1.0, 1.0] + [-1.0] * 8)


def test_doubled_cost_zeroes_the_image_tail():
    # a = 2 beta makes every tail row of M c_tau vanish
    forms = closed_forms(10, 0.5, 2.0)
    assert np.array_equal(forms.image[2:], np.zeros(8))
    assert np.array_equal(forms.products[2:], np.zeros(8))


def test_matrix_structure_identity_plus_anchor_columns():
    n, gamma = 8, 0.7
    game = hard_instance(n, gamma, a_mode="kappa")
    lcp = to_lcp(game)
    beta = beta_of(gamma)
    expected = np.eye(n)
    expected[2:, 1] = beta
    expected[2:, 0] = -beta
    assert np.abs(lcp.m - expected).max() <= 1e-12 * (1.0 + beta)


def test_matrix_ignores_the_cost_knob():
    base = None
    for a in [hard_cost(6, 0.7, mode) for mode in A_MODES] + [0.123]:
        m = to_lcp(build_hard_instance(6, 0.7, a)).m
        if base is None:
            base = m
        else:
            assert np.array_equal(m, base)


# -- predicted conditioning numbers -------------------------------------------


def test_predicted_kappa_spot_values():
    assert predicted_kappa_lb(10, 0.5) == 0.75
    assert predicted_kappa_lb(3, 0.5) == -0.125
    assert predicted_kappa_lb(10, 0.9) == pytest.approx(80.75, rel=1e-12)


def test_predicted_eigenvalue_spot_values():
    assert predicted_eig_ub(10, 0.5) == pytest.approx(-1.0, abs=1e-12)
    assert predicted_eig_ub(4, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert predicted_eig_ub(10, 0.9) == pytest.approx(-17.0, rel=1e-12)


def test_predicted_theta_spot_values():
    assert predicted_theta_ub(10, 0.5) == 1.0 / 32.0
    assert predicted_theta_ub(3, 0.5) == 0.25
    assert predicted_theta_ub(10, 0.9) == pytest.approx(0.01 / 25.92, rel=1e-12)


@pytest.mark.parametrize("pred", [predicted_kappa_lb, predicted_eig_ub, predicted_theta_ub])
def test_predictions_refuse_tiny_n(pred):
    with pytest.raises(ValueError, match="n >= 3"):
        pred(2, 0.5)
    # and a discount outside (0, 1), as the fences do
    for gamma in (1.0, 1.5, 0.0, -0.5, math.nan):
        with pytest.raises(ValueError, match="gamma must lie strictly"):
            pred(10, gamma)


@pytest.mark.parametrize("n,gamma", GRID)
def test_kappa_witness_achieves_the_prediction(n, gamma):
    game = hard_instance(n, gamma, a_mode="kappa")
    lcp = to_lcp(game)
    forms = closed_forms(n, gamma, hard_cost(n, gamma, "kappa"))
    predicted = predicted_kappa_lb(n, gamma)
    got = kappa_at(lcp.m, forms.c_tau)
    if predicted > 0.0:
        assert got == pytest.approx(predicted, rel=1e-9)
    else:
        # certificate is vacuous below the size threshold
        assert got == 0.0


@pytest.mark.parametrize("n,gamma", GRID)
def test_eigenvalue_witness_bounds_the_spectrum(n, gamma):
    game = hard_instance(n, gamma, a_mode="eigenvalue")
    lcp = to_lcp(game)
    forms = closed_forms(n, gamma, hard_cost(n, gamma, "eigenvalue"))
    predicted = predicted_eig_ub(n, gamma)
    sym = 0.5 * (lcp.m + lcp.m.T)
    x = forms.c_tau
    rayleigh = float(x @ sym @ x) / float(x @ x)
    assert rayleigh == pytest.approx(predicted, rel=1e-9, abs=1e-12)
    lam, _ = smallest_eigenvalue_sym(lcp.m)
    assert lam <= predicted + 1e-9 * (1.0 + abs(predicted))


@pytest.mark.parametrize("n,gamma", GRID)
def test_theta_witness_sits_under_the_fence(n, gamma):
    game = hard_instance(n, gamma, a_mode="theta")
    lcp = to_lcp(game)
    forms = closed_forms(n, gamma, hard_cost(n, gamma, "theta"))
    fence = predicted_theta_ub(n, gamma)
    got = theta_at(lcp.m, forms.c_tau)
    # exact witness value: anchors carry the only nonzero products
    exact = 1.0 / float(forms.c_tau @ forms.c_tau)
    assert got == pytest.approx(exact, rel=1e-9)
    assert got <= fence + 1e-12


# -- exact measures -------------------------------------------------------------

# a float M and x round the scores; no estimate may cross an exact value by
# more than this, relative
ROUNDING_MARGIN = 1e-12


def kappa_direction(n, gamma):
    x = np.full(n, -beta_of(gamma) / 2.0)
    x[0], x[1] = -0.5, 0.5
    return x


@pytest.mark.parametrize("n", [3, 4, 8, 17, 64])
@pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9, 0.99])
def test_exact_measures_are_attained(n, gamma):
    lcp = to_lcp(hard_instance(n, gamma, a_mode="kappa"))
    exact = exact_conditioning(n, gamma)
    assert exact.kappa == max(0.0, predicted_kappa_lb(n, gamma))
    assert exact.delta == predicted_eig_ub(n, gamma)
    assert np.linalg.norm(exact.theta_direction) == pytest.approx(1.0, rel=1e-15)
    assert theta_at(lcp.m, exact.theta_direction) == pytest.approx(exact.theta, rel=1e-9)
    got = kappa_at(lcp.m, kappa_direction(n, gamma))
    if exact.kappa > 0.0:
        assert got == pytest.approx(exact.kappa, rel=1e-9)
    else:
        assert got == 0.0
    lam, _ = smallest_eigenvalue_sym(lcp.m)
    assert lam == pytest.approx(exact.delta, rel=1e-9, abs=1e-12)
    # the theta-mode fence lies above theta
    assert exact.theta < predicted_theta_ub(n, gamma)


def test_exact_measures_spot_values():
    # gamma 0.5: beta 1 and r = 1 + sqrt(2)
    exact = exact_conditioning(10, 0.5)
    assert exact.kappa == 0.75 and exact.delta == pytest.approx(-1.0, abs=1e-12)
    assert exact.theta == pytest.approx(1.0 / (2.0 + 8.0 * (1.0 + math.sqrt(2.0)) ** 2))
    assert exact_conditioning(3, 0.5).kappa == 0.0
    with pytest.raises(ValueError, match="n >= 3"):
        exact_conditioning(2, 0.5)


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("gamma", [0.5, 0.9, 0.99])
def test_gaussian_directions_never_beat_the_exact_measures(n, gamma):
    lcp = to_lcp(hard_instance(n, gamma, a_mode="kappa"))
    exact = exact_conditioning(n, gamma)
    x_rows, y_rows = gaussian_sample(lcp.m, 100_000, seed=n)
    kappa = float(_kappa_batch(x_rows, y_rows).max())
    theta = float(_theta_batch(x_rows, y_rows).min())
    assert kappa <= exact.kappa * (1.0 + ROUNDING_MARGIN) + ROUNDING_MARGIN
    assert theta >= exact.theta * (1.0 - ROUNDING_MARGIN)


@pytest.mark.parametrize("mode", ["kappa", "eigenvalue", "theta"])
def test_certify_never_crosses_the_exact_measures(mode):
    # every cell of the bench sweep: no estimate, theta's Newton finish
    # included, may cross an exact measure
    for n in (8, 12, 16, 24, 32, 48, 64):
        for gamma in (0.5, 0.8, 0.9, 0.95, 0.99):
            exact = exact_conditioning(n, gamma)
            report = certify(
                to_lcp(hard_instance(n, gamma, a_mode=mode)),
                seed=0,
                samples=2000,
            )
            assert report.kappa_est <= exact.kappa * (1.0 + ROUNDING_MARGIN)
            assert report.theta_est >= exact.theta * (1.0 - ROUNDING_MARGIN)
            if mode == "theta":
                assert report.theta_est <= predicted_theta_ub(n, gamma)


SWEEP_NS = (8, 12, 16, 24, 32, 48, 64)
SWEEP_GAMMAS = (0.5, 0.8, 0.9, 0.95, 0.99)


@pytest.mark.parametrize("m, mode", list(enumerate(A_MODES)))
def test_certify_finds_the_exact_kappa_at_every_sweep_cell(m, mode):
    # perfbench's sweep_hard at workload seed 19: run_bench seeds mode m's
    # cells 1900 + 35 m + idx.  Kappa's Dinkelbach finish reaches the exact
    # kappa on every cell; the climb alone gave 0 against 5.5 on the
    # theta-mode cell (48, 0.5)
    cells = list(itertools.product(SWEEP_NS, SWEEP_GAMMAS))
    for idx, (n, gamma) in enumerate(cells):
        exact = exact_conditioning(n, gamma).kappa
        lcp = to_lcp(hard_instance(n, gamma, a_mode=mode))
        report = certify(lcp, seed=1900 + len(cells) * m + idx, samples=2000)
        assert report.kappa_est == pytest.approx(exact, rel=1e-12, abs=0.0), (n, gamma)


# -- the cost knob ------------------------------------------------------------


def test_hard_cost_per_mode():
    # bit for bit the costs the three modes have always named
    assert A_MODES == ("kappa", "eigenvalue", "theta")
    for n, gamma in GRID + [(64, 0.999), (1000, 0.3)]:
        assert hard_cost(n, gamma, "kappa") == gamma / (1.0 - gamma)
        assert hard_cost(n, gamma, "eigenvalue") == math.sqrt(2.0 / (n - 2))
        assert hard_cost(n, gamma, "theta") == 2.0 * gamma / (1.0 - gamma)
    assert (hard_cost(10, 0.5, "kappa"), hard_cost(10, 0.5, "theta")) == (1.0, 2.0)
    assert hard_cost(10, 0.5, "eigenvalue") == 0.5


def test_hard_family_refuses_bad_parameters():
    for mode in ("sharp", "custom"):
        with pytest.raises(ValueError, match="a_mode must be one of"):
            hard_cost(5, 0.5, mode)
    for n, gamma, match in ((2, 0.5, "n >= 3"), (5, 1.0, "gamma must lie strictly")):
        with pytest.raises(ValueError, match=match):
            build_hard_instance(n, gamma, 1.0)
        with pytest.raises(ValueError, match=match):
            hard_cost(n, gamma, "eigenvalue")
    for a in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="a must be finite"):
            build_hard_instance(5, 0.5, a)
    # any finite a builds, the largest float included
    assert build_hard_instance(5, 0.5, -1.7976931348623157e308).costs[4] < 0.0


# -- the family's optimum -----------------------------------------------------


@pytest.mark.parametrize("n", [3, 4])
def test_brute_force_optimum_prefers_the_high_anchor(n):
    game = hard_instance(n, 0.5, a_mode="kappa")
    result = brute_force_solve(game)
    expected = np.full(n, 2.0)  # a + beta with a = beta = 1
    expected[1] = -2.0
    assert np.abs(result.values - expected).max() <= 1e-9
    assert all(result.profile[i] == 0 for i in range(2, n))


@pytest.mark.parametrize("n,gamma", GRID)
def test_all_slot_zero_profile_is_optimal(n, gamma):
    game = hard_instance(n, gamma, a_mode="kappa")
    sigma, _ = sigma_tau(game)
    ok, violations = is_optimal(game, sigma)
    assert ok and violations.size == 0
    beta = beta_of(gamma)
    a = beta
    v = value_vector(game, sigma)
    expected = np.full(n, a + beta)
    expected[0] = 1.0 + beta
    expected[1] = -(1.0 + beta)
    assert np.abs(v - expected).max() <= 1e-9 * (1.0 + beta)


def _least_deltas(n, gamma):
    """The least delta over every deterministic two-action game on n states,
    one entry per ownership vector S (S and -S give the same M, so s_0 = 1):
    every sigma successor map and every tau successor map, in one batch."""
    maps = np.array(list(itertools.product(range(n), repeat=n)))
    b = np.eye(n) - gamma * np.eye(n)[maps]  # B = I - gamma P for each map
    x = b[:, None] @ np.linalg.inv(b)[None, :]  # B_s B_t^-1 for each (sigma, tau)
    sym = 0.5 * (x + np.swapaxes(x, -1, -2))
    least = []
    for tail in itertools.product((1.0, -1.0), repeat=n - 1):
        s = np.array((1.0, *tail))
        least.append(float(np.linalg.eigvalsh(s[:, None] * sym * s)[..., 0].min()))
    return least


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("gamma", [0.9, 0.99])
def test_hard_family_has_the_least_delta_among_deterministic_games(n, gamma):
    want = predicted_eig_ub(n, gamma)
    least = _least_deltas(n, gamma)
    # S A S is similar to A, so ownership never moves the least delta
    assert len(least) == 2 ** (n - 1)
    for value in least:
        assert abs(value - want) <= 1e-12 * abs(want)


def test_hard_family_is_not_extremal_at_every_discount():
    # at n = 3 and gamma = 0.5 (beta = 1) a deterministic game reaches
    # delta = 0.25, below the hard family's 1 - sqrt(1/2) = 0.2929
    least = min(_least_deltas(3, 0.5))
    assert abs(least - 0.25) <= 1e-12
    assert least < predicted_eig_ub(3, 0.5) - 0.04
