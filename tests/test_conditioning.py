"""kappa / delta / theta measurement and certification tests."""

import json
import math

import numpy as np
import pytest

from gamelcp.bench import random_game
from gamelcp.conditioning import (
    CSV_COLUMNS,
    CertifyOptions,
    KappaUndefined,
    certify,
    delta_lower_bound,
    estimate_kappa,
    estimate_theta,
    kappa_at,
    kappa_upper_bound,
    pmatrix_check_minors,
    pmatrix_witness_check,
    smallest_eigenvalue_sym,
    theta_at,
    theta_lower_bound,
    write_report_csv,
    write_report_json,
)
from gamelcp.game import matrix_representation, restrict
from gamelcp.hard_instances import HardInstanceSpec, closed_forms
from gamelcp.lcp import default_partition, to_lcp

from conftest import hard_instance, make_game

NOT_P = np.array([[0.0, 1.0], [-1.0, 0.0]])


def hard_lcp(n, gamma, a_mode="kappa"):
    game, part = hard_instance(n, gamma, a_mode=a_mode)
    return to_lcp(game, part)


def test_kappa_at_hard_witness_exact():
    lcp = hard_lcp(10, 0.5)
    forms = closed_forms(HardInstanceSpec(n=10, gamma=0.5, a_mode="kappa"))
    assert kappa_at(lcp.m, forms.c_tau) == 0.75


def test_kappa_at_zero_cases():
    assert kappa_at(np.eye(3), np.array([1.0, -2.0, 0.5])) == 0.0
    assert kappa_at(np.eye(4), np.ones(4)) == 0.0
    # nonnegative total product mass certifies kappa = 0
    m = np.array([[2.0, -1.0], [0.0, 1.0]])
    assert kappa_at(m, np.array([1.0, 1.0])) == 0.0


def test_kappa_at_undefined():
    assert issubclass(KappaUndefined, ArithmeticError)
    with pytest.raises(KappaUndefined):
        kappa_at(-np.eye(2), np.array([1.0, 0.0]))


def test_kappa_at_scale_invariant():
    lcp = hard_lcp(10, 0.5)
    forms = closed_forms(HardInstanceSpec(n=10, gamma=0.5, a_mode="kappa"))
    base = kappa_at(lcp.m, forms.c_tau)
    assert abs(kappa_at(lcp.m, 3.7 * forms.c_tau) - base) <= 1e-12
    assert abs(kappa_at(lcp.m, -forms.c_tau) - base) <= 1e-12


def test_bound_spot_values():
    assert kappa_upper_bound(10, 0.5) == 40.0
    assert kappa_upper_bound(1, 0.5) == 4.0
    assert delta_lower_bound(10, 0.5) == pytest.approx(-3.0 * math.sqrt(10))
    assert delta_lower_bound(1, 0.5) == pytest.approx(-3.0)
    assert theta_lower_bound(10, 0.5) == pytest.approx(1.0 / 90.0)
    assert theta_lower_bound(1, 0.5) == pytest.approx(1.0 / 9.0)


@pytest.mark.parametrize("fn", [kappa_upper_bound, delta_lower_bound, theta_lower_bound])
def test_bound_domain_rejections(fn):
    with pytest.raises(ValueError, match="gamma"):
        fn(4, 0.0)
    with pytest.raises(ValueError, match="gamma"):
        fn(4, 1.0)
    with pytest.raises(ValueError, match="n must"):
        fn(0, 0.5)


def test_smallest_eigenvalue_identity():
    lam, vec = smallest_eigenvalue_sym(np.eye(5))
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert np.abs(vec @ vec - 1.0) <= 1e-9


def test_smallest_eigenvalue_offdiag():
    lam, vec = smallest_eigenvalue_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert lam == pytest.approx(-0.5, abs=1e-12)
    a = np.array([[0.0, 0.5], [0.5, 0.0]])
    assert np.linalg.norm(a @ vec - lam * vec) <= 1e-12


def test_smallest_eigenvalue_hard_family():
    # in eigenvalue mode c_tau is an exact eigenvector of the symmetrization
    lcp = hard_lcp(10, 0.5, a_mode="eigenvalue")
    forms = closed_forms(HardInstanceSpec(n=10, gamma=0.5, a_mode="eigenvalue"))
    a = 0.5 * (lcp.m + lcp.m.T)
    resid = np.linalg.norm(a @ forms.c_tau - (-1.0) * forms.c_tau)
    assert resid <= 1e-9 * np.linalg.norm(forms.c_tau)
    lam, vec = smallest_eigenvalue_sym(lcp.m)
    assert lam == pytest.approx(-1.0, abs=1e-9)
    assert np.linalg.norm(a @ vec - lam * vec) <= 1e-9 * np.sqrt((a * a).sum())


def test_theta_at_hard_witness_exact():
    lcp = hard_lcp(10, 0.5, a_mode="theta")
    forms = closed_forms(HardInstanceSpec(n=10, gamma=0.5, a_mode="theta"))
    assert theta_at(lcp.m, forms.c_tau) == 1.0 / 34.0


def test_theta_at_basics():
    eye = np.eye(4)
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    assert theta_at(eye, e1) == 1.0
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(4)
        val = theta_at(eye, x)
        assert 0.0 < val <= 1.0 + 1e-15
        assert theta_at(eye, -x) == val
    with pytest.raises(ValueError, match="nonzero"):
        theta_at(eye, np.zeros(4))


def test_estimate_theta_identity():
    val, x = estimate_theta(np.eye(6), n_samples=500, seed=1)
    assert val == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert np.abs(x @ x - 1.0) <= 1e-9


def test_estimate_theta_hard_sandwich():
    lcp = hard_lcp(10, 0.5, a_mode="theta")
    forms = closed_forms(HardInstanceSpec(n=10, gamma=0.5, a_mode="theta"))
    val, x = estimate_theta(lcp.m, n_samples=2000, seed=0, witnesses=(forms.c_tau,))
    assert theta_lower_bound(10, 0.5) - 1e-9 <= val <= 1.0 / 34.0 + 1e-12
    assert theta_at(lcp.m, x) == pytest.approx(val, abs=1e-12)


def test_estimate_kappa_hard_witness_is_optimal():
    lcp = hard_lcp(10, 0.5)
    forms = closed_forms(HardInstanceSpec(n=10, gamma=0.5, a_mode="kappa"))
    val, x = estimate_kappa(lcp.m, n_samples=2000, seed=0, witnesses=(forms.c_tau,))
    # c_tau attains the true kappa; sampling and climbing cannot beat it
    assert val == pytest.approx(0.75, abs=1e-9)
    assert kappa_at(lcp.m, x) == pytest.approx(val, abs=1e-12)


def test_estimate_kappa_identity_is_zero():
    val, x = estimate_kappa(np.eye(5), n_samples=500, seed=2)
    assert val == 0.0
    assert x.shape == (5,)


def _random_game_lcps(count, n=24, gamma=0.99, seed0=500):
    for k in range(count):
        game = random_game(n, gamma, seed0 + k)
        yield to_lcp(game, default_partition(game)).m


def test_estimate_kappa_is_exact_at_its_direction():
    # the reported lower estimate is kappa_at of the reported direction,
    # bit for bit, never the incrementally updated climb value
    for m_mat in _random_game_lcps(10):
        val, x = estimate_kappa(m_mat, n_samples=1000, seed=3)
        assert val == kappa_at(m_mat, x)


def test_estimate_theta_is_exact_at_its_direction():
    for m_mat in _random_game_lcps(10):
        val, x = estimate_theta(m_mat, n_samples=1000, seed=3)
        assert val == theta_at(m_mat, x)


def test_minors_check_g3(g3):
    game, part = g3
    mc = pmatrix_check_minors(to_lcp(game, part).m)
    assert mc.ok
    assert mc.failing_subset is None
    assert mc.min_scaled_minor > 0.0


def test_minors_check_negative_case():
    mc = pmatrix_check_minors(NOT_P)
    assert not mc.ok
    assert mc.failing_subset == (0,)


def test_minors_check_identity_and_limit():
    assert pmatrix_check_minors(np.eye(6)).ok
    with pytest.raises(ValueError, match="refusing"):
        pmatrix_check_minors(np.eye(21))


def test_witness_check_diagonal():
    m = np.diag([1.0, 2.0, 3.0])
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        assert pmatrix_witness_check(m, e) == i
    assert pmatrix_witness_check(-np.eye(3), np.array([1.0, 1.0, 1.0])) is None


def test_witness_check_game_context(three_state):
    part = default_partition(three_state)
    lcp = to_lcp(three_state, part)
    rep = matrix_representation(three_state)
    p_tau, _ = restrict(rep, part.tau)
    ctx = (three_state.gamma, p_tau, rep.ownership_signs)
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = rng.standard_normal(3)
        j = pmatrix_witness_check(lcp.m, x, tau_context=ctx)
        assert j is not None
        assert x[j] * (lcp.m @ x)[j] > 0.0


def test_minors_agree_with_theta_search():
    # P-matrix <=> no direction with all products <= 0; on 4x4 matrices the
    # theta minimizer is a reliable reversing-direction search
    rng = np.random.default_rng(11)
    seen_bad = 0
    for k in range(20):
        m = rng.standard_normal((4, 4)) + np.diag(rng.uniform(0.0, 1.5, 4))
        ok = pmatrix_check_minors(m).ok
        val, x = estimate_theta(m, n_samples=3000, seed=100 + k)
        if ok:
            assert val > 0.0
            assert pmatrix_witness_check(m, x) is not None
        else:
            seen_bad += 1
            assert val <= 1e-12
            if val < 0.0:
                assert pmatrix_witness_check(m, x) is None
    assert seen_bad >= 3  # the sample must actually exercise the non-P branch


def test_certify_hard_kappa_mode():
    game, part = hard_instance(10, 0.5, a_mode="kappa")
    report = certify(game, part, CertifyOptions(seed=0, samples=2000))
    assert report.n == 10
    assert report.kappa_est == pytest.approx(0.75, abs=1e-9)
    assert report.kappa_ub == 40.0
    assert report.delta == pytest.approx(-1.0, abs=1e-9)
    assert report.delta_lb == pytest.approx(-3.0 * math.sqrt(10))
    assert report.pmatrix == "minors-positive"
    assert report.cond == pytest.approx(-report.delta / report.theta_est)
    assert "1.75" in report.runtime_unified
    assert "n^4" in report.runtime_potential


def test_certify_hard_theta_mode():
    game, part = hard_instance(10, 0.5, a_mode="theta")
    report = certify(game, part, CertifyOptions(seed=0, samples=2000))
    assert report.theta_lb == pytest.approx(1.0 / 90.0)
    assert report.theta_lb - 1e-9 <= report.theta_est <= 1.0 / 34.0 + 1e-12
    assert report.pmatrix == "minors-positive"


def test_certify_single_state_game():
    game = make_game(
        0.5, [(1, [(2.0, [(0, 1.0)]), (2.0, [(0, 1.0)])])]
    )
    report = certify(game, options=CertifyOptions(seed=3, samples=200))
    assert report.kappa_est == 0.0
    assert report.delta == pytest.approx(1.0, abs=1e-12)
    assert report.theta_est == pytest.approx(1.0, abs=1e-12)
    assert report.cond == pytest.approx(-1.0, abs=1e-9)


def test_certify_requires_options(g3):
    game, _ = g3
    with pytest.raises(ValueError, match="seed"):
        certify(game)


def test_certify_witness_sampled_path(g3):
    game, part = g3
    report = certify(
        game, part, CertifyOptions(seed=1, samples=200, minors_limit=2, witness_samples=50)
    )
    assert report.pmatrix == "witness-sampled"
    assert "50 sampled directions" in report.pmatrix_detail


def test_report_files(tmp_path, g3):
    game, part = g3
    report = certify(game, part, CertifyOptions(seed=7, samples=300))
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "report.csv"
    write_report_json(report, jpath)
    write_report_csv(report, cpath)
    payload = json.loads(jpath.read_text())
    assert set(payload) == {
        "n", "gamma", "kappa_est", "kappa_ub", "delta", "delta_lb",
        "theta_est", "theta_lb", "cond", "pmatrix", "pmatrix_detail",
        "runtime_unified", "runtime_potential", "samples", "seed",
    }
    assert payload["seed"] == 7
    lines = cpath.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines[1].split(",")) == len(CSV_COLUMNS)
    assert lines[1].split(",")[0] == "3"
