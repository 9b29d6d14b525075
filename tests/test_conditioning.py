"""kappa / delta / theta measurement and certification tests."""

import json
import math
import warnings

import numpy as np
import pytest

from gamelcp import conditioning as cond
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
    structural_certificate,
    theta_at,
    theta_lower_bound,
    write_report_csv,
    write_report_json,
)
from gamelcp._kernels import SingularMatrixError
from gamelcp.cli import main
from gamelcp.game import Action, Game, State, matrix_representation, restrict, save_game
from gamelcp.hard_instances import HardInstanceSpec, closed_forms
from gamelcp.lcp import default_partition, reduction, to_lcp

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


# The coordinate climb as one scalar objective call per move: the reference
# the batched ``_climb`` must follow move for move.


def _kappa_objective(x, y):
    prods = x * y
    pos = float(prods[prods > 0.0].sum())
    neg = float(prods[prods < 0.0].sum())
    if pos + neg >= 0.0:
        return 0.0
    if pos == 0.0:
        return np.inf
    return (-neg / pos - 1.0) / 4.0


def _theta_objective(x, y):
    nrm2 = float(x @ x)
    if nrm2 == 0.0:
        return np.inf
    return float(np.max(x * y)) / nrm2


def _scalar_climb(m_mat, x0, batch_fn, better, rounds=cond.HILL_CLIMB_ROUNDS):
    objective = _kappa_objective if batch_fn is cond._kappa_batch else _theta_objective
    x = np.asarray(x0, dtype=np.float64).copy()
    y = m_mat @ x
    best = objective(x, y)
    n = x.shape[0]
    scale = 1.0
    sign = 1.0 if better == "max" else -1.0
    for _ in range(rounds):
        improved = False
        for j in range(n):
            step = scale * max(1.0, abs(x[j]))
            for d in (step, -step):
                x_j = x[j]
                x[j] = x_j + d
                y_try = y + d * m_mat[:, j]
                val = objective(x, y_try)
                if sign * val > sign * best:
                    best = val
                    y = y_try
                    improved = True
                else:
                    x[j] = x_j
        if not improved:
            scale *= 0.5
    return best, x


def _estimates(m_mat, witnesses, samples, seed):
    kappa, _ = estimate_kappa(m_mat, samples, seed, witnesses)
    theta, _ = estimate_theta(m_mat, samples, seed, witnesses)
    return kappa, theta


def _oracle_cases():
    for n in (8, 16):
        for gamma in (0.5, 0.99):
            for a_mode in ("kappa", "eigenvalue", "theta"):
                spec = HardInstanceSpec(n=n, gamma=gamma, a_mode=a_mode)
                game, part = hard_instance(n, gamma, a_mode=a_mode)
                rep = matrix_representation(game)
                _, c_tau = restrict(rep, part.tau)
                witnesses = [closed_forms(spec).c_tau, rep.ownership_signs * c_tau]
                yield to_lcp(game, part).m, witnesses
    for n in (8, 12, 24):
        for gamma in (0.5, 0.99):
            game = random_game(n, gamma, 300 + n)
            yield to_lcp(game, default_partition(game)).m, ()


def test_batched_climb_matches_scalar_oracle(monkeypatch):
    cases = list(_oracle_cases())
    batched = [_estimates(m_mat, wit, 500, 5) for m_mat, wit in cases]
    monkeypatch.setattr(cond, "_climb", _scalar_climb)
    scalar = [_estimates(m_mat, wit, 500, 5) for m_mat, wit in cases]
    for got, want in zip(batched, scalar):
        assert got == pytest.approx(want, rel=1e-8, abs=0.0)


def test_estimate_theta_zero_move_is_not_a_direction():
    # at n = 1 the climb's -1 move reaches x = 0, which must score +inf quietly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, x = estimate_theta(np.array([[2.0]]))
    assert val == 2.0
    assert x.tolist() == [1.0]


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


def _certificate(game, partition=None, m_mat=None):
    red = reduction(game, partition)
    if m_mat is None:
        m_mat = to_lcp(game, partition).m
    return structural_certificate(m_mat, red.b_sig, red.b_tau, red.rep.ownership_signs)


def test_witness_check_game_context(three_state):
    # the certificate's proof: at i = argmax |B_t^-1 S x|, x_i (Mx)_i is at
    # least theta_cert ||x||^2, less the error bound of the computed M and
    # the rounding of the product itself
    red = reduction(three_state)
    m_mat = to_lcp(three_state).m
    cert = _certificate(three_state)
    assert cert.ok
    unit = np.finfo(np.float64).eps / 2.0
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = rng.standard_normal(3)
        i = int(np.argmax(np.abs(np.linalg.solve(red.b_tau, red.rep.ownership_signs * x))))
        rounding = 4 * unit * abs(x[i]) * float(np.abs(m_mat[i]) @ np.abs(x))
        bound = (cert.theta_cert - cert.err) * float(x @ x) - rounding
        assert x[i] * (m_mat @ x)[i] >= bound > 0.0
        assert pmatrix_witness_check(m_mat, x) is not None


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
    assert report.pmatrix == "structural"
    assert report.cond == pytest.approx(-report.delta / report.theta_est)
    assert "1.75" in report.runtime_unified
    assert "n^4" in report.runtime_potential


def test_certify_hard_theta_mode():
    game, part = hard_instance(10, 0.5, a_mode="theta")
    report = certify(game, part, CertifyOptions(seed=0, samples=2000))
    assert report.theta_lb == pytest.approx(1.0 / 90.0)
    assert report.theta_lb - 1e-9 <= report.theta_est <= 1.0 / 34.0 + 1e-12
    assert report.pmatrix == "structural"


def test_certify_single_state_game():
    game = make_game(
        0.5, [(1, [(2.0, [(0, 1.0)]), (2.0, [(0, 1.0)])])]
    )
    report = certify(game, options=CertifyOptions(seed=3, samples=200))
    assert report.kappa_est == 0.0
    assert report.delta == pytest.approx(1.0, abs=1e-12)
    assert report.theta_est == pytest.approx(1.0, abs=1e-12)
    assert report.cond == pytest.approx(-1.0, abs=1e-9)


@pytest.mark.parametrize("seed", [400, 808, 1911])
def test_certify_accepts_well_conditioned_small_minors(seed):
    # each game has positive minors below 1e-12 times their row-max product,
    # all with cond_2 below 2000, and no minor with det <= 0
    game = random_game(12, 0.99, seed)
    mc = pmatrix_check_minors(to_lcp(game, default_partition(game)).m)
    assert mc.ok and 0.0 < mc.min_scaled_minor < 1e-12
    report = certify(game, options=CertifyOptions(seed=0, samples=200))
    assert report.pmatrix == "structural"


def test_minors_check_refuses_near_singular_positive_minor():
    mc = pmatrix_check_minors(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]))
    assert 0.0 < mc.min_scaled_minor < 1e-12
    assert not mc.ok and mc.failing_subset == (0, 1)


def test_certify_requires_options(g3):
    game, _ = g3
    with pytest.raises(ValueError, match="seed"):
        certify(game)


def _cert_cases():
    for n in (1, 8, 12, 24, 64):
        for gamma in (0.5, 0.9, 0.99):
            yield f"random-{n}-{gamma}", random_game(n, gamma, 7 * n), None
    for n in (8, 64):
        for a_mode in ("kappa", "eigenvalue", "theta"):
            game, part = hard_instance(n, 0.9, a_mode=a_mode)
            yield f"hard-{n}-{a_mode}", game, part


@pytest.mark.parametrize("case", list(_cert_cases()), ids=lambda c: c[0])
def test_structural_certificate_holds_on_game_lcps(case):
    _, game, part = case
    cert = _certificate(game, part)
    assert cert.ok and cert.mu_s > 0.0 and cert.mu_t > 0.0
    assert 0.0 <= cert.ratio < 1e-3
    if game.n_states <= 12:
        assert pmatrix_check_minors(to_lcp(game, part).m).ok


def test_structural_certificate_refuses_excess_row_mass():
    # Game(...) skips validate_game: every row carries mass 1.1, so
    # gamma P has row sums 1.045 and B loses its diagonal dominance
    rng = np.random.default_rng(21)
    states = []
    for i in range(6):
        actions = []
        for _ in range(2):
            targets = rng.choice(6, size=3, replace=False)
            weights = rng.uniform(0.1, 1.0, 3)
            weights *= 1.1 / weights.sum()
            dist = tuple((int(t), float(w)) for t, w in zip(targets, weights))
            actions.append(Action(cost=float(rng.uniform(-1.0, 1.0)), dist=dist))
        states.append(State(owner=1 + i % 2, actions=tuple(actions)))
    game = Game(gamma=0.95, states=tuple(states))
    to_lcp(game)  # the reduction itself accepts the game
    cert = _certificate(game)
    assert not cert.ok and min(cert.mu_s, cert.mu_t) < 0.0
    report = certify(game, options=CertifyOptions(seed=0, samples=100))
    assert report.pmatrix == "undecided"
    assert "not certified" in report.pmatrix_detail
    # a self-loop of mass 1.5 turns b_ii negative: M = (1 - 1.425) / 0.05 < 0
    # is not a P-matrix although |b_ii| exceeds the (empty) off-diagonal sum
    loop = make_game(0.95, [(1, [(0.0, [(0, 1.5)]), (0.0, [(0, 1.0)])])])
    assert not pmatrix_check_minors(to_lcp(loop).m).ok
    assert not _certificate(loop).ok


def test_structural_certificate_refuses_tampered_m():
    game = random_game(12, 0.9, 5)
    assert _certificate(game).ok
    m_mat = to_lcp(game).m.copy()
    m_mat[0, 1] += 1e-3
    cert = _certificate(game, m_mat=m_mat)
    assert not cert.ok and cert.ratio > 10.0


def test_structural_certificate_refuses_gamma_at_one():
    game = random_game(12, 1.0 - 1e-15, 3)
    with pytest.raises(SingularMatrixError, match="condition number"):
        to_lcp(game)
    red = reduction(game)
    signs = red.rep.ownership_signs
    m_mat = signs[:, None] * np.linalg.solve(red.b_tau.T, red.b_sig.T).T * signs[None, :]
    cert = structural_certificate(m_mat, red.b_sig, red.b_tau, signs)
    assert not cert.ok and cert.mu_t <= 0.0


def test_cli_certify_undecided_exits_1_with_report(tmp_path, capsys):
    # a valid game whose LCP builds but whose margins (1e-5) leave the
    # rounding of M unbounded relative to theta_cert: ratio about 420
    game = random_game(8, 0.99999, 0)
    assert not _certificate(game).ok
    game_path = tmp_path / "near_one.json"
    save_game(game, game_path)
    out = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    argv = ["--output", str(out), "certify", "--game", str(game_path), "--samples", "100"]
    assert main([*argv, "--csv", str(csv_path)]) == 1
    assert "pmatrix=undecided" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["pmatrix"] == "undecided"
    assert "not certified" in report["pmatrix_detail"]
    assert ",undecided," in csv_path.read_text()


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
