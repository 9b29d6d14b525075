"""Acceptance gate: ten end-to-end checks, one printed PASS/FAIL line each.

Tolerances here are the package's published contract; they are asserted
exactly as stated and must not be loosened to make a run green.
"""

import numpy as np

from conftest import three_state_game
from gamelcp.bench import fit_loglog_slope, random_game, run_bench
from gamelcp.conditioning import (
    delta_lower_bound,
    estimate_theta,
    kappa_at,
    kappa_upper_bound,
    pmatrix_check_minors,
    smallest_eigenvalue_sym,
    theta_at,
    theta_lower_bound,
)
from gamelcp.game import (
    is_optimal,
    markov_step_distribution,
    matrix_representation,
    restrict,
    value_vector,
)
from gamelcp.hard_instances import (
    HardInstanceSpec,
    build_hard_instance,
    closed_forms,
    predicted_eig_ub,
    predicted_kappa_lb,
    predicted_theta_ub,
)
from gamelcp.lcp import default_partition, recover, to_lcp
from gamelcp.lcp_solvers import IpmOptions, solve_pivoting, solve_potential_reduction
from gamelcp.solvers import (
    SolverFailure,
    brute_force_solve,
    strategy_iteration,
    value_iteration,
)

NS_GRID = (4, 8, 16, 32)
GAMMA_GRID = (0.5, 0.9, 0.99)


def _report(label, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return detail


def _hard(n, gamma, a_mode, a=None):
    spec = HardInstanceSpec(n=n, gamma=gamma, a_mode=a_mode, a=a)
    game, partition = build_hard_instance(spec)
    return spec, game, partition, to_lcp(game, partition)


def test_01_fixture_fidelity():
    rep = matrix_representation(three_state_game())
    p_expected = np.array(
        [
            [0.0, 0.5, 0.5],
            [1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.5, 0.25, 0.25],
            [0.0, 1.0, 0.0],
            [0.0, 1 / 3, 2 / 3],
        ]
    )
    c_expected = np.array([7.0, 3.0, -4.0, 2.0, 5.0, -10.0])
    j_expected = np.zeros((6, 3))
    j_expected[[0, 1], 0] = 1.0
    j_expected[[2, 3], 1] = 1.0
    j_expected[[4, 5], 2] = 1.0
    encoded = (
        np.array_equal(rep.p, p_expected)
        and np.array_equal(rep.costs, c_expected)
        and np.array_equal(rep.source, j_expected)
        and np.array_equal(rep.ownership_signs, [1.0, -1.0, 1.0])
    )

    p_sigma, _ = restrict(rep, np.array([0, 1, 0]))
    walk = [
        (1.0, 0.0, 0.0),
        (0.0, 0.5, 0.5),
        (2 / 8, 5 / 8, 1 / 8),
        (10 / 32, 13 / 32, 9 / 32),
    ]
    worst = max(
        float(np.abs(markov_step_distribution(p_sigma, 0, t) - np.array(row)).max())
        for t, row in enumerate(walk)
    )
    ok = encoded and worst <= 1e-15
    detail = _report(
        "01 fixture fidelity: three-state example matrices and 0..3-step walk",
        ok,
        f"exact encoding {encoded}, walk error {worst:.2e} <= 1e-15",
    )
    assert ok, detail


def test_02_hard_family_closed_forms():
    worst = 0.0
    for n in NS_GRID:
        for gamma in GAMMA_GRID:
            for a in (1.0, gamma / (1.0 - gamma)):
                spec, game, partition, lcp = _hard(n, gamma, "custom", a)
                forms = closed_forms(spec)
                v = value_vector(game, partition.tau)
                r = lcp.m @ forms.c_tau
                r_prime = forms.c_tau * r
                for got, want in (
                    (v, forms.v_tau),
                    (r, forms.image),
                    (r_prime, forms.products),
                ):
                    scale = max(1.0, float(np.abs(want).max()))
                    worst = max(worst, float(np.abs(got - want).max()) / scale)
    ok = worst <= 1e-9
    detail = _report(
        "02 hard-family closed forms: v, r, r' on the n x gamma x a grid",
        ok,
        f"worst relative error {worst:.2e} <= 1e-9",
    )
    assert ok, detail


def test_03_kappa_witness_exactness():
    worst = 0.0
    spot = None
    for n in NS_GRID + (10,):
        for gamma in GAMMA_GRID:
            predicted = predicted_kappa_lb(n, gamma)
            if predicted <= 0.0:
                continue
            spec, _, _, lcp = _hard(n, gamma, "kappa")
            got = kappa_at(lcp.m, closed_forms(spec).c_tau)
            rel = abs(got - predicted) / max(1.0, abs(predicted))
            worst = max(worst, rel)
            if (n, gamma) == (10, 0.5):
                spot = got
    ok = worst <= 1e-9 and spot is not None and abs(spot - 0.75) <= 1e-9
    detail = _report(
        "03 kappa witness: tau costs achieve the predicted value wherever positive",
        ok,
        f"worst relative error {worst:.2e} <= 1e-9, (n=10, gamma=0.5) -> {spot}",
    )
    assert ok, detail


def test_04_eigenvalue_witness_exactness():
    worst_residual = 0.0
    worst_excess = -np.inf
    spot = None
    for n in NS_GRID + (10,):
        for gamma in GAMMA_GRID:
            spec, _, _, lcp = _hard(n, gamma, "eigenvalue")
            x = closed_forms(spec).c_tau
            predicted = predicted_eig_ub(n, gamma)
            sym = 0.5 * (lcp.m + lcp.m.T)
            residual = float(np.abs(sym @ x - predicted * x).max())
            worst_residual = max(worst_residual, residual)
            lam, _ = smallest_eigenvalue_sym(lcp.m)
            worst_excess = max(worst_excess, lam - predicted)
            if (n, gamma) == (10, 0.5):
                spot = predicted
    ok = worst_residual <= 1e-9 and worst_excess <= 1e-9 and spot == -1.0
    detail = _report(
        "04 eigenvalue witness: tau costs are an exact eigenvector, spectrum below it",
        ok,
        f"worst residual {worst_residual:.2e} <= 1e-9, "
        f"worst (lambda_min - predicted) {worst_excess:.2e} <= 1e-9, "
        f"(n=10, gamma=0.5) -> {spot}",
    )
    assert ok, detail


def test_05_theta_sandwich():
    ok = True
    notes = []
    for n in NS_GRID + (10,):
        for gamma in GAMMA_GRID:
            spec, _, _, lcp = _hard(n, gamma, "theta")
            forms = closed_forms(spec)
            est, _ = estimate_theta(lcp.m, 2000, 0, (forms.c_tau,))
            lo = theta_lower_bound(n, gamma)
            hi = predicted_theta_ub(n, gamma)
            if not (lo - 1e-12 <= est <= hi + 1e-9):
                ok = False
                notes.append(f"(n={n}, gamma={gamma}): {lo:.3e} <= {est:.3e} <= {hi:.3e}")
    spec, _, _, lcp = _hard(10, 0.5, "theta")
    c_tau = closed_forms(spec).c_tau
    witness = theta_at(lcp.m, c_tau)
    spot_est, _ = estimate_theta(lcp.m, 2000, 0, (c_tau,))
    ok = ok and abs(witness - 1.0 / 34.0) <= 1e-9
    ok = ok and 1.0 / 90.0 - 1e-12 <= spot_est <= 1.0 / 32.0 + 1e-9
    detail = _report(
        "05 theta sandwich: lower bound <= witnessed estimate <= upper fence",
        ok,
        f"(n=10, gamma=0.5): witness {witness:.6f} ~ 1/34, violations {notes or 'none'}",
    )
    assert ok, detail


def test_06_global_bounds_on_random_games():
    rng = np.random.default_rng(20260815)
    worst_kappa = -np.inf
    worst_delta = np.inf
    worst_theta = np.inf
    for k in range(1000):
        n = int(rng.integers(1, 17))
        gamma = float(rng.uniform(0.1, 0.99))
        game = random_game(n, gamma, seed=k)
        lcp = to_lcp(game, default_partition(game))
        kappa_ub = kappa_upper_bound(n, gamma)
        delta_lb = delta_lower_bound(n, gamma)
        theta_lb = theta_lower_bound(n, gamma)
        delta, _ = smallest_eigenvalue_sym(lcp.m)
        worst_delta = min(worst_delta, delta - delta_lb)
        for x in rng.standard_normal((20, n)):
            worst_kappa = max(worst_kappa, kappa_at(lcp.m, x) - kappa_ub)
            worst_theta = min(worst_theta, theta_at(lcp.m, x) - theta_lb)
    ok = worst_kappa <= 1e-6 and worst_delta >= -1e-6 and worst_theta >= -1e-9
    detail = _report(
        "06 global bounds: 1000 random games, sampled kappa/theta and computed delta",
        ok,
        f"max kappa excess {worst_kappa:.2e} <= 1e-6, "
        f"min delta margin {worst_delta:.2e} >= -1e-6, "
        f"min theta margin {worst_theta:.2e} >= -1e-9",
    )
    assert ok, detail


def test_07_pmatrix_minors_on_random_games():
    rng = np.random.default_rng(7)
    bad = []
    for k in range(100):
        n = int(rng.integers(1, 13))
        gamma = float(rng.uniform(0.1, 0.99))
        game = random_game(n, gamma, seed=1000 + k)
        check = pmatrix_check_minors(to_lcp(game, default_partition(game)).m)
        if not check.ok:
            bad.append((k, n, gamma))
    ok = not bad
    detail = _report(
        "07 P-matrix certification: every principal minor positive on 100 games",
        ok,
        f"failures {bad or 'none'}",
    )
    assert ok, detail


def test_08_oracle_equivalence():
    rng = np.random.default_rng(88)
    worst_gap = 0.0
    bad_profiles = 0
    for k in range(200):
        n = int(rng.integers(1, 9))
        gamma = float(rng.uniform(0.1, 0.99))
        game = random_game(n, gamma, seed=2000 + k)
        partition = default_partition(game)
        lcp = to_lcp(game, partition)

        results = [
            brute_force_solve(game),
            value_iteration(game, eps=1e-8),
            strategy_iteration(game),
        ]
        w, z, _ = solve_pivoting(lcp)
        results.append(recover(game, partition, lcp, w, z, tol=1e-6))
        w, z, _ = solve_potential_reduction(lcp, IpmOptions(epsilon=1e-9))
        results.append(recover(game, partition, lcp, w, z, tol=1e-6))

        reference = results[0].values
        for res in results:
            worst_gap = max(worst_gap, float(np.abs(res.values - reference).max()))
            optimal, _ = is_optimal(game, res.profile, tol=1e-6)
            if not optimal:
                bad_profiles += 1
    ok = worst_gap <= 1e-6 and bad_profiles == 0
    detail = _report(
        "08 oracle equivalence: five solver routes agree on 200 random games",
        ok,
        f"worst value gap {worst_gap:.2e} <= 1e-6, non-optimal profiles {bad_profiles}",
    )
    assert ok, detail


def test_09_ipm_convergence():
    cases = []
    for n in (8, 16, 32, 64):
        for gamma in (0.5, 0.9, 0.95):
            _, _, _, lcp = _hard(n, gamma, "kappa")
            cases.append((f"hard n={n} gamma={gamma}", lcp))
            game = random_game(n, gamma, seed=300 + n)
            cases.append(
                (f"random n={n} gamma={gamma}", to_lcp(game, default_partition(game)))
            )
    for mode in ("eigenvalue", "theta"):
        _, _, _, lcp = _hard(64, 0.95, mode)
        cases.append((f"hard n=64 gamma=0.95 {mode}", lcp))

    bad = []
    max_iters = 0
    for label, lcp in cases:
        try:
            w, z, trace = solve_potential_reduction(lcp, IpmOptions(epsilon=1e-9))
        except SolverFailure as exc:
            bad.append(f"{label}: {exc}")
            continue
        max_iters = max(max_iters, len(trace))
        if not (float(w @ z) < 1e-9 and len(trace) <= 10_000):
            bad.append(f"{label}: gap {float(w @ z):.2e}, iters {len(trace)}")
        elif not trace.monotone_within_stages():
            bad.append(f"{label}: potential not monotone within a stage")
    ok = not bad
    detail = _report(
        "09 interior-point convergence: gap < 1e-9 within 1e4 monotone iterations",
        ok,
        f"{len(cases)} instances, max iterations {max_iters}, failures {bad or 'none'}",
    )
    assert ok, detail


def _secants(xs, ys):
    """Log-log slopes between consecutive points of a sweep, in sweep order."""
    return [fit_loglog_slope(xs[i : i + 2], ys[i : i + 2]) for i in range(len(xs) - 1)]


def test_10_scaling_reproduction():
    """The paper's bounds are Theta statements, so a measured exponent is the
    limit of the local log-log slope, not a least-squares fit across a grid
    whose small end is dominated by the closed forms' constant offsets (at
    gamma=0.5, kappa = (n-4)/8) and by the (h-1)/h factor between beta^2 and
    the horizon h = 1/(1-gamma).  Each series must therefore approach its
    exponent: the secant over the top step lies within the band, and the
    distance of the secants from the exponent never grows along the sweep."""
    ns = (8, 16, 32, 64, 128, 256)
    gammas = (0.5, 0.9)
    kappa_rows = run_bench(ns, gammas, a_mode="kappa", seed=0, samples=2000)
    eig_rows = run_bench(ns, gammas, a_mode="eigenvalue", seed=0, samples=2000)
    theta_rows = run_bench(ns, gammas, a_mode="theta", seed=0, samples=2000)
    sweep_gammas = (0.5, 0.75, 0.9, 0.95, 0.99)
    gamma_rows = run_bench((64,), sweep_gammas, a_mode="kappa", seed=0, samples=2000)

    def per_gamma(rows, gamma, x_of, y_of):
        cells = sorted((r.n, r) for r in rows if r.gamma == gamma)
        return [x_of(r) for _, r in cells], [y_of(r) for _, r in cells]

    series = []
    for gamma in gammas:
        series.append(
            (
                f"kappa_est vs n, gamma={gamma}",
                *per_gamma(kappa_rows, gamma, lambda r: r.n, lambda r: r.kappa_est),
                1.0,
            )
        )
        series.append(
            (
                f"-delta vs sqrt(n), gamma={gamma}",
                *per_gamma(eig_rows, gamma, lambda r: np.sqrt(r.n), lambda r: -r.delta),
                1.0,
            )
        )
        series.append(
            (
                f"1/theta_est vs n, gamma={gamma}",
                *per_gamma(theta_rows, gamma, lambda r: r.n, lambda r: 1.0 / r.theta_est),
                1.0,
            )
        )
    gamma_rows = sorted(gamma_rows, key=lambda r: r.gamma)
    series.append(
        (
            "kappa_est vs 1/(1-gamma), n=64",
            [1.0 / (1.0 - r.gamma) for r in gamma_rows],
            [r.kappa_est for r in gamma_rows],
            2.0,
        )
    )

    failures, lines = [], []
    for name, xs, ys, target in series:
        secants = _secants(xs, ys)
        dist = [abs(s - target) for s in secants]
        if dist[-1] > 0.15:
            failures.append(f"{name}: top secant {secants[-1]:.4f} vs {target} +/- 0.15")
        grows = [k + 1 for k in range(len(dist) - 1) if dist[k + 1] > dist[k]]
        if grows:
            failures.append(f"{name}: secants move away from {target} at steps {grows}")
        lines.append(
            f"{name} -> secants [{', '.join(f'{s:.3f}' for s in secants)}]"
            f" (whole-grid fit {fit_loglog_slope(xs, ys):.3f})"
        )
    ok = not failures
    detail = _report(
        "10 scaling reproduction: log-log secants approach the three exponents",
        ok,
        f"{'; '.join(lines)}; failures: {failures or 'none'}",
    )
    assert ok, detail
