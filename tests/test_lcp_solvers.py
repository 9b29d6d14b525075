"""Interior point and complementary pivoting solver tests."""

import math

import numpy as np
import pytest

from gamelcp import lcp_solvers
from gamelcp.bench import random_game
from gamelcp.lcp import (
    Lcp,
    LcpCheck,
    recover,
    to_lcp,
    verify_solution,
)
from gamelcp._kernels import SingularMatrixError, _newton, solve
from gamelcp.lcp_solvers import (
    BACKTRACK,
    CENTER_SHARE,
    FLOOR_SHARE,
    MAX_PIVOTS,
    PREDICT_SHARE,
    PREDICT_SHRINK,
    STEP_FLOOR,
    STEP_FRACTION,
    IpmTrace,
    _direction,
    _fail,
    _lex_ratio_row,
    _max_positive_step,
    _potential,
    solve_pivoting,
    solve_potential_reduction,
)
from gamelcp.game import restrict
from gamelcp.solvers import SolverFailure
from conftest import hard_instance, swap_actions
from oracles import monotone_within_stages, stages


def test_ipm_options_validation():
    lcp = Lcp(m=np.eye(4), q=np.ones(4))
    for epsilon in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            solve_potential_reduction(lcp, epsilon=epsilon)


def test_ipm_identity_lcp():
    lcp = Lcp(m=np.eye(4), q=np.ones(4))
    w, z, trace = solve_potential_reduction(lcp)
    assert float(w @ z) < 1e-9
    assert np.abs(w - 1.0).max() <= 1e-8
    assert z.max() <= 1e-8
    assert trace.termination == "converged"


def test_ipm_solves_g3(g3):
    game = g3
    lcp = to_lcp(game)
    epsilon = 1e-10
    w, z, trace = solve_potential_reduction(lcp, epsilon=epsilon)
    assert float(w @ z) < 1e-10
    # the shift has been driven (almost) all the way home
    feas = np.abs(w - lcp.q - lcp.m @ z).max()
    assert feas <= epsilon * 1e-3 * 1.01
    res = recover(lcp, w, z, len(trace), tol=1e-6)
    assert res.iterations == len(trace)  # the result carries the solver's count
    assert np.allclose(res.values, [2.0, -2.0, 2.0], atol=1e-6)
    assert np.allclose(z, [0.0, 0.0, 2.0], atol=1e-5)


def test_ipm_trace_shape_and_monotonicity(g3):
    game = g3
    lcp = to_lcp(game)
    _, _, trace = solve_potential_reduction(lcp)
    k = len(trace)
    assert k >= 1
    for rows in (trace.gaps, trace.potentials, trace.steps, trace.shifts, trace.phases):
        assert len(rows) == k
    assert set(trace.phases) <= {"center", "predictor"}
    lo_hi = stages(trace)
    assert lo_hi[0][0] == 0
    assert lo_hi[-1][1] == k
    for (a, b), (c, _) in zip(lo_hi, lo_hi[1:]):
        assert b == c
    assert monotone_within_stages(trace)


def test_ipm_trace_csv(tmp_path, g3):
    game = g3
    _, _, trace = solve_potential_reduction(to_lcp(game))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,gap,potential,step,shift,phase"
    assert len(lines) == len(trace) + 1
    first = lines[1].split(",")
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, len(trace) + 1))
    assert float(first[1]) == trace.gaps[0]
    assert [line.split(",")[5] for line in lines[1:]] == trace.phases


def test_centering_direction_against_full_system(g3):
    # solve the unreduced 2n x 2n Newton system independently and compare
    game = g3
    lcp = to_lcp(game)
    n = lcp.n
    rho = n + math.sqrt(n)
    z = np.ones(n)
    t0 = max(0.0, 1.0 - float(np.min(lcp.q + lcp.m @ z)))
    w = lcp.q + t0 + lcp.m @ z
    gap = float(w @ z)
    rhs_small = (gap / rho) - w * z

    big = np.zeros((2 * n, 2 * n))
    big[:n, :n] = np.eye(n)
    big[:n, n:] = -lcp.m
    big[n:, :n] = np.diag(z)
    big[n:, n:] = np.diag(w)
    sol = np.linalg.solve(big, np.concatenate([np.zeros(n), rhs_small]))
    dw_full, dz_full = sol[:n], sol[n:]

    dz = np.linalg.solve(z[:, None] * lcp.m + np.diag(w), rhs_small)
    dw = lcp.m @ dz
    assert np.abs(dz - dz_full).max() <= 1e-10
    assert np.abs(dw - dw_full).max() <= 1e-10

    def pot(wv, zv):
        return rho * math.log(float(wv @ zv)) - float(np.sum(np.log(wv * zv)))

    alpha = 1e-3
    w1, z1 = w + alpha * dw, z + alpha * dz
    assert w1.min() > 0 and z1.min() > 0
    assert pot(w1, z1) < pot(w, z)


def _full_newton(lcp, w, z, residual, target):
    # the unreduced 2n x 2n system: dw - M dz = residual, z o dw + w o dz = target
    n = lcp.n
    big = np.zeros((2 * n, 2 * n))
    big[:n, :n] = np.eye(n)
    big[:n, n:] = -lcp.m
    big[n:, :n] = np.diag(z)
    big[n:, n:] = np.diag(w)
    sol = np.linalg.solve(big, np.concatenate([residual, target]))
    return sol[:n], sol[n:]


def _direction_cases(g3):
    game = g3
    rng = np.random.default_rng(53)
    for lcp in (to_lcp(game), to_lcp(hard_instance(8, 0.9, "kappa"))):
        n = lcp.n
        z = np.ones(n)
        t0 = max(0.0, 1.0 - float(np.min(lcp.q + lcp.m @ z)))
        yield lcp, lcp.q + t0 + lcp.m @ z, z, t0  # the IPM's start
    for n in (5, 17):
        game = random_game(n, 0.9, 70 + n)
        lcp = to_lcp(game)
        w, z = rng.uniform(1e-3, 10.0, size=(2, n))
        yield lcp, w, z, float(rng.uniform(1e-6, 1.0))  # an arbitrary interior pair


def test_corrector_and_predictor_directions_against_full_system(g3):
    eps = 1e-9  # the IPM's default epsilon
    for lcp, w, z, t in _direction_cases(g3):
        n = lcp.n
        scale = 1.0 + np.abs(lcp.m).max()
        mu = float(w @ z) / n

        dw, dz = _direction(z, lcp.m, w, 0.0, mu)
        dw_full, dz_full = _full_newton(lcp, w, z, np.zeros(n), mu - w * z)
        assert np.abs(dz - dz_full).max() <= 1e-10 * scale
        assert np.abs(dw - dw_full).max() <= 1e-10 * scale
        assert np.array_equal(dw, lcp.m @ dz)

        floor = FLOOR_SHARE * eps / n
        dw, dz = _direction(z, lcp.m, w, t, floor)
        dw_full, dz_full = _full_newton(lcp, w, z, np.full(n, -t), floor - w * z)
        assert np.abs(dz - dz_full).max() <= 1e-10 * scale
        assert np.abs(dw - dw_full).max() <= 1e-10 * scale
        # the residual row: a step of alpha takes the shift from t to (1 - alpha) t
        assert np.abs(dw - lcp.m @ dz + t).max() <= 1e-12 * scale * (1.0 + t)
        lin = z * dw + w * dz
        assert np.abs(lin - (floor - w * z)).max() <= 1e-10 * scale * (1.0 + (w * z).max())


def test_ipm_stages_split_at_predictor_rows():
    trace = IpmTrace()
    assert stages(trace) == []
    for phase in ("center", "center", "predictor", "center", "predictor", "predictor"):
        trace.append(1.0, 1.0, 1.0, 0.0, phase)
    assert stages(trace) == [(0, 2), (2, 4), (4, 5), (5, 6)]


@pytest.mark.parametrize("mode", ["kappa", "eigenvalue", "theta"])
def test_ipm_monotone_within_stages_once_the_shift_reaches_zero(mode):
    # at gamma = 0.1 a full predictor step takes the shift to exactly 0, so
    # later predictor and centering rows share one shift; the predictor rows
    # raise the potential, and only the phase tells the stages apart
    for n in (8, 16, 32, 64):
        lcp = to_lcp(hard_instance(n, 0.1, mode))
        _, _, trace = solve_potential_reduction(lcp, epsilon=1e-9)
        zero = [i for i, t in enumerate(trace.shifts) if t == 0.0]
        assert zero and trace.phases[zero[0]] == "predictor"
        after = [trace.phases[i] for i in zero[1:]]
        assert "predictor" in after and "center" in after
        assert monotone_within_stages(trace)
        raised = [
            i for i in range(1, len(trace))
            if trace.phases[i] == "predictor"
            and trace.potentials[i] >= trace.potentials[i - 1]
        ]
        assert raised


def _ipm_rows(lcp):
    w, z, trace = solve_potential_reduction(lcp, epsilon=1e-9)
    assert trace.termination == "converged"
    recover(lcp, w, z, len(trace))
    return len(trace)


def test_ipm_converges_at_n256():
    for gamma in (0.9, 0.99, 0.999):
        for seed in range(1, 9):
            game = random_game(256, gamma, seed)
            _ipm_rows(to_lcp(game))
    for gamma in (0.99, 0.999):
        for mode in ("kappa", "eigenvalue", "theta"):
            _ipm_rows(to_lcp(hard_instance(256, gamma, mode)))


def test_ipm_work_grows_slower_than_n():
    def median_rows(n):
        rows = []
        for seed in range(1, 7):
            game = random_game(n, 0.9, seed)
            rows.append(_ipm_rows(to_lcp(game)))
        return float(np.median(rows))

    assert median_rows(256) <= 3.0 * median_rows(16)


def test_ipm_budget_failure_carries_trace(g3, monkeypatch):
    game = g3
    lcp = to_lcp(game)
    monkeypatch.setattr(lcp_solvers, "MAX_ITERS", 1)
    with pytest.raises(SolverFailure, match="MAX_ITERS") as exc_info:
        solve_potential_reduction(lcp)
    trace = exc_info.value.context["trace"]
    assert len(trace) <= 1
    assert "MAX_ITERS" in trace.termination


def test_ipm_singular_newton_system_fails_loudly():
    # z = 1, t = 0, w = (1, 3): diag(z) M + diag(w) = diag(0, 4) exactly
    lcp = Lcp(m=np.diag([-1.0, 1.0]), q=np.array([2.0, 2.0]))
    with pytest.raises(SolverFailure, match="singular Newton system"):
        solve_potential_reduction(lcp)


def test_ipm_near_singular_newton_system_fails_with_context():
    # the Newton matrix is diag(2.2e-16, 4): no gate refuses it any more, so
    # the huge direction must surface as a stall that still carries the trace
    lcp = Lcp(m=np.diag([-1.0, 1.0]), q=np.array([2.0 + 1e-15, 2.0]))
    with pytest.raises(SolverFailure) as exc_info:
        solve_potential_reduction(lcp)
    trace = exc_info.value.context["trace"]
    assert isinstance(trace, IpmTrace)
    assert trace.termination
    assert trace.termination in str(exc_info.value)


def test_ipm_exit_check_is_wired(g3, monkeypatch):
    game = random_game(64, 0.99, 1903)
    lcp = to_lcp(game)
    w, z, _ = solve_potential_reduction(lcp, epsilon=1e-9)
    assert verify_solution(lcp, w, z, 1e-9).ok

    bad = LcpCheck(feasibility=1.0, complementarity=0.0, min_w=0.0, min_z=0.0, ok=False)
    monkeypatch.setattr("gamelcp.lcp_solvers.verify_solution", lambda *args: bad)
    g3_lcp = to_lcp(g3)
    with pytest.raises(SolverFailure, match="exit check failed") as exc_info:
        solve_potential_reduction(g3_lcp)
    trace = exc_info.value.context["trace"]
    assert len(trace) >= 1
    assert trace.termination.startswith("exit check failed")
    assert exc_info.value.context["check"] is bad


# The IPM as first written for the predictor-corrector scheme, a corrector
# loop nested in a predictor loop, each with its own Newton call and step
# rule: the bit-exact reference for the one-loop solve_potential_reduction.


def _centering(z, m_mat, w):
    """Corrector: z o dw + w o dz = mean(w o z) 1 - w o z with dw = M dz."""
    dz = _newton(z, m_mat, w, float(w @ z) / z.shape[0] - w * z)
    return m_mat @ dz, dz


def _affine(z, m_mat, w, t, floor):
    """Predictor: z o dw + w o dz = floor 1 - w o z with dw - M dz = -t 1."""
    dz = _newton(z, m_mat, w, floor + t * z - w * z)
    return m_mat @ dz - t, dz


def _nested_loop_ipm(lcp, epsilon=1e-9):
    MAX_ITERS = lcp_solvers.MAX_ITERS  # read at call time, as monkeypatched
    m_mat = np.asarray(lcp.m, dtype=np.float64)
    q = np.asarray(lcp.q, dtype=np.float64)
    n = q.shape[0]
    rho = n + math.sqrt(n)

    trace = IpmTrace()
    z = np.ones(n)
    t = max(0.0, 1.0 - float(np.min(q + m_mat @ z)))
    t_final = epsilon * 1e-3
    floor = FLOOR_SHARE * epsilon / n
    w = q + t + m_mat @ z
    f = _potential(w, z, rho)
    iteration = 0

    while True:
        # corrector: pure centering at the current shift, back into the
        # narrow neighborhood min(w o z) >= CENTER_SHARE * mean(w o z)
        while True:
            gap = float(w @ z)
            done = t <= t_final and gap < epsilon
            if done or float(np.min(w * z)) * n >= CENTER_SHARE * gap:
                break
            if iteration >= MAX_ITERS:
                _fail(trace, f"gap {gap:.3e} after MAX_ITERS={MAX_ITERS}")
            iteration += 1
            try:
                dw, dz = _centering(z, m_mat, w)
            except SingularMatrixError:
                _fail(trace, "singular Newton system")
            alpha = min(1.0, STEP_FRACTION * _max_positive_step(w, dw, z, dz))
            while alpha >= STEP_FLOOR:
                w1 = w + alpha * dw
                z1 = z + alpha * dz
                if w1.min() > 0.0 and z1.min() > 0.0:
                    f1 = _potential(w1, z1, rho)
                    if f1 < f:
                        break
                alpha *= BACKTRACK
            else:
                _fail(trace, f"line search stalled at step < {STEP_FLOOR}")
            w, z, f = w1, z1, f1
            trace.append(w @ z, f, alpha, t, "center")
        if done:
            break

        # predictor: the affine step that lowers the shift and the gap
        # together, to the edge of the wide neighborhood (PREDICT_SHARE)
        if iteration >= MAX_ITERS:
            _fail(trace, f"shift {t:.3e} still above target after MAX_ITERS={MAX_ITERS}")
        iteration += 1
        try:
            dw, dz = _affine(z, m_mat, w, t, floor)
        except SingularMatrixError:
            _fail(trace, "singular Newton system")
        alpha = min(1.0, STEP_FRACTION * _max_positive_step(w, dw, z, dz))
        while alpha >= STEP_FLOOR:
            w1 = w + alpha * dw
            z1 = z + alpha * dz
            prod = w1 * z1
            if w1.min() > 0.0 and z1.min() > 0.0 and (
                float(prod.min()) * n >= PREDICT_SHARE * float(prod.sum())
            ):
                break
            alpha *= PREDICT_SHRINK
        else:
            _fail(trace, f"homotopy stalled at shift {t:.3e}")
        # w follows its own direction (see the module docstring)
        w, z = w1, z1
        t = (1.0 - alpha) * t
        f = _potential(w, z, rho)
        trace.append(w @ z, f, alpha, t, "predictor")

    # leave with w exactly feasible whenever that keeps the interior and the
    # gap target
    w_snap = q + t + m_mat @ z
    if w_snap.min() > 0.0 and float(w_snap @ z) < epsilon:
        w = w_snap
    check = verify_solution(lcp, w, z, epsilon)
    if not check.ok:
        _fail(trace, f"exit check failed: {check}", check=check)
    trace.termination = "converged"
    return w, z, trace


def _trace_rows(trace):
    return (trace.gaps, trace.potentials, trace.steps, trace.shifts, trace.phases)


def _run_ipm(solver, lcp):
    """(w, z, trace rows, failed) of one solve, failed or not."""
    try:
        w, z, trace = solver(lcp, epsilon=1e-9)
    except SolverFailure as exc:
        return None, None, _trace_rows(exc.context["trace"]), True
    return w, z, _trace_rows(trace), False


def _ipm_oracle_cases():
    for n in (8, 24, 64):
        for gamma in (0.5, 0.9, 0.99, 0.999):
            for seed in range(1, 13):
                game = random_game(n, gamma, seed)
                yield f"random-{n}-{gamma}-{seed}", to_lcp(game)
    for gamma in (0.9, 0.99, 0.999):
        for seed in range(1, 9):
            game = random_game(256, gamma, seed)
            yield f"random-256-{gamma}-{seed}", to_lcp(game)
    for n in (8, 32, 64, 256):
        for gamma in (0.5, 0.9, 0.99, 0.999):
            for mode in ("kappa", "eigenvalue", "theta"):
                yield f"hard-{n}-{gamma}-{mode}", to_lcp(hard_instance(n, gamma, mode))


def test_one_loop_ipm_is_bit_identical_to_nested_loops():
    rows = solves = 0
    for name, lcp in _ipm_oracle_cases():
        got = _run_ipm(solve_potential_reduction, lcp)
        want = _run_ipm(_nested_loop_ipm, lcp)
        assert got[2] == want[2], name
        assert got[3] == want[3], name
        if not got[3]:
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), name
        rows += len(got[2][0])
        solves += 1
    assert solves == 216
    assert rows > 5000


def test_ipm_does_not_depend_on_the_layout_of_m():
    # Lcp keeps M in Fortran order, so a C-ordered copy of the same matrix
    # gives the same trace and pair bit for bit
    for n in (8, 24, 64):
        for gamma in (0.9, 0.99):
            lcp = to_lcp(random_game(n, gamma, 1))
            c_lcp = Lcp(np.ascontiguousarray(lcp.m), lcp.q, lcp.reduction)
            assert c_lcp.m.flags.f_contiguous
            got, want = _run_ipm(solve_potential_reduction, c_lcp), _run_ipm(solve_potential_reduction, lcp)
            assert got[2] == want[2] and got[3] == want[3] is False
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_one_loop_ipm_failure_paths_match_nested_loops(g3, monkeypatch):
    singular = Lcp(m=np.diag([-1.0, 1.0]), q=np.array([2.0, 2.0]))
    near_singular = Lcp(m=np.diag([-1.0, 1.0]), q=np.array([2.0 + 1e-15, 2.0]))
    for lcp in (singular, near_singular):
        got = _run_ipm(solve_potential_reduction, lcp)
        assert got[3] and got == _run_ipm(_nested_loop_ipm, lcp)
    game = random_game(24, 0.99, 5)
    cases = [to_lcp(g3), to_lcp(game)]
    for budget in (0, 1, 2, 7):
        monkeypatch.setattr(lcp_solvers, "MAX_ITERS", budget)
        for lcp in cases:
            got = _run_ipm(solve_potential_reduction, lcp)
            assert got[3] and got == _run_ipm(_nested_loop_ipm, lcp)
            assert len(got[2][0]) == budget


def _two_mask_step(w, dw, z, dz):
    # the step cap as first written: one masked pass per vector
    cap = np.inf
    neg = dw < 0.0
    if np.any(neg):
        cap = min(cap, float(np.min(w[neg] / -dw[neg])))
    neg = dz < 0.0
    if np.any(neg):
        cap = min(cap, float(np.min(z[neg] / -dz[neg])))
    return cap


def test_max_positive_step_matches_two_mask_oracle():
    rng = np.random.default_rng(29)
    saw_inf = 0
    for k in range(400):
        n = int(rng.integers(1, 65))
        w, z = rng.uniform(1e-8, 10.0, size=(2, n))
        dw, dz = rng.normal(size=(2, n))
        if k % 4 == 0:  # no negative entries anywhere
            dw, dz = np.abs(dw), np.abs(dz)
        elif k % 4 == 1:  # negative entries in one vector only
            dw = np.abs(dw)
        got = _max_positive_step(w, dw, z, dz)
        want = _two_mask_step(w, dw, z, dz)
        assert got == want
        saw_inf += got == np.inf
    assert saw_inf >= 100


def test_pivoting_shortcut_on_nonnegative_q(g3):
    lcp = to_lcp(swap_actions(g3, [0, 1, 2]))
    w, z, pivots = solve_pivoting(lcp)
    assert pivots == 0
    assert np.array_equal(w, lcp.q)
    assert np.array_equal(z, np.zeros(3))


def test_pivoting_g3_exact(g3):
    game = g3
    lcp = to_lcp(game)
    w, z, pivots = solve_pivoting(lcp)
    assert np.array_equal(w, [0.0, 0.0, 0.0])
    assert np.array_equal(z, [0.0, 0.0, 2.0])
    assert pivots == 2
    assert verify_solution(lcp, w, z, tol=1e-12).ok


def test_pivoting_ray_termination():
    lcp = Lcp(m=-np.eye(2), q=np.array([-1.0, -2.0]))
    with pytest.raises(SolverFailure, match="ray termination"):
        solve_pivoting(lcp)


def test_pivoting_exact_complementarity_random():
    rng = np.random.default_rng(41)
    for k in range(15):
        n = int(rng.integers(2, 13))
        game = random_game(n, float(rng.uniform(0.3, 0.9)), seed=900 + k)
        lcp = to_lcp(game)
        w, z, _ = solve_pivoting(lcp)
        check = verify_solution(lcp, w, z, tol=1e-10)
        assert check.ok
        assert check.complementarity == 0.0  # basic-z rows are zeroed exactly


def _pivoting_row_loop(lcp):
    """Oracle: Lemke's method with the elimination as a loop over rows."""
    m_mat, q = lcp.m, lcp.q
    n = q.shape[0]
    if float(q.min()) >= 0.0:
        return q.copy(), np.zeros(n), 0
    z0 = 2 * n
    tableau = np.hstack([np.eye(n), -m_mat, -np.ones((n, 1)), q.reshape(n, 1)])
    basis = np.arange(n)
    entering = z0
    row = int(np.argmin(q))
    pivots = 0
    while True:
        pivots += 1
        assert pivots <= MAX_PIVOTS
        tableau[row] = tableau[row] / tableau[row, entering]
        for i in range(n):
            if i != row and tableau[i, entering] != 0.0:
                tableau[i] -= tableau[i, entering] * tableau[row]
        leaving = int(basis[row])
        basis[row] = entering
        if leaving == z0:
            break
        entering = leaving + n if leaving < n else leaving - n
        row = _lex_ratio_row(tableau, tableau[:, entering].copy(), n)
        assert row >= 0
    z_basic = np.array(sorted(int(b) - n for b in basis if n <= int(b) < z0))
    z = np.zeros(n)
    if z_basic.size:
        z[z_basic] = solve(m_mat[np.ix_(z_basic, z_basic)], -q[z_basic])
    w = q + m_mat @ z
    w[z_basic] = 0.0
    return w, z, pivots


def _pivot_oracle_cases():
    for n in (2, 5, 12, 24, 48):
        for gamma in (0.5, 0.9, 0.999):
            for seed in (1, 2):
                game = random_game(n, gamma, 100 * n + seed)
                yield to_lcp(game)
    for n in (8, 24):
        for gamma in (0.5, 0.99):
            for mode in ("kappa", "eigenvalue", "theta"):
                yield to_lcp(hard_instance(n, gamma, mode))


def _ratio_tableaux(monkeypatch, solver, lcp):
    """``solver(lcp)`` and a copy of the tableau it hands to
    ``_lex_ratio_row`` at each pivot.  (w, z) are re-solved from the
    terminal basis, so only the tableaux show how the elimination rounds."""
    tableaux = []
    ratio_row = lcp_solvers._lex_ratio_row

    def spy(tableau, col, n):
        tableaux.append(tableau.copy())
        return ratio_row(tableau, col, n)

    with monkeypatch.context() as mp:
        mp.setattr(lcp_solvers, "_lex_ratio_row", spy)
        mp.setitem(globals(), "_lex_ratio_row", spy)  # the row-loop oracle's name
        return solver(lcp), tableaux


def test_pivoting_rank1_elimination_matches_row_loop(monkeypatch):
    pivoted = 0
    for lcp in _pivot_oracle_cases():
        (w, z, pivots), tableaux = _ratio_tableaux(monkeypatch, solve_pivoting, lcp)
        (w_o, z_o, pivots_o), tableaux_o = _ratio_tableaux(
            monkeypatch, _pivoting_row_loop, lcp
        )
        assert pivots == pivots_o
        assert np.array_equal(w, w_o) and np.array_equal(z, z_o)
        assert len(tableaux) == len(tableaux_o) == max(pivots - 1, 0)
        # equal to the last bit; only the sign of a zero can differ, where
        # the rank-1 update subtracts 0 * x from a row the loop skips
        for got, want in zip(tableaux, tableaux_o):
            assert np.array_equal(got, want)
        pivoted += pivots > 0
    assert pivoted >= 30


def test_solvers_agree_on_game_lcps():
    rng = np.random.default_rng(43)
    for k in range(12):
        n = int(rng.integers(2, 13))
        game = random_game(n, float(rng.uniform(0.3, 0.95)), seed=1100 + k)
        lcp = to_lcp(game)
        w_p, z_p, pivots = solve_pivoting(lcp)
        w_i, z_i, trace = solve_potential_reduction(lcp, epsilon=1e-11)
        assert np.abs(z_p - z_i).max() <= 1e-6
        assert np.abs(w_p - w_i).max() <= 1e-6
        assert verify_solution(lcp, w_p, z_p).ok
        res_p = recover(lcp, w_p, z_p, pivots)
        res_i = recover(lcp, w_i, z_i, len(trace))
        assert (res_p.iterations, res_i.iterations) == (pivots, len(trace))
        assert np.abs(res_p.values - res_i.values).max() <= 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_swapped_actions_give_what_the_swapped_partition_gave(seed):
    # reordering a state's two actions swaps sigma and tau there: the
    # swapped game's reduction is the original's under the swapped
    # partition, and each LCP solver gives the original game's values with
    # the profile mirrored on the swapped states
    game = random_game(12, 0.9, 1200 + seed)
    flip = np.random.default_rng(seed).random(game.n) < 0.5
    assert 0 < flip.sum() < game.n
    swapped = swap_actions(game, np.flatnonzero(flip))
    red = to_lcp(swapped).reduction
    sigma = flip.astype(np.int64)
    for b, c, profile in ((red.b_sig, red.c_sig, sigma), (red.b_tau, red.c_tau, 1 - sigma)):
        p_sel, c_sel = restrict(game, profile)
        assert np.array_equal(b, np.eye(game.n) - game.gamma * p_sel)
        assert np.array_equal(c, c_sel)
    for solve_lcp in (solve_pivoting, solve_potential_reduction):
        base_lcp, swapped_lcp = to_lcp(game), to_lcp(swapped)
        base = recover(base_lcp, *solve_lcp(base_lcp)[:2], 0)
        out = recover(swapped_lcp, *solve_lcp(swapped_lcp)[:2], 0)
        assert np.abs(out.values - base.values).max() <= 1e-12
        assert np.array_equal(out.profile ^ flip, base.profile)


@pytest.mark.parametrize(
    "case",
    ["random-64-1903", "hard-48-kappa", "hard-48-eigenvalue", "hard-48-theta"],
)
def test_ipm_tangent_keeps_tiny_slacks_at_gamma_099(case):
    # near shift 1e-7 the smallest w_i (~1e-14) lies below the rounding of
    # q + t + M z; rebuilding w from that sum stalled the homotopy on these
    # games, advancing w by each step's own direction does not
    if case.startswith("random"):
        game = random_game(64, 0.99, 1903)
    else:
        game = hard_instance(48, 0.99, case.split("-")[2])
    lcp = to_lcp(game)
    w, z, trace = solve_potential_reduction(lcp, epsilon=1e-9)
    assert trace.termination == "converged"
    recover(lcp, w, z, len(trace))
