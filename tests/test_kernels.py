"""The dense solves and the principal-minor scan against numpy.linalg oracles."""

import itertools

import numpy as np
import pytest

from gamelcp import _kernels as kn
from gamelcp.bench import random_game
import gamelcp.conditioning as cond
from gamelcp.conditioning import pmatrix_check_minors
from gamelcp.game import build_game, value_vector
from gamelcp.lcp import reduction


def _well_conditioned(rng, n):
    a = rng.standard_normal((n, n))
    return a + n * np.eye(n)


# ---------------------------------------------------------------------------
# solve


def test_solve_matches_numpy_1d():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 9, 17):
        a = _well_conditioned(rng, n)
        b = rng.standard_normal(n)
        x = kn.solve(a, b)
        expect = np.linalg.solve(a, b)
        assert x.shape == (n,)
        assert np.allclose(x, expect, rtol=1e-11, atol=1e-11)


def test_lu_requires_pivoting():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.array([2.0, 3.0])
    assert np.allclose(kn.solve(a, b), [3.0, 2.0])


def test_lu_singular_raises():
    with pytest.raises(kn.SingularMatrixError):
        kn.solve(np.zeros((3, 3)), np.ones(3))
    with pytest.raises(kn.SingularMatrixError):
        kn.solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))


def test_near_singular_raises_despite_zero_residual():
    # LAPACK solves this with a zero residual and x ~ 9e14; the condition
    # gate must refuse it all the same
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    with pytest.raises(kn.SingularMatrixError):
        kn.solve(a, np.ones(2))


def test_lu_roundtrip_residual():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        a = _well_conditioned(rng, n)
        b = rng.standard_normal(n)
        x = kn.solve(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * (1.0 + np.linalg.norm(b))


def test_row_scaling_keeps_badly_scaled_rows_solvable():
    # rows of wildly different magnitude: the gate measures the condition
    # after row equilibration, so this diagonal system is fine
    a = np.diag([1e-12, 1.0, 1e12])
    x = kn.solve(a, np.array([1e-12, 2.0, 3e12]))
    assert np.allclose(x, [1.0, 2.0, 3.0], rtol=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_value_vector_gamma_edge(seed):
    profile = np.zeros(16, dtype=np.int64)
    v = value_vector(random_game(16, 1.0 - 1e-8, seed), profile)
    assert np.all(np.isfinite(v))
    with pytest.raises(kn.SingularMatrixError):
        value_vector(random_game(16, 1.0 - 1e-15, seed), profile)


# ---------------------------------------------------------------------------
# solve_discounted


def test_solve_discounted_is_one_plain_solve():
    # behind its gate the helper is np.linalg.solve, bit for bit, on B and B^T
    for n in range(1, 65):
        red = reduction(random_game(n, (0.5, 0.9, 0.99)[n % 3], n))
        b = red.b_tau
        assert np.array_equal(
            kn.solve_discounted(b, red.c_tau), np.linalg.solve(b, red.c_tau)
        )
        assert np.array_equal(
            kn.solve_discounted(b, red.b_sig.T, transpose=True),
            np.linalg.solve(b.T, red.b_sig.T),
        )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_transposed_solve_gamma_edge(seed):
    # test_value_vector_gamma_edge covers the untransposed solve
    red = reduction(random_game(16, 1.0 - 1e-8, seed))
    x = kn.solve_discounted(red.b_tau, red.b_sig.T, transpose=True)
    assert np.all(np.isfinite(x))
    red = reduction(random_game(16, 1.0 - 1e-15, seed))
    with pytest.raises(kn.SingularMatrixError, match="condition number"):
        kn.solve_discounted(red.b_tau, red.b_sig.T, transpose=True)


@pytest.mark.parametrize("transpose", [False, True])
def test_solve_discounted_refuses_excess_row_mass(transpose):
    # build_game skips validate_game's mass check: gamma r = 0.9 * 1.2 >= 1
    heavy = build_game(0.9, [(1, [(1.0, [(0, 0.6), (1, 0.6)])])] * 2)
    b = np.eye(2) - 0.9 * heavy.p
    with pytest.raises(kn.SingularMatrixError, match="gamma r = 1.08"):
        kn.solve_discounted(b, np.ones(2), transpose)
    # gamma r = 1 exactly: b is the zero matrix, refused before LAPACK sees it
    with pytest.raises(kn.SingularMatrixError, match="gamma r = 1 >= 1"):
        kn.solve_discounted(np.zeros((1, 1)), np.ones(1), transpose)


def test_transposed_bound_covers_a_funnel(monkeypatch):
    # every state moves to state 0: kappa_inf(B) = (1 + g) / (1 - g) = 19,
    # but kappa_inf(B^T) = kappa_1(B) is about n^2 g^2 / (1 - g), above
    # n kappa_inf(B), so the transposed gate needs B's column sums
    n, g = 64, 0.9
    b = np.eye(n)
    b[:, 0] -= g
    kappa_t = np.linalg.cond(b.T, np.inf)
    assert kappa_t > 20 * n * (1.0 + g) / (1.0 - g)
    monkeypatch.setattr(kn, "PIVOT_RTOL", 1.0 / kappa_t)
    kn.solve_discounted(b, np.ones(n))
    with pytest.raises(kn.SingularMatrixError, match="condition number bound"):
        kn.solve_discounted(b, np.ones(n), transpose=True)


# ---------------------------------------------------------------------------
# principal minors


def _minors_oracle(a, tol_factor=1e-12):
    n = a.shape[0]
    scale_rows = np.maximum(np.abs(a).sum(axis=1), 1.0)
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            idx = np.array(subset)
            det = np.linalg.det(a[np.ix_(idx, idx)])
            if det <= tol_factor * float(np.prod(scale_rows[idx])):
                return False, subset
    return True, None


def test_minors_identity_and_known_failure():
    mc = pmatrix_check_minors(np.eye(4))
    assert mc.ok and mc.failing_subset is None and mc.min_scaled_minor > 0
    mc = pmatrix_check_minors(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert not mc.ok
    assert mc.failing_subset == (0,)  # the 1x1 minor at index 0 is zero


def test_minors_match_bruteforce_oracle():
    rng = np.random.default_rng(4)
    cases = []
    for n in (2, 3, 4, 5):
        for _ in range(10):
            cases.append(rng.standard_normal((n, n)))
            m = rng.standard_normal((n, n))
            cases.append(m @ m.T + n * np.eye(n))  # positive definite: P-matrix
    for a in cases:
        mc = pmatrix_check_minors(a)
        expect_ok, _ = _minors_oracle(a)
        assert mc.ok == expect_ok
        if not mc.ok:
            idx = np.array(mc.failing_subset)
            det = np.linalg.det(a[np.ix_(idx, idx)])
            scale_rows = np.maximum(np.abs(a).sum(axis=1), 1.0)
            assert det <= 1e-10 * float(np.prod(scale_rows[idx]))


def test_minors_scan_spans_chunks(monkeypatch):
    # the same verdict, failing subset and minimum whether the determinants
    # of one size come in one batch or in many
    rng = np.random.default_rng(6)
    m = rng.standard_normal((7, 7))
    p_mat = m @ m.T + 7 * np.eye(7)
    bad = p_mat.copy()
    bad[5, 6] = bad[6, 5] = 100.0  # first failure: the 2x2 minor on (5, 6)
    whole = [pmatrix_check_minors(a) for a in (p_mat, bad)]
    monkeypatch.setattr(cond, "MINORS_CHUNK_ENTRIES", 1)
    chunked = [pmatrix_check_minors(a) for a in (p_mat, bad)]
    assert whole == chunked
    assert whole[0].ok and not whole[1].ok
    assert whole[1].failing_subset == (5, 6)
