"""Conditioning measures of game-derived LCP matrices.

Three quantities drive the known interior-point runtime bounds for a
matrix M:

* kappa: the least kappa >= 0 such that, for every x, the negative part of
  sum_i x_i (Mx)_i is outweighed: sum_{I-} x_i(Mx)_i
  + (1 + 4 kappa) sum_{I+} x_i(Mx)_i >= 0.  ``kappa_at`` gives the exact
  least kappa certified by a single direction x, so the maximum over any
  set of directions is a lower estimate of kappa(M).
* delta: the smallest eigenvalue of (M + M^T)/2, computed by LAPACK's
  symmetric eigensolver.
* theta: min over unit x of max_i x_i (Mx)_i; ``theta_at`` evaluates one
  direction, so the minimum over sampled directions is an upper estimate.

For LCPs built from a discounted game on n states with discount gamma, the
general bounds are kappa <= n/(1-gamma)^2, delta > -(1+gamma) sqrt(n) /
(1-gamma) and theta >= (1-gamma)^2 / ((1+gamma)^2 n); estimates reported
here always stay on the certified side of those fences.

P-matrix certification is exhaustive (all principal minors by batched
determinants, n <= 20)
or sampled (a positive product index must exist for every probed x; the
probe index uses the tau-chain transform when game context is available).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import solve
from .game import matrix_representation, restrict
from .lcp import default_partition, to_lcp

__all__ = [
    "CertifyOptions",
    "ConditioningReport",
    "KappaUndefined",
    "MinorsCheck",
    "certify",
    "delta_lower_bound",
    "estimate_kappa",
    "estimate_theta",
    "kappa_at",
    "kappa_upper_bound",
    "pmatrix_check_minors",
    "pmatrix_witness_check",
    "smallest_eigenvalue_sym",
    "theta_at",
    "theta_lower_bound",
    "write_report_csv",
    "write_report_json",
]

MINORS_LIMIT = 20
MINORS_CHUNK_ENTRIES = 1 << 21  # matrix entries per batched determinant call
HILL_CLIMB_ROUNDS = 100


class KappaUndefined(ArithmeticError):
    """x has negative total product mass and no positive part: not P*."""


def _check_n_gamma(n, gamma):
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie strictly in (0, 1), got {gamma}")


def kappa_upper_bound(n, gamma):
    """kappa of any n-state game LCP is at most n / (1-gamma)^2."""
    _check_n_gamma(n, gamma)
    return n / (1.0 - gamma) ** 2


def delta_lower_bound(n, gamma):
    """The symmetrized spectrum stays above -(1+gamma) sqrt(n) / (1-gamma)."""
    _check_n_gamma(n, gamma)
    return -(1.0 + gamma) * math.sqrt(n) / (1.0 - gamma)


def theta_lower_bound(n, gamma):
    """theta of any n-state game LCP is at least (1-gamma)^2/((1+gamma)^2 n)."""
    _check_n_gamma(n, gamma)
    return (1.0 - gamma) ** 2 / ((1.0 + gamma) ** 2 * n)


def _kappa_from_products(prods):
    pos = float(prods[prods > 0.0].sum())
    neg = float(prods[prods < 0.0].sum())
    if pos + neg >= 0.0:
        return 0.0
    if pos == 0.0:
        raise KappaUndefined(
            "direction has negative products only; no finite kappa certifies it"
        )
    return (-neg / pos - 1.0) / 4.0


def kappa_at(m_mat, x):
    """Least kappa certified by direction x (0 when the plain sum is >= 0)."""
    x = np.asarray(x, dtype=np.float64)
    return _kappa_from_products(x * (np.asarray(m_mat) @ x))


def theta_at(m_mat, x):
    """max_i x_i (Mx)_i after normalizing x to unit 2-norm."""
    x = np.asarray(x, dtype=np.float64)
    nrm2 = float(x @ x)
    if nrm2 == 0.0:
        raise ValueError("theta_at needs a nonzero direction")
    return float(np.max(x * (np.asarray(m_mat) @ x))) / nrm2


def smallest_eigenvalue_sym(m_mat):
    """Smallest eigenpair of (M + M^T)/2 by ``numpy.linalg.eigh``.

    The returned pair must satisfy ||A v - lam v|| <= 1e-9 ||A||_F or an
    ArithmeticError is raised.
    """
    m_mat = np.asarray(m_mat, dtype=np.float64)
    a = 0.5 * (m_mat + m_mat.T)
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"symmetric eigensolve failed: {exc}") from exc
    lam = float(vals[0])
    vec = vecs[:, 0].copy()
    fro = float(np.sqrt((a * a).sum()))
    resid = float(np.linalg.norm(a @ vec - lam * vec))
    if resid > 1e-9 * fro:
        raise ArithmeticError(
            f"eigenpair residual {resid:.3e} exceeds 1e-9 * ||A||_F = {1e-9 * fro:.3e}"
        )
    return lam, vec


@dataclass
class MinorsCheck:
    ok: bool
    failing_subset: tuple | None
    min_scaled_minor: float


def pmatrix_check_minors(m_mat, limit=MINORS_LIMIT, tol_factor=1e-12):
    """All 2^n - 1 principal minors positive?  Refuses n above ``limit``.

    A minor counts as positive when its determinant exceeds tol_factor
    times the product of the submatrix row max-norms.  Subsets are scanned
    by size, smallest first and lexicographically within a size, with the
    determinants of a size taken in batches of bounded memory; the scan
    stops at the first subset that fails, which becomes ``failing_subset``.
    ``min_scaled_minor`` is the least determinant / scale ratio scanned.
    """
    m_mat = np.asarray(m_mat, dtype=np.float64)
    n = m_mat.shape[0]
    if n > limit:
        raise ValueError(
            f"minor certification scans 2^{n} - 1 subsets; refusing n > {limit}"
        )
    min_scaled = np.inf
    for k in range(1, n + 1):
        subsets = itertools.combinations(range(n), k)
        chunk = max(1, MINORS_CHUNK_ENTRIES // (k * k))
        while True:
            idx = np.array(list(itertools.islice(subsets, chunk)), dtype=np.intp)
            if idx.size == 0:
                break
            blocks = m_mat[idx[:, :, None], idx[:, None, :]]
            rmax = np.abs(blocks).max(axis=2)
            rmax[rmax == 0.0] = 1.0
            scale = np.prod(rmax, axis=1)
            dets = np.linalg.det(blocks)
            bad = np.flatnonzero(dets <= tol_factor * scale)
            stop = bad[0] + 1 if bad.size else len(dets)
            min_scaled = min(min_scaled, float(np.min(dets[:stop] / scale[:stop])))
            if bad.size:
                failing = tuple(int(i) for i in idx[bad[0]])
                return MinorsCheck(False, failing, min_scaled)
    return MinorsCheck(True, None, min_scaled)


def pmatrix_witness_check(m_mat, x, tau_context=None):
    """Index i with x_i (Mx)_i > 0, or None (then M is not a P-matrix).

    When ``tau_context = (gamma, p_tau, ownership_signs)`` is given, the
    index maximizing |(I - gamma P_tau)^{-1} S x| is tried first; for
    game-derived M that index is guaranteed to work.
    """
    m_mat = np.asarray(m_mat, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    prods = x * (m_mat @ x)
    if tau_context is not None:
        gamma, p_tau, signs = tau_context
        u = solve(np.eye(len(x)) - gamma * np.asarray(p_tau), signs * x)
        j = int(np.argmax(np.abs(u)))
        if prods[j] > 0.0:
            return j
    j = int(np.argmax(prods))
    return j if prods[j] > 0.0 else None


# ---------------------------------------------------------------------------
# sampled estimates


def _kappa_batch(x_rows, y_rows):
    prods = x_rows * y_rows
    pos = np.where(prods > 0.0, prods, 0.0).sum(axis=1)
    neg = np.where(prods < 0.0, prods, 0.0).sum(axis=1)
    vals = np.zeros(x_rows.shape[0])
    active = pos + neg < 0.0
    safe = active & (pos > 0.0)
    vals[safe] = (-neg[safe] / pos[safe] - 1.0) / 4.0
    vals[active & ~safe] = np.inf
    return vals


def _theta_batch(x_rows, y_rows):
    norms = (x_rows * x_rows).sum(axis=1)
    return (x_rows * y_rows).max(axis=1) / norms


def _best_sample(m_mat, n_samples, seed, batch_fn, better):
    """Best of ``n_samples`` gaussian directions drawn from ``seed``."""
    x_rows = np.random.default_rng(seed).standard_normal((n_samples, m_mat.shape[0]))
    vals = batch_fn(x_rows, x_rows @ m_mat.T)
    k = int(np.argmin(vals)) if better == "min" else int(np.argmax(vals))
    return float(vals[k]), x_rows[k].copy()


def _climb(m_mat, x0, objective, better, rounds=HILL_CLIMB_ROUNDS):
    """Coordinate hill climbing with incremental M x updates.

    One round tries +/- scale on every coordinate; rounds without any
    improvement halve the scale.
    """
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


def estimate_kappa(m_mat, n_samples=10_000, seed=0, witnesses=()):
    """Lower estimate of kappa(M): max of kappa_at over witnesses, seeded
    gaussian samples, and coordinate hill climbing from the best sample.

    Returns (value, direction); the value is ``kappa_at`` recomputed from
    the returned direction.  An infinite value means a direction proved M
    is not P* (impossible for game-derived matrices).
    """
    m_mat = np.asarray(m_mat, dtype=np.float64)
    best_val = 0.0
    best_x = np.zeros(m_mat.shape[0])
    best_x[0] = 1.0
    for wit in witnesses:
        wit = np.asarray(wit, dtype=np.float64)
        try:
            val = kappa_at(m_mat, wit)
        except KappaUndefined:
            return np.inf, wit
        if val > best_val:
            best_val, best_x = val, wit.copy()
    if n_samples > 0:
        val, x = _best_sample(m_mat, n_samples, seed, _kappa_batch, "max")
        if val > best_val:
            best_val, best_x = val, x
    if math.isinf(best_val):
        return best_val, best_x
    val, x = _climb(m_mat, best_x, _kappa_objective, "max")
    if val > best_val:
        best_x = x
    try:
        return kappa_at(m_mat, best_x), best_x
    except KappaUndefined:
        return np.inf, best_x


def estimate_theta(m_mat, n_samples=10_000, seed=0, witnesses=()):
    """Upper estimate of theta(M): min of theta_at over witnesses, the
    uniform direction, seeded samples, and hill climbing from the best.

    Returns (value, direction); the direction is unit 2-norm and the value
    is ``theta_at`` recomputed from it.
    """
    m_mat = np.asarray(m_mat, dtype=np.float64)
    n = m_mat.shape[0]
    uniform = np.full(n, 1.0 / math.sqrt(n))
    best_val = theta_at(m_mat, uniform)
    best_x = uniform
    for wit in witnesses:
        wit = np.asarray(wit, dtype=np.float64)
        val = theta_at(m_mat, wit)
        if val < best_val:
            best_val, best_x = val, wit.copy()
    if n_samples > 0:
        val, x = _best_sample(m_mat, n_samples, seed, _theta_batch, "min")
        if val < best_val:
            best_val, best_x = val, x
    val, x = _climb(m_mat, best_x, _theta_objective, "min")
    if val < best_val:
        best_x = x
    best_x = best_x / np.linalg.norm(best_x)
    return theta_at(m_mat, best_x), best_x


# ---------------------------------------------------------------------------
# certification report


@dataclass
class CertifyOptions:
    seed: int
    samples: int = 10_000
    minors_limit: int = MINORS_LIMIT
    witness_samples: int = 1_000


CSV_COLUMNS = (
    "n",
    "gamma",
    "kappa_est",
    "kappa_ub",
    "delta",
    "delta_lb",
    "theta_est",
    "theta_lb",
    "cond",
    "pmatrix",
    "seed",
)


@dataclass
class ConditioningReport:
    n: int
    gamma: float
    kappa_est: float
    kappa_ub: float
    delta: float
    delta_lb: float
    theta_est: float
    theta_lb: float
    cond: float
    pmatrix: str
    pmatrix_detail: str
    runtime_unified: str
    runtime_potential: str
    samples: int
    seed: int

    def to_json_dict(self):
        return {
            "n": self.n,
            "gamma": self.gamma,
            "kappa_est": self.kappa_est,
            "kappa_ub": self.kappa_ub,
            "delta": self.delta,
            "delta_lb": self.delta_lb,
            "theta_est": self.theta_est,
            "theta_lb": self.theta_lb,
            "cond": self.cond,
            "pmatrix": self.pmatrix,
            "pmatrix_detail": self.pmatrix_detail,
            "runtime_unified": self.runtime_unified,
            "runtime_potential": self.runtime_potential,
            "samples": self.samples,
            "seed": self.seed,
        }

    def csv_row(self):
        vals = [getattr(self, c) for c in CSV_COLUMNS]
        return ",".join(v if isinstance(v, str) else repr(v) for v in vals)


def certify(game, partition=None, options=None):
    """Build the game's LCP and report kappa/delta/theta with their fences."""
    if options is None:
        raise ValueError("certify needs CertifyOptions (the seed is mandatory)")
    rep = matrix_representation(game)
    if partition is None:
        partition = default_partition(game)
    lcp = to_lcp(game, partition)
    m_mat = lcp.m
    n = lcp.n
    gamma = game.gamma

    p_tau, c_tau = restrict(rep, partition.tau)
    witnesses = [c_tau, rep.ownership_signs * c_tau]
    kappa_est, _ = estimate_kappa(m_mat, options.samples, options.seed, witnesses)
    theta_est, _ = estimate_theta(m_mat, options.samples, options.seed, witnesses)
    delta, _ = smallest_eigenvalue_sym(m_mat)

    if n <= options.minors_limit:
        mc = pmatrix_check_minors(m_mat, options.minors_limit)
        if mc.ok:
            verdict = "minors-positive"
            detail = (
                f"all {2 ** n - 1} principal minors positive "
                f"(min scaled minor {mc.min_scaled_minor:.3e})"
            )
        else:
            verdict = "failed"
            detail = f"principal minor of subset {mc.failing_subset} not positive"
    else:
        tau_context = (gamma, p_tau, rep.ownership_signs)
        rng = np.random.default_rng(options.seed)
        verdict = "witness-sampled"
        detail = f"{options.witness_samples} sampled directions all had a positive product index"
        for _ in range(options.witness_samples):
            x = rng.standard_normal(n)
            if pmatrix_witness_check(m_mat, x, tau_context) is None:
                verdict = "failed"
                detail = "a sampled direction had no positive product index"
                break

    cond = -delta / theta_est
    return ConditioningReport(
        n=n,
        gamma=gamma,
        kappa_est=kappa_est,
        kappa_ub=kappa_upper_bound(n, gamma),
        delta=delta,
        delta_lb=delta_lower_bound(n, gamma),
        theta_est=theta_est,
        theta_lb=theta_lower_bound(n, gamma),
        cond=cond,
        pmatrix=verdict,
        pmatrix_detail=detail,
        runtime_unified=(
            f"O((1+kappa) n^3.5 L) with 1+kappa >= {1.0 + kappa_est:.6g}, L symbolic"
        ),
        runtime_potential=(
            f"O((-delta/theta) n^4 log(1/eps)) with -delta/theta ~= {cond:.6g}"
        ),
        samples=options.samples,
        seed=options.seed,
    )


def write_report_json(report, path):
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")


def write_report_csv(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.write(report.csv_row() + "\n")
