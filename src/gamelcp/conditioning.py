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

``certify`` proves the M of an LCP from ``lcp.to_lcp`` a P-matrix from the
row diagonally dominant B_s = I - gamma P_sigma, B_t = I - gamma P_tau it
keeps (:func:`structural_certificate`); the principal-minor scan (n <= 20)
and the one-direction witness check remain as independent checks.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from ._csv import write_csv
from ._kernels import SingularMatrixError, _gamma, solve

__all__ = [
    "CertifyOptions",
    "ConditioningReport",
    "KappaUndefined",
    "MinorsCheck",
    "StructuralCertificate",
    "certify",
    "delta_lower_bound",
    "estimate_kappa",
    "estimate_theta",
    "gaussian_block",
    "kappa_at",
    "kappa_upper_bound",
    "pmatrix_check_minors",
    "pmatrix_witness_check",
    "report_json",
    "smallest_eigenvalue_sym",
    "structural_certificate",
    "theta_at",
    "theta_lower_bound",
    "write_report_csv",
    "write_report_json",
]

MINORS_LIMIT = 20
MINORS_TOL = 1e-12  # a minor above this times its row-max product is positive
MINORS_CHUNK_ENTRIES = 1 << 21  # matrix entries per batched determinant call
HILL_CLIMB_ROUNDS = 100
CLIMB_WINDOW_ENTRIES = 1 << 15  # direction entries per climb call over hit-less rounds


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


def _solvable(a):
    try:
        solve(a, np.zeros(a.shape[0]))
    except SingularMatrixError:
        return False
    return True


def pmatrix_check_minors(m_mat):
    """All 2^n - 1 principal minors positive?  Refuses n above MINORS_LIMIT.

    A minor counts as positive when its determinant exceeds MINORS_TOL
    times the product of the submatrix row max-norms, or when it is
    positive and :func:`solve` accepts the submatrix: under solve's
    condition gate (1 / PIVOT_RTOL) the LU that gives the determinant is
    accurate enough to trust its sign.  Subsets are scanned by size,
    smallest first and lexicographically within a size, with the
    determinants of a size taken in batches of bounded memory; the scan
    stops at the first subset that fails, which becomes ``failing_subset``.
    ``min_scaled_minor`` is the least determinant / scale ratio scanned.
    """
    m_mat = np.asarray(m_mat, dtype=np.float64)
    n = m_mat.shape[0]
    if n > MINORS_LIMIT:
        raise ValueError(
            f"minor certification scans 2^{n} - 1 subsets; refusing n > {MINORS_LIMIT}"
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
            low = np.flatnonzero(dets <= MINORS_TOL * scale)
            bad = next(
                (i for i in low if dets[i] <= 0.0 or not _solvable(blocks[i])), None
            )
            stop = len(dets) if bad is None else bad + 1
            min_scaled = min(min_scaled, float(np.min(dets[:stop] / scale[:stop])))
            if bad is not None:
                failing = tuple(int(i) for i in idx[bad])
                return MinorsCheck(False, failing, min_scaled)
    return MinorsCheck(True, None, min_scaled)


def pmatrix_witness_check(m_mat, x):
    """Index i with x_i (Mx)_i > 0, or None (then M is not a P-matrix)."""
    x = np.asarray(x, dtype=np.float64)
    prods = x * (np.asarray(m_mat, dtype=np.float64) @ x)
    i = int(np.argmax(prods))
    return i if prods[i] > 0.0 else None


def _row_margin(b):
    """min_i (b_ii - sum_{j != i} |b_ij|), each row less its rounding error."""
    n = b.shape[0]
    diag = np.diag(b)
    abs_rows = np.abs(b).sum(axis=1)
    # the row sum, the two subtractions and the error term: n + 3 roundings
    return float((diag - (abs_rows - np.abs(diag)) - _gamma(n + 4) * abs_rows).min())


@dataclass
class StructuralCertificate:
    ok: bool
    mu_s: float
    mu_t: float
    theta_cert: float
    err: float
    ratio: float  # err / theta_cert; inf unless theta_cert > 0

    def detail(self):
        verdict = "M is a P-matrix" if self.ok else "not certified"
        return (
            f"{verdict}: mu_s {self.mu_s:.3e}, mu_t {self.mu_t:.3e}, "
            f"theta_cert {self.theta_cert:.3e}, e {self.err:.3e}, "
            f"e/theta_cert {self.ratio:.3e}"
        )


def structural_certificate(m_mat, b_sig, b_tau, signs):
    """Is the computed M (from B_s, B_t and signs S) provably a P-matrix?

    Exactly M = S B_s B_t^-1 S.  For x = S B_t u and i = argmax |u_i|, the
    row margins give x_i (Mx)_i = (B_t u)_i (B_s u)_i >= mu_s mu_t |u|_inf^2
    >= theta_cert |x|_2^2.  The computed M is M + E, E = -S R B_t^-1 S with
    R = B_s - X B_t, X = S M S, so |E|_inf <= e: the computed residual plus
    its rounding bound, over mu_t.  As |x_i (Ex)_i| <= |E|_inf |x|_2^2,
    e < theta_cert proves it; ``ok`` leaves room for the rounding of e and
    theta_cert themselves (2n + 8 roundings each).
    """
    m_mat = np.asarray(m_mat, dtype=np.float64)
    n = m_mat.shape[0]
    mu_s, mu_t = _row_margin(b_sig), _row_margin(b_tau)
    theta = mu_s * mu_t / (n * float(np.abs(b_tau).sum(axis=1).max()) ** 2)
    x = signs[:, None] * m_mat * signs[None, :]
    resid = float(np.abs(b_sig - x @ b_tau).sum(axis=1).max())
    rounding = _gamma(n + 1) * (np.abs(x) @ np.abs(b_tau) + np.abs(b_sig))
    err = (resid + float(rounding.sum(axis=1).max())) / mu_t if mu_t > 0.0 else np.inf
    g = _gamma(2 * n + 8)
    ok = bool(mu_s > 0.0 and mu_t > 0.0 and err * (1.0 + g) < theta * (1.0 - g))
    ratio = err / theta if theta > 0.0 else np.inf
    return StructuralCertificate(ok, mu_s, mu_t, theta, err, ratio)


# ---------------------------------------------------------------------------
# sampled estimates


def _kappa_batch(x_rows, y_rows):
    prods = x_rows * y_rows
    # the same summands in the same order as masking by sign; only the sign
    # of an all-zero sum can differ, and no comparison below sees it
    pos = np.maximum(prods, 0.0).sum(axis=1)
    neg = np.minimum(prods, 0.0, out=prods).sum(axis=1)
    vals = np.zeros(x_rows.shape[0])
    active = pos + neg < 0.0
    safe = active & (pos > 0.0)
    vals[safe] = (-neg[safe] / pos[safe] - 1.0) / 4.0
    vals[active & ~safe] = np.inf
    return vals


def _theta_batch(x_rows, y_rows):
    norms = (x_rows * x_rows).sum(axis=1)
    vals = np.full(x_rows.shape[0], np.inf)  # a zero direction certifies nothing
    np.divide((x_rows * y_rows).max(axis=1), norms, out=vals, where=norms > 0.0)
    return vals


def gaussian_block(m_mat, samples, seed):
    """``samples`` gaussian directions drawn from ``seed`` and M times each,
    as (x_rows, y_rows); None when ``samples`` is not positive."""
    if samples <= 0:
        return None
    m_mat = np.asarray(m_mat, dtype=np.float64)
    x_rows = np.random.default_rng(seed).standard_normal((samples, m_mat.shape[0]))
    return x_rows, x_rows @ m_mat.T


def _climb(m_mat, x0, batch_fn, better):
    """Coordinate hill climbing with incremental M x updates.

    Each of ``HILL_CLIMB_ROUNDS`` rounds tries +scale, then -scale, on each
    coordinate in order, taking the first improving move; rounds without
    any improvement halve the scale.  One ``batch_fn`` call scores every
    move left in the round from the current x, and the climb jumps to the
    first that improves.

    A round without a move leaves x and y as they were, so a round's first
    call also scores the next rounds, at scales halved once per round: a
    window of rounds from the same x, whose first hit in (round, move)
    order is the move the round-by-round climb takes.  The window is one
    round, doubles after each call without a hit and falls back to one
    after a hit; it never passes the rounds left or CLIMB_WINDOW_ENTRIES
    direction entries per call (4 rounds at n = 64).
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    y = m_mat @ x
    best = batch_fn(x[None, :], y[None, :])[0]
    n = x.shape[0]
    # move p is +step (p even) or -step (p odd) on coordinate p // 2
    move_coords = np.repeat(np.arange(n), 2)
    move_signs = np.tile((1.0, -1.0), n)
    move_cols = m_mat.T[move_coords]  # row p: the column of M that move p scales
    n_moves = len(move_coords)
    max_window = max(1, CLIMB_WINDOW_ENTRIES // (n_moves * n))
    halvings = 0.5 ** np.arange(max_window)
    scale = 1.0
    sign = 1.0 if better == "max" else -1.0
    window = 1
    rounds_left = HILL_CLIMB_ROUNDS
    pos = 0  # the next move to try; 0 starts a window of rounds
    while rounds_left:
        rounds = min(window, rounds_left, max_window) if pos == 0 else 1
        scales = scale * halvings[:rounds]
        coords = move_coords[pos:]
        # moves[r, k]: move pos + k of the r-th round from now
        moves = scales[:, None] * np.maximum(1.0, np.abs(x[coords])) * move_signs[pos:]
        if pos % 2:  # -step right after a taken +step: the step measured before it
            moves[0, 0] = -last_step
        x_rows = np.repeat(x[None, :], moves.size, axis=0)
        x_rows.reshape(rounds, -1, n)[:, np.arange(len(coords)), coords] += moves
        y_rows = (y + moves[:, :, None] * move_cols[pos:]).reshape(moves.size, n)
        moves = moves.ravel()
        vals = batch_fn(x_rows, y_rows)
        hits = sign * vals > sign * best
        h = int(np.argmax(hits))  # the first improving move, if any
        if not hits[h]:
            if pos == 0:  # rounds without a move
                rounds_left -= rounds
                scale = scales[-1] * 0.5
                window *= 2
            else:  # the round ends with the moves it took
                rounds_left -= 1
                pos = 0
            continue
        r, p = divmod(h, n_moves - pos)
        if pos == 0:  # r rounds without a move before this one
            rounds_left -= r
            scale = scales[r]
            window = 1
        x, y, best, last_step = x_rows[h], y_rows[h], vals[h], moves[h]
        pos += p + 1
        if pos == n_moves:  # the round took its last move
            rounds_left -= 1
            pos = 0
    return best, x


def _estimate(m_mat, x, val, witnesses, block, exact, batch_fn, better):
    """(value, direction) of the best of the start x (worth val), the
    witnesses and the rows of ``block``, after a climb from it.

    ``exact`` scores the witnesses and the returned direction; ``batch_fn``,
    whose last bits can differ, scores only the block and the climb.  An
    infinite best that no climb can better is returned as it is.
    """
    sign = 1.0 if better == "max" else -1.0
    for wit in witnesses:
        wit = np.asarray(wit, dtype=np.float64)
        wit_val = exact(m_mat, wit)
        if sign * wit_val > sign * val:
            val, x = wit_val, wit.copy()
    if block is not None:
        x_rows, y_rows = block
        vals = batch_fn(x_rows, y_rows)
        k = int(np.argmax(vals)) if better == "max" else int(np.argmin(vals))
        if sign * vals[k] > sign * val:
            val, x = float(vals[k]), x_rows[k].copy()
    if sign * val == np.inf:
        return val, x
    climb_val, climb_x = _climb(m_mat, x, batch_fn, better)
    if sign * climb_val > sign * val:
        x = climb_x
    return exact(m_mat, x), x


def _kappa_or_inf(m_mat, x):
    try:
        return kappa_at(m_mat, x)
    except KappaUndefined:
        return np.inf


def estimate_kappa(m_mat, block, witnesses=()):
    """Lower estimate of kappa(M): max of kappa_at over witnesses, the
    sampled directions of ``block`` (a :func:`gaussian_block` of M, or
    None), and coordinate hill climbing from the best of them.

    Returns (value, direction); the value is ``kappa_at`` recomputed from
    the returned direction.  An infinite value means a direction proved M
    is not P* (impossible for game-derived matrices).
    """
    m_mat = np.asarray(m_mat, dtype=np.float64)
    e_0 = np.zeros(m_mat.shape[0])
    e_0[0] = 1.0
    return _estimate(
        m_mat, e_0, 0.0, witnesses, block, _kappa_or_inf, _kappa_batch, "max"
    )


def estimate_theta(m_mat, block, witnesses=()):
    """Upper estimate of theta(M): min of theta_at over witnesses, the
    uniform direction, the sampled directions of ``block`` (a
    :func:`gaussian_block` of M, or None), and hill climbing from the best.

    Returns (value, direction); the direction is unit 2-norm and the value
    is ``theta_at`` recomputed from it.
    """
    m_mat = np.asarray(m_mat, dtype=np.float64)
    uniform = np.full(m_mat.shape[0], 1.0 / math.sqrt(m_mat.shape[0]))
    _, x = _estimate(
        m_mat, uniform, theta_at(m_mat, uniform), witnesses, block, theta_at,
        _theta_batch, "min",
    )
    x = x / np.linalg.norm(x)
    return theta_at(m_mat, x), x


# ---------------------------------------------------------------------------
# certification report


@dataclass
class CertifyOptions:
    seed: int
    samples: int = 10_000

    def __post_init__(self):
        if self.samples < 0:
            raise ValueError(f"samples must be nonnegative, got {self.samples}")


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
        return asdict(self)


def certify(lcp, options):
    """Report kappa/delta/theta of the LCP ``lcp.to_lcp`` built, with fences.

    The P-matrix verdict is ``structural`` when :func:`structural_certificate`
    holds for the computed M and the LCP's B_s, B_t, else ``undecided``.
    """
    red = lcp.game_reduction("certify")
    m_mat = np.asarray(lcp.m, dtype=np.float64)
    n, gamma, signs = red.game.n, red.game.gamma, red.game.ownership_signs
    witnesses = [red.c_tau, signs * red.c_tau]
    block = gaussian_block(m_mat, options.samples, options.seed)  # one draw for both
    kappa_est, _ = estimate_kappa(m_mat, block, witnesses)
    theta_est, _ = estimate_theta(m_mat, block, witnesses)
    delta, _ = smallest_eigenvalue_sym(m_mat)
    cert = structural_certificate(m_mat, red.b_sig, red.b_tau, signs)
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
        pmatrix="structural" if cert.ok else "undecided",
        pmatrix_detail=cert.detail(),
        runtime_unified=(
            f"O((1+kappa) n^3.5 L) with 1+kappa >= {1.0 + kappa_est:.6g}, L symbolic"
        ),
        runtime_potential=(
            f"O((-delta/theta) n^4 log(1/eps)) with -delta/theta ~= {cond:.6g}"
        ),
        samples=options.samples,
        seed=options.seed,
    )


def report_json(report):
    """The report's file form, as ``write_report_json`` writes it."""
    return json.dumps(report.to_json_dict(), indent=2) + "\n"


def write_report_json(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_json(report))


def write_report_csv(report, path):
    write_csv(path, CSV_COLUMNS, [[getattr(report, c) for c in CSV_COLUMNS]])
