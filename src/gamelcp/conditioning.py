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
keeps (:func:`structural_certificate`), and estimates kappa and theta with
:func:`estimate_kappa` and :func:`estimate_theta`: each scores its built-in
start and the starts it is given, c_tau and the best direction of one
gaussian sample, then climbs from the best of them by coordinate moves,
scoring the moves it predicts to try next in one call (:func:`_climb`);
theta's climb stops at step scale THETA_SCALE_FLOOR and a Newton
equalization, :func:`_equalize`, finishes it.  It streams the sample a
chunk at a time through both measures' scorers and keeps only each
measure's best row, so its memory does not grow with the number of samples.
Every function here reads M in Fortran order, as ``lcp.to_lcp`` builds
it, and copies any other layout: products with a C-ordered copy of M take
other BLAS kernels, which round apart in the last bits.
:func:`pmatrix_check_minors` (all principal minors, n <= 20) and
:func:`pmatrix_witness_check` (one direction) are independent P-matrix
oracles for callers and tests: ``certify`` never calls them.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from ._csv import write_csv
from ._kernels import SingularMatrixError, _gamma, _newton, solve
from .game import check_gamma

__all__ = [
    "ConditioningReport",
    "KappaUndefined",
    "MinorsCheck",
    "StructuralCertificate",
    "certify",
    "delta_lower_bound",
    "estimate_kappa",
    "estimate_theta",
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
]

MINORS_LIMIT = 20
MINORS_TOL = 1e-12  # a minor above this times its row-max product is positive
MINORS_CHUNK_ENTRIES = 1 << 21  # matrix entries per batched determinant call
HILL_CLIMB_ROUNDS = 100
CLIMB_WINDOW_ENTRIES = 1 << 15  # direction entries per climb call over hit-less rounds
# direction entries per chunk of the gaussian sample that certify streams
# (128 KB of directions).  certify_random's op_ms_p50 ran at 15.5-15.7 ref_ms
# with chunks of 2^13 or 2^14 entries, 15.4-16.5 at 2^15, 16.5-16.7 at 2^16
# and 16.7-17.9 at 2^17, against 14.1-15.6 with the whole sample at once
# (perfbench seed 19, three runs each on a 2-core VM).
SAMPLE_CHUNK_ENTRIES = 1 << 14
# a climb call predicts exactly its flagged moves, each row scored from x
# after the flagged moves before it, once this many calls in a row took the
# first flagged move; the count carries across round ends.  Against 3, on the
# recorded climbs of a seed-19 perfbench pass (2-core VM): at 0, certify_random's
# make 7% fewer calls in 26% more CPU time, sweep_hard's 14% fewer in 2% less;
# at 2, +4% and -2% CPU time.
SPECULATE_AFTER = 3
# theta's climb ends above this step scale and _equalize finishes it.  Against
# the full climb, on certify_random's and sweep_hard's inputs at seeds 1-10, 19:
# 2^-12 ran 2.2x faster, worst +6.7e-3 relative; 2^-15 1.8x, +6.7e-4; 2^-20 1.5x, +1e-5
THETA_SCALE_FLOOR = 2.0**-15
EQUALIZE_STEPS = 50  # Newton steps, and halvings of each


class KappaUndefined(ArithmeticError):
    """x has negative total product mass and no positive part: not P*."""


def _check_n_gamma(n, gamma):
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    check_gamma(gamma)


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


def smallest_eigenvalue_sym(m_mat):
    """Smallest eigenpair of (M + M^T)/2 by ``numpy.linalg.eigh``.

    The returned pair must satisfy ||A v - lam v|| <= 1e-9 ||A||_F or an
    ArithmeticError is raised.
    """
    m_mat = np.asfortranarray(m_mat, dtype=np.float64)
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
    m_mat = np.asfortranarray(m_mat, dtype=np.float64)
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
    prods = x * (np.asfortranarray(m_mat, dtype=np.float64) @ x)
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
    m_mat = np.asfortranarray(m_mat, dtype=np.float64)
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
    prods = np.multiply(x_rows, y_rows, order="C")  # each row sums as one run
    # the same summands in the same order as masking by sign; only the sign
    # of an all-zero sum can differ, and no comparison below sees it
    pos = np.add.reduce(np.maximum(prods, 0.0), axis=1)
    neg = np.add.reduce(np.minimum(prods, 0.0, out=prods), axis=1)
    active = pos + neg < 0.0
    # neg / pos reads -inf where the negative part outweighs an empty
    # positive part, and -1 (kappa 0) where it does not outweigh it
    ratio = np.where(active, -np.inf, -1.0)
    np.divide(neg, pos, out=ratio, where=active & (pos > 0.0))
    return (-1.0 - ratio) / 4.0


def _theta_batch(x_rows, y_rows):
    norms = np.add.reduce(np.multiply(x_rows, x_rows, order="C"), axis=1)
    prods = np.multiply(x_rows, y_rows, order="C").ravel()
    # a max is exact in any order, and reduceat takes each row's faster than
    # a reduction along short rows
    top = np.maximum.reduceat(prods, np.arange(0, prods.size, x_rows.shape[1]))
    # inf / 0 is inf: a zero direction certifies nothing
    return np.where(norms > 0.0, top, np.inf) / norms


def _score(batch_fn, m_mat, x):
    """``batch_fn``'s value of the one direction x."""
    x = np.asarray(x, dtype=np.float64)
    return float(batch_fn(x[None, :], (np.asfortranarray(m_mat) @ x)[None, :])[0])


def kappa_at(m_mat, x):
    """Least kappa certified by direction x (0 when the plain sum is >= 0)."""
    val = _score(_kappa_batch, m_mat, x)
    if val == np.inf:
        raise KappaUndefined(
            "direction has negative products only; no finite kappa certifies it"
        )
    return val


def theta_at(m_mat, x):
    """max_i x_i (Mx)_i after normalizing x to unit 2-norm."""
    val = _score(_theta_batch, m_mat, x)
    if val == np.inf:
        raise ValueError("theta_at needs a nonzero direction")
    return val


def _sample_chunks(m_mat, samples, seed):
    """The gaussian sample: ``samples`` directions drawn in order from one
    ``default_rng(seed)``, yielded as (x_rows, x_rows @ M.T) chunks of at
    most SAMPLE_CHUNK_ENTRIES direction entries (one row at least).

    The chunks' row counts differ by one at most: a short last chunk would
    take BLAS's path for few rows, whose products round apart from the
    one-shot product's rows (1 to 18 rows at n = 64 on OpenBLAS 0.3.31,
    Haswell kernels), while chunks this long match them bit for bit there,
    so the sample's picks are those that the one-shot product gives.
    """
    rng = np.random.default_rng(seed)
    n = m_mat.shape[0]
    chunks = -(-samples // max(1, SAMPLE_CHUNK_ENTRIES // n))
    for k in range(chunks):
        rows = (k + 1) * samples // chunks - k * samples // chunks
        x_rows = rng.standard_normal((rows, n))
        yield x_rows, x_rows @ m_mat.T


def _sample_bests(m_mat, samples, seed):
    """The first best direction of the gaussian sample under kappa (the
    max) and under theta (the min), each as a list of at most one row
    (empty when ``samples`` is not positive).

    The sample ranks its rows by their chunk's products, not one ``M @ x``
    each.  Each chunk is scored once per measure; a later chunk replaces a
    row only when it scores strictly better, as argmax and argmin keep the
    first index, so each is the whole sample's first best while memory
    stays one chunk.
    """
    measures = ((_kappa_batch, 1.0), (_theta_batch, -1.0))  # max kappa, min theta
    bests = [(None, [])] * len(measures)  # (sign * value, [row])
    for x_rows, y_rows in _sample_chunks(m_mat, samples, seed):
        for i, (batch_fn, sign) in enumerate(measures):
            vals = sign * batch_fn(x_rows, y_rows)
            k = int(np.argmax(vals))
            if not bests[i][1] or vals[k] > bests[i][0]:
                bests[i] = vals[k], [x_rows[k].copy()]
    return tuple(rows for _, rows in bests)


def _climb(m_mat, x0, batch_fn, better, floor=0.0):
    """Coordinate hill climbing with incremental M x updates.

    Each of ``HILL_CLIMB_ROUNDS`` rounds tries +scale, then -scale, on each
    coordinate in order and takes every move that improves; a round without
    a move halves the scale, and the climb ends before a round whose scale
    would be below ``floor``.  A round reads its steps, +-scale max(1, |x_j|),
    from one table measured at its start.

    Each ``batch_fn`` call scores one slice of the slot table, the moves that
    a call per move would try next, with a prediction of which improve:
    * at a round's start, none in a window of rounds from x at scales halved
      once per round.  The window doubles after rounds without a move, is one
      round after a move, and stops at the rounds left, the floor and the cap
      of CLIMB_WINDOW_ENTRIES direction entries per call;
    * after a move with none flagged, none in the rest of the round, nor in
      the next round's moves 0..pos (its later moves are this call's rows)
      when that round is left and fits the cap;
    * once SPECULATE_AFTER calls in a row, counted across round ends, took
      the first flagged move: exactly the flagged moves, the row of move m
      scored from its base, x after the flagged moves before m;
    * otherwise, none in the rest of the round.
    The rows before the first one off the prediction are applied as
    predicted.  That row, if it improves, is taken: the rounds scored before
    its own end (a window's each halve the scale), the table is measured
    again at x, and the later moves of its round that improve on the same
    base are flagged.  A flagged row that does not improve leaves x at its
    base; with no such row, x goes to the last base and every round scored
    ends.  A base's y is a cumulative sum of step times column, and its x
    one of one-hot steps with -0.0 elsewhere, which keeps every other
    entry's bits: the roundings of one move per call.  Every call writes its
    rows into one workspace per climb: rows allocated per call made glibc
    trim the heap and fault it in again on every call.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    y = m_mat @ x
    best = batch_fn(x[None, :], y[None, :])[0]
    n = x.shape[0]
    # move p is +step (p even) or -step (p odd) on coordinate p // 2; slot
    # r * n_moves + p is move p of the r-th round from now
    n_moves = 2 * n
    max_window = max(1, CLIMB_WINDOW_ENTRIES // (n_moves * n))
    max_rows = max_window * n_moves
    slot_moves = np.tile(np.arange(n_moves), max_window)
    slot_coords = slot_moves // 2
    slot_cols = m_mat.T[slot_coords]  # the column of M that the slot's move scales
    slot_halvings = np.repeat(0.5 ** np.arange(max_window), n_moves)
    move_signs = np.tile((1.0, -1.0), n)
    row_starts = np.arange(max_rows) * n  # where row i of a call's x rows starts, flattened
    workspace = np.empty((2, max_rows, n))  # each call's x rows and y rows
    improves = np.greater if better == "max" else np.less

    def measured(scale):  # a round's steps from x
        return (scale * move_signs) * np.repeat(np.maximum(1.0, np.abs(x)), 2)

    scale, window, rounds_left = 1.0, 1, HILL_CLIMB_ROUNDS
    pos = 0  # the next move to try; 0 starts a window of rounds
    guess = slot_moves[:0]  # the moves after pos flagged to improve, in order
    streak = 0  # calls in a row that took the first flagged move
    while rounds_left and scale >= floor:
        speculate = streak >= SPECULATE_AFTER and guess.size
        if pos == 0:
            table = measured(scale)
            above = int(math.log2(scale / floor)) + 1 if floor else rounds_left
            end = min(window, rounds_left, max_window, above) * n_moves
        elif not guess.size and rounds_left >= 2 and max_window > 1:
            end = n_moves + pos + 1  # the closing scan wraps into the next round
        else:
            end = n_moves
        rows, n_rows = slice(pos, end), end - pos
        row_moves = slot_moves[rows]
        steps = table[row_moves]
        if end > n_moves and pos:  # the next round's moves 0..pos
            steps[n_moves - pos :] = measured(scale)[: pos + 1]
        elif end > n_moves:  # a window's later rounds
            steps *= slot_halvings[rows]
        x_rows, y_rows = workspace[:, :n_rows]
        np.multiply(steps[:, None], slot_cols[rows], out=y_rows)
        flagged = guess - pos if speculate else guess[:0]  # the rows predicted to improve
        if speculate:
            counts = np.diff(np.concatenate(((0,), flagged + 1, (n_rows,))))
            ones = np.full((flagged.size, n), -0.0)
            ones[np.arange(flagged.size), slot_coords[guess]] = steps[flagged]
            bases_x = np.cumsum(np.concatenate((x[None, :], ones)), axis=0)
            bases_y = np.cumsum(np.concatenate((y[None, :], y_rows[flagged])), axis=0)
            x_rows[...] = bases_x.repeat(counts, axis=0)
            y_rows += bases_y.repeat(counts, axis=0)
        else:
            x_rows[...] = x
            y_rows += y
        x_rows.ravel()[row_starts[:n_rows] + slot_coords[rows]] += steps
        vals = batch_fn(x_rows, y_rows)
        if speculate:
            hits = improves(vals, np.concatenate(((best,), vals[flagged])).repeat(counts))
            off = hits.copy()
            off[flagged] ^= True
        else:
            hits = off = improves(vals, best)
        d = int(off.argmax())
        d = d if off[d] else n_rows  # the first row off the prediction
        k = int(np.searchsorted(flagged, d)) if speculate else 0  # the flagged rows before it
        took = d < n_rows and hits[d]
        if speculate:
            streak = k if k >= SPECULATE_AFTER else 0
        elif guess.size:  # a call with no move flagged leaves the streak
            streak = streak + 1 if took and row_moves[d] == guess[0] else 0
        # the rounds that end before row d's round, or every round scored
        passed = (pos + d) // n_moves if d < n_rows else -(-end // n_moves)
        hitless = max(0, passed - (pos > 0))  # a round after a move halves nothing
        rounds_left -= passed
        scale *= 0.5**hitless
        if took:
            if passed:
                table = measured(scale)
            window = 1
            # the rows after d on its base, to the next flagged row or its round's end
            e = flagged[k] + 1 if k < flagged.size else d + n_moves - row_moves[d]
            guess = row_moves[d + 1 : e][hits[d + 1 : e]]
            # copies: the next call overwrites the workspace
            x, y, best = x_rows[d].copy(), y_rows[d].copy(), vals[d]
            pos = int(row_moves[d]) + 1
        else:
            if k:  # the base of row d, or the last base
                x, y, best = bases_x[k], bases_y[k], vals[flagged[k - 1]]
            if hitless:
                window *= 2
            pos = pos + d + 1 if d < n_rows else 0
            guess = guess[:0]
        if pos == n_moves:  # the round is over
            rounds_left -= 1
            pos, guess = 0, guess[:0]
    return best, x


def _estimate(m_mat, starts, batch_fn, better, floor=0.0):
    """The first of ``starts`` that scores best under ``batch_fn``, after a
    climb from it.  The starts are scored as one batch whose y rows are
    ``m_mat @ s`` one at a time, as :func:`kappa_at` and :func:`theta_at`
    form them, so each start scores as it does alone.  An infinite best,
    which no climb can better, is returned as it is; the climb starts from
    the same score and moves only to strictly better ones.

    A start with an entry past 2^256 (c_tau of costs near the float
    range), whose products would overflow, is scaled to a largest entry in
    [1/2, 1) by a power of two: that is exact and moves neither measure.
    """
    x_rows = np.array(starts, dtype=np.float64)
    exps = np.frexp(np.abs(x_rows).max(axis=1))[1]  # largest entry < 2^exps
    x_rows = np.ldexp(x_rows, -np.where(exps > 256, exps, 0)[:, None])
    vals = batch_fn(x_rows, np.array([m_mat @ s for s in x_rows]))
    sign = 1.0 if better == "max" else -1.0
    k = int(np.argmax(sign * vals))
    if sign * vals[k] == np.inf:
        return x_rows[k]
    return _climb(m_mat, x_rows[k], batch_fn, better, floor)[1]


def _equalize(m_mat, x):
    """(theta_at, direction) of the least-scoring unit direction among x and
    the iterates of damped Newton on x o (Mx) = 1 from x, scaled to a largest
    product of 1.  Each step solves diag(Mx) + diag(x) M ungated
    (:func:`_newton`) and halves until the residual falls; a singular
    Jacobian, a non-finite step or a step that no halving lets fall ends it."""
    best, best_val = x, theta_at(m_mat, x)
    if not 0.0 < best_val < np.inf:
        return best_val, best
    with np.errstate(all="ignore"):  # the residual's fall checks finiteness
        x = x / math.sqrt(best_val)
        y = m_mat @ x
        res = x * y - 1.0
        for _ in range(EQUALIZE_STEPS):
            if res @ res <= 1e-24:  # equalized to about 1e-12
                break
            try:
                step = _newton(x, m_mat, y, -res)
            except SingularMatrixError:
                break
            for _ in range(EQUALIZE_STEPS):
                x_t = x + step
                y_t = m_mat @ x_t
                res_t = x_t * y_t - 1.0
                if res_t @ res_t < res @ res:
                    break
                step *= 0.5
            else:
                break
            x, y, res = x_t, y_t, res_t
            u = x / np.linalg.norm(x)
            val = theta_at(m_mat, u)
            if val < best_val:
                best, best_val = u, val
    return best_val, best


def estimate_kappa(m_mat, starts=()):
    """Lower estimate of kappa(M): the best of kappa_at over e_0 and the
    directions ``starts``, then coordinate hill climbing from it.

    Returns (value, direction); the value is ``kappa_at``'s of the returned
    direction, inf where that raises: a direction proved M is not P*
    (impossible for game-derived matrices).
    """
    m_mat = np.asfortranarray(m_mat, dtype=np.float64)
    e_0 = np.zeros(m_mat.shape[0])
    e_0[0] = 1.0
    x = _estimate(m_mat, [e_0, *starts], _kappa_batch, "max")
    return _score(_kappa_batch, m_mat, x), x


def estimate_theta(m_mat, starts=()):
    """Upper estimate of theta(M): the best of theta_at over the uniform
    direction and the directions ``starts``, then hill climbing from it
    down to step scale THETA_SCALE_FLOOR, then :func:`_equalize`.

    Returns (value, direction); the direction is unit 2-norm and the value
    is ``theta_at``'s of it, never above that of the climb's end.
    """
    m_mat = np.asfortranarray(m_mat, dtype=np.float64)
    uniform = np.full(m_mat.shape[0], 1.0 / math.sqrt(m_mat.shape[0]))
    x = _estimate(m_mat, [uniform, *starts], _theta_batch, "min", THETA_SCALE_FLOOR)
    return _equalize(m_mat, x / np.linalg.norm(x))


# ---------------------------------------------------------------------------
# certification report


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


def certify(lcp, seed, samples=10_000):
    """Report kappa/delta/theta of the LCP ``lcp.to_lcp`` built, with fences,
    estimating kappa and theta from ``samples`` gaussian directions drawn
    from ``seed``.

    The P-matrix verdict is ``structural`` when :func:`structural_certificate`
    holds for the computed M and the LCP's B_s, B_t, else ``undecided``.
    """
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    red = lcp.game_reduction("certify")
    m_mat = np.asfortranarray(lcp.m, dtype=np.float64)
    n, gamma, signs = red.game.n, red.game.gamma, red.game.ownership_signs
    # one draw for both estimators, streamed: each gets only its best row
    kappa_best, theta_best = _sample_bests(m_mat, samples, seed)
    kappa_est, _ = estimate_kappa(m_mat, [red.c_tau] + kappa_best)
    theta_est, _ = estimate_theta(m_mat, [red.c_tau] + theta_best)
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
        samples=samples,
        seed=seed,
    )


def report_json(report):
    """The report's file form, as ``certify --output`` writes it."""
    return json.dumps(report.to_json_dict(), indent=2) + "\n"


def write_report_csv(report, path):
    write_csv(path, CSV_COLUMNS, [[getattr(report, c) for c in CSV_COLUMNS]])
