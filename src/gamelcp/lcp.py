"""Reduction of two-action games to linear complementarity problems.

For a game where every state has exactly two actions, split the actions
into two full profiles sigma (slot 0 of each state) and tau (slot 1).
With B_s = I - gamma P_sigma, B_t = I - gamma P_tau and S the ownership
sign matrix, the LCP data is

    M = S B_s B_t^{-1} S,      q = S B_s B_t^{-1} c_tau - S c_sigma,

and a solution (w, z >= 0, w = q + Mz, w.z = 0) recovers the optimal
values v = B_t^{-1} (c_tau + S z) together with the optimal profile
(sigma's action where w_i <= z_i, tau's otherwise).  M is built by solving
B_t^T X^T = B_s^T for all columns in one call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import SingularMatrixError, solve
from .game import (
    GameValidationError,
    MatrixRep,
    as_profile,
    is_optimal,
    matrix_representation,
    reduced_costs,
    restrict,
    value_vector,
)
from .solvers import SolveResult

__all__ = [
    "Lcp",
    "LcpCheck",
    "Partition",
    "RecoveryError",
    "Reduction",
    "default_partition",
    "load_partition",
    "read_lcp",
    "recover",
    "reduction",
    "save_partition",
    "to_lcp",
    "verify_solution",
    "write_lcp",
]

SOLVE_RTOL = 1e-10


@dataclass
class Lcp:
    m: np.ndarray
    q: np.ndarray

    @property
    def n(self):
        return self.q.shape[0]


@dataclass
class Partition:
    """Per-state slot pair (sigma, tau) covering both actions of each state."""

    sigma: np.ndarray
    tau: np.ndarray


class RecoveryError(RuntimeError):
    pass


def default_partition(game):
    """sigma = slot 0 and tau = slot 1 everywhere; needs 2 actions per state."""
    n = game.n_states
    partition = Partition(
        sigma=np.zeros(n, dtype=np.int64), tau=np.ones(n, dtype=np.int64)
    )
    _check_partition(game, partition)
    return partition


def _check_partition(game, partition):
    for i, s in enumerate(game.states):
        if len(s.actions) != 2:
            raise GameValidationError(
                f"state {i} has {len(s.actions)} actions; the reduction needs "
                "exactly 2 per state"
            )
    sigma = as_profile(game, partition.sigma)
    tau = as_profile(game, partition.tau)
    for i in range(game.n_states):
        if {int(sigma[i]), int(tau[i])} != {0, 1}:
            raise GameValidationError(
                f"partition does not cover both actions of state {i}"
            )
    return sigma, tau


def _check_residual(lhs, x, rhs, what):
    res = np.max(np.abs(lhs @ x - rhs))
    bound = SOLVE_RTOL * (1.0 + np.max(np.abs(rhs)))
    if res > bound:
        raise SingularMatrixError(
            f"{what}: solve residual {res:.3e} exceeds {bound:.3e}"
        )


@dataclass
class Reduction:
    """The game's data under a partition: B_s, B_t and the two cost vectors."""

    rep: MatrixRep
    sigma: np.ndarray
    tau: np.ndarray
    b_sig: np.ndarray
    b_tau: np.ndarray
    c_sig: np.ndarray
    c_tau: np.ndarray


def reduction(game, partition=None):
    """B_s = I - gamma P_sigma and B_t = I - gamma P_tau from the stored P."""
    rep = matrix_representation(game)
    if partition is None:
        partition = default_partition(game)
    sigma, tau = _check_partition(game, partition)
    p_sig, c_sig = restrict(rep, sigma)
    p_tau, c_tau = restrict(rep, tau)
    eye = np.eye(rep.n)
    b_sig = eye - rep.gamma * p_sig
    b_tau = eye - rep.gamma * p_tau
    return Reduction(rep, sigma, tau, b_sig, b_tau, c_sig, c_tau)


def to_lcp(game, partition=None):
    """Build the LCP (M, q) for the game under the given action partition."""
    red = reduction(game, partition)
    x_t = solve(red.b_tau.T, red.b_sig.T)
    _check_residual(red.b_tau.T, x_t, red.b_sig.T, "reduction system")
    x = x_t.T

    h = solve(red.b_tau, red.c_tau)
    _check_residual(red.b_tau, h, red.c_tau, "tau value system")

    s = red.rep.ownership_signs
    m = s[:, None] * x * s[None, :]
    q = s * (red.b_sig @ h) - s * red.c_sig
    return Lcp(m=m, q=q)


@dataclass
class LcpCheck:
    feasibility: float
    complementarity: float
    min_w: float
    min_z: float
    ok: bool


def verify_solution(lcp, w, z, tol=1e-9):
    """Residual report for a candidate (w, z): feasibility, gap, positivity."""
    w = np.asarray(w, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    feas = float(np.max(np.abs(w - lcp.q - lcp.m @ z)))
    comp = float(abs(w @ z))
    min_w = float(w.min())
    min_z = float(z.min())
    ok = (
        feas <= tol * (1.0 + float(np.max(np.abs(lcp.q))))
        and comp <= tol
        and min_w >= -tol
        and min_z >= -tol
    )
    return LcpCheck(
        feasibility=feas, complementarity=comp, min_w=min_w, min_z=min_z, ok=ok
    )


def recover(game, partition, lcp, w, z, tol=1e-6):
    """Map a solution of the game's ``lcp`` to values and a verified profile.

    Accepts approximate solutions: (w, z) must pass ``verify_solution`` at
    ``tol``, the profile is extracted by the per-state comparison
    ``w_i <= z_i`` (sigma on ties), and the result must pass the game's
    optimality check at ``tol``, else :class:`RecoveryError` reports the
    worst violation.  The value formula gets a complementarity allowance on
    top of ``tol``: a pair with w_i = z_i = 0 in the exact solution sits at
    w_i ~ z_i ~ sqrt(gap) on the central path, and that z error enters the
    values through B_tau^{-1} with gain at most 1/(1 - gamma).
    """
    check = verify_solution(lcp, w, z, tol)
    if not check.ok:
        raise RecoveryError(
            f"LCP residuals too large: feasibility {check.feasibility:.3e}, "
            f"complementarity {check.complementarity:.3e}, "
            f"min_w {check.min_w:.3e}, min_z {check.min_z:.3e}"
        )
    red = reduction(game, partition)
    rep = red.rep
    z = np.asarray(z, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    v_formula = solve(red.b_tau, red.c_tau + rep.ownership_signs * z)

    choice = np.where(w <= z, red.sigma, red.tau).astype(np.int64)
    ok, violations = is_optimal(rep, choice, tol)
    if not ok:
        rc = reduced_costs(rep, choice)
        worst = float(np.max(np.abs(rc[violations])))
        raise RecoveryError(
            f"recovered profile fails the optimality check at tol {tol}: "
            f"max reduced-cost violation {worst:.3e} on actions "
            f"{violations.tolist()}"
        )
    v_exact = value_vector(rep, choice)
    drift = float(np.max(np.abs(v_exact - v_formula)))
    allowance = tol * (1.0 + float(np.max(np.abs(v_exact))))
    allowance += math.sqrt(max(check.complementarity, 0.0)) / (1.0 - game.gamma)
    if drift > allowance:
        raise RecoveryError(
            f"recovered values disagree with the profile's values by {drift:.3e}"
        )
    return SolveResult(values=v_exact, profile=choice, iterations=0, method="lcp")


def write_lcp(lcp, path):
    payload = {"n": int(lcp.n), "M": lcp.m.tolist(), "q": lcp.q.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def read_lcp(path):
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    n = int(payload["n"])
    m = np.asarray(payload["M"], dtype=np.float64)
    q = np.asarray(payload["q"], dtype=np.float64)
    if m.shape != (n, n) or q.shape != (n,):
        raise ValueError(f"inconsistent LCP file: n={n}, M {m.shape}, q {q.shape}")
    return Lcp(m=m, q=q)


def save_partition(partition, path):
    payload = {
        "sigma": [int(v) for v in partition.sigma],
        "tau": [int(v) for v in partition.tau],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_partition(path):
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return Partition(
        sigma=np.asarray(payload["sigma"], dtype=np.int64),
        tau=np.asarray(payload["tau"], dtype=np.int64),
    )
