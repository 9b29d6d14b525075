"""Reduction of two-action games to linear complementarity problems.

For a game where every state has exactly two actions, the action order
splits them into two full profiles: sigma is slot 0 of each state and tau
slot 1 (reorder a state's two actions to swap them).  With
B_s = I - gamma P_sigma, B_t = I - gamma P_tau and S the ownership sign
matrix, the LCP data is

    M = S B_s B_t^{-1} S,      q = S B_s B_t^{-1} c_tau - S c_sigma,

and a solution (w, z >= 0, w = q + Mz, w.z = 0) recovers the optimal
values v = B_t^{-1} (c_tau + S z) together with the optimal profile
(slot 0 where w_i <= z_i, slot 1 otherwise).  One solve,
B_t^T X^T = B_s^T for all columns, gives X = B_s B_t^{-1}, and both
M = S X S and q = S X c_tau - S c_sigma are read from it.
The :class:`Lcp` from :func:`to_lcp` keeps its :class:`Reduction` (the
:class:`~gamelcp.game.Game`, B_s, B_t and the two cost vectors), which
``recover`` and ``conditioning.certify`` read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import SingularMatrixError, _gamma, solve_discounted
from .game import (
    Game,
    GameValidationError,
    is_optimal,
    reduced_costs,
    restrict,
    value_vector,
)
from .solvers import SolveResult, SolverFailure

__all__ = [
    "Lcp",
    "LcpCheck",
    "Reduction",
    "lcp_json",
    "recover",
    "reduction",
    "to_lcp",
    "verify_solution",
]


@dataclass
class Lcp:
    """(M, q), and the game data it was built from (None if not to_lcp's).
    M is kept in Fortran order, as to_lcp builds it (a copy for any other
    layout), so that no product with it depends on the caller's layout."""

    m: np.ndarray
    q: np.ndarray
    reduction: Reduction | None = None

    def __post_init__(self):
        self.m = np.asfortranarray(self.m, dtype=np.float64)

    @property
    def n(self):
        return self.q.shape[0]

    def game_reduction(self, caller):
        if self.reduction is None:
            raise ValueError(f"{caller} needs an LCP that to_lcp built from a game")
        return self.reduction


def _check_two_actions(counts):
    wrong = np.flatnonzero(np.asarray(counts) != 2)
    if wrong.size:
        i = wrong[0]
        raise GameValidationError(
            f"state {i} has {counts[i]} actions; the reduction needs exactly 2 per state"
        )


def _check_residual(lhs, x, rhs):
    """Refuse x unless |lhs x - rhs|_ij <= gamma_3n (|lhs_i|_1 |x_j|_inf +
    |rhs_ij|) for row i, column j: a backward-stable solve's rounding (LU
    fill-in puts rounding where a sparse row is 0, so not |lhs_i| |x_j|)."""
    res = np.abs(lhs @ x - rhs)
    bound = _gamma(3 * len(x)) * (
        np.multiply.outer(np.abs(lhs).sum(axis=1), np.abs(x).max(axis=0))
        + np.abs(rhs)
    )
    k = np.unravel_index(np.argmax(res - bound), res.shape)
    if res[k] > bound[k]:
        raise SingularMatrixError(
            f"reduction system: residual {res[k]:.3e} exceeds its rounding bound "
            f"{bound[k]:.3e}"
        )


@dataclass
class Reduction:
    """The game's data under its action order: B_s, B_t and the two cost vectors."""

    game: Game
    b_sig: np.ndarray
    b_tau: np.ndarray
    c_sig: np.ndarray
    c_tau: np.ndarray


def reduction(game):
    """B_s = I - gamma P_sigma and B_t = I - gamma P_tau from the stored P,
    with sigma = slot 0 and tau = slot 1 of every state."""
    _check_two_actions(np.diff(game.offsets))
    zeros = np.zeros(game.n, dtype=np.int64)
    p_sig, c_sig = restrict(game, zeros)
    p_tau, c_tau = restrict(game, zeros + 1)
    eye = np.eye(game.n)
    b_sig = eye - game.gamma * p_sig
    b_tau = eye - game.gamma * p_tau
    return Reduction(game, b_sig, b_tau, c_sig, c_tau)


def to_lcp(game):
    """Build the LCP (M, q) for the game, sigma = slot 0 and tau = slot 1."""
    red = reduction(game)
    x_t = solve_discounted(red.b_tau, red.b_sig.T, transpose=True)
    _check_residual(red.b_tau.T, x_t, red.b_sig.T)
    x = x_t.T

    s = red.game.ownership_signs
    m = s[:, None] * x * s[None, :]
    q = s * (x @ red.c_tau) - s * red.c_sig
    return Lcp(m=m, q=q, reduction=red)


@dataclass
class LcpCheck:
    feasibility: float
    complementarity: float
    min_w: float
    min_z: float
    ok: bool


def verify_solution(lcp, w, z, tol=1e-9):
    """Residual report for a candidate (w, z): feasibility, gap, positivity."""
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
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


def recover(lcp, w, z, iterations, tol=1e-6):
    """Map a solution of ``lcp`` (from :func:`to_lcp`) to its game's values
    and a verified profile (ValueError for an LCP without a reduction).

    Accepts approximate solutions: (w, z) must pass ``verify_solution`` at
    ``tol``, the profile is extracted by the per-state comparison
    ``w_i <= z_i`` (slot 0 where it holds, so on ties; slot 1 otherwise),
    and the result must pass the game's optimality check at ``tol``
    (floored at the reduced costs' rounding level by
    :func:`~gamelcp.game.is_optimal`), and the values of the LCP's formula
    must agree with the profile's.  Each refusal raises
    :class:`~gamelcp.solvers.SolverFailure` with the failed check as
    ``check=`` context: the :class:`LcpCheck`, the violating actions, or
    the drift.  The value formula gets a complementarity
    allowance on top of ``tol``: a pair with w_i = z_i = 0 in the exact
    solution sits at w_i ~ z_i ~ sqrt(gap) on the central path, and that z
    error enters the values through B_tau^{-1} with gain at most
    1/(1 - gamma).
    ``iterations`` is the LCP solver's count (IPM rows or Lemke pivots),
    which the result carries.
    """
    red = lcp.game_reduction("recover")
    check = verify_solution(lcp, w, z, tol)
    if not check.ok:
        raise SolverFailure(
            f"LCP residuals too large: feasibility {check.feasibility:.3e}, "
            f"complementarity {check.complementarity:.3e}, "
            f"min_w {check.min_w:.3e}, min_z {check.min_z:.3e}",
            check=check,
        )
    game = red.game
    z = np.asarray(z, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    v_formula = solve_discounted(red.b_tau, red.c_tau + game.ownership_signs * z)

    choice = np.where(w <= z, 0, 1).astype(np.int64)
    v_exact = value_vector(game, choice)
    ok, violations = is_optimal(game, choice, tol, values=v_exact)
    if not ok:
        rc = reduced_costs(game, choice, v_exact)
        worst = float(np.max(np.abs(rc[violations])))
        raise SolverFailure(
            f"recovered profile fails the optimality check at tol {tol}: "
            f"max reduced-cost violation {worst:.3e} on actions "
            f"{violations.tolist()}",
            check=violations,
        )
    drift = float(np.max(np.abs(v_exact - v_formula)))
    allowance = tol * (1.0 + float(np.max(np.abs(v_exact))))
    allowance += math.sqrt(max(check.complementarity, 0.0)) / (1.0 - game.gamma)
    if drift > allowance:
        raise SolverFailure(
            f"recovered values disagree with the profile's values by {drift:.3e}",
            check=drift,
        )
    return SolveResult(values=v_exact, profile=choice, iterations=iterations)


def lcp_json(lcp):
    """The LCP's file form, as ``reduce`` writes it: compact JSON of n, M and q."""
    payload = {"n": int(lcp.n), "M": lcp.m.tolist(), "q": lcp.q.tolist()}
    return json.dumps(payload) + "\n"

