"""The package's dense linear solves, through LAPACK via ``numpy.linalg``.

Two gates, for two kinds of matrix.  The game's own systems B = I - gamma P
(value vectors and the LCP reduction) are diagonally dominant, so their
condition number has a closed-form bound: :func:`solve_discounted` checks
it and makes one plain solve.  General
matrices (Lemke's terminal basis, the minor scan's low minors) have no such
bound, so :func:`solve` measures theirs from the inverse it forms.  The
Newton systems of the interior-point method and of theta's equalization
share one ungated solve, :func:`_newton`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PIVOT_RTOL", "SingularMatrixError", "UNIT_ROUNDOFF", "solve", "solve_discounted"]

#: u = 2^-53, the relative rounding error of one float64 operation
UNIT_ROUNDOFF = 2.0**-53

#: a system is declared singular when its (bounded or measured) inf-norm
#: condition number exceeds 1 / PIVOT_RTOL
PIVOT_RTOL = 1e-13


class SingularMatrixError(ArithmeticError):
    """A linear solve met a matrix too close to singular to trust."""


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u): the relative error of k roundings."""
    ku = k * UNIT_ROUNDOFF
    return ku / (1.0 - ku)


def _newton(z, m_mat, w, rhs):
    """Solve (diag(z) M + diag(w)) d = rhs with no condition gate.  Raises
    :class:`SingularMatrixError` when LAPACK meets an exactly singular pivot
    or d is not finite."""
    a = z[:, None] * m_mat
    a.flat[:: a.shape[0] + 1] += w
    try:
        d = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    if not np.isfinite(d).all():
        raise SingularMatrixError("non-finite Newton direction")
    return d


def solve(a, b):
    """Solve ``a @ x = b`` for one right-hand side vector ``b``.

    One LAPACK call solves for ``[b | I]``, which yields the inverse of
    ``a`` alongside ``x``.  Raises :class:`SingularMatrixError` when LAPACK
    meets an exactly singular pivot, or when the inf-norm condition number
    of ``a`` with its rows scaled to unit 1-norm exceeds ``1 / PIVOT_RTOL``.
    A residual test alone would accept near-singular systems whose solution
    is dominated by rounding.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    try:
        sol = np.linalg.solve(a, np.hstack([b[:, None], np.eye(a.shape[0])]))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix is singular: {exc}") from exc
    # with D = diag(row 1-norms), D^-1 a has unit inf-norm and inverse a^-1 D
    cond = float((np.abs(sol[:, 1:]) @ np.abs(a).sum(axis=1)).max())
    if not cond <= 1.0 / PIVOT_RTOL:
        raise SingularMatrixError(
            f"row-scaled condition number {cond:.3e} exceeds {1.0 / PIVOT_RTOL:.0e}"
        )
    return sol[:, 0]


def solve_discounted(b, rhs, transpose=False):
    """Solve ``b @ x = rhs`` (``b.T @ x = rhs`` with ``transpose``) for a
    game system ``b = I - gamma P``; ``rhs`` may be a vector or columns.

    With gamma r = ||I - b||_inf (r the largest absolute row sum of P) below
    1, the Neumann series gives ||b^-1||_inf <= 1 / (1 - gamma r), so
    kappa_inf(b) <= (1 + gamma r) / (1 - gamma r).  For the transpose,
    kappa_inf(b.T) = ||b||_1 ||b^-1||_1 <= (1 + gamma c) n / (1 - gamma r),
    with gamma c = ||I - b||_1 and ||b^-1||_1 <= n ||b^-1||_inf.  Raises
    :class:`SingularMatrixError` when gamma r >= 1 (no bound holds) or
    when the bound exceeds ``1 / PIVOT_RTOL``; otherwise makes one plain
    solve.
    """
    n = b.shape[0]
    off = np.abs(np.eye(n) - b)
    gamma_r = float(off.sum(axis=1).max())
    if not gamma_r < 1.0:
        raise SingularMatrixError(
            f"gamma r = {gamma_r:.17g} >= 1: I - gamma P is not diagonally "
            "dominant, so its condition number has no bound"
        )
    if transpose:
        bound = (1.0 + float(off.sum(axis=0).max())) * n / (1.0 - gamma_r)
    else:
        bound = (1.0 + gamma_r) / (1.0 - gamma_r)
    if not bound <= 1.0 / PIVOT_RTOL:
        raise SingularMatrixError(
            f"condition number bound {bound:.3e} exceeds {1.0 / PIVOT_RTOL:.0e}"
        )
    return np.linalg.solve(b.T if transpose else b, rhs)
