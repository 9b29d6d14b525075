"""The package's one dense linear solve, through LAPACK via ``numpy.linalg``.

Value vectors, the LCP reduction, solution recovery, every interior-point
Newton system, Lemke's terminal basis and the minor scan's low minors all
solve through :func:`solve`, so they share one singularity gate.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PIVOT_RTOL", "SingularMatrixError", "solve"]

#: a system is declared singular when its row-equilibrated inf-norm
#: condition number exceeds 1 / PIVOT_RTOL
PIVOT_RTOL = 1e-13


class SingularMatrixError(ArithmeticError):
    """A linear solve met a matrix too close to singular to trust."""


def solve(a, b):
    """Solve ``a @ x = b``; ``b`` may be a vector or stacked columns.

    One LAPACK call solves for ``[b | I]``, which yields the inverse of
    ``a`` alongside ``x``.  Raises :class:`SingularMatrixError` when LAPACK
    meets an exactly singular pivot, or when the inf-norm condition number
    of ``a`` with its rows scaled to unit 1-norm exceeds ``1 / PIVOT_RTOL``.
    A residual test alone would accept near-singular systems whose solution
    is dominated by rounding.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    rhs = b if b.ndim == 2 else b[:, None]
    try:
        sol = np.linalg.solve(a, np.hstack([rhs, np.eye(a.shape[0])]))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix is singular: {exc}") from exc
    k = rhs.shape[1]
    # with D = diag(row 1-norms), D^-1 a has unit inf-norm and inverse a^-1 D
    cond = float((np.abs(sol[:, k:]) @ np.abs(a).sum(axis=1)).max())
    if not cond <= 1.0 / PIVOT_RTOL:
        raise SingularMatrixError(
            f"row-scaled condition number {cond:.3e} exceeds {1.0 / PIVOT_RTOL:.0e}"
        )
    return sol[:, :k] if b.ndim == 2 else sol[:, 0]
