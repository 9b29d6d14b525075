"""A family of games whose LCPs have provably bad conditioning.

The instance on n >= 3 states gives every state to the maximizer and two
deterministic actions per state.  States 0 and 1 are anchors with a pair of
identical self-loops costing +1 and -1; every other state either jumps to
anchor 0 (slot 0) or to anchor 1 (slot 1), both at cost ``a``.

With sigma = all slot 0 and tau = all slot 1, the LCP matrix is

    M = I + beta (E2 - E1),      beta = gamma / (1 - gamma),

where E1 / E2 carry a single 1 per tail row in column 0 / 1.  M does not
depend on ``a``; the cost vector does, and :func:`hard_cost` names the ``a``
whose tau-column costs witness each measure, one per mode of ``A_MODES``:

* kappa, a = beta: c_tau certifies kappa >= (n-2)/8 beta^2 - 1/4,
* eigenvalue, a = sqrt(2/(n-2)): c_tau is an exact eigenvector of
  (M + M^T)/2 with eigenvalue 1 - beta sqrt((n-2)/2),
* theta, a = 2 beta: c_tau/||c_tau|| pins theta below
  (1-gamma)^2 / ((2 gamma)^2 (n-2)).

The three measures of M are known in closed form
(:func:`exact_conditioning`): the kappa-mode and eigenvalue-mode witnesses
attain kappa and delta exactly, and theta lies below the theta-mode fence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import PLAYER_MAX, build_game, check_gamma

__all__ = [
    "A_MODES",
    "ExactConditioning",
    "build_hard_instance",
    "exact_conditioning",
    "hard_cost",
    "predicted_eig_ub",
    "predicted_kappa_lb",
    "predicted_theta_ub",
]

A_MODES = ("kappa", "eigenvalue", "theta")


def _check_n_gamma(n, gamma):
    if n < 3:
        raise ValueError(f"the hard family needs n >= 3, got n={n}")
    check_gamma(gamma)


def hard_cost(n, gamma, a_mode):
    """The tail cost ``a`` whose c_tau witnesses the measure ``a_mode``
    names, one of ``A_MODES`` (see the module docstring)."""
    _check_n_gamma(n, gamma)
    beta = _beta(gamma)
    costs = {"kappa": beta, "eigenvalue": math.sqrt(2.0 / (n - 2)), "theta": 2.0 * beta}
    if a_mode not in costs:
        raise ValueError(f"a_mode must be one of {A_MODES}, got {a_mode!r}")
    return costs[a_mode]


def build_hard_instance(n, gamma, a):
    """The hard game on n states with tail cost ``a``; the reduction's sigma
    is slot 0 (to anchor 0) and tau slot 1 (to anchor 1) in every state."""
    _check_n_gamma(n, gamma)
    if not math.isfinite(a):
        raise ValueError(f"a must be finite, got {a}")
    to_zero, to_one = (a, [(0, 1.0)]), (a, [(1, 1.0)])
    states = [
        (PLAYER_MAX, [(1.0, [(0, 1.0)])] * 2),
        (PLAYER_MAX, [(-1.0, [(1, 1.0)])] * 2),
    ]
    states += [(PLAYER_MAX, [to_zero, to_one])] * (n - 2)
    return build_game(gamma, states)


def _beta(gamma):
    return gamma / (1.0 - gamma)


def predicted_kappa_lb(n, gamma):
    """kappa(M) before the clamp at 0, (n - 2) beta^2 / 8 - 1/4: the value
    c_tau certifies in kappa mode, and exact (:func:`exact_conditioning`).
    Negative means kappa(M) = 0 at that size."""
    _check_n_gamma(n, gamma)
    return (n - 2) / 8.0 * _beta(gamma) ** 2 - 0.25


def predicted_eig_ub(n, gamma):
    """delta(M), the smallest eigenvalue of (M + M^T)/2, exactly:
    1 - beta sqrt((n - 2)/2), with eigenvector c_tau in eigenvalue mode."""
    _check_n_gamma(n, gamma)
    return 1.0 - gamma * math.sqrt(n - 2) / (math.sqrt(2.0) * (1.0 - gamma))


def predicted_theta_ub(n, gamma):
    """Upper fence for theta from the theta-mode witness c_tau/||c_tau||."""
    _check_n_gamma(n, gamma)
    return (1.0 - gamma) ** 2 / ((2.0 * gamma) ** 2 * (n - 2))


@dataclass(frozen=True)
class ExactConditioning:
    """The hard family's kappa, delta and theta, and the unit direction
    that attains theta."""

    kappa: float
    delta: float
    theta: float
    theta_direction: np.ndarray


def exact_conditioning(n, gamma):
    """kappa, delta and theta of the hard family's M = I + beta (E2 - E1).

    (Mx)_i is x_i on the anchors 0 and 1 and x_i + beta d, d = x_1 - x_0, on
    the n - 2 tail states, so each tail product x_i (Mx)_i depends only on
    x_i and d.

    * kappa = max(0, (n - 2) beta^2 / 8 - 1/4).  The anchors' products are
      x_0^2 + x_1^2 >= d^2 / 2, and a tail product is at least
      -beta^2 d^2 / 4, at x_i = -beta d / 2.  So the negative part is at most
      (n - 2) beta^2 / 2 times the positive part, with equality at
      x = (-1/2, 1/2, -beta/2, ..., -beta/2); kappa is a quarter of that
      ratio less one.
    * delta = 1 - beta sqrt((n - 2)/2).  (M + M^T)/2 = I + (beta/2)(v u^T +
      u v^T) with u = e_1 - e_0 and v the tail's ones vector, orthogonal,
      of norms sqrt(2) and sqrt(n - 2); the rank-2 term's least eigenvalue
      is -|u||v|.
    * theta = 1 / (2 + (n - 2) r^2), r = beta + sqrt(1 + beta^2).  If every
      product is at most c, then |x_0|, |x_1| <= sqrt(c), so |d| <= 2 sqrt(c),
      and x_i^2 + beta d x_i <= c bounds every tail |x_i| by r sqrt(c); a
      unit x thus has 1 <= (2 + (n - 2) r^2) c.  x = (-1, 1, -r, ..., -r)
      puts every product at 1 (r (r - 2 beta) = 1), so the bound is attained
      by that direction, normalised.
    """
    _check_n_gamma(n, gamma)
    beta = _beta(gamma)
    r = beta + math.sqrt(1.0 + beta * beta)
    direction = np.full(n, -r)
    direction[0], direction[1] = -1.0, 1.0
    return ExactConditioning(
        kappa=max(0.0, predicted_kappa_lb(n, gamma)),
        delta=predicted_eig_ub(n, gamma),
        theta=1.0 / (2.0 + (n - 2) * r * r),
        theta_direction=direction / np.linalg.norm(direction),
    )
