"""LCP solvers: path-following interior point and complementary pivoting.

The interior point method tracks the scalar-shifted family q(t) = q + t*1:
its iterates keep w - M z - q = t 1 with (w, z) > 0.  The start
t0 = max(0, 1 - min_i (q + M 1)_i) makes (z, w) = (1, q(t0) + M 1) strictly
interior.  It follows the path with the neighborhood predictor-corrector
scheme of Kojima, Megiddo, Noma & Yoshise (LNCS 538, 1991), one trace row
per Newton step.  Every row solves the same Newton system toward a target
product and a shift reduction,

    dw - M dz = -s 1,   z o dw + w o dz = target 1 - w o z,

and its phase picks the two:

* Corrector ("center"), while some w_i z_i < CENTER_SHARE * mean(w o z):
  s = 0 and target = mean(w o z), pure centering at the current shift.
  The step halves (BACKTRACK) until the potential

      f(w, z) = rho * ln(w.z) - sum_i ln(w_i z_i),        rho = n + sqrt(n),

  strictly decreases.
* Predictor, once the row is back in that narrow neighborhood: s = t and
  target = floor = FLOOR_SHARE * epsilon / n, so a full step would reach
  shift 0 with every product at the floor.  The step shrinks by
  PREDICT_SHRINK until every product is at least PREDICT_SHARE times their
  mean; the shift then becomes (1 - step) t.  The floor keeps the gap from
  collapsing far below epsilon while the shift is still above its target,
  where the corrector's line search would stall.

Every row's step starts at the full Newton step, or at STEP_FRACTION of the
largest step that keeps (w, z) positive when that is shorter.  Every row
advances w by its own dw instead of recomputing q + t*1 + M z, whose
rounding (about 1e-13 relative to |q|) would swamp the smallest slacks near
the end of the path.  The run ends once t <= epsilon * 1e-3 and the gap is below epsilon;
w then snaps to q + t*1 + M z when that keeps it positive and the gap below
epsilon, so the returned pair solves the original LCP up to a
q-perturbation of at most epsilon * 1e-3 per component.

Newton directions come from one plain LAPACK solve with no condition gate
(``_kernels._newton``): every step moves w by a product (M dz - s 1), never
by a solve, so a poor direction costs progress (the line search or the
neighborhood refuses it), not feasibility.  The returned pair is checked once, at exit, by
``verify_solution``.

The pivoting solver is plain complementary pivoting with the all-ones
covering column and lexicographic anti-cycling; it returns an exact
complementary basic solution, re-solved from the final basis for accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._csv import write_csv
from ._kernels import SingularMatrixError, _newton, solve
from .lcp import verify_solution
from .solvers import SolverFailure

__all__ = [
    "IpmTrace",
    "solve_pivoting",
    "solve_potential_reduction",
]

STEP_FLOOR = 1e-14
BACKTRACK = 0.5  # line-search step shrink
STEP_FRACTION = 0.99  # share of the largest step that keeps (w, z) positive
CENTER_SHARE = 0.5  # corrector neighborhood: min(w o z) >= share * mean
PREDICT_SHARE = 0.1  # predictor neighborhood: min(w o z) >= share * mean
PREDICT_SHRINK = 0.9  # predictor step shrink
FLOOR_SHARE = 0.1  # predictor's product target, as a share of epsilon / n
MAX_PIVOTS = 100_000
RATIO_TOL = 1e-9  # relative tie width of Lemke's ratio test
MAX_ITERS = 10_000  # trace rows; every stage has a predictor row, so this caps stages


@dataclass
class IpmTrace:
    """Per accepted step, one row: gap, potential, step size, shift and
    phase ("center" or "predictor").  Row k is iteration k + 1."""

    gaps: list = field(default_factory=list)
    potentials: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    shifts: list = field(default_factory=list)
    phases: list = field(default_factory=list)
    termination: str = ""

    def append(self, gap, potential, step, shift, phase):
        self.gaps.append(float(gap))
        self.potentials.append(float(potential))
        self.steps.append(float(step))
        self.shifts.append(float(shift))
        self.phases.append(phase)

    def __len__(self):
        return len(self.gaps)

    def write_csv(self, path):
        """One row per step, its ``iter`` column numbered 1..len."""
        columns = (self.gaps, self.potentials, self.steps, self.shifts, self.phases)
        rows = zip(range(1, len(self) + 1), *columns)
        write_csv(path, ("iter", "gap", "potential", "step", "shift", "phase"), rows)


def _potential(w, z, rho):
    return rho * math.log(float(w @ z)) - float(np.sum(np.log(w * z)))


def _max_positive_step(w, dw, z, dz):
    x = np.concatenate((w, z))
    d = np.concatenate((dw, dz))
    neg = d < 0.0
    return float(np.min(x[neg] / -d[neg])) if neg.any() else np.inf


def _direction(z, m_mat, w, t, target):
    """z o dw + w o dz = target 1 - w o z with dw = M dz - t 1."""
    dz = _newton(z, m_mat, w, target + t * z - w * z)
    return m_mat @ dz - t, dz


def _fail(trace, reason, **context):
    trace.termination = reason
    raise SolverFailure(f"interior point method failed: {reason}", trace=trace, **context)


def _refuse_non_finite(trace, row, gap, potential):
    if not (math.isfinite(gap) and math.isfinite(potential)):
        _fail(trace, f"non-finite potential at row {row}: gap {gap:.3e}, potential {potential}")


@np.errstate(all="ignore")  # _refuse_non_finite reports instead
def solve_potential_reduction(lcp, epsilon=1e-9):
    """Solve a P-matrix LCP; returns (w, z, trace) with w.z < epsilon."""
    if not epsilon > 0:  # NaN too
        raise ValueError(f"epsilon must be positive, got {epsilon}")
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
    gap = float(w @ z)
    _refuse_non_finite(trace, 0, gap, f)

    while not (t <= t_final and gap < epsilon):
        # off the narrow neighborhood the row re-centers at its shift; inside
        # it the row lowers the shift and the gap together
        center = float(np.min(w * z)) * n < CENTER_SHARE * gap
        phase = "center" if center else "predictor"
        if len(trace) >= MAX_ITERS:
            _fail(
                trace,
                f"{phase} row at gap {gap:.3e}, shift {t:.3e} after MAX_ITERS={MAX_ITERS}",
            )
        shift, target = (0.0, gap / n) if center else (t, floor)
        try:
            dw, dz = _direction(z, m_mat, w, shift, target)
        except SingularMatrixError:
            _fail(trace, f"singular Newton system in a {phase} row")
        alpha = min(1.0, STEP_FRACTION * _max_positive_step(w, dw, z, dz))
        while alpha >= STEP_FLOOR:
            w1 = w + alpha * dw
            z1 = z + alpha * dz
            if w1.min() > 0.0 and z1.min() > 0.0:
                if center:  # the potential must strictly decrease
                    f1 = _potential(w1, z1, rho)
                    _refuse_non_finite(trace, len(trace) + 1, gap, f1)
                    if f1 < f:
                        break
                else:  # the products must stay in the wide neighborhood
                    prod = w1 * z1
                    if float(prod.min()) * n >= PREDICT_SHARE * float(prod.sum()):
                        break
            alpha *= BACKTRACK if center else PREDICT_SHRINK
        else:
            _fail(trace, f"{phase} step fell below {STEP_FLOOR} at shift {t:.3e}")
        # w follows its own direction (see the module docstring)
        w, z = w1, z1
        if center:
            f = f1
        else:
            t = (1.0 - alpha) * t
            f = _potential(w, z, rho)
        gap = float(w @ z)
        _refuse_non_finite(trace, len(trace) + 1, gap, f)
        trace.append(gap, f, alpha, t, phase)

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


# ---------------------------------------------------------------------------
# complementary pivoting


def _lex_ratio_row(tableau, col, n):
    """Leaving row by minimum ratio, lexicographic tie-break on B^-1 columns."""
    eligible = np.flatnonzero(col > 1e-11)
    if eligible.size == 0:
        return -1
    ratios = tableau[eligible, -1] / col[eligible]
    best = float(ratios.min())
    keep = eligible[ratios <= best + RATIO_TOL * (1.0 + abs(best))]
    for j in range(n):
        if keep.size == 1:
            break
        tie = tableau[keep, j] / col[keep]
        best = float(tie.min())
        keep = keep[tie <= best + RATIO_TOL * (1.0 + abs(best))]
    return int(keep[0])


def solve_pivoting(lcp):
    """Complementary pivoting (all-ones covering column, lexicographic ties).

    Returns (w, z, pivots).  The final (w, z) is re-solved from the
    terminal basis: z on its basic set solves the principal subsystem
    M[B,B] z_B = -q_B, w = q + M z with the basic-z rows exactly zero, so
    complementarity holds exactly.
    """
    m_mat = np.asarray(lcp.m, dtype=np.float64)
    q = np.asarray(lcp.q, dtype=np.float64)
    n = q.shape[0]
    if float(q.min()) >= 0.0:
        return q.copy(), np.zeros(n), 0

    z0 = 2 * n
    tableau = np.hstack(
        [np.eye(n), -m_mat, -np.ones((n, 1)), q.reshape(n, 1)]
    )
    basis = np.arange(n)

    entering = z0
    row = int(np.argmin(q))
    pivots = 0
    while True:
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise SolverFailure(f"pivot limit {MAX_PIVOTS} exceeded")
        pivot_value = tableau[row, entering]
        tableau[row] = tableau[row] / pivot_value
        col = tableau[:, entering].copy()
        col[row] = 0.0
        tableau -= np.outer(col, tableau[row])
        leaving = int(basis[row])
        basis[row] = entering
        if leaving == z0:
            break
        entering = leaving + n if leaving < n else leaving - n
        row = _lex_ratio_row(tableau, tableau[:, entering].copy(), n)
        if row < 0:
            raise SolverFailure(
                "ray termination in complementary pivoting (matrix is not "
                "processable; expected a P-matrix)"
            )

    z_basic = np.array(sorted(int(b) - n for b in basis if n <= int(b) < z0))
    z = np.zeros(n)
    if z_basic.size:
        sub = m_mat[np.ix_(z_basic, z_basic)]
        try:
            z[z_basic] = solve(sub, -q[z_basic])
        except SingularMatrixError as exc:
            raise SolverFailure(f"terminal basis resolve failed: {exc}") from exc
    w = q + m_mat @ z
    w[z_basic] = 0.0
    return w, z, pivots
