"""LCP solvers: potential-reduction interior point and complementary pivoting.

The interior point method tracks the scalar-shifted family q(t) = q + t*1.
The start t0 = max(0, 1 - min_i (q + M 1)_i) makes (z, w) = (1, q(t0) + M 1)
strictly interior.  Each stage reduces the Kojima-style potential

    f(w, z) = rho * ln(w.z) - sum_i ln(w_i z_i),        rho = n + sqrt(n),

by damped Newton steps on the centering system

    dw = M dz,   z o dw + w o dz = (w.z / rho) 1 - w o z,

until the gap w.z drops below max(epsilon, 0.01 t) -- proportional to the
shift while t is large, so active-set kinks of the shifted path stay
rounded at the scale of t instead of epsilon; the shift then steps down
along the tangent of the solution path (dz = s u with
(diag(z) M + diag(w)) u = z and dw = s (M u - 1), s capped by strict
positivity and by a bounded change of the gap) toward its 0.1x stage
target.  Tangent and corrector steps advance w by their own dw instead of
recomputing q + t*1 + M z, whose rounding (about 1e-13 relative to |q|)
would swamp the smallest slacks near the end of the path; the centering
steps snap w back to exact feasibility of the shifted LCP whenever that
keeps the potential decrease, and so does the end of the run.  The run
ends once t <= epsilon * 1e-3 and the gap is below epsilon, so the
returned pair solves the original LCP up to a q-perturbation of at most
epsilon * 1e-3 per component.

The pivoting solver is plain complementary pivoting with the all-ones
covering column and lexicographic anti-cycling; it returns an exact
complementary basic solution, re-solved from the final basis for accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import SingularMatrixError, solve
from .solvers import SolverFailure

__all__ = [
    "IpmOptions",
    "IpmTrace",
    "solve_pivoting",
    "solve_potential_reduction",
]

STEP_FLOOR = 1e-14
BACKTRACK = 0.5  # line-search step shrink
STEP_FRACTION = 0.99  # share of the largest step that keeps (w, z) positive
HOMOTOPY_SHRINK = 0.1  # stage target shift relative to the current shift
MAX_PIVOTS = 100_000
RATIO_TOL = 1e-9  # relative tie width of Lemke's ratio test
MAX_STAGES = 500
STAGE_GAP_FRACTION = 0.01  # intermediate-stage gap target relative to the shift
GAP_BAND = (0.25, 4.0)  # allowed gap change across one predictor step


@dataclass
class IpmOptions:
    epsilon: float = 1e-9
    max_iters: int = 10_000

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class IpmTrace:
    """Per accepted step: iteration index, gap, potential, step size, shift."""

    iters: list = field(default_factory=list)
    gaps: list = field(default_factory=list)
    potentials: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    shifts: list = field(default_factory=list)
    termination: str = ""

    def append(self, iteration, gap, potential, step, shift):
        self.iters.append(int(iteration))
        self.gaps.append(float(gap))
        self.potentials.append(float(potential))
        self.steps.append(float(step))
        self.shifts.append(float(shift))

    def __len__(self):
        return len(self.iters)

    def stages(self):
        """Trace row index ranges with a constant shift, in order."""
        out = []
        start = 0
        for i in range(1, len(self.shifts) + 1):
            if i == len(self.shifts) or self.shifts[i] != self.shifts[start]:
                out.append((start, i))
                start = i
        return out

    def monotone_within_stages(self):
        """True when potentials strictly decrease inside every shift stage."""
        for lo, hi in self.stages():
            for i in range(lo + 1, hi):
                if not self.potentials[i] < self.potentials[i - 1]:
                    return False
        return True

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("iter,gap,potential,step,shift\n")
            for row in zip(
                self.iters, self.gaps, self.potentials, self.steps, self.shifts
            ):
                fh.write(f"{row[0]},{row[1]!r},{row[2]!r},{row[3]!r},{row[4]!r}\n")


def _potential(w, z, rho):
    return rho * math.log(float(w @ z)) - float(np.sum(np.log(w * z)))


def _max_positive_step(w, dw, z, dz):
    cap = np.inf
    neg = dw < 0.0
    if np.any(neg):
        cap = min(cap, float(np.min(w[neg] / -dw[neg])))
    neg = dz < 0.0
    if np.any(neg):
        cap = min(cap, float(np.min(z[neg] / -dz[neg])))
    return cap


def _fail(trace, reason, **context):
    trace.termination = reason
    raise SolverFailure(f"interior point method failed: {reason}", trace=trace, **context)


def solve_potential_reduction(lcp, options=None):
    """Solve a P-matrix LCP; returns (w, z, trace) with w.z < epsilon."""
    opts = options if options is not None else IpmOptions()
    m_mat = np.asarray(lcp.m, dtype=np.float64)
    q = np.asarray(lcp.q, dtype=np.float64)
    n = q.shape[0]
    rho = n + math.sqrt(n)

    trace = IpmTrace()
    z = np.ones(n)
    t = max(0.0, 1.0 - float(np.min(q + m_mat @ z)))
    t_final = opts.epsilon * 1e-3
    w = q + t + m_mat @ z
    iteration = 0

    for _stage in range(MAX_STAGES):
        # center at the current shift; t <= t_final forces the full target.
        # Intermediate stages also demand proximity (no product far below
        # the mean), else the tangent step gets pinched at path corners.
        target = max(opts.epsilon, STAGE_GAP_FRACTION * t)
        while True:
            gap = float(w @ z)
            if gap < target and (
                t <= t_final or float(np.min(w * z)) * rho >= 0.01 * gap
            ):
                break
            if iteration >= opts.max_iters:
                _fail(trace, f"gap {gap:.3e} after max_iters={opts.max_iters}")
            iteration += 1
            rhs = (gap / rho) - w * z
            try:
                dz = solve(z[:, None] * m_mat + np.diag(w), rhs)
            except SingularMatrixError:
                _fail(trace, "singular Newton system")
            dw = m_mat @ dz
            alpha = STEP_FRACTION * min(_max_positive_step(w, dw, z, dz), 1e16)
            f0 = _potential(w, z, rho)
            accepted = False
            while alpha >= STEP_FLOOR:
                w1 = w + alpha * dw
                z1 = z + alpha * dz
                if w1.min() > 0.0 and z1.min() > 0.0:
                    f1 = _potential(w1, z1, rho)
                    if f1 < f0:
                        accepted = True
                        break
                alpha *= BACKTRACK
            if not accepted:
                _fail(trace, f"line search stalled at step < {STEP_FLOOR}")
            z = z1
            # snap to exact feasibility of the shifted LCP; the reordered
            # arithmetic can flip near-zero components or, close to
            # convergence, wiggle tiny products enough to undo the
            # line-search decrease.  Either way the accepted interior point
            # stands in until the next successful snap re-anchors w.
            w_snap = q + t + m_mat @ z
            if w_snap.min() > 0.0 and _potential(w_snap, z, rho) < f0:
                w = w_snap
            else:
                w = w1
            trace.append(iteration, w @ z, _potential(w, z, rho), alpha, t)

        if t <= t_final:
            break

        # predictor: walk the shift down along the solution-path tangent
        if iteration >= opts.max_iters:
            _fail(trace, f"shift {t:.3e} still above target after max_iters")
        iteration += 1
        try:
            u = solve(z[:, None] * m_mat + np.diag(w), z)
        except SingularMatrixError:
            _fail(trace, "singular predictor system")
        du_w = m_mat @ u - 1.0
        s_want = (1.0 - HOMOTOPY_SHRINK) * t
        s = min(s_want, STEP_FRACTION * _max_positive_step(w, du_w, z, u))
        # the stall floor scales with t: near t_final legitimate steps are ~t
        s_floor = 1e-6 * t
        # besides positivity, keep the gap inside a band: the tangent changes
        # the gap by ~ s^2 u.(Mu - 1), and a near-boundary step would crush it
        # far below the stage scale, pinching every later tangent step.
        # w follows the tangent as well (see the module docstring)
        gap_now = float(w @ z)
        while s > s_floor:
            z_try = z + s * u
            w_try = w + s * du_w
            if w_try.min() > 0.0 and z_try.min() > 0.0:
                gap_try = float(w_try @ z_try)
                if GAP_BAND[0] * gap_now <= gap_try <= GAP_BAND[1] * gap_now:
                    break
            s *= 0.5
        if s <= s_floor:
            _fail(trace, f"homotopy stalled at shift {t:.3e}")
        t = t - s
        z = z_try
        w = w_try

        # corrector: pinched tangent steps leak the gap downward much faster
        # than they move the shift, and centering can only lower it further;
        # when the gap falls far below the stage scale, one targeted Newton
        # step re-inflates the products so path corners stay round.  Runs at
        # the stage boundary, outside the potential-monotone line search.
        gap = float(w @ z)
        scale = STAGE_GAP_FRACTION * t
        if t > t_final and gap < 0.25 * scale:
            try:
                d = solve(z[:, None] * m_mat + np.diag(w), (scale / n) - w * z)
            except SingularMatrixError:
                pass
            else:
                dw_d = m_mat @ d
                sc = min(1.0, STEP_FRACTION * _max_positive_step(w, dw_d, z, d))
                z_inf = z + sc * d
                w_inf = w + sc * dw_d
                if w_inf.min() > 0.0 and z_inf.min() > 0.0:
                    z, w = z_inf, w_inf
        trace.append(iteration, w @ z, _potential(w, z, rho), s, t)
    else:
        _fail(trace, f"homotopy used more than {MAX_STAGES} stages")

    trace.termination = "converged"
    # the last accepted point may have skipped its snap; leave with w
    # exactly feasible whenever that keeps the interior and the gap target
    w_snap = q + t + m_mat @ z
    if w_snap.min() > 0.0 and float(w_snap @ z) < opts.epsilon:
        w = w_snap
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
        for i in range(n):
            if i != row and tableau[i, entering] != 0.0:
                tableau[i] -= tableau[i, entering] * tableau[row]
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
