"""Classic game solvers: value iteration, strategy iteration, brute force.

Every function here takes a :class:`~gamelcp.game.Game`; a given profile
is checked against its per-state action counts.  All three solvers return
a :class:`SolveResult` whose ``values`` field is the exact value vector of
the returned profile (a LAPACK solve), so results from different methods
are directly comparable.

Value iteration has one stop rule: it returns at the first block end
whose greedy profile passes the optimality check at ``eps * (1 - gamma)``
(or at the rounding level of its reduced costs, where that is larger), so
it reports a multiple of ``VI_BLOCK`` as its iteration count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .game import as_profile, is_optimal, reduced_costs, value_vector

__all__ = [
    "SolveResult",
    "SolverFailure",
    "bellman_backup",
    "brute_force_solve",
    "greedy_profile",
    "strategy_iteration",
    "value_iteration",
]

BRUTE_FORCE_CAP = 10**6
VI_MAX_ITERS = 10**6
VI_BLOCK = 32  # iterates per profile check in value_iteration
SI_MAX_ROUNDS = 10**6


class SolverFailure(RuntimeError):
    """A solve produced no verified result: a solver exhausted its budget or
    hit a numeric defect, or ``lcp.recover`` refused an LCP solution.
    ``context`` holds what the raiser adds (a trace, the failed check)."""

    def __init__(self, message, **context):
        super().__init__(message)
        self.context = context


@dataclass
class SolveResult:
    values: np.ndarray
    profile: np.ndarray
    iterations: int


class _SignedRows:
    """A game's action rows with each owner's sign folded in, built once per solve.

    sign_a is +1 on player-1 actions and -1 on player-2 actions, so every
    state's best action is the lowest of sign_a * y, and max(y) = -min(-y).
    Negation is exact: sign_a * (c + gamma P v) = sc + sg * (P v) bit for
    bit, with sc = sign_a * c and sg = sign_a * gamma.
    """

    def __init__(self, game):
        self.game = game
        self.sign = -game.ownership_signs
        self.sign_a = self.sign[game.state_of_action]
        self.sc = self.sign_a * game.costs
        self.sg = self.sign_a * game.gamma
        self.starts = game.offsets[:-1]

    def signed_y(self, v):
        """sign_a * (c + gamma P v): every action's signed one-step value."""
        return self.sc + self.sg * (self.game.p @ v)

    def backup(self, v):
        """One step of the optimality operator."""
        return self.sign * np.minimum.reduceat(self.signed_y(v), self.starts)

    def first_best(self, signed):
        """Lowest slot per state attaining the segment minimum of ``signed``.

        A NaN counts as attaining it, so a segment holding one gives its
        first NaN, as argmin and argmax do.
        """
        lows = np.minimum.reduceat(signed, self.starts)
        hit = (signed == lows[self.game.state_of_action]) | np.isnan(signed)
        pos = np.flatnonzero(hit)
        return pos[np.searchsorted(pos, self.starts)] - self.starts


def bellman_backup(game, v):
    """One step of the optimality operator: per-state best one-step value."""
    return _SignedRows(game).backup(np.asarray(v, dtype=np.float64))


def greedy_profile(game, v):
    """Slot of the best action per state against v, lowest slot on ties."""
    rows = _SignedRows(game)
    return rows.first_best(rows.signed_y(np.asarray(v, dtype=np.float64)))


def value_iteration(game, eps=1e-8):
    """Iterate the optimality operator from v = 0 until a profile certifies.

    Every VI_BLOCK iterates, the profile greedy against the last iterate is
    solved and checked by :func:`~gamelcp.game.is_optimal` at tau = eps *
    (1 - gamma), which it floors at the rounding level of the reduced costs
    at the profile's values v_s (:func:`~gamelcp.game.reduced_cost_rounding`).
    If it passes, |T v_s - v_s| <= max(tau, level), so v_s is within
    max(eps, level / (1 - gamma)) of the optimal values, and the run returns
    the profile with v_s and the iteration count, a multiple of VI_BLOCK.
    The check depends only on the profile, so a profile already checked is
    not solved again.
    """
    if not 0 < eps < math.inf:  # NaN too: every comparison with it is false
        raise ValueError(f"eps must be positive and finite, got {eps}")
    rows = _SignedRows(game)
    tau = eps * (1.0 - game.gamma)
    checked = set()  # bytes of every profile checked
    v = np.zeros(game.n)
    for done in range(VI_BLOCK, VI_MAX_ITERS + 1, VI_BLOCK):
        for _ in range(VI_BLOCK):
            v = rows.backup(v)
        choice = rows.first_best(rows.signed_y(v))
        key = choice.tobytes()
        if key not in checked:
            checked.add(key)
            values = value_vector(game, choice)
            if is_optimal(game, choice, tau, values=values)[0]:
                return SolveResult(values, choice, done)
    raise SolverFailure(
        f"value iteration certified no profile within {VI_MAX_ITERS} iterations",
        profiles_checked=len(checked),
    )


def strategy_iteration(game, initial_profile=None, tol=1e-9):
    """All-switch strategy iteration with cycle detection.

    Every round solves the profile's values and checks them with
    :func:`~gamelcp.game.is_optimal` at tol.  The run returns at the first
    profile it passes; otherwise every state that :func:`is_optimal` flags
    switches to its best action, lowest slot on ties, and the others keep
    theirs.  So SI improves exactly where the optimality check sees a
    violation, past tol floored at the reduced costs' rounding level.
    Starts from the all-slot-0 profile unless given one.  Revisiting a
    profile raises (cannot happen for exact arithmetic; guards against
    tolerance misuse).
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")
    rows = _SignedRows(game)
    if initial_profile is None:
        initial_profile = np.zeros(game.n, dtype=np.int64)
    choice = as_profile(game, initial_profile).copy()
    seen = {tuple(choice.tolist())}
    for rounds in range(1, SI_MAX_ROUNDS + 1):
        v = value_vector(game, choice)
        violations = is_optimal(game, choice, tol, values=v)[1]
        if not violations.size:
            return SolveResult(values=v, profile=choice, iterations=rounds - 1)
        best = rows.first_best(rows.sign_a * reduced_costs(game, choice, v))
        flagged = game.state_of_action[violations]
        choice[flagged] = best[flagged]
        key = tuple(choice.tolist())
        if key in seen:
            raise SolverFailure("strategy iteration revisited a profile (cycle)")
        seen.add(key)
    raise SolverFailure(f"strategy iteration exceeded {SI_MAX_ROUNDS} rounds")


def brute_force_solve(game, tol=1e-9):
    """First profile, in lexicographic slot order, passing the optimality check.

    Refuses games with more than 10^6 profiles.  Intended as an oracle for
    small instances.
    """
    counts = np.diff(game.offsets)
    total = math.prod(int(c) for c in counts)
    if total > BRUTE_FORCE_CAP:
        raise SolverFailure(
            f"{total} profiles exceed the enumeration cap {BRUTE_FORCE_CAP}"
        )
    examined = 0
    for tup in itertools.product(*(range(int(c)) for c in counts)):
        examined += 1
        choice = np.asarray(tup, dtype=np.int64)
        v = value_vector(game, choice)
        if is_optimal(game, choice, tol, values=v)[0]:
            return SolveResult(values=v, profile=choice, iterations=examined)
    raise SolverFailure(
        f"no profile among {total} passed the optimality check at tol {tol} "
        "(numeric tolerance defect)"
    )
