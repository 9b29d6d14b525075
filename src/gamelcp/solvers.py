"""Classic game solvers: value iteration, strategy iteration, brute force.

All three return a :class:`SolveResult` whose ``values`` field is the exact
value vector of the returned profile (a LAPACK solve), so results from
different methods are directly comparable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .game import (
    PLAYER_MIN,
    MatrixRep,
    as_profile,
    matrix_representation,
    reduced_costs,
    value_vector,
)

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
SI_MAX_ROUNDS = 10**6


class SolverFailure(RuntimeError):
    """A solver exhausted its budget or hit a numeric defect."""

    def __init__(self, message, **context):
        super().__init__(message)
        self.context = context


@dataclass
class SolveResult:
    values: np.ndarray
    profile: np.ndarray
    iterations: int
    method: str


def _rep_of(game):
    return game if isinstance(game, MatrixRep) else matrix_representation(game)


def bellman_backup(game, v):
    """One step of the optimality operator: per-state best one-step value."""
    rep = _rep_of(game)
    y = rep.costs + rep.gamma * (rep.p @ np.asarray(v, dtype=np.float64))
    # +1 on player-1 states, -1 on player-2 states: max(y) = -min(-y) exactly
    sign = -rep.ownership_signs
    return sign * np.minimum.reduceat(sign[rep.state_of_action] * y, rep.offsets[:-1])


def greedy_profile(game, v):
    """Slot of the best action per state against v, lowest slot on ties."""
    rep = _rep_of(game)
    y = rep.costs + rep.gamma * (rep.p @ np.asarray(v, dtype=np.float64))
    n = rep.n
    choice = np.empty(n, dtype=np.int64)
    for i in range(n):
        seg = y[rep.offsets[i] : rep.offsets[i + 1]]
        choice[i] = np.argmin(seg) if rep.owners[i] == PLAYER_MIN else np.argmax(seg)
    return choice


def value_iteration(game, eps=1e-8):
    """Iterate the optimality operator from v = 0 until the step is small.

    Stops when ||v_next - v||_inf <= eps * (1 - gamma) / (2 gamma), which
    puts v within eps of the optimal values by the standard contraction
    argument.  The returned profile is greedy against the final iterate and
    the returned values are that profile's exact values.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    rep = _rep_of(game)
    threshold = eps * (1.0 - rep.gamma) / (2.0 * rep.gamma)
    v = np.zeros(rep.n)
    for it in range(1, VI_MAX_ITERS + 1):
        v_next = bellman_backup(rep, v)
        delta = float(np.max(np.abs(v_next - v)))
        v = v_next
        if delta <= threshold:
            choice = greedy_profile(rep, v)
            return SolveResult(
                values=value_vector(rep, choice),
                profile=choice,
                iterations=it,
                method="value_iteration",
            )
    raise SolverFailure(
        f"value iteration did not reach step {threshold:.3e} within {VI_MAX_ITERS} "
        "iterations",
        last_step=delta,
    )


def strategy_iteration(game, initial_profile=None, tol=1e-9):
    """All-switch strategy iteration with cycle detection.

    Every round switches each state that owns a strictly improving action
    (reduced cost < -tol for player 1, > tol for player 2) to its best
    action, lowest slot on ties.  Starts from the all-slot-0 profile unless
    given one.  Revisiting a profile raises (cannot happen for exact
    arithmetic; guards against tolerance misuse).
    """
    rep = _rep_of(game)
    if initial_profile is None:
        choice = np.zeros(rep.n, dtype=np.int64)
    elif isinstance(game, MatrixRep):
        choice = np.asarray(initial_profile, dtype=np.int64).copy()
    else:
        choice = as_profile(game, initial_profile).copy()
    seen = {tuple(choice.tolist())}
    for rounds in range(1, SI_MAX_ROUNDS + 1):
        v = value_vector(rep, choice)
        rc = reduced_costs(rep, choice, v)
        switched = False
        new_choice = choice.copy()
        for i in range(rep.n):
            seg = rc[rep.offsets[i] : rep.offsets[i + 1]]
            if rep.owners[i] == PLAYER_MIN:
                best = int(np.argmin(seg))
                improving = seg[best] < -tol
            else:
                best = int(np.argmax(seg))
                improving = seg[best] > tol
            if improving:
                new_choice[i] = best
                switched = True
        if not switched:
            return SolveResult(
                values=v,
                profile=choice,
                iterations=rounds - 1,
                method="strategy_iteration",
            )
        key = tuple(new_choice.tolist())
        if key in seen:
            raise SolverFailure("strategy iteration revisited a profile (cycle)")
        seen.add(key)
        choice = new_choice
    raise SolverFailure(f"strategy iteration exceeded {SI_MAX_ROUNDS} rounds")


def brute_force_solve(game, tol=1e-9):
    """First profile, in lexicographic slot order, passing the optimality check.

    Refuses games with more than 10^6 profiles.  Intended as an oracle for
    small instances.
    """
    rep = _rep_of(game)
    counts = np.diff(rep.offsets)
    total = math.prod(int(c) for c in counts)
    if total > BRUTE_FORCE_CAP:
        raise SolverFailure(
            f"{total} profiles exceed the enumeration cap {BRUTE_FORCE_CAP}"
        )
    owner_of_action = rep.owners[rep.state_of_action]
    is_min_action = owner_of_action == PLAYER_MIN
    examined = 0
    for tup in itertools.product(*(range(int(c)) for c in counts)):
        examined += 1
        choice = np.asarray(tup, dtype=np.int64)
        v = value_vector(rep, choice)
        rc = reduced_costs(rep, choice, v)
        ok = not (
            np.any(is_min_action & (rc < -tol)) or np.any(~is_min_action & (rc > tol))
        )
        if ok:
            return SolveResult(
                values=v, profile=choice, iterations=examined, method="brute_force"
            )
    raise SolverFailure(
        f"no profile among {total} passed the optimality check at tol {tol} "
        "(numeric tolerance defect)"
    )
