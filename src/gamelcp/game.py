"""Core model for discounted two-player turn-based stochastic games.

A game is a finite set of states, each owned by player 1 (the minimizer) or
player 2 (the maximizer), a finite action set per state, and a discount
factor gamma in (0, 1).  An action has a cost and a sparse probability
distribution over successor states.  A strategy profile picks one action
slot per state; its value vector is the unique solution of

    (I - gamma * P_profile) v = c_profile.

An action's reduced cost against a value vector v is
``cost + gamma * P_action . v - v[source]``.  A profile is optimal exactly
when every player-1 action has reduced cost >= 0 and every player-2 action
has reduced cost <= 0 (up to tolerance).

The package has one game type, :class:`Game`: the matrices every solver
and certificate reads (P, the costs, the owner signs and each state's
action rows), built by :func:`build_game`.  :func:`validate_game` checks a
parsed JSON game and builds it; ``restrict``, ``value_vector``,
``reduced_costs`` and ``is_optimal`` check their profile against the
game's per-state action counts (:func:`as_profile`) and raise
:class:`GameValidationError` on a slot out of range or a profile of the
wrong length.

The file form is ``{"gamma": g, "states": [{"owner": 1 or 2, "actions":
[{"cost": c, "dist": [[target, prob], ...]}, ...]}, ...]}``.
:func:`save_game` writes each action's successors in state order, one
entry per positive probability, so repeated targets are merged and zero
entries dropped; loading either form gives the same arrays.  It writes one
state per line, but any JSON layout of the same value loads the same.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import UNIT_ROUNDOFF, solve_discounted

__all__ = [
    "Game",
    "GameValidationError",
    "PLAYER_MAX",
    "PLAYER_MIN",
    "as_profile",
    "build_game",
    "check_gamma",
    "game_json",
    "game_to_dict",
    "is_optimal",
    "load_game",
    "reduced_cost_rounding",
    "reduced_costs",
    "restrict",
    "save_game",
    "validate_game",
    "value_vector",
]

PLAYER_MIN = 1
PLAYER_MAX = 2

DIST_MASS_TOL = 1e-12


class GameValidationError(ValueError):
    pass


@dataclass(eq=False)
class Game:
    """A game as its matrices.

    p is the (m, n) row-stochastic action transition matrix, costs the
    (m,) cost vector and ownership_signs the (n,) vector S with -1 on
    player-1 states and +1 on player-2 states, the game's one record of
    who owns each state.  offsets[i]:offsets[i+1] slices the action rows
    of state i; state_of_action maps rows back.
    """

    gamma: float
    p: np.ndarray
    costs: np.ndarray
    ownership_signs: np.ndarray
    offsets: np.ndarray
    state_of_action: np.ndarray

    @property
    def n(self):
        return self.p.shape[1]

    @property
    def owners(self):
        """The (n,) owner of each state, 1 or 2, read from ownership_signs."""
        return np.where(self.ownership_signs < 0, PLAYER_MIN, PLAYER_MAX)


def check_gamma(gamma):
    """Refuse a discount factor outside the open interval (0, 1), NaN too."""
    if not 0.0 < gamma < 1.0:
        raise GameValidationError(
            f"discount out of range: gamma must lie strictly in (0, 1), got {gamma}"
        )


def build_game(gamma, states):
    """The :class:`Game` of ``states``, a list of
    ``(owner, [(cost, [(target, prob), ...]), ...])``, one entry per state.

    Checks nothing (a target past the last state raises IndexError);
    outside input goes through :func:`validate_game`.  Repeated targets of
    an action add up in the order given.
    """
    counts = [len(actions) for _, actions in states]
    n = len(states)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    state_of_action = np.repeat(np.arange(n, dtype=np.int64), counts)
    actions = [a for _, acts in states for a in acts]
    m = len(actions)
    costs = np.array([cost for cost, _ in actions], dtype=np.float64)
    # one scatter of every distribution entry, in action order: np.add.at
    # accumulates repeated targets in that order, as a per-entry loop would,
    # and refuses a target out of range the same way
    rows = np.repeat(np.arange(m, dtype=np.int64), [len(dist) for _, dist in actions])
    cols = np.array([j for _, dist in actions for j, _ in dist], dtype=np.int64)
    probs = np.array([prob for _, dist in actions for _, prob in dist], dtype=np.float64)
    p = np.zeros((m, n))
    np.add.at(p, (rows, cols), probs)
    return Game(
        gamma=gamma,
        p=p,
        costs=costs,
        ownership_signs=np.array([-1.0 if o == PLAYER_MIN else 1.0 for o, _ in states]),
        offsets=offsets,
        state_of_action=state_of_action,
    )


def _number(value):
    """``float(value)`` for a JSON number, refusing a string or a boolean,
    which ``float`` would take, and an integer past the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(str(exc)) from exc


def _integral(value):
    """``int(value)`` for a JSON number that is an integer, refusing a float
    that ``int`` would truncate (1.9 is not 1)."""
    number = _number(value)
    if not number.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(number)


def validate_game(obj):
    """Validate ``obj``, a parsed JSON dict, and return its :class:`Game`.

    Checks: gamma strictly inside (0, 1); at least one state; at least one
    action per state; owner in {1, 2}; distribution targets in range with
    nonnegative mass summing to 1 within 1e-12.  gamma, a cost and a
    probability must be JSON numbers, and an owner or a target an integer
    (1.0 is one, 1.9 is not); a string or a boolean is neither.
    Distributions are never renormalized; off-by-more-than-tolerance mass
    is an error.
    """
    if not isinstance(obj, dict):
        raise GameValidationError(f"expected dict, got {type(obj).__name__}")
    try:
        gamma = _number(obj["gamma"])
        raw_states = list(obj["states"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GameValidationError(f"malformed game object: {exc}") from exc
    check_gamma(gamma)
    n = len(raw_states)
    if n == 0:
        raise GameValidationError("game has no states")

    states = []
    for i, rs in enumerate(raw_states):
        try:
            owner = _integral(rs["owner"])
            raw_actions = list(rs["actions"])
        except (KeyError, TypeError, ValueError) as exc:
            raise GameValidationError(f"state {i}: malformed entry: {exc}") from exc
        if owner not in (PLAYER_MIN, PLAYER_MAX):
            raise GameValidationError(f"state {i}: owner must be 1 or 2, got {owner}")
        if len(raw_actions) == 0:
            raise GameValidationError(f"state {i}: no actions")
        actions = []
        for a, ra in enumerate(raw_actions):
            try:
                cost = _number(ra["cost"])
                dist = [(_integral(j), _number(p)) for j, p in ra["dist"]]
            except (KeyError, TypeError, ValueError) as exc:
                raise GameValidationError(
                    f"state {i} action {a}: malformed entry: {exc}"
                ) from exc
            if not math.isfinite(cost):
                raise GameValidationError(f"state {i} action {a}: non-finite cost")
            mass = 0.0
            for j, p in dist:
                if not 0 <= j < n:
                    raise GameValidationError(
                        f"state {i} action {a}: target {j} out of range [0, {n})"
                    )
                if not math.isfinite(p) or p < 0.0:
                    raise GameValidationError(
                        f"state {i} action {a}: bad probability {p}"
                    )
                mass += p
            if abs(mass - 1.0) > DIST_MASS_TOL:
                raise GameValidationError(
                    f"state {i} action {a}: distribution sum {mass!r} not within "
                    f"{DIST_MASS_TOL} of 1"
                )
            actions.append((cost, dist))
        states.append((owner, actions))
    return build_game(gamma, states)


def game_to_dict(game):
    """The file form of ``game``: each action's successors in state order,
    one ``[target, prob]`` per positive entry of its row of P."""
    rows, cols = np.nonzero(game.p > 0.0)
    entries = [[j, prob] for j, prob in zip(cols.tolist(), game.p[rows, cols].tolist())]
    ends = np.searchsorted(rows, np.arange(len(game.costs) + 1)).tolist()
    costs = game.costs.tolist()
    offsets = game.offsets.tolist()
    return {
        "gamma": game.gamma,
        "states": [
            {
                "owner": owner,
                "actions": [
                    {"cost": costs[r], "dist": entries[ends[r] : ends[r + 1]]}
                    for r in range(offsets[i], offsets[i + 1])
                ],
            }
            for i, owner in enumerate(game.owners.tolist())
        ],
    }


def load_game(path):
    with open(path, "r", encoding="utf-8") as fh:
        return validate_game(json.load(fh))


def game_json(game):
    """The game's file form, as ``save_game`` writes it: one state per line.

    One line per state keeps a written game readable and its diffs local
    when a file is edited by hand.  Every value is a plain ``json.dumps``,
    which runs CPython's C encoder (``indent`` would send it through the
    pure-Python one, several times slower), and the envelope is built from
    :func:`game_to_dict`'s keys, so the two cannot drift apart.  The layout
    is not part of the file form: any layout of the same JSON value loads
    to the same arrays.
    """
    fields = []
    for key, value in game_to_dict(game).items():
        if key == "states":
            text = "[\n" + ",\n".join(map(json.dumps, value)) + "\n]"
        else:
            text = json.dumps(value)
        fields.append(f"{json.dumps(key)}: {text}")
    return "{" + ", ".join(fields) + "}\n"


def save_game(game, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(game_json(game))


def as_profile(game, choice):
    """``choice`` as an (n,) int64 array of action slots, checked against
    the per-state action counts of ``game``."""
    arr = np.asarray(choice, dtype=np.int64)
    counts = np.diff(game.offsets)
    if arr.shape != counts.shape:
        raise GameValidationError(
            f"profile length {arr.shape} does not match {game.n} states"
        )
    bad = np.flatnonzero((arr < 0) | (arr >= counts))
    if bad.size:
        i = bad[0]
        raise GameValidationError(
            f"profile slot {arr[i]} out of range at state {i} ({counts[i]} actions)"
        )
    return arr


def restrict(game, profile):
    """Rows of (P, c) chosen by the profile: the (n, n) P_profile and (n,) c."""
    rows = game.offsets[:-1] + as_profile(game, profile)
    return game.p[rows], game.costs[rows]


def value_vector(game, profile):
    """Solve (I - gamma P_profile) v = c_profile for the profile's values,
    with one plain solve behind the system's closed-form condition bound
    (:func:`~gamelcp._kernels.solve_discounted`).  Raises ArithmeticError
    when a value is not finite (a NaN cost, or costs near the float range)."""
    p_sel, c_sel = restrict(game, profile)
    values = solve_discounted(np.eye(game.n) - game.gamma * p_sel, c_sel)
    if not np.isfinite(values).all():
        raise ArithmeticError("the profile's values are not finite")
    return values


def reduced_costs(game, profile, values=None):
    """Reduced cost of every action against the profile's value vector;
    ``values``, when given, must be that vector."""
    if values is None:
        values = value_vector(game, profile)
    else:
        as_profile(game, profile)
    return game.costs + game.gamma * (game.p @ values) - values[game.state_of_action]


def reduced_cost_rounding(game, values):
    """The rounding level of the reduced costs at ``values``, a value vector
    or a bound on its entries' magnitude.

    A reduced cost c + gamma P v - v carries rounding of about
    u (|c| + 2 |v|), u = 2^-53; this gives 8 u (max|c| + 2 max|v|).  An
    optimality check at a tolerance below it cannot tell a violation from
    rounding.  |v| reaches max|c| / (1 - gamma), so near gamma = 1 the
    level exceeds tolerances of the form eps (1 - gamma).
    """
    c_max = float(np.abs(game.costs).max())
    return 8.0 * UNIT_ROUNDOFF * (c_max + 2.0 * float(np.abs(values).max()))


def is_optimal(game, profile, tol=1e-9, values=None):
    """Check the profile's optimality; returns (verdict, violating rows).

    Player-1 actions must have reduced cost >= -t and player-2 actions
    <= t, that is S rc <= t with S the owner's sign, where t = max(tol,
    level) and level is the reduced costs' rounding at the profile's
    values (:func:`reduced_cost_rounding`): below it a check cannot tell a
    violation from rounding.  So tol = 0 checks at the level, not exactly.
    Violating rows are global action indices.  ``values``, when given,
    must be the profile's value vector; it saves a solve.  Raises
    ArithmeticError if a reduced cost or the level is not finite (an
    infinite t, from values near the float range, would pass any profile).
    """
    if not tol >= 0:  # NaN too: every comparison with it is false
        raise ValueError(f"tol must be nonnegative, got {tol}")
    if values is None:
        values = value_vector(game, profile)
    rc = reduced_costs(game, profile, values)
    level = reduced_cost_rounding(game, values)
    if not (np.isfinite(rc).all() and math.isfinite(level)):
        raise ArithmeticError("the profile's reduced costs or their rounding are not finite")
    tol = max(tol, level)
    # negation is exact, so -rc > t is rc < -t bit for bit
    violations = np.flatnonzero(game.ownership_signs[game.state_of_action] * rc > tol)
    return violations.size == 0, violations
