import dataclasses

import numpy as np
import pytest

from gamelcp.game import build_game
from gamelcp.hard_instances import build_hard_instance, hard_cost


THREE_STATE_SPEC = [
    (2, [(7.0, [(1, 0.5), (2, 0.5)]), (3.0, [(0, 1.0)])]),
    (1, [(-4.0, [(0, 1.0)]), (2.0, [(0, 0.5), (1, 0.25), (2, 0.25)])]),
    (2, [(5.0, [(1, 1.0)]), (-10.0, [(1, 1 / 3), (2, 2 / 3)])]),
]


def three_state_game(gamma=0.5):
    """The three-state example: state 1 belongs to the minimizer, actions
    in global order a1..a6 with the probability rows
    (0,1/2,1/2), (1,0,0), (1,0,0), (1/2,1/4,1/4), (0,1,0), (0,1/3,2/3)."""
    return build_game(gamma, THREE_STATE_SPEC)


def hard_instance(n, gamma, a_mode):
    """The hard game at the tail cost that ``a_mode`` names."""
    return build_hard_instance(n, gamma, hard_cost(n, gamma, a_mode))


def sigma_tau(game):
    """The reduction's two profiles: slot 0 (sigma) and slot 1 (tau) of
    every state."""
    return np.zeros(game.n, dtype=np.int64), np.ones(game.n, dtype=np.int64)


def swap_actions(game, states):
    """``game`` with the two actions of each of ``states`` in the other
    order: the reduction's sigma and tau trade places there."""
    rows = np.arange(game.costs.size)
    first = game.offsets[np.asarray(states, dtype=np.int64)]
    rows[first], rows[first + 1] = first + 1, first
    return dataclasses.replace(game, p=game.p[rows], costs=game.costs[rows])


@pytest.fixture
def three_state():
    return three_state_game()


@pytest.fixture
def g3():
    return build_hard_instance(3, 0.5, 1.0)
