"""kappa / delta / theta measurement and certification tests."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gamelcp import conditioning as cond
from gamelcp.bench import random_game
from gamelcp.conditioning import (
    CSV_COLUMNS,
    KappaUndefined,
    certify,
    delta_lower_bound,
    estimate_kappa,
    estimate_theta,
    kappa_at,
    kappa_upper_bound,
    pmatrix_check_minors,
    pmatrix_witness_check,
    smallest_eigenvalue_sym,
    structural_certificate,
    theta_at,
    theta_lower_bound,
    report_json,
    write_report_csv,
)
from gamelcp._kernels import SingularMatrixError
from gamelcp.cli import main
from gamelcp.game import build_game, restrict, save_game
from gamelcp.hard_instances import hard_cost
from gamelcp.lcp import Lcp, reduction, to_lcp

from conftest import hard_instance, sigma_tau
from oracles import closed_forms, gaussian_sample

NOT_P = np.array([[0.0, 1.0], [-1.0, 0.0]])


def hard_lcp(n, gamma, a_mode="kappa"):
    game = hard_instance(n, gamma, a_mode=a_mode)
    return to_lcp(game)


def _starts(m_mat, witnesses, samples, seed):
    """certify's starts for kappa and for theta: the witnesses, then that
    measure's best direction of the gaussian sample."""
    return [[*witnesses, *best] for best in cond._sample_bests(m_mat, samples, seed)]


def test_kappa_at_hard_witness_exact():
    lcp = hard_lcp(10, 0.5)
    forms = closed_forms(10, 0.5, hard_cost(10, 0.5, "kappa"))
    assert kappa_at(lcp.m, forms.c_tau) == 0.75


def test_kappa_at_zero_cases():
    assert kappa_at(np.eye(3), np.array([1.0, -2.0, 0.5])) == 0.0
    assert kappa_at(np.eye(4), np.ones(4)) == 0.0
    # nonnegative total product mass certifies kappa = 0
    m = np.array([[2.0, -1.0], [0.0, 1.0]])
    assert kappa_at(m, np.array([1.0, 1.0])) == 0.0


def test_kappa_at_undefined():
    assert issubclass(KappaUndefined, ArithmeticError)
    with pytest.raises(KappaUndefined):
        kappa_at(-np.eye(2), np.array([1.0, 0.0]))


def test_kappa_at_scale_invariant():
    lcp = hard_lcp(10, 0.5)
    forms = closed_forms(10, 0.5, hard_cost(10, 0.5, "kappa"))
    base = kappa_at(lcp.m, forms.c_tau)
    assert abs(kappa_at(lcp.m, 3.7 * forms.c_tau) - base) <= 1e-12
    assert abs(kappa_at(lcp.m, -forms.c_tau) - base) <= 1e-12


def test_bound_spot_values():
    assert kappa_upper_bound(10, 0.5) == 40.0
    assert kappa_upper_bound(1, 0.5) == 4.0
    assert delta_lower_bound(10, 0.5) == pytest.approx(-3.0 * math.sqrt(10))
    assert delta_lower_bound(1, 0.5) == pytest.approx(-3.0)
    assert theta_lower_bound(10, 0.5) == pytest.approx(1.0 / 90.0)
    assert theta_lower_bound(1, 0.5) == pytest.approx(1.0 / 9.0)


@pytest.mark.parametrize("fn", [kappa_upper_bound, delta_lower_bound, theta_lower_bound])
def test_bound_domain_rejections(fn):
    with pytest.raises(ValueError, match="gamma"):
        fn(4, 0.0)
    with pytest.raises(ValueError, match="gamma"):
        fn(4, 1.0)
    with pytest.raises(ValueError, match="n must"):
        fn(0, 0.5)


def test_smallest_eigenvalue_identity():
    lam, vec = smallest_eigenvalue_sym(np.eye(5))
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert np.abs(vec @ vec - 1.0) <= 1e-9


def test_smallest_eigenvalue_offdiag():
    lam, vec = smallest_eigenvalue_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert lam == pytest.approx(-0.5, abs=1e-12)
    a = np.array([[0.0, 0.5], [0.5, 0.0]])
    assert np.linalg.norm(a @ vec - lam * vec) <= 1e-12


def test_smallest_eigenvalue_hard_family():
    # in eigenvalue mode c_tau is an exact eigenvector of the symmetrization
    lcp = hard_lcp(10, 0.5, a_mode="eigenvalue")
    forms = closed_forms(10, 0.5, hard_cost(10, 0.5, "eigenvalue"))
    a = 0.5 * (lcp.m + lcp.m.T)
    resid = np.linalg.norm(a @ forms.c_tau - (-1.0) * forms.c_tau)
    assert resid <= 1e-9 * np.linalg.norm(forms.c_tau)
    lam, vec = smallest_eigenvalue_sym(lcp.m)
    assert lam == pytest.approx(-1.0, abs=1e-9)
    assert np.linalg.norm(a @ vec - lam * vec) <= 1e-9 * np.sqrt((a * a).sum())


def test_theta_at_hard_witness_exact():
    lcp = hard_lcp(10, 0.5, a_mode="theta")
    forms = closed_forms(10, 0.5, hard_cost(10, 0.5, "theta"))
    assert theta_at(lcp.m, forms.c_tau) == 1.0 / 34.0


def test_theta_at_basics():
    eye = np.eye(4)
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    assert theta_at(eye, e1) == 1.0
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(4)
        val = theta_at(eye, x)
        assert 0.0 < val <= 1.0 + 1e-15
        assert theta_at(eye, -x) == val
    with pytest.raises(ValueError, match="nonzero"):
        theta_at(eye, np.zeros(4))


def test_estimate_theta_identity():
    eye = np.eye(6)
    val, x = estimate_theta(eye, cond._sample_bests(eye, 500, 1)[1])
    assert val == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert np.abs(x @ x - 1.0) <= 1e-9


def test_estimate_theta_hard_sandwich():
    lcp = hard_lcp(10, 0.5, a_mode="theta")
    forms = closed_forms(10, 0.5, hard_cost(10, 0.5, "theta"))
    val, x = estimate_theta(lcp.m, _starts(lcp.m, [forms.c_tau], 2000, 0)[1])
    assert theta_lower_bound(10, 0.5) - 1e-9 <= val <= 1.0 / 34.0 + 1e-12
    assert theta_at(lcp.m, x) == pytest.approx(val, abs=1e-12)


def test_estimate_kappa_hard_witness_is_optimal():
    lcp = hard_lcp(10, 0.5)
    forms = closed_forms(10, 0.5, hard_cost(10, 0.5, "kappa"))
    val, x = estimate_kappa(lcp.m, _starts(lcp.m, [forms.c_tau], 2000, 0)[0])
    # c_tau attains the true kappa; sampling and climbing cannot beat it
    assert val == pytest.approx(0.75, abs=1e-9)
    assert kappa_at(lcp.m, x) == pytest.approx(val, abs=1e-12)


def test_estimate_kappa_identity_is_zero():
    eye = np.eye(5)
    val, x = estimate_kappa(eye, cond._sample_bests(eye, 500, 2)[0])
    assert val == 0.0
    assert x.shape == (5,)


def _random_game_lcps(count, n=24, gamma=0.99, seed0=500):
    for k in range(count):
        game = random_game(n, gamma, seed0 + k)
        yield to_lcp(game).m


def test_estimate_kappa_is_exact_at_its_direction():
    # the reported lower estimate is kappa_at of the reported direction,
    # bit for bit, never the incrementally updated climb value
    for m_mat in _random_game_lcps(10):
        val, x = estimate_kappa(m_mat, cond._sample_bests(m_mat, 1000, 3)[0])
        assert val == kappa_at(m_mat, x)


def test_estimate_theta_is_exact_at_its_direction():
    for m_mat in _random_game_lcps(10):
        val, x = estimate_theta(m_mat, cond._sample_bests(m_mat, 1000, 3)[1])
        assert val == theta_at(m_mat, x)


# The coordinate climb as one scalar objective call per move: the reference
# the batched ``_climb`` must follow move for move.


def _kappa_objective(x, y):
    prods = x * y
    pos = float(prods[prods > 0.0].sum())
    neg = float(prods[prods < 0.0].sum())
    if pos + neg >= 0.0:
        return 0.0
    if pos == 0.0:
        return np.inf
    return (-neg / pos - 1.0) / 4.0


def _theta_objective(x, y):
    nrm2 = float(x @ x)
    if nrm2 == 0.0:
        return np.inf
    return float(np.max(x * y)) / nrm2


def _scalar_climb(m_mat, x0, batch_fn, better, floor=0.0):
    objective = _kappa_objective if batch_fn is cond._kappa_batch else _theta_objective
    x = np.asarray(x0, dtype=np.float64).copy()
    y = m_mat @ x
    best = objective(x, y)
    n = x.shape[0]
    scale = 1.0
    sign = 1.0 if better == "max" else -1.0
    for _ in range(cond.HILL_CLIMB_ROUNDS):
        if scale < floor:
            break
        improved = False
        for j in range(n):
            step = scale * max(1.0, abs(x[j]))
            for d in (step, -step):
                x_j = x[j]
                x[j] = x_j + d
                y_try = y + d * m_mat[:, j]
                val = objective(x, y_try)
                if sign * val > sign * best:
                    best = val
                    y = y_try
                    improved = True
                else:
                    x[j] = x_j
        if not improved:
            scale *= 0.5
    return best, x


def _estimates(m_mat, witnesses, samples, seed):
    kappa_starts, theta_starts = _starts(m_mat, witnesses, samples, seed)
    return estimate_kappa(m_mat, kappa_starts)[0], estimate_theta(m_mat, theta_starts)[0]


def _oracle_cases():
    for n in (8, 16):
        for gamma in (0.5, 0.99):
            for a_mode in ("kappa", "eigenvalue", "theta"):
                forms = closed_forms(n, gamma, hard_cost(n, gamma, a_mode))
                game = hard_instance(n, gamma, a_mode=a_mode)
                _, c_tau = restrict(game, sigma_tau(game)[1])
                witnesses = [forms.c_tau, game.ownership_signs * c_tau]
                yield to_lcp(game).m, witnesses
    for n in (8, 12, 24):
        for gamma in (0.5, 0.99):
            game = random_game(n, gamma, 300 + n)
            yield to_lcp(game).m, ()


def test_batched_climb_matches_scalar_oracle(monkeypatch):
    cases = list(_oracle_cases())
    batched = [_estimates(m_mat, wit, 500, 5) for m_mat, wit in cases]
    monkeypatch.setattr(cond, "_climb", _scalar_climb)
    scalar = [_estimates(m_mat, wit, 500, 5) for m_mat, wit in cases]
    for got, want in zip(batched, scalar):
        assert got == pytest.approx(want, rel=1e-8, abs=0.0)


def test_estimate_theta_zero_move_is_not_a_direction():
    # at n = 1 the climb's -1 move reaches x = 0, which must score +inf quietly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = np.array([[2.0]])
        val, x = estimate_theta(m, cond._sample_bests(m, 10_000, 0)[1])
    assert val == 2.0
    assert x.tolist() == [1.0]


# The round-by-round climb, one call per round or per remaining scan: the
# exact reference for ``_climb``, which scores runs of hit-less rounds in one
# call and must return the same x and value bit for bit.


def _round_by_round_climb(m_mat, x0, batch_fn, better, path=None, floor=0.0):
    """``path``, if given, receives (x, round) after each move taken.  The
    climb ends before the first round whose scale is below ``floor``."""
    x = np.asarray(x0, dtype=np.float64).copy()
    y = m_mat @ x
    m_cols = np.ascontiguousarray(m_mat.T)
    best = batch_fn(x[None, :], y[None, :])[0]
    # move p is +step (p even) or -step (p odd) on coordinate p // 2
    move_coords = np.repeat(np.arange(x.shape[0]), 2)
    move_signs = np.tile((1.0, -1.0), x.shape[0])
    scale = 1.0
    sign = 1.0 if better == "max" else -1.0
    for r in range(cond.HILL_CLIMB_ROUNDS):
        if scale < floor:
            break
        pos = 0  # the next move to try
        while pos < len(move_coords):
            coords = move_coords[pos:]
            moves = scale * np.maximum(1.0, np.abs(x[coords])) * move_signs[pos:]
            if pos % 2:  # -step right after a taken +step: the step measured before it
                moves[0] = -last_step
            x_rows = np.repeat(x[None, :], moves.shape[0], axis=0)
            x_rows[np.arange(moves.shape[0]), coords] += moves
            y_rows = y + moves[:, None] * m_cols[coords]
            vals = batch_fn(x_rows, y_rows)
            hits = sign * vals > sign * best
            h = int(np.argmax(hits))  # the first improving move, if any
            if not hits[h]:
                break
            x, y, best, last_step = x_rows[h], y_rows[h], vals[h], moves[h]
            pos += h + 1
            if path is not None:
                path.append((x, r))
        if pos == 0:  # no move taken this round
            scale *= 0.5
    return best, x


def _certify_witnesses(lcp):
    return [lcp.reduction.c_tau]


def _climb_starts(monkeypatch, m_mat, witnesses, samples=500, seed=5):
    """(x0, batch_fn, better, floor) of every climb the two estimators run."""
    starts = []
    real = cond._climb

    def spy(m, x0, batch_fn, better, floor=0.0):
        starts.append((np.array(x0, dtype=np.float64), batch_fn, better, floor))
        return real(m, x0, batch_fn, better, floor)

    kappa_starts, theta_starts = _starts(m_mat, witnesses, samples, seed)
    with monkeypatch.context() as mp:
        mp.setattr(cond, "_climb", spy)
        estimate_kappa(m_mat, kappa_starts)
        estimate_theta(m_mat, theta_starts)
    return starts


def _counted(batch_fn, rows):
    def counting(x_rows, y_rows):
        rows.append(x_rows.shape[0])
        return batch_fn(x_rows, y_rows)

    return counting


def _climb_identity_cases():
    # the sweep's hard cells, where most calls take a predicted chain of moves
    for n in (8, 16, 32, 48, 64):
        for gamma in (0.9, 0.99):
            for a_mode in ("kappa", "eigenvalue", "theta"):
                game = hard_instance(n, gamma, a_mode=a_mode)
                lcp = to_lcp(game)
                suffix = "" if gamma == 0.9 else f"-{gamma}"
                yield f"hard-{n}-{a_mode}{suffix}", lcp.m, _certify_witnesses(lcp)
    # at n = 96 one round's moves fill the entry cap: a chain gets only the
    # rows that the moves already taken in the round left free
    game = hard_instance(96, 0.9, a_mode="kappa")
    lcp = to_lcp(game)
    yield "hard-96-kappa", lcp.m, _certify_witnesses(lcp)
    for n in (1, 8, 24):
        for gamma in (0.5, 0.99):
            game = random_game(n, gamma, 40 + n)
            yield f"random-{n}-{gamma}", to_lcp(game).m, ()
    # integer entries: products and moves tie exactly, and a tie is no move
    for n in (6, 16):
        rng = np.random.default_rng(n)
        m_mat = np.asfortranarray(rng.integers(-4, 5, (n, n)) + n * np.eye(n))
        yield f"integer-{n}", m_mat, [rng.integers(-3, 4, n).astype(np.float64)]
    # a -0.0 start entry keeps its sign until a move changes it: the hard
    # n = 6 game's M beside I_4, with certify's witnesses padded by -0.0,
    # whose kappa climb speculates on the hard block and keeps the pad
    lcp = to_lcp(hard_instance(6, 0.9, a_mode="kappa"))
    m_mat = np.eye(10, order="F")
    m_mat[:6, :6] = lcp.m
    pad = np.full(4, -0.0)
    yield "signed-zeros-10", m_mat, [np.concatenate((w, pad)) for w in _certify_witnesses(lcp)]
    # the certify workload's sizes and discounts, with certify's witnesses
    for n in (10, 12, 24):
        for gamma in (0.9, 0.99):
            game = random_game(n, gamma, 1900 + n)
            lcp = to_lcp(game)
            yield f"certify-{n}-{gamma}", lcp.m, _certify_witnesses(lcp)


@pytest.mark.parametrize("case", list(_climb_identity_cases()), ids=lambda c: c[0])
def test_windowed_climb_is_bit_identical_to_round_by_round(monkeypatch, case):
    _, m_mat, witnesses = case
    n = m_mat.shape[0]
    max_window = max(1, cond.CLIMB_WINDOW_ENTRIES // (2 * n * n))
    rows = []
    for x0, batch_fn, better, _ in _climb_starts(monkeypatch, m_mat, witnesses):
        # every climb both with and without theta's floor
        for floor in (0.0, cond.THETA_SCALE_FLOOR):
            got_val, got_x = cond._climb(m_mat, x0, _counted(batch_fn, rows), better, floor)
            want_val, want_x = _round_by_round_climb(m_mat, x0, batch_fn, better, floor=floor)
            assert np.array_equal(got_x, want_x)
            assert np.array_equal(np.signbit(got_x), np.signbit(want_x))
            assert got_val == want_val
    assert max(rows) <= max_window * 2 * n
    if n == 64:  # the entry cap bites: windows stop at 4 rounds of 128 moves
        assert max_window == 4 and max(rows) == 4 * 128


def test_kappa_plateau_climb_scores_its_rounds_in_few_calls(monkeypatch):
    # kappa_est is 0 here: the climb starts from e_0 on the kappa = 0
    # plateau and no round moves x, so windows of 1, 2, 4, 8, 16 and then
    # the entry cap's 28 rounds (n = 24) score all 100 rounds in 8 calls
    game = random_game(24, 0.9, 1900)
    lcp = to_lcp(game)
    witnesses = _certify_witnesses(lcp)
    assert estimate_kappa(lcp.m, _starts(lcp.m, witnesses, 10_000, 0)[0])[0] == 0.0
    starts = _climb_starts(monkeypatch, lcp.m, witnesses, samples=10_000, seed=0)
    x0, batch_fn, better, floor = starts[0]
    assert batch_fn is cond._kappa_batch and x0.tolist() == [1.0] + [0.0] * 23
    assert floor == 0.0  # kappa's climb has no floor
    rows = []
    got_val, got_x = cond._climb(lcp.m, x0, _counted(batch_fn, rows), better, floor)
    want_val, want_x = _round_by_round_climb(lcp.m, x0, batch_fn, better)
    assert got_val == want_val == 0.0 and np.array_equal(got_x, want_x)
    # one call scores the start, then one per window of 48-move rounds
    assert rows == [1] + [48 * w for w in (1, 2, 4, 8, 16, 28, 28, 13)]


def test_window_stops_at_the_floor_before_a_later_hit():
    # from x = 0 only a step below 3 * 2^-20 improves, so the round-by-round
    # climb's first move is in round 19, at scale 2^-19.  Hit-less windows of
    # 1, 2, 4 and 8 rounds reach round 15, whose window of 16 would find that
    # hit in its fifth round; at the floor 2^-15 the window is cut to round
    # 15 alone, and the climb ends where it started
    target = 1.5 * 2.0**-20

    def closeness(x_rows, y_rows):
        return -np.abs(x_rows[:, 0] - target)

    m_mat = np.ones((1, 1))
    for floor, window_rows in ((0.0, 32), (cond.THETA_SCALE_FLOOR, 2)):
        rows, path = [], []
        got_val, got_x = cond._climb(m_mat, [0.0], _counted(closeness, rows), "max", floor)
        want = _round_by_round_climb(m_mat, [0.0], closeness, "max", path, floor)
        assert got_val == want[0] and np.array_equal(got_x, want[1])
        assert rows[:6] == [1, 2, 4, 8, 16, window_rows]
    assert not path and got_x.tolist() == [0.0]
    assert len(rows) == 6  # nothing is scored past the floor
    _round_by_round_climb(m_mat, [0.0], closeness, "max", path)
    assert path[0][0].tolist() == [2.0**-19] and path[0][1] == 19


def test_hard_theta_climb_scores_its_chains_in_few_calls(monkeypatch):
    # on the n = 64 hard game nearly every move the theta climb takes was
    # flagged by the call before.  Scoring each predicted chain in one call,
    # and carrying the streak across round ends, with each closing scan also
    # opening the next round, takes the climb's 1,302 moves in 86 calls
    # without a floor; at theta's floor it takes 248 moves in 20 calls, and
    # one window of 4 rounds is cut to the 3 rounds above the floor
    game = hard_instance(64, 0.9, a_mode="kappa")
    lcp = to_lcp(game)
    starts = _climb_starts(monkeypatch, lcp.m, _certify_witnesses(lcp))
    x0, batch_fn, better, floor = starts[1]
    assert batch_fn is cond._theta_batch and floor == cond.THETA_SCALE_FLOOR
    for floor, moves, calls in ((0.0, 1302, 86), (floor, 248, 20)):
        rows, path = [], []
        got_val, got_x = cond._climb(lcp.m, x0, _counted(batch_fn, rows), better, floor)
        want_val, want_x = _round_by_round_climb(lcp.m, x0, batch_fn, better, path, floor)
        assert got_val == want_val and np.array_equal(got_x, want_x)
        assert len(path) == moves and len(rows) == calls and max(rows) <= 4 * 128
    assert 3 * 128 in rows


def _scored_from(rows, i, base, coords):
    """Is row i + 1 scored from row i, so that row i is a flagged move,
    rather than from row i's base?  The last row's flag leaves no trace."""
    if i + 1 == len(rows):
        return False
    nxt, c = rows[i + 1], coords[i + 1]
    if coords[i] == c:  # a -step after its +step: near x_c from row i, near x_c - step from base
        return abs(nxt[c] - base[c]) < abs(rows[i][c] - base[c]) / 2
    keep = np.arange(nxt.size) != c
    return np.array_equal(nxt[keep], rows[i][keep]) and not np.array_equal(nxt[keep], base[keep])


def _climb_branches(m_mat, x0, batch_fn, better, floor=0.0):
    """Run ``_climb`` and name the branches that its calls take, read from
    each call's rows against the round-by-round path.  A speculative call
    scores the rows after a flagged move from x after that move.  Its
    outcome is the first row where the path parts from that prediction:
    "first" (at or before the first flagged move), "unpredicted" (a move
    that was not flagged improves), "miss" (a flagged move does not
    improve; "miss-odd" when that leaves the climb at an odd move whose
    +step was not taken), or "last" (no row before the round's last: the
    round ends at the call's last base).  Round ends: "carried" (a round's
    first speculative call, too early in the round for the round's own
    calls to have built the streak), "wrap-hit" (a closing scan whose rows
    for the next round take its first move) and "wrap-skip" (a closing
    scan after which the next round takes no move)."""
    calls = []

    def scoring(x_rows, y_rows):
        calls.append(x_rows.copy())
        return batch_fn(x_rows, y_rows)

    val, x = cond._climb(m_mat, x0, scoring, better, floor)
    path = []
    _round_by_round_climb(m_mat, x0, batch_fn, better, path, floor)
    xs = [np.asarray(x0, dtype=np.float64)] + [x_t for x_t, _ in path]
    rounds = [-1] + [r for _, r in path]  # the round of each x
    n_moves = 2 * m_mat.shape[0]
    branches = set()
    t = 0  # the climb's x is xs[t]
    calls_in_round, speculated = 0, False
    for rows in calls[1:]:  # calls[0] scores the start
        n_rows = rows.shape[0]
        if n_rows % n_moves == 0:  # a window of rounds opens one
            calls_in_round, speculated = 0, False
        elif n_rows == n_moves + 1:  # a closing scan that wraps
            then = rounds[t + 1] if t + 1 < len(xs) else rounds[t] + 2
            if then == rounds[t] + 1:
                branches.add("wrap-hit")
                calls_in_round, speculated = 0, False
            elif then > rounds[t] + 1:
                branches.add("wrap-skip")
        else:  # the rest of a round: moves pos..n_moves - 1
            pos = n_moves - n_rows
            coords = (pos + np.arange(n_rows)) // 2
            flags, base = [], xs[t]
            for i in range(n_rows):
                flags.append(_scored_from(rows, i, base, coords))
                base = rows[i] if flags[-1] else base
            if any(flags):
                if not speculated and calls_in_round <= cond.SPECULATE_AFTER:
                    branches.add("carried")
                speculated = True
                j = t  # the path's x before row i: row i's base, while the prediction holds
                for i, flag in enumerate(flags):
                    took = j + 1 < len(xs) and np.array_equal(rows[i], xs[j + 1])
                    if took and i + 1 == n_rows:
                        break  # a flagged or an unflagged last move: no trace tells
                    if took != flag:
                        if j == t:
                            branches.add("first")
                        branches.add("unpredicted" if took else "miss")
                        if not took and (pos + i + 1) % 2:
                            branches.add("miss-odd")
                        break
                    j += flag
                else:
                    branches.add("last")
        calls_in_round += 1
        for row in rows:  # the moves a call takes are rows that the path visits, in order
            if t + 1 < len(xs) and np.array_equal(row, xs[t + 1]):
                t += 1
    assert t == len(path)
    return val, x, branches


def _chain_branch_cases():
    # found by searching small gaussian matrices, random games and hard
    # cells for climbs that reach the chain's rarer branches; at (8, 27) the
    # -step after an untaken chain end differs from -(the last step taken)
    for n, seed in ((8, 27), (8, 33), (8, 35)):
        rng = np.random.default_rng(seed)
        m_mat = rng.standard_normal((n, n)) + math.sqrt(n) * np.eye(n)
        yield m_mat, rng.standard_normal(n)
    game = random_game(16, 0.9, 0)
    yield to_lcp(game).m, np.random.default_rng(0).standard_normal(16)
    game = hard_instance(16, 0.9, a_mode="kappa")
    yield to_lcp(game).m, np.random.default_rng(16).standard_normal(16)


def test_speculative_climb_takes_every_chain_branch_bit_identically():
    seen = set()
    for m_mat, x0 in _chain_branch_cases():
        for batch_fn, better in ((cond._kappa_batch, "max"), (cond._theta_batch, "min")):
            for floor in (0.0, cond.THETA_SCALE_FLOOR):
                got_val, got_x, branches = _climb_branches(m_mat, x0, batch_fn, better, floor)
                want_val, want_x = _round_by_round_climb(
                    m_mat, x0, batch_fn, better, floor=floor
                )
                assert got_val == want_val
                assert np.array_equal(got_x, want_x)
                assert np.array_equal(np.signbit(got_x), np.signbit(want_x))
                seen |= branches
    assert seen == {
        "first", "unpredicted", "miss", "miss-odd", "last", "carried", "wrap-hit", "wrap-skip"
    }


def _certify_cases():
    for n in (1, 8, 24):
        for gamma in (0.5, 0.99):
            yield f"random-{n}-{gamma}", random_game(n, gamma, 60 + n)
    for n in (8, 32):
        for a_mode in ("kappa", "theta"):
            game = hard_instance(n, 0.9, a_mode=a_mode)
            yield f"hard-{n}-{a_mode}", game
    # 3,000 samples at n = 64 take twelve chunks of 250 rows
    game = hard_instance(64, 0.9, a_mode="kappa")
    yield "hard-64-kappa", game


@pytest.mark.parametrize("case", list(_certify_cases()), ids=lambda c: c[0])
def test_certify_estimates_equal_the_estimators_called_alone(case):
    # certify draws its gaussian sample once for both estimators
    _, game = case
    lcp = to_lcp(game)
    report = certify(lcp, seed=11, samples=3000)
    kappa_starts, theta_starts = _starts(lcp.m, _certify_witnesses(lcp), 3000, 11)
    kappa, _ = estimate_kappa(lcp.m, kappa_starts)
    theta, _ = estimate_theta(lcp.m, theta_starts)
    assert report.kappa_est == kappa
    assert report.theta_est == theta


@pytest.mark.parametrize("samples", [0, None], ids=["samples-0", "default-samples"])
def test_certify_refuses_a_negative_seed_before_drawing(samples, monkeypatch):
    # numpy's own refusal, "expected non-negative integer", named neither
    # the seed nor its value, and came even at samples=0
    def no_draw(*args):
        raise AssertionError("certify drew a sample")

    monkeypatch.setattr(cond, "_sample_bests", no_draw)
    lcp = to_lcp(random_game(4, 0.9, 1))
    given = {} if samples is None else {"samples": samples}
    with pytest.raises(ValueError, match=r"^seed must be nonnegative, got -1$"):
        certify(lcp, seed=-1, **given)


# certify streams the gaussian sample a chunk at a time: the chunks are the
# one-shot draws and products, and the rows it hands the estimators are the
# whole sample's first bests.


def _sample_matrix(n):
    # kappa and theta vary from row to row, so the picks are not all row 0
    rng = np.random.default_rng(n)
    return rng.standard_normal((n, n)) + math.sqrt(n) * np.eye(n)


def _chunk_rows(n):
    return max(1, cond.SAMPLE_CHUNK_ENTRIES // n)


@pytest.mark.parametrize("n", [1, 12, 64])
def test_sample_chunks_are_the_one_shot_draws_and_products(n):
    m_mat = _sample_matrix(n)
    r = _chunk_rows(n)
    samples = 3 * r + 5
    chunks = list(cond._sample_chunks(m_mat, samples, 7))
    sizes = [c[0].shape[0] for c in chunks]
    assert len(sizes) == 4 and sum(sizes) == samples and max(sizes) <= r
    assert max(sizes) - min(sizes) <= 1  # no short last chunk
    x_all = np.random.default_rng(7).standard_normal((samples, n))
    assert np.array_equal(np.concatenate([c[0] for c in chunks]), x_all)
    assert np.array_equal(np.concatenate([c[1] for c in chunks]), x_all @ m_mat.T)


def _whole_sample_bests(m_mat, samples, seed):
    """The first argmax of kappa and first argmin of theta over the whole
    sample, each as a list of one row."""
    x_rows, y_rows = gaussian_sample(m_mat, samples, seed)
    k = int(np.argmax(cond._kappa_batch(x_rows, y_rows)))
    t = int(np.argmin(cond._theta_batch(x_rows, y_rows)))
    return [[x_rows[k]], [x_rows[t]]]


def _assert_same_rows(got, want):
    assert len(got) == len(want) == 2
    for g, w in zip(got, want, strict=True):
        assert len(g) == len(w) == 1 and np.array_equal(g[0], w[0])


@pytest.mark.parametrize("n", [1, 12, 64])
def test_streamed_sample_picks_the_block_first_bests(n):
    m_mat = _sample_matrix(n)
    r = _chunk_rows(n)
    assert cond._sample_bests(m_mat, 0, 3) == ([], [])
    for samples in (1, r - 1, r, r + 1, 3 * r + 5):
        got = cond._sample_bests(m_mat, samples, 3)
        _assert_same_rows(got, _whole_sample_bests(m_mat, samples, 3))


def test_streamed_sample_keeps_row_0_of_an_all_zero_kappa_block():
    # M = I: every direction certifies kappa 0, so no later chunk is better
    m_mat = np.eye(12)
    samples = 3 * _chunk_rows(12) + 5
    (kappa_row,), _ = cond._sample_bests(m_mat, samples, 4)
    x_rows, y_rows = gaussian_sample(m_mat, samples, 4)
    assert not cond._kappa_batch(x_rows, y_rows).any()
    assert np.array_equal(kappa_row, x_rows[0])


@pytest.mark.parametrize("n", [1, 12, 64])
def test_streamed_sample_picks_do_not_depend_on_the_chunk_size(monkeypatch, n):
    m_mat = _sample_matrix(n)
    samples = 2000
    want = cond._sample_bests(m_mat, samples, 9)
    _assert_same_rows(want, _whole_sample_bests(m_mat, samples, 9))
    for entries in (n, 7 * n):
        monkeypatch.setattr(cond, "SAMPLE_CHUNK_ENTRIES", entries)
        _assert_same_rows(cond._sample_bests(m_mat, samples, 9), want)


@pytest.mark.parametrize("n, samples", [(64, 10_000), (8, 100_000)])
def test_certify_memory_does_not_grow_with_the_sample(n, samples):
    # the whole sample at once took a 19.6 MB (n = 64) and a 25.2 MB (n = 8)
    # peak; streamed, the peak is a chunk and a climb's rows, 1.0-1.3 MB
    game = random_game(n, 0.9, 1)
    lcp = to_lcp(game)
    tracemalloc.start()
    try:
        certify(lcp, seed=0, samples=samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


# The two estimators as first written, each with its own start loop and
# climb: the bit-exact reference for the shared driver.  They score each
# start alone with kappa_at / theta_at, the batch scorers on one row; the
# driver scores the starts as one batch of the same rows.


def _estimate_kappa_apart(m_mat, starts=()):
    m_mat = np.asarray(m_mat, dtype=np.float64)
    e_0 = np.zeros(m_mat.shape[0])
    e_0[0] = 1.0
    best_val, best_x = None, None
    for x in [e_0, *starts]:
        x = np.asarray(x, dtype=np.float64)
        try:
            val = kappa_at(m_mat, x)
        except KappaUndefined:
            return np.inf, x
        if best_x is None or val > best_val:
            best_val, best_x = val, x.copy()
    val, x = cond._climb(m_mat, best_x, cond._kappa_batch, "max")
    if val > best_val:
        best_x = x
    try:
        return kappa_at(m_mat, best_x), best_x
    except KappaUndefined:
        return np.inf, best_x


def _estimate_theta_apart(m_mat, starts=()):
    m_mat = np.asarray(m_mat, dtype=np.float64)
    n = m_mat.shape[0]
    best_val, best_x = None, None
    for x in [np.full(n, 1.0 / math.sqrt(n)), *starts]:
        x = np.asarray(x, dtype=np.float64)
        val = theta_at(m_mat, x)
        if best_x is None or val < best_val:
            best_val, best_x = val, x.copy()
    val, x = cond._climb(m_mat, best_x, cond._theta_batch, "min", cond.THETA_SCALE_FLOOR)
    if val < best_val:
        best_x = x
    return cond._equalize(m_mat, best_x / np.linalg.norm(best_x))


def _assert_estimators_match_apart(m_mat, witnesses, samples, seed):
    kappa_starts, theta_starts = _starts(m_mat, witnesses, samples, seed)
    for got, want in (
        (estimate_kappa(m_mat, kappa_starts), _estimate_kappa_apart(m_mat, kappa_starts)),
        (estimate_theta(m_mat, theta_starts), _estimate_theta_apart(m_mat, theta_starts)),
    ):
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])


def test_estimator_driver_matches_the_estimators_apart():
    for m_mat, witnesses in _oracle_cases():
        for samples in (0, 500):
            _assert_estimators_match_apart(m_mat, witnesses, samples, 5)
    # the first undefined start ends the kappa search at +inf with that
    # start: on -I that is e_0 itself, ahead of every witness
    for witnesses in ([np.array([1.0, 0.0])], [np.array([0.0, 1.0]), np.array([1.0, 0.0])]):
        _assert_estimators_match_apart(-np.eye(2), witnesses, 50, 1)
        val, x = estimate_kappa(-np.eye(2), witnesses)
        assert val == np.inf and x.tolist() == [1.0, 0.0]
    # where e_0 certifies kappa 0, an undefined witness is the one returned
    m_mat = np.diag([1.0, -1.0])
    _assert_estimators_match_apart(m_mat, [np.array([0.0, 1.0])], 50, 1)
    val, x = estimate_kappa(m_mat, [np.array([0.0, 1.0])])
    assert val == np.inf and x.tolist() == [0.0, 1.0]


@pytest.mark.parametrize("n,gamma,seed", [(8, 0.99, 1904), (32, 0.95, 1923), (64, 0.95, 1933)])
def test_estimator_driver_scores_witnesses_exactly(n, gamma, seed):
    # sweep cells whose kappa_est moved by one ulp when the start and the
    # witnesses had a scorer of their own, apart from the batch scorers
    lcp = hard_lcp(n, gamma)
    witnesses = _certify_witnesses(lcp)
    _assert_estimators_match_apart(lcp.m, witnesses, 2000, seed)
    report = certify(lcp, seed=seed, samples=2000)
    kappa_starts, theta_starts = _starts(lcp.m, witnesses, 2000, seed)
    assert report.kappa_est == _estimate_kappa_apart(lcp.m, kappa_starts)[0]
    assert report.theta_est == _estimate_theta_apart(lcp.m, theta_starts)[0]


# theta's climb stops at THETA_SCALE_FLOOR and a Newton equalization
# (``_equalize``) finishes it; kappa's climb has no floor.


def _floor_corpus():
    for n in (8, 12, 16, 24):
        for gamma in (0.9, 0.99):
            for seed in (1, 2, 3):
                yield to_lcp(random_game(n, gamma, 3500 + 10 * n + seed))


def _full_climb_theta(m_mat, starts):
    """theta_at of the full HILL_CLIMB_ROUNDS climb, with no floor and no
    finish, from the first best of the uniform direction and ``starts``."""
    n = m_mat.shape[0]
    starts = [np.full(n, 1.0 / math.sqrt(n)), *starts]
    x0 = starts[int(np.argmin([theta_at(m_mat, s) for s in starts]))]
    _, x = cond._climb(m_mat, x0, cond._theta_batch, "min")
    return theta_at(m_mat, x / np.linalg.norm(x))


def test_theta_finish_beats_the_full_climb_on_most_games():
    # the finish is lower on all 24 games, down to 0.14 times the climb's
    lower = 0
    for lcp in _floor_corpus():
        theta_starts = _starts(lcp.m, _certify_witnesses(lcp), 2000, 0)[1]
        val, _ = estimate_theta(lcp.m, theta_starts)
        full = _full_climb_theta(lcp.m, theta_starts)
        assert val <= full * (1.0 + 1e-3)
        lower += val < full
    assert lower >= 0.8 * 24


def test_equalize_never_scores_above_its_start():
    rng = np.random.default_rng(35)
    cases = [lcp.m for lcp in _floor_corpus()]
    cases += [hard_lcp(n, 0.9, a_mode).m for n in (8, 32) for a_mode in ("kappa", "eigenvalue")]
    for m_mat in cases:
        n = m_mat.shape[0]
        for x in [np.full(n, 1.0 / math.sqrt(n)), *rng.standard_normal((3, n))]:
            x = x / np.linalg.norm(x)
            val, got = cond._equalize(m_mat, x)
            assert val == theta_at(m_mat, got) <= theta_at(m_mat, x)
            assert np.linalg.norm(got) == pytest.approx(1.0, rel=1e-15)


def test_kappa_climbs_have_no_floor(monkeypatch):
    for lcp in list(_floor_corpus())[::4]:
        witnesses = _certify_witnesses(lcp)
        floors = {
            batch_fn: floor for _, batch_fn, _, floor in _climb_starts(monkeypatch, lcp.m, witnesses)
        }
        assert floors == {cond._kappa_batch: 0.0, cond._theta_batch: cond.THETA_SCALE_FLOOR}
        # the same value and direction as a kappa climb with no floor
        kappa_starts = _starts(lcp.m, witnesses, 500, 5)[0]
        got_val, got_x = estimate_kappa(lcp.m, kappa_starts)
        want_val, want_x = _estimate_kappa_apart(lcp.m, kappa_starts)
        assert got_val == want_val and np.array_equal(got_x, want_x)


def _quiet_equalize(m_mat, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return cond._equalize(np.asfortranarray(m_mat, dtype=np.float64), np.array(x))[1]


def test_equalize_stops_quietly_at_the_edges(monkeypatch):
    solves = []
    real_solve = np.linalg.solve

    def counted_solve(a, b):
        solves.append(a.shape[0])
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    # M = I from e_0: J = 2 diag(e_0) is singular, and the first solve refuses it
    e_0 = np.eye(4)[0]
    assert np.array_equal(_quiet_equalize(np.eye(4), e_0), e_0)
    assert solves == [4]
    # a subnormal entry: J = 2 diag(x), and the step 1 / 2e-310 overflows,
    # which ends it at once
    x = np.array([1.0, 1e-310])
    assert np.array_equal(_quiet_equalize(np.eye(2), x), x)
    assert solves == [4, 2]
    # 1x1: the start is equalized already, and a negative M has no positive
    # product to scale by
    assert _quiet_equalize([[2.0]], [1.0]).tolist() == [1.0]
    assert _quiet_equalize([[-1.0]], [1.0]).tolist() == [1.0]
    assert solves == [4, 2]
    # 2x2 with a skew part: the equalized direction puts both products equal
    m_mat = np.array([[1.0, 3.0], [-1.0, 2.0]])
    got = _quiet_equalize(m_mat, [1.0, 0.0])
    prods = got * (m_mat @ got)
    assert prods[0] == pytest.approx(prods[1], rel=1e-12)
    assert theta_at(m_mat, got) < theta_at(m_mat, [1.0, 0.0])


def _kappa_batch_by_where(x_rows, y_rows):
    prods = x_rows * y_rows
    pos = np.where(prods > 0.0, prods, 0.0).sum(axis=1)
    neg = np.where(prods < 0.0, prods, 0.0).sum(axis=1)
    vals = np.zeros(x_rows.shape[0])
    active = pos + neg < 0.0
    safe = active & (pos > 0.0)
    vals[safe] = (-neg[safe] / pos[safe] - 1.0) / 4.0
    vals[active & ~safe] = np.inf
    return vals


def test_kappa_batch_sign_split_matches_where():
    rng = np.random.default_rng(9)
    x_rows = rng.standard_normal((400, 24))
    y_rows = rng.standard_normal((400, 24)) * rng.choice((1e-3, 1.0, 1e3), (400, 1))
    edge_x = np.array(
        [
            [0.0, 0.0, 0.0, 0.0],  # all products zero
            [1.0, -2.0, 3.0, 0.5],  # all products negative
            [1.0, 0.0, 2.0, -1.0],  # exact zeros beside both signs
            [-0.0, 1.0, -1.0, 2.0],  # a -0.0 entry
        ]
    )
    edge_y = np.array(
        [
            [1.0, -1.0, 2.0, 0.0],
            [-1.0, 1.0, -0.5, -2.0],
            [3.0, 5.0, -4.0, -1.0],
            [1.0, 2.0, 1.0, -3.0],
        ]
    )
    for xs, ys in ((x_rows, y_rows), (edge_x, edge_y)):
        want = [
            _kappa_batch_by_where(xs[i : i + 1], ys[i : i + 1])[0]
            for i in range(len(xs))
        ]
        assert np.array_equal(cond._kappa_batch(xs, ys), want)
    assert cond._kappa_batch(edge_x, edge_y).tolist() == [0.0, np.inf, 0.25, 0.625]


def _row_scores(x, y):
    """(kappa, theta) of one direction from its own contiguous products:
    the per-row reference for the batch scorers."""
    prods = np.ascontiguousarray(x * y)
    pos = np.maximum(prods, 0.0).sum()
    neg = np.minimum(prods, 0.0).sum()
    if pos + neg >= 0.0:
        kappa = 0.0
    elif pos > 0.0:
        kappa = (-neg / pos - 1.0) / 4.0
    else:
        kappa = np.inf
    norm = np.ascontiguousarray(x * x).sum()
    theta = prods.max() / norm if norm > 0.0 else np.inf
    return kappa, theta


def _layouts(x_rows, y_rows):
    """The same rows C-ordered, F-ordered, strided, and one of each."""

    def strided(a):
        big = np.zeros((2 * a.shape[0], 3 * a.shape[1]))
        big[::2, ::3] = a
        return big[::2, ::3]

    yield "C", x_rows, y_rows
    yield "F", np.asfortranarray(x_rows), np.asfortranarray(y_rows)
    yield "strided", strided(x_rows), strided(y_rows)
    yield "mixed", np.asfortranarray(x_rows), strided(y_rows)


def _scorer_cases():
    rng = np.random.default_rng(9)
    scales = rng.choice((1e-3, 1.0, 1e3), (300, 1))
    yield "random", rng.standard_normal((300, 24)), rng.standard_normal((300, 24)) * scales
    edge_x = np.array(
        [
            [0.0, 0.0, 0.0, 0.0],  # a zero direction: theta inf, kappa 0
            [-0.0, 0.0, -0.0, 0.0],  # a zero direction of signed zeros
            [1.0, -2.0, 3.0, 0.5],  # all products negative: kappa inf
            [-0.0, 1.0, -1.0, 2.0],  # a -0.0 entry
            [1.0, -0.0, 0.0, 0.0],  # a top product of 0.0 beside -0.0
        ]
    )
    edge_y = np.array(
        [
            [1.0, -1.0, 2.0, 0.0],
            [1.0, 2.0, 3.0, 4.0],
            [-1.0, 1.0, -0.5, -2.0],
            [1.0, 2.0, 1.0, -3.0],
            [0.0, 5.0, -1.0, 2.0],
        ]
    )
    yield "edges", edge_x, edge_y
    yield "n=1", np.array([[2.0], [0.0], [-0.0], [-1.5]]), np.array([[3.0], [1.0], [1.0], [2.0]])


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64).tolist()


@pytest.mark.parametrize("kind", [0, 1], ids=["kappa", "theta"])
@pytest.mark.parametrize("case", list(_scorer_cases()), ids=lambda c: c[0])
def test_batch_scorers_ignore_layout_and_match_each_row(kind, case):
    batch_fn = (cond._kappa_batch, cond._theta_batch)[kind]
    _, x_rows, y_rows = case
    want = [_row_scores(x, y)[kind] for x, y in zip(x_rows, y_rows)]
    for layout, xs, ys in _layouts(x_rows, y_rows):
        assert _bits(batch_fn(xs, ys)) == _bits(want), layout


def test_batch_scorers_edge_values():
    (_, x_rows, y_rows), = [c for c in _scorer_cases() if c[0] == "edges"]
    assert cond._kappa_batch(x_rows, y_rows).tolist() == [0.0, 0.0, np.inf, 0.625, 0.0]
    theta = cond._theta_batch(x_rows, y_rows)
    assert theta[:2].tolist() == [np.inf, np.inf] and theta[4] == 0.0


def test_one_direction_scorers_are_the_batch_scorers_on_one_row():
    # the hard cell's rows once scored apart on 27 (kappa) and 68 (theta) of 200
    game = random_game(24, 0.9, 1)
    for m_mat in (hard_lcp(32, 0.9).m, to_lcp(game).m):
        x_rows, _ = gaussian_sample(m_mat, 200, 0)
        y_rows = np.array([m_mat @ x for x in x_rows])
        for one, batch_fn in ((kappa_at, cond._kappa_batch), (theta_at, cond._theta_batch)):
            want = batch_fn(x_rows, y_rows)
            assert _bits([one(m_mat, x) for x in x_rows]) == _bits(want)


def test_estimator_driver_scores_each_witness_as_it_scores_alone():
    # many witnesses, so that y rows formed by one matrix product would
    # differ in the last bits from M @ w on some of them
    m_mat = hard_lcp(32, 0.9).m
    starts = list(gaussian_sample(m_mat, 200, 0)[0])
    for one, batch_fn, better in (
        (kappa_at, cond._kappa_batch, "max"),
        (theta_at, cond._theta_batch, "min"),
    ):
        scored = []

        def recording(x_rows, y_rows):
            scored.append(batch_fn(x_rows, y_rows))
            return scored[-1]

        cond._estimate(m_mat, starts, recording, better)
        assert _bits(scored[0]) == _bits([one(m_mat, s) for s in starts])


def test_minors_check_g3(g3):
    game = g3
    mc = pmatrix_check_minors(to_lcp(game).m)
    assert mc.ok
    assert mc.failing_subset is None
    assert mc.min_scaled_minor > 0.0


def test_minors_check_negative_case():
    mc = pmatrix_check_minors(NOT_P)
    assert not mc.ok
    assert mc.failing_subset == (0,)


def test_minors_check_identity_and_limit():
    assert pmatrix_check_minors(np.eye(6)).ok
    with pytest.raises(ValueError, match="refusing"):
        pmatrix_check_minors(np.eye(21))


def test_witness_check_diagonal():
    m = np.diag([1.0, 2.0, 3.0])
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        assert pmatrix_witness_check(m, e) == i
    assert pmatrix_witness_check(-np.eye(3), np.array([1.0, 1.0, 1.0])) is None


def _plain_lcp(game):
    """The game's LCP from one unchecked np.linalg.solve, for games whose
    systems to_lcp refuses."""
    red = reduction(game)
    signs = red.game.ownership_signs
    x = np.linalg.solve(red.b_tau.T, red.b_sig.T).T
    m_mat = signs[:, None] * x * signs[None, :]
    return Lcp(m=m_mat, q=signs * (x @ red.c_tau) - signs * red.c_sig, reduction=red)


def _certificate(game, m_mat=None):
    red = reduction(game)
    if m_mat is None:
        m_mat = to_lcp(game).m
    return structural_certificate(m_mat, red.b_sig, red.b_tau, red.game.ownership_signs)


def test_witness_check_game_context(three_state):
    # the certificate's proof: at i = argmax |B_t^-1 S x|, x_i (Mx)_i is at
    # least theta_cert ||x||^2, less the error bound of the computed M and
    # the rounding of the product itself
    red = reduction(three_state)
    m_mat = to_lcp(three_state).m
    cert = _certificate(three_state)
    assert cert.ok
    unit = np.finfo(np.float64).eps / 2.0
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = rng.standard_normal(3)
        i = int(np.argmax(np.abs(np.linalg.solve(red.b_tau, red.game.ownership_signs * x))))
        rounding = 4 * unit * abs(x[i]) * float(np.abs(m_mat[i]) @ np.abs(x))
        bound = (cert.theta_cert - cert.err) * float(x @ x) - rounding
        assert x[i] * (m_mat @ x)[i] >= bound > 0.0
        assert pmatrix_witness_check(m_mat, x) is not None


def test_minors_agree_with_theta_search():
    # P-matrix <=> no direction with all products <= 0; on 4x4 matrices the
    # theta minimizer is a reliable reversing-direction search
    rng = np.random.default_rng(11)
    seen_bad = 0
    for k in range(20):
        m = rng.standard_normal((4, 4)) + np.diag(rng.uniform(0.0, 1.5, 4))
        ok = pmatrix_check_minors(m).ok
        val, x = estimate_theta(m, cond._sample_bests(m, 3000, 100 + k)[1])
        if ok:
            assert val > 0.0
            assert pmatrix_witness_check(m, x) is not None
        else:
            seen_bad += 1
            assert val <= 1e-12
            if val < 0.0:
                assert pmatrix_witness_check(m, x) is None
    assert seen_bad >= 3  # the sample must actually exercise the non-P branch


def test_certify_hard_kappa_mode():
    game = hard_instance(10, 0.5, a_mode="kappa")
    report = certify(to_lcp(game), seed=0, samples=2000)
    assert report.n == 10
    assert report.kappa_est == pytest.approx(0.75, abs=1e-9)
    assert report.kappa_ub == 40.0
    assert report.delta == pytest.approx(-1.0, abs=1e-9)
    assert report.delta_lb == pytest.approx(-3.0 * math.sqrt(10))
    assert report.pmatrix == "structural"
    assert report.cond == pytest.approx(-report.delta / report.theta_est)
    assert "1.75" in report.runtime_unified
    assert "n^4" in report.runtime_potential


def test_certify_hard_theta_mode():
    game = hard_instance(10, 0.5, a_mode="theta")
    report = certify(to_lcp(game), seed=0, samples=2000)
    assert report.theta_lb == pytest.approx(1.0 / 90.0)
    assert report.theta_lb - 1e-9 <= report.theta_est <= 1.0 / 34.0 + 1e-12
    assert report.pmatrix == "structural"


def test_certify_single_state_game():
    game = build_game(0.5, [(1, [(2.0, [(0, 1.0)]), (2.0, [(0, 1.0)])])])
    report = certify(to_lcp(game), seed=3, samples=200)
    assert report.kappa_est == 0.0
    assert report.delta == pytest.approx(1.0, abs=1e-12)
    assert report.theta_est == pytest.approx(1.0, abs=1e-12)
    assert report.cond == pytest.approx(-1.0, abs=1e-9)


@pytest.mark.parametrize("seed", [400, 808, 1911])
def test_certify_accepts_well_conditioned_small_minors(seed):
    # each game has positive minors below 1e-12 times their row-max product,
    # all with cond_2 below 2000, and no minor with det <= 0
    game = random_game(12, 0.99, seed)
    mc = pmatrix_check_minors(to_lcp(game).m)
    assert mc.ok and 0.0 < mc.min_scaled_minor < 1e-12
    report = certify(to_lcp(game), seed=0, samples=200)
    assert report.pmatrix == "structural"


def test_minors_check_refuses_near_singular_positive_minor():
    mc = pmatrix_check_minors(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]))
    assert 0.0 < mc.min_scaled_minor < 1e-12
    assert not mc.ok and mc.failing_subset == (0, 1)


def test_certify_requires_options(g3):
    game = g3
    # the seed has no default: every report names the draw it came from
    with pytest.raises(TypeError, match="seed"):
        certify(to_lcp(game))


def _cert_cases():
    for n in (1, 8, 12, 24, 64):
        for gamma in (0.5, 0.9, 0.99):
            yield f"random-{n}-{gamma}", random_game(n, gamma, 7 * n)
    for n in (8, 64):
        for a_mode in ("kappa", "eigenvalue", "theta"):
            game = hard_instance(n, 0.9, a_mode=a_mode)
            yield f"hard-{n}-{a_mode}", game


@pytest.mark.parametrize("case", list(_cert_cases()), ids=lambda c: c[0])
def test_structural_certificate_holds_on_game_lcps(case):
    _, game = case
    cert = _certificate(game)
    assert cert.ok and cert.mu_s > 0.0 and cert.mu_t > 0.0
    assert 0.0 <= cert.ratio < 1e-3
    if game.n <= 12:
        assert pmatrix_check_minors(to_lcp(game).m).ok


def test_structural_certificate_refuses_excess_row_mass():
    # build_game skips validate_game: every row carries mass 1.1, so
    # gamma P has row sums 1.045 and B loses its diagonal dominance
    rng = np.random.default_rng(21)
    states = []
    for i in range(6):
        actions = []
        for _ in range(2):
            targets = rng.choice(6, size=3, replace=False)
            weights = rng.uniform(0.1, 1.0, 3)
            weights *= 1.1 / weights.sum()
            dist = list(zip(targets.tolist(), weights.tolist()))
            actions.append((float(rng.uniform(-1.0, 1.0)), dist))
        states.append((1 + i % 2, actions))
    game = build_game(0.95, states)
    # to_lcp's solve refuses a system with no condition bound
    with pytest.raises(SingularMatrixError, match="gamma r = 1.045"):
        to_lcp(game)
    lcp = _plain_lcp(game)
    cert = _certificate(game, m_mat=lcp.m)
    assert not cert.ok and min(cert.mu_s, cert.mu_t) < 0.0
    report = certify(lcp, seed=0, samples=100)
    assert report.pmatrix == "undecided"
    assert "not certified" in report.pmatrix_detail
    # a self-loop of mass 1.5 turns b_ii negative: M = (1 - 1.425) / 0.05 < 0
    # is not a P-matrix although |b_ii| exceeds the (empty) off-diagonal sum;
    # to_lcp solves only with B_t = 0.05, whose bound holds
    loop = build_game(0.95, [(1, [(0.0, [(0, 1.5)]), (0.0, [(0, 1.0)])])])
    assert not pmatrix_check_minors(to_lcp(loop).m).ok
    assert not _certificate(loop).ok


def test_structural_certificate_refuses_tampered_m():
    game = random_game(12, 0.9, 5)
    assert _certificate(game).ok
    m_mat = to_lcp(game).m.copy()
    m_mat[0, 1] += 1e-3
    cert = _certificate(game, m_mat=m_mat)
    assert not cert.ok and cert.ratio > 10.0


def test_structural_certificate_refuses_gamma_at_one():
    game = random_game(12, 1.0 - 1e-15, 3)
    with pytest.raises(SingularMatrixError, match="condition number"):
        to_lcp(game)
    cert = _certificate(game, m_mat=_plain_lcp(game).m)
    assert not cert.ok and cert.mu_t <= 0.0


def test_cli_certify_undecided_exits_1_with_report(tmp_path, capsys):
    # a valid game whose LCP builds but whose margins (1e-5) leave the
    # rounding of M unbounded relative to theta_cert: ratio about 420
    game = random_game(8, 0.99999, 0)
    assert not _certificate(game).ok
    game_path = tmp_path / "near_one.json"
    save_game(game, game_path)
    out = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    argv = ["--output", str(out), "certify", "--game", str(game_path), "--samples", "100"]
    assert main([*argv, "--csv", str(csv_path)]) == 1
    assert "pmatrix=undecided" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["pmatrix"] == "undecided"
    assert "not certified" in report["pmatrix_detail"]
    assert ",undecided," in csv_path.read_text()


def test_report_files(tmp_path, g3):
    game = g3
    report = certify(to_lcp(game), seed=7, samples=300)
    cpath = tmp_path / "report.csv"
    write_report_csv(report, cpath)
    payload = json.loads(report_json(report))
    assert set(payload) == {
        "n", "gamma", "kappa_est", "kappa_ub", "delta", "delta_lb",
        "theta_est", "theta_lb", "cond", "pmatrix", "pmatrix_detail",
        "runtime_unified", "runtime_potential", "samples", "seed",
    }
    assert payload["seed"] == 7
    lines = cpath.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines[1].split(",")) == len(CSV_COLUMNS)
    assert lines[1].split(",")[0] == "3"


def _layout_corpus():
    for n in (8, 24):
        for gamma in (0.9, 0.99):
            for seed in (3, 4, 5):  # at each, a C-ordered copy once rounded apart
                yield to_lcp(random_game(n, gamma, seed))


def test_c_and_fortran_copies_of_m_give_identical_estimates():
    # a C-ordered copy of M sends M @ x and x_rows @ M.T through other BLAS
    # kernels; every entry point reads M in Fortran order, so the two
    # layouts of one matrix give the same bits
    rng = np.random.default_rng(43)
    for lcp in _layout_corpus():
        f_mat, c_mat = lcp.m, np.ascontiguousarray(lcp.m)
        assert f_mat.flags.f_contiguous and not c_mat.flags.f_contiguous
        red = lcp.reduction
        for x in rng.standard_normal((5, lcp.n)):
            assert kappa_at(f_mat, x) == kappa_at(c_mat, x)
            assert theta_at(f_mat, x) == theta_at(c_mat, x)
        starts = [red.c_tau, red.game.ownership_signs * red.c_tau]
        for estimate in (estimate_kappa, estimate_theta):
            (f_val, f_x), (c_val, c_x) = estimate(f_mat, starts), estimate(c_mat, starts)
            assert f_val == c_val and np.array_equal(f_x, c_x)
        args = (red.b_sig, red.b_tau, red.game.ownership_signs)
        assert structural_certificate(f_mat, *args) == structural_certificate(c_mat, *args)
        want = report_json(certify(lcp, 0, samples=2000))
        # Lcp keeps M in Fortran order, and certify reads it so even when
        # the field is replaced after construction
        c_lcp = Lcp(c_mat, lcp.q, red)
        assert c_lcp.m.flags.f_contiguous
        assert report_json(certify(c_lcp, 0, samples=2000)) == want
        c_lcp.m = c_mat
        assert report_json(certify(c_lcp, 0, samples=2000)) == want
