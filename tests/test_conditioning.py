"""kappa / delta / theta measurement and certification tests."""

import json
import math
import warnings

import numpy as np
import pytest

from gamelcp import conditioning as cond
from gamelcp.bench import random_game
from gamelcp.conditioning import (
    CSV_COLUMNS,
    CertifyOptions,
    KappaUndefined,
    certify,
    delta_lower_bound,
    estimate_kappa,
    estimate_theta,
    gaussian_block,
    kappa_at,
    kappa_upper_bound,
    pmatrix_check_minors,
    pmatrix_witness_check,
    smallest_eigenvalue_sym,
    structural_certificate,
    theta_at,
    theta_lower_bound,
    write_report_csv,
    write_report_json,
)
from gamelcp._kernels import SingularMatrixError
from gamelcp.cli import main
from gamelcp.game import build_game, restrict, save_game
from gamelcp.hard_instances import HardInstanceSpec, closed_forms
from gamelcp.lcp import Lcp, default_partition, reduction, to_lcp

from conftest import hard_instance

NOT_P = np.array([[0.0, 1.0], [-1.0, 0.0]])


def hard_lcp(n, gamma, a_mode="kappa"):
    game, part = hard_instance(n, gamma, a_mode=a_mode)
    return to_lcp(game, part)


def test_kappa_at_hard_witness_exact():
    lcp = hard_lcp(10, 0.5)
    forms = closed_forms(HardInstanceSpec(n=10, gamma=0.5, a_mode="kappa"))
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
    forms = closed_forms(HardInstanceSpec(n=10, gamma=0.5, a_mode="kappa"))
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
    forms = closed_forms(HardInstanceSpec(n=10, gamma=0.5, a_mode="eigenvalue"))
    a = 0.5 * (lcp.m + lcp.m.T)
    resid = np.linalg.norm(a @ forms.c_tau - (-1.0) * forms.c_tau)
    assert resid <= 1e-9 * np.linalg.norm(forms.c_tau)
    lam, vec = smallest_eigenvalue_sym(lcp.m)
    assert lam == pytest.approx(-1.0, abs=1e-9)
    assert np.linalg.norm(a @ vec - lam * vec) <= 1e-9 * np.sqrt((a * a).sum())


def test_theta_at_hard_witness_exact():
    lcp = hard_lcp(10, 0.5, a_mode="theta")
    forms = closed_forms(HardInstanceSpec(n=10, gamma=0.5, a_mode="theta"))
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
    val, x = estimate_theta(eye, gaussian_block(eye, 500, 1))
    assert val == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert np.abs(x @ x - 1.0) <= 1e-9


def test_estimate_theta_hard_sandwich():
    lcp = hard_lcp(10, 0.5, a_mode="theta")
    forms = closed_forms(HardInstanceSpec(n=10, gamma=0.5, a_mode="theta"))
    block = gaussian_block(lcp.m, 2000, 0)
    val, x = estimate_theta(lcp.m, block, witnesses=(forms.c_tau,))
    assert theta_lower_bound(10, 0.5) - 1e-9 <= val <= 1.0 / 34.0 + 1e-12
    assert theta_at(lcp.m, x) == pytest.approx(val, abs=1e-12)


def test_estimate_kappa_hard_witness_is_optimal():
    lcp = hard_lcp(10, 0.5)
    forms = closed_forms(HardInstanceSpec(n=10, gamma=0.5, a_mode="kappa"))
    block = gaussian_block(lcp.m, 2000, 0)
    val, x = estimate_kappa(lcp.m, block, witnesses=(forms.c_tau,))
    # c_tau attains the true kappa; sampling and climbing cannot beat it
    assert val == pytest.approx(0.75, abs=1e-9)
    assert kappa_at(lcp.m, x) == pytest.approx(val, abs=1e-12)


def test_estimate_kappa_identity_is_zero():
    eye = np.eye(5)
    val, x = estimate_kappa(eye, gaussian_block(eye, 500, 2))
    assert val == 0.0
    assert x.shape == (5,)


def _random_game_lcps(count, n=24, gamma=0.99, seed0=500):
    for k in range(count):
        game = random_game(n, gamma, seed0 + k)
        yield to_lcp(game, default_partition(game)).m


def test_estimate_kappa_is_exact_at_its_direction():
    # the reported lower estimate is kappa_at of the reported direction,
    # bit for bit, never the incrementally updated climb value
    for m_mat in _random_game_lcps(10):
        val, x = estimate_kappa(m_mat, gaussian_block(m_mat, 1000, 3))
        assert val == kappa_at(m_mat, x)


def test_estimate_theta_is_exact_at_its_direction():
    for m_mat in _random_game_lcps(10):
        val, x = estimate_theta(m_mat, gaussian_block(m_mat, 1000, 3))
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


def _scalar_climb(m_mat, x0, batch_fn, better, rounds=cond.HILL_CLIMB_ROUNDS):
    objective = _kappa_objective if batch_fn is cond._kappa_batch else _theta_objective
    x = np.asarray(x0, dtype=np.float64).copy()
    y = m_mat @ x
    best = objective(x, y)
    n = x.shape[0]
    scale = 1.0
    sign = 1.0 if better == "max" else -1.0
    for _ in range(rounds):
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
    kappa, _ = estimate_kappa(m_mat, gaussian_block(m_mat, samples, seed), witnesses)
    theta, _ = estimate_theta(m_mat, gaussian_block(m_mat, samples, seed), witnesses)
    return kappa, theta


def _oracle_cases():
    for n in (8, 16):
        for gamma in (0.5, 0.99):
            for a_mode in ("kappa", "eigenvalue", "theta"):
                spec = HardInstanceSpec(n=n, gamma=gamma, a_mode=a_mode)
                game, part = hard_instance(n, gamma, a_mode=a_mode)
                _, c_tau = restrict(game, part.tau)
                witnesses = [closed_forms(spec).c_tau, game.ownership_signs * c_tau]
                yield to_lcp(game, part).m, witnesses
    for n in (8, 12, 24):
        for gamma in (0.5, 0.99):
            game = random_game(n, gamma, 300 + n)
            yield to_lcp(game, default_partition(game)).m, ()


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
        val, x = estimate_theta(m, gaussian_block(m, 10_000, 0))
    assert val == 2.0
    assert x.tolist() == [1.0]


# The round-by-round climb, one call per round or per remaining scan: the
# exact reference for ``_climb``, which scores runs of hit-less rounds in one
# call and must return the same x and value bit for bit.


def _round_by_round_climb(m_mat, x0, batch_fn, better):
    x = np.asarray(x0, dtype=np.float64).copy()
    y = m_mat @ x
    m_cols = np.ascontiguousarray(m_mat.T)
    best = batch_fn(x[None, :], y[None, :])[0]
    # move p is +step (p even) or -step (p odd) on coordinate p // 2
    move_coords = np.repeat(np.arange(x.shape[0]), 2)
    move_signs = np.tile((1.0, -1.0), x.shape[0])
    scale = 1.0
    sign = 1.0 if better == "max" else -1.0
    for _ in range(cond.HILL_CLIMB_ROUNDS):
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
        if pos == 0:  # no move taken this round
            scale *= 0.5
    return best, x


def _certify_witnesses(lcp):
    red = lcp.reduction
    return [red.c_tau, red.game.ownership_signs * red.c_tau]


def _climb_starts(monkeypatch, m_mat, witnesses, samples=500, seed=5):
    """(x0, batch_fn, better) of every climb the two estimators run."""
    starts = []
    real = cond._climb

    def spy(m, x0, batch_fn, better):
        starts.append((np.array(x0, dtype=np.float64), batch_fn, better))
        return real(m, x0, batch_fn, better)

    with monkeypatch.context() as mp:
        mp.setattr(cond, "_climb", spy)
        estimate_kappa(m_mat, gaussian_block(m_mat, samples, seed), witnesses)
        estimate_theta(m_mat, gaussian_block(m_mat, samples, seed), witnesses)
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
                game, part = hard_instance(n, gamma, a_mode=a_mode)
                lcp = to_lcp(game, part)
                suffix = "" if gamma == 0.9 else f"-{gamma}"
                yield f"hard-{n}-{a_mode}{suffix}", lcp.m, _certify_witnesses(lcp)
    # at n = 96 one round's moves fill the entry cap: a chain gets only the
    # rows that the moves already taken in the round left free
    game, part = hard_instance(96, 0.9, a_mode="kappa")
    lcp = to_lcp(game, part)
    yield "hard-96-kappa", lcp.m, _certify_witnesses(lcp)
    for n in (1, 8, 24):
        for gamma in (0.5, 0.99):
            game = random_game(n, gamma, 40 + n)
            yield f"random-{n}-{gamma}", to_lcp(game, default_partition(game)).m, ()


@pytest.mark.parametrize("case", list(_climb_identity_cases()), ids=lambda c: c[0])
def test_windowed_climb_is_bit_identical_to_round_by_round(monkeypatch, case):
    _, m_mat, witnesses = case
    n = m_mat.shape[0]
    max_window = max(1, cond.CLIMB_WINDOW_ENTRIES // (2 * n * n))
    rows = []
    for x0, batch_fn, better in _climb_starts(monkeypatch, m_mat, witnesses):
        got_val, got_x = cond._climb(m_mat, x0, _counted(batch_fn, rows), better)
        want_val, want_x = _round_by_round_climb(m_mat, x0, batch_fn, better)
        assert np.array_equal(got_x, want_x)
        assert got_val == want_val
    assert max(rows) <= max_window * 2 * n
    if n == 64:  # the entry cap bites: windows stop at 4 rounds of 128 moves
        assert max_window == 4 and max(rows) == 4 * 128


def test_kappa_plateau_climb_scores_its_rounds_in_few_calls(monkeypatch):
    # kappa_est is 0 here: the climb starts from e_0 on the kappa = 0
    # plateau and no round moves x, so windows of 1, 2, 4, 8, 16 and then
    # the entry cap's 28 rounds (n = 24) score all 100 rounds in 8 calls
    game = random_game(24, 0.9, 1900)
    lcp = to_lcp(game, default_partition(game))
    witnesses = _certify_witnesses(lcp)
    assert estimate_kappa(lcp.m, gaussian_block(lcp.m, 10_000, 0), witnesses)[0] == 0.0
    starts = _climb_starts(monkeypatch, lcp.m, witnesses, samples=10_000, seed=0)
    x0, batch_fn, better = starts[0]
    assert batch_fn is cond._kappa_batch and x0.tolist() == [1.0] + [0.0] * 23
    rows = []
    got_val, got_x = cond._climb(lcp.m, x0, _counted(batch_fn, rows), better)
    want_val, want_x = _round_by_round_climb(lcp.m, x0, batch_fn, better)
    assert got_val == want_val == 0.0 and np.array_equal(got_x, want_x)
    # one call scores the start, then one per window of 48-move rounds
    assert rows == [1] + [48 * w for w in (1, 2, 4, 8, 16, 28, 28, 13)]


def test_hard_theta_climb_scores_its_chains_in_few_calls(monkeypatch):
    # on the n = 64 hard game nearly every move the theta climb takes was
    # flagged by the call before; scoring each predicted chain in one call
    # takes the climb from 1,361 calls (one per move taken) to 149
    game, part = hard_instance(64, 0.9, a_mode="kappa")
    lcp = to_lcp(game, part)
    starts = _climb_starts(monkeypatch, lcp.m, _certify_witnesses(lcp))
    x0, batch_fn, better = starts[1]
    assert batch_fn is cond._theta_batch
    rows = []
    got_val, got_x = cond._climb(lcp.m, x0, _counted(batch_fn, rows), better)
    want_val, want_x = _round_by_round_climb(lcp.m, x0, batch_fn, better)
    assert got_val == want_val and np.array_equal(got_x, want_x)
    assert len(rows) == 149 and max(rows) <= 4 * 128


def _climb_branches(monkeypatch, m_mat, x0, batch_fn, better):
    """Run ``_climb`` and name the branches of its speculative calls taken:
    "first" (the chain breaks at its first move), "unpredicted" (a hit the
    chain did not predict), "miss-odd" (a predicted move that does not
    improve, leaving the climb at an odd move whose +step was not taken),
    "last" (a chain confirmed through the round's last move) and "cut" (a
    chain cut before a -step that would follow its own +step)."""
    events = []
    chain_fn, confirmed_fn = cond._chain, cond._confirmed

    def chain_spy(guess, stop):
        chain = chain_fn(guess, stop)
        events.append(("chain", guess.copy(), stop, chain.copy()))
        return chain

    def confirmed_spy(hits, ends):
        k, d = confirmed_fn(hits, ends)
        events.append(("confirmed", hits.copy(), d))
        return k, d

    with monkeypatch.context() as mp:
        mp.setattr(cond, "_chain", chain_spy)
        mp.setattr(cond, "_confirmed", confirmed_spy)
        val, x = cond._climb(m_mat, x0, batch_fn, better)
    branches = set()
    for i, event in enumerate(events):
        if event[0] == "chain":
            _, guess, stop, chain = event
            if chain.size < np.count_nonzero(guess < stop):
                branches.add("cut")
            if i + 1 == len(events) or events[i + 1][0] != "confirmed":
                branches.add("first")
            continue
        _, hits, d = event
        chain = events[i - 1][3]
        if d is None:
            if chain[-1] == 2 * m_mat.shape[0] - 1:
                branches.add("last")
        elif hits[d]:
            branches.add("unpredicted")
        elif (chain[0] + 1 + d) % 2 == 0:  # row d is move chain[0] + 1 + d
            branches.add("miss-odd")
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
    yield to_lcp(game, default_partition(game)).m, np.random.default_rng(0).standard_normal(16)
    game, part = hard_instance(16, 0.9, a_mode="kappa")
    yield to_lcp(game, part).m, np.random.default_rng(16).standard_normal(16)


def test_speculative_climb_takes_every_chain_branch_bit_identically(monkeypatch):
    seen = set()
    for m_mat, x0 in _chain_branch_cases():
        for batch_fn, better in ((cond._kappa_batch, "max"), (cond._theta_batch, "min")):
            got_val, got_x, branches = _climb_branches(monkeypatch, m_mat, x0, batch_fn, better)
            want_val, want_x = _round_by_round_climb(m_mat, x0, batch_fn, better)
            assert got_val == want_val
            assert np.array_equal(got_x, want_x)
            assert np.array_equal(np.signbit(got_x), np.signbit(want_x))
            seen |= branches
    assert seen == {"first", "unpredicted", "miss-odd", "last", "cut"}


def _certify_cases():
    for n in (1, 8, 24):
        for gamma in (0.5, 0.99):
            yield f"random-{n}-{gamma}", random_game(n, gamma, 60 + n), None
    for n in (8, 32):
        for a_mode in ("kappa", "theta"):
            game, part = hard_instance(n, 0.9, a_mode=a_mode)
            yield f"hard-{n}-{a_mode}", game, part


@pytest.mark.parametrize("case", list(_certify_cases()), ids=lambda c: c[0])
def test_certify_estimates_equal_the_estimators_called_alone(case):
    # certify draws its gaussian block once for both estimators
    _, game, part = case
    lcp = to_lcp(game, part)
    witnesses = _certify_witnesses(lcp)
    report = certify(lcp, CertifyOptions(seed=11, samples=3000))
    kappa, _ = estimate_kappa(lcp.m, gaussian_block(lcp.m, 3000, 11), witnesses)
    theta, _ = estimate_theta(lcp.m, gaussian_block(lcp.m, 3000, 11), witnesses)
    assert report.kappa_est == kappa
    assert report.theta_est == theta


# The two estimators as first written, each with its own witness loop,
# best-sample pick and climb: the bit-exact reference for the shared driver.
# The start and the witnesses are scored with kappa_at / theta_at, whose last
# bits can differ from the batch scorers'.


def _best_sample(block, batch_fn, better):
    """(value, direction) of the best row of a :func:`gaussian_block`."""
    x_rows, y_rows = block
    vals = batch_fn(x_rows, y_rows)
    k = int(np.argmin(vals)) if better == "min" else int(np.argmax(vals))
    return float(vals[k]), x_rows[k].copy()


def _estimate_kappa_apart(m_mat, block, witnesses=()):
    m_mat = np.asarray(m_mat, dtype=np.float64)
    best_val = 0.0
    best_x = np.zeros(m_mat.shape[0])
    best_x[0] = 1.0
    for wit in witnesses:
        wit = np.asarray(wit, dtype=np.float64)
        try:
            val = kappa_at(m_mat, wit)
        except KappaUndefined:
            return np.inf, wit
        if val > best_val:
            best_val, best_x = val, wit.copy()
    if block is not None:
        val, x = _best_sample(block, cond._kappa_batch, "max")
        if val > best_val:
            best_val, best_x = val, x
    if math.isinf(best_val):
        return best_val, best_x
    val, x = cond._climb(m_mat, best_x, cond._kappa_batch, "max")
    if val > best_val:
        best_x = x
    try:
        return kappa_at(m_mat, best_x), best_x
    except KappaUndefined:
        return np.inf, best_x


def _estimate_theta_apart(m_mat, block, witnesses=()):
    m_mat = np.asarray(m_mat, dtype=np.float64)
    n = m_mat.shape[0]
    uniform = np.full(n, 1.0 / math.sqrt(n))
    best_val = theta_at(m_mat, uniform)
    best_x = uniform
    for wit in witnesses:
        wit = np.asarray(wit, dtype=np.float64)
        val = theta_at(m_mat, wit)
        if val < best_val:
            best_val, best_x = val, wit.copy()
    if block is not None:
        val, x = _best_sample(block, cond._theta_batch, "min")
        if val < best_val:
            best_val, best_x = val, x
    val, x = cond._climb(m_mat, best_x, cond._theta_batch, "min")
    if val < best_val:
        best_x = x
    best_x = best_x / np.linalg.norm(best_x)
    return theta_at(m_mat, best_x), best_x


def _assert_estimators_match_apart(m_mat, block, witnesses):
    for got, want in (
        (estimate_kappa(m_mat, block, witnesses), _estimate_kappa_apart(m_mat, block, witnesses)),
        (estimate_theta(m_mat, block, witnesses), _estimate_theta_apart(m_mat, block, witnesses)),
    ):
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])


def test_estimator_driver_matches_the_estimators_apart():
    for m_mat, witnesses in _oracle_cases():
        for block in (None, gaussian_block(m_mat, 500, 5)):
            _assert_estimators_match_apart(m_mat, block, witnesses)
    # an undefined witness ends the kappa search at +inf with that witness
    for witnesses in ([np.array([1.0, 0.0])], [np.array([0.0, 1.0]), np.array([1.0, 0.0])]):
        _assert_estimators_match_apart(-np.eye(2), gaussian_block(-np.eye(2), 50, 1), witnesses)


@pytest.mark.parametrize("n,gamma,seed", [(8, 0.99, 1904), (32, 0.95, 1923), (64, 0.95, 1933)])
def test_estimator_driver_scores_witnesses_exactly(n, gamma, seed):
    # sweep cells where scoring the start and the witnesses with the batch
    # scorers instead of kappa_at / theta_at moves kappa_est by one ulp
    lcp = hard_lcp(n, gamma)
    witnesses = _certify_witnesses(lcp)
    _assert_estimators_match_apart(lcp.m, gaussian_block(lcp.m, 2000, seed), witnesses)
    report = certify(lcp, CertifyOptions(seed=seed, samples=2000))
    block = gaussian_block(lcp.m, 2000, seed)
    assert report.kappa_est == _estimate_kappa_apart(lcp.m, block, witnesses)[0]
    assert report.theta_est == _estimate_theta_apart(lcp.m, block, witnesses)[0]


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


def test_minors_check_g3(g3):
    game, part = g3
    mc = pmatrix_check_minors(to_lcp(game, part).m)
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


def _certificate(game, partition=None, m_mat=None):
    red = reduction(game, partition)
    if m_mat is None:
        m_mat = to_lcp(game, partition).m
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
        val, x = estimate_theta(m, gaussian_block(m, 3000, 100 + k))
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
    game, part = hard_instance(10, 0.5, a_mode="kappa")
    report = certify(to_lcp(game, part), CertifyOptions(seed=0, samples=2000))
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
    game, part = hard_instance(10, 0.5, a_mode="theta")
    report = certify(to_lcp(game, part), CertifyOptions(seed=0, samples=2000))
    assert report.theta_lb == pytest.approx(1.0 / 90.0)
    assert report.theta_lb - 1e-9 <= report.theta_est <= 1.0 / 34.0 + 1e-12
    assert report.pmatrix == "structural"


def test_certify_single_state_game():
    game = build_game(0.5, [(1, [(2.0, [(0, 1.0)]), (2.0, [(0, 1.0)])])])
    report = certify(to_lcp(game), CertifyOptions(seed=3, samples=200))
    assert report.kappa_est == 0.0
    assert report.delta == pytest.approx(1.0, abs=1e-12)
    assert report.theta_est == pytest.approx(1.0, abs=1e-12)
    assert report.cond == pytest.approx(-1.0, abs=1e-9)


@pytest.mark.parametrize("seed", [400, 808, 1911])
def test_certify_accepts_well_conditioned_small_minors(seed):
    # each game has positive minors below 1e-12 times their row-max product,
    # all with cond_2 below 2000, and no minor with det <= 0
    game = random_game(12, 0.99, seed)
    mc = pmatrix_check_minors(to_lcp(game, default_partition(game)).m)
    assert mc.ok and 0.0 < mc.min_scaled_minor < 1e-12
    report = certify(to_lcp(game), CertifyOptions(seed=0, samples=200))
    assert report.pmatrix == "structural"


def test_minors_check_refuses_near_singular_positive_minor():
    mc = pmatrix_check_minors(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]))
    assert 0.0 < mc.min_scaled_minor < 1e-12
    assert not mc.ok and mc.failing_subset == (0, 1)


def test_certify_requires_options(g3):
    game, _ = g3
    with pytest.raises(TypeError, match="options"):
        certify(to_lcp(game))


def _cert_cases():
    for n in (1, 8, 12, 24, 64):
        for gamma in (0.5, 0.9, 0.99):
            yield f"random-{n}-{gamma}", random_game(n, gamma, 7 * n), None
    for n in (8, 64):
        for a_mode in ("kappa", "eigenvalue", "theta"):
            game, part = hard_instance(n, 0.9, a_mode=a_mode)
            yield f"hard-{n}-{a_mode}", game, part


@pytest.mark.parametrize("case", list(_cert_cases()), ids=lambda c: c[0])
def test_structural_certificate_holds_on_game_lcps(case):
    _, game, part = case
    cert = _certificate(game, part)
    assert cert.ok and cert.mu_s > 0.0 and cert.mu_t > 0.0
    assert 0.0 <= cert.ratio < 1e-3
    if game.n <= 12:
        assert pmatrix_check_minors(to_lcp(game, part).m).ok


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
    report = certify(lcp, CertifyOptions(seed=0, samples=100))
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
    game, part = g3
    report = certify(to_lcp(game, part), CertifyOptions(seed=7, samples=300))
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "report.csv"
    write_report_json(report, jpath)
    write_report_csv(report, cpath)
    payload = json.loads(jpath.read_text())
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
