"""Benchmark sweeps over the hard family, CSV persistence, and SVG plots.

A sweep cell is one (n, gamma) pair: build the hard instance, reduce it,
estimate kappa/delta/theta next to their closed-form predictions, and time
the interior-point solve.  Rows are written as plain CSV with repr-exact
floats, so reruns with the same seed are byte-identical except for the
wall_ms column.

Plots are hand-rolled SVG (no plotting dependency): log-log per-gamma
series with the least-squares slope annotated in the legend.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .conditioning import (
    delta_lower_bound,
    estimate_kappa,
    estimate_theta,
    kappa_upper_bound,
    smallest_eigenvalue_sym,
    theta_lower_bound,
)
from .game import Action, Game, State
from .hard_instances import (
    HardInstanceSpec,
    build_hard_instance,
    closed_forms,
    predicted_eig_ub,
    predicted_kappa_lb,
    predicted_theta_ub,
)
from .lcp import reduction, to_lcp
from .lcp_solvers import IpmOptions, solve_potential_reduction
from .solvers import SolverFailure

__all__ = [
    "BENCH_COLUMNS",
    "BenchRow",
    "fit_loglog_slope",
    "random_game",
    "read_bench_csv",
    "render_loglog_svg",
    "run_bench",
    "write_bench_csv",
]

BENCH_COLUMNS = (
    "n",
    "gamma",
    "a_mode",
    "kappa_est",
    "kappa_ub",
    "kappa_lb_pred",
    "delta",
    "delta_lb",
    "delta_ub_pred",
    "theta_est",
    "theta_lb",
    "theta_ub_pred",
    "cond",
    "solver_iters",
    "wall_ms",
    "seed",
)


def random_game(n, gamma, seed, max_support=4):
    """Seeded random game: two actions per state, random owner, sparse
    uniform transition support, costs uniform in [-10, 10]."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n):
        owner = int(rng.integers(1, 3))
        actions = []
        for _ in range(2):
            support = int(rng.integers(1, min(max_support, n) + 1))
            targets = rng.choice(n, size=support, replace=False)
            weights = rng.uniform(0.1, 1.0, size=support)
            weights /= weights.sum()
            cost = float(rng.uniform(-10.0, 10.0))
            dist = tuple(
                (int(t), float(w)) for t, w in zip(targets, weights, strict=True)
            )
            actions.append(Action(cost=cost, dist=dist))
        states.append(State(owner=owner, actions=tuple(actions)))
    return Game(gamma=gamma, states=tuple(states))


@dataclass
class BenchRow:
    n: int
    gamma: float
    a_mode: str
    kappa_est: float
    kappa_ub: float
    kappa_lb_pred: float
    delta: float
    delta_lb: float
    delta_ub_pred: float
    theta_est: float
    theta_lb: float
    theta_ub_pred: float
    cond: float
    solver_iters: float
    wall_ms: float
    seed: int

    def csv_row(self):
        vals = [getattr(self, c) for c in BENCH_COLUMNS]
        return ",".join(v if isinstance(v, str) else repr(v) for v in vals)


def run_bench(
    ns,
    gammas,
    a_mode="kappa",
    seed=0,
    samples=2000,
    ipm_epsilon=1e-9,
    on_row=None,
):
    """One row per (n, gamma) cell.  A cell whose solve or estimation fails
    is kept with NaN measurements so partial sweeps still flush."""
    rows = []
    idx = 0
    for n in ns:
        for gamma in gammas:
            cell_seed = seed + idx
            idx += 1
            row = _bench_cell(n, gamma, a_mode, cell_seed, samples, ipm_epsilon)
            rows.append(row)
            if on_row is not None:
                on_row(row)
    return rows


def _bench_cell(n, gamma, a_mode, cell_seed, samples, ipm_epsilon):
    spec = HardInstanceSpec(n=n, gamma=gamma, a_mode=a_mode)
    game, partition = build_hard_instance(spec)
    lcp = to_lcp(game, partition)
    red = reduction(game, partition)
    witnesses = [closed_forms(spec).c_tau, red.rep.ownership_signs * red.c_tau]

    nan = float("nan")
    row = BenchRow(
        n=n,
        gamma=gamma,
        a_mode=a_mode,
        kappa_est=nan,
        kappa_ub=kappa_upper_bound(n, gamma),
        kappa_lb_pred=predicted_kappa_lb(n, gamma),
        delta=nan,
        delta_lb=delta_lower_bound(n, gamma),
        delta_ub_pred=predicted_eig_ub(n, gamma),
        theta_est=nan,
        theta_lb=theta_lower_bound(n, gamma),
        theta_ub_pred=predicted_theta_ub(n, gamma),
        cond=nan,
        solver_iters=nan,
        wall_ms=nan,
        seed=cell_seed,
    )
    try:
        row.kappa_est, _ = estimate_kappa(lcp.m, samples, cell_seed, witnesses)
        row.theta_est, _ = estimate_theta(lcp.m, samples, cell_seed, witnesses)
        row.delta, _ = smallest_eigenvalue_sym(lcp.m)
        row.cond = -row.delta / row.theta_est
    except (ArithmeticError, ValueError):
        return row
    try:
        start = time.perf_counter()
        _, _, trace = solve_potential_reduction(lcp, IpmOptions(epsilon=ipm_epsilon))
        row.wall_ms = (time.perf_counter() - start) * 1e3
        row.solver_iters = float(len(trace))
    except SolverFailure:
        pass
    return row


def write_bench_csv(rows, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(BENCH_COLUMNS) + "\n")
        for row in rows:
            fh.write(row.csv_row() + "\n")


def read_bench_csv(path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != ",".join(BENCH_COLUMNS):
            raise ValueError(f"unrecognized benchmark CSV header in {path}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(BENCH_COLUMNS):
                raise ValueError(f"malformed benchmark CSV row: {line!r}")
            kwargs = {}
            for name, raw in zip(BENCH_COLUMNS, parts, strict=True):
                if name == "a_mode":
                    kwargs[name] = raw
                elif name in ("n", "seed"):
                    kwargs[name] = int(raw)
                else:
                    kwargs[name] = float(raw)
            rows.append(BenchRow(**kwargs))
    return rows


def fit_loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x), positive pairs only."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    keep = (xs > 0.0) & (ys > 0.0) & np.isfinite(xs) & np.isfinite(ys)
    xs, ys = xs[keep], ys[keep]
    if xs.size < 2:
        raise ValueError("slope fit needs at least two positive finite points")
    lx, ly = np.log(xs), np.log(ys)
    lx = lx - lx.mean()
    return float((lx @ (ly - ly.mean())) / (lx @ lx))


# ---------------------------------------------------------------------------
# SVG rendering

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _ticks_log10(lo, hi):
    first = math.ceil(lo - 1e-9)
    last = math.floor(hi + 1e-9)
    return [float(k) for k in range(first, last + 1)]


def render_loglog_svg(series, title, xlabel, ylabel):
    """series: list of (label, xs, ys) with positive data.  Returns SVG text;
    each legend entry carries the series' fitted log-log slope."""
    pts = []
    for _, xs, ys in series:
        for x, y in zip(xs, ys, strict=True):
            if x > 0.0 and y > 0.0 and math.isfinite(x) and math.isfinite(y):
                pts.append((math.log10(x), math.log10(y)))
    if not pts:
        raise ValueError("nothing to plot: no positive finite points")
    lxs = [p[0] for p in pts]
    lys = [p[1] for p in pts]
    x_lo, x_hi = min(lxs), max(lxs)
    y_lo, y_hi = min(lys), max(lys)
    if x_hi - x_lo < 1e-9:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-9:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    x_pad = 0.04 * (x_hi - x_lo)
    y_pad = 0.06 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def px(lx):
        return _ML + (lx - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(ly):
        return _H - _MB - (ly - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    axis = 'stroke="#444" stroke-width="1"'
    out.append(
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" {axis}/>'
    )
    out.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" {axis}/>')
    for t in _ticks_log10(x_lo, x_hi):
        x = px(t)
        out.append(f'<line x1="{x:.1f}" y1="{_H - _MB}" x2="{x:.1f}" y2="{_H - _MB + 5}" {axis}/>')
        out.append(
            f'<text x="{x:.1f}" y="{_H - _MB + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">1e{int(t)}</text>'
        )
    for t in _ticks_log10(y_lo, y_hi):
        y = py(t)
        out.append(f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" {axis}/>')
        out.append(
            f'<text x="{_ML - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{int(t)}</text>'
        )
    out.append(
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    out.append(
        f'<text x="16" y="{(_MT + _H - _MB) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.1f})">{ylabel}</text>'
    )

    legend_y = _MT + 6
    for k, (label, xs, ys) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        pairs = sorted(
            (x, y)
            for x, y in zip(xs, ys, strict=True)
            if x > 0.0 and y > 0.0 and math.isfinite(x) and math.isfinite(y)
        )
        if not pairs:
            continue
        coords = " ".join(
            f"{px(math.log10(x)):.1f},{py(math.log10(y)):.1f}" for x, y in pairs
        )
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for x, y in pairs:
            out.append(
                f'<circle cx="{px(math.log10(x)):.1f}" cy="{py(math.log10(y)):.1f}" '
                f'r="2.5" fill="{color}"/>'
            )
        try:
            slope_txt = f" (slope {fit_loglog_slope([p[0] for p in pairs], [p[1] for p in pairs]):.2f})"
        except ValueError:
            slope_txt = ""
        lx = _W - _MR - 210
        out.append(
            f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 18}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 24}" y="{legend_y + 4}" font-family="sans-serif" '
            f'font-size="11">{label}{slope_txt}</text>'
        )
        legend_y += 16
    out.append("</svg>")
    return "\n".join(out) + "\n"
