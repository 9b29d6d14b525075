"""Benchmark sweeps over the hard family, CSV persistence, and SVG plots.

A sweep cell is one (n, gamma) pair: build the hard instance, reduce it
once, measure kappa/delta/theta through ``conditioning.certify`` next to
their closed-form predictions, and time the interior-point solve of the
same LCP.  Rows are written as plain CSV with repr-exact
floats, so reruns with the same seed are byte-identical except for the
wall_ms column.

Plots are hand-rolled SVG (no plotting dependency): log-log per-gamma
series with the least-squares slope annotated in the legend.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from ._csv import csv_line, write_csv
from .conditioning import (
    certify,
    delta_lower_bound,
    kappa_upper_bound,
    theta_lower_bound,
)
from .game import build_game, check_gamma
from .hard_instances import (
    build_hard_instance,
    hard_cost,
    predicted_eig_ub,
    predicted_kappa_lb,
    predicted_theta_ub,
)
from .lcp import to_lcp
from .lcp_solvers import solve_potential_reduction
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

MAX_SUPPORT = 4  # the most successors of one action in random_game


def random_game(n, gamma, seed):
    """Seeded random game: two actions per state, random owner, sparse
    uniform transition support, costs uniform in [-10, 10]."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    check_gamma(gamma)
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n):
        owner = int(rng.integers(1, 3))
        actions = []
        for _ in range(2):
            support = int(rng.integers(1, min(MAX_SUPPORT, n) + 1))
            targets = rng.choice(n, size=support, replace=False)
            weights = rng.uniform(0.1, 1.0, size=support)
            weights /= weights.sum()
            cost = float(rng.uniform(-10.0, 10.0))
            actions.append((cost, list(zip(targets.tolist(), weights.tolist()))))
        states.append((owner, actions))
    return build_game(gamma, states)


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
        return csv_line(astuple(self))


BENCH_COLUMNS = tuple(f.name for f in fields(BenchRow))


def run_bench(
    ns,
    gammas,
    a_mode="kappa",
    seed=0,
    samples=2000,
    ipm_epsilon=1e-9,
    on_row=None,
):
    """One row per (n, gamma) cell.  A cell whose reduction, estimation or
    solve fails is kept with NaN measurements so partial sweeps still flush;
    a bad n, gamma or a_mode is refused."""
    # refused up front, before any row flushes: certify never sees them when
    # cell 0's reduction fails, later cells' seed + idx may be >= 0, and a
    # bad later cell would leave the earlier rows written
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    cells = list(itertools.product(ns, gammas))
    for n, gamma in cells:
        hard_cost(n, gamma, a_mode)
    rows = []
    for idx, (n, gamma) in enumerate(cells):
        rows.append(_bench_cell(n, gamma, a_mode, seed + idx, samples, ipm_epsilon))
        if on_row is not None:
            on_row(rows[-1])
    return rows


def _bench_cell(n, gamma, a_mode, cell_seed, samples, ipm_epsilon):
    game = build_hard_instance(n, gamma, hard_cost(n, gamma, a_mode))

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
        lcp = to_lcp(game)
        report = certify(lcp, cell_seed, samples=samples)
    except ArithmeticError:  # a refused reduction, eigensolve or eigenpair check
        return row
    row.kappa_est, row.theta_est = report.kappa_est, report.theta_est
    row.delta, row.cond = report.delta, report.cond
    try:
        start = time.perf_counter()
        _, _, trace = solve_potential_reduction(lcp, epsilon=ipm_epsilon)
        row.wall_ms = (time.perf_counter() - start) * 1e3
        row.solver_iters = float(len(trace))
    except SolverFailure:
        pass
    return row


def write_bench_csv(rows, path):
    write_csv(path, BENCH_COLUMNS, map(astuple, rows))


def read_bench_csv(path):
    # field types are strings ("int", "float", "str") under postponed annotations
    types = {"int": int, "float": float, "str": str}
    parsers = [types[f.type] for f in fields(BenchRow)]
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
            cells = zip(parsers, parts, strict=True)
            rows.append(BenchRow(*(parse(raw) for parse, raw in cells)))
    return rows


def fit_loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x), positive pairs only.

    Raises ValueError unless at least two such pairs remain and their x
    values differ.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    keep = (xs > 0.0) & (ys > 0.0) & np.isfinite(xs) & np.isfinite(ys)
    xs, ys = xs[keep], ys[keep]
    if xs.size < 2:
        raise ValueError("slope fit needs at least two positive finite points")
    lx, ly = np.log(xs), np.log(ys)
    if lx.min() == lx.max():  # no spread in x: the slope is 0 / 0
        raise ValueError("slope fit needs at least two distinct x values")
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
    each legend entry carries the series' fitted log-log slope, when
    :func:`fit_loglog_slope` can fit one."""
    kept = [  # each series' positive finite points, by x
        sorted(
            (x, y)
            for x, y in zip(xs, ys, strict=True)
            if x > 0.0 and y > 0.0 and math.isfinite(x) and math.isfinite(y)
        )
        for _, xs, ys in series
    ]
    lxs = [math.log10(x) for pairs in kept for x, _ in pairs]
    lys = [math.log10(y) for pairs in kept for _, y in pairs]
    if not lxs:
        raise ValueError("nothing to plot: no positive finite points")
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
    for k, ((label, _, _), pairs) in enumerate(zip(series, kept, strict=True)):
        color = _PALETTE[k % len(_PALETTE)]
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
