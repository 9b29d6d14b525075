"""Closed-loop benchmark of gamelcp: solve, certify and the hard-family sweep.

    python3 perfbench/run.py --workload solve_random --seed 19 --seconds 10 --trace 0
    python3 perfbench/run.py                 # all three workloads, one process

Run it from the root of a checkout: the package is imported from ./src and
nothing is installed.  Scratch files go to ./.perfbench.

One client, closed loop: each operation starts after the previous one has
finished, in this single process, with BLAS pinned to one thread.  The
workload seed makes the inputs (game seeds are 100 * seed + k); the program
only sees the generated game files and arguments.  A run repeats whole
passes over the workload's fixed operation list until --seconds have passed,
so it measures at least one pass; every later pass must reproduce the first
pass's output digest exactly.  A traced run (--trace 1) makes one pass with
every public gamelcp function wrapped in a timing span (see tracer.py).

Workloads (why each was chosen):

* solve_random: 40 random games (n in 16, 32, 64 with 4, 4 and 12 game
  seeds; gamma in 0.9, 0.99), each solved by `gamelcp solve` with ipm,
  pivot, si and vi at tol 1e-9: 160 in-process CLI calls.  The solver
  path users run; the IPM's iterations set the tail, the cheap VI/SI/Lemke
  calls the median.  No conditioning code runs.
* certify_random: `gamelcp certify` with default options on 60 random
  games, n in 8, 10, 12 (exhaustive principal minors) and 24 (witness
  sampling) with 14, 14, 16 and 16 game seeds, gamma in 0.9, 0.99: 120
  calls.  The only workload that runs the minors scan and the witness
  loop; no IPM runs.
* sweep_hard: `run_bench` (the function behind `gamelcp bench`), samples
  2000, over the hard family n in 8..64 x gamma in 0.5..0.99 x a_mode in
  kappa, eigenvalue, theta (105 cells, one operation each, timed between
  row callbacks), then the CSV and an SVG are written.  Structured dense M
  with exact closed-form witnesses: the paper's scaling experiment.

Times are reported at a nominal machine speed (units ref_ms and 1/ref_s;
setup_s is in seconds at that speed).  Around every operation, and after
every set-up, the benchmark times a fixed reference kernel that runs no
gamelcp code, and scales the wall time by REF_NOMINAL_S over the kernel's
time measured around it.  On a shared VM the same work runs up to twice as
slow for tens of seconds at a time; the scaling takes most of that out.
The raw wall-clock figures and the measured machine speed are printed
beside them.

Every operation's output is checked; a failed check counts the operation
as failed, and failures are reported as measured.  The last line of stdout
is one JSON object: "attempted" and "failed" count operations; "correct" is
false when a run-level check fails (a repeated pass changed its output
digest, the sweep CSV does not read back as written, run_bench raised);
"metrics" holds the end-to-end metrics (--trace 0) or the per-layer metrics
of a traced pass (--trace 1).  failed_frac is printed with the end-to-end
metrics but stays out of the JSON metrics: it is 0 on a healthy workload,
and the JSON's own counts carry it.
"""

import os

# before numpy is imported anywhere in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, layer_metrics, span_cost_s

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 5
REL_ALLOWANCE = 1e-9
# best-of-3 time of reference_kernel on the 2-core VM (Python 3.11.7,
# numpy 2.4.6, OpenBLAS) this benchmark was written on, at its fastest
REF_NOMINAL_S = 0.5e-3


def import_gamelcp():
    """Import the package from this checkout's src/ and nowhere else."""
    init = SRC / "gamelcp" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} not found; run from a gamelcp checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gamelcp
    import gamelcp.cli

    if Path(gamelcp.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported gamelcp from {gamelcp.__file__}, not {SRC}")
    return gamelcp


def reference_kernel():
    """Fixed work that runs no gamelcp code: a 24x24 LU by numpy row
    operations and a pure-Python loop, the mix of interpreter and
    small-array work that the package's solvers do."""
    import numpy as np

    a = np.random.default_rng(12345).standard_normal((24, 24)) + 24.0 * np.eye(24)
    for k in range(a.shape[0]):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        a[[k, p]] = a[[p, k]]
        a[k + 1:, k:] -= np.outer(a[k + 1:, k] / a[k, k], a[k, k:])
    total = 0
    for i in range(3000):
        total += i * i
    return total


def reference_s():
    """Current machine speed: best of three reference_kernel timings."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best


def call_cli(cli, argv):
    """One in-process CLI call; returns its exit code, or the escaped error."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv)
    except Exception as exc:  # an escaped error fails this operation only
        return f"{type(exc).__name__}: {exc}"


def read_json(path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def at_most(a, b):
    """a <= b with a relative allowance; False when either is NaN."""
    return a <= b + REL_ALLOWANCE * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# per-operation checks: each returns a failure reason, or None


def solve_failures(results):
    """results: (game key, exit code, output JSON or None) per solve call.

    A call fails on a nonzero exit, a missing output, optimal=false, or
    values that differ from the per-state median of the game's other
    successful methods by more than 1e-6 (1 + |v|).
    """
    reasons = []
    for _, code, payload in results:
        if code != 0:
            reasons.append(f"exit {code}")
        elif payload is None:
            reasons.append("no output file")
        elif payload.get("optimal") is not True:
            reasons.append("optimal=false")
        else:
            reasons.append(None)
    games = {}
    for i, (game, _, _) in enumerate(results):
        if reasons[i] is None:
            games.setdefault(game, []).append(i)
    for members in games.values():
        vectors = [results[i][2]["values"] for i in members]
        ref = [statistics.median(col) for col in zip(*vectors)]
        for i, values in zip(members, vectors):
            if len(values) != len(ref) or not all(
                abs(v - r) <= 1e-6 * (1.0 + abs(r)) for v, r in zip(values, ref)
            ):
                reasons[i] = "values disagree with the other methods"
    return reasons


def certify_failure(code, report):
    if code != 0:
        return f"exit {code}"
    if report is None:
        return "no report file"
    if not report["kappa_est"] <= report["kappa_ub"]:
        return "kappa_est > kappa_ub"
    if not report["delta"] >= report["delta_lb"]:
        return "delta < delta_lb"
    if not report["theta_est"] >= report["theta_lb"]:
        return "theta_est < theta_lb"
    return None


def sweep_failure(row):
    """NaN field, global fence breach, or closed-form breach of one row."""
    if row is None:
        return "cell not produced"
    nan = [k for k, v in vars(row).items() if isinstance(v, float) and math.isnan(v)]
    if nan:
        return "NaN in " + ",".join(nan)
    if not at_most(row.kappa_est, row.kappa_ub):
        return "kappa_est > kappa_ub"
    if not at_most(row.delta_lb, row.delta):
        return "delta < delta_lb"
    if not at_most(row.theta_lb, row.theta_est):
        return "theta_est < theta_lb"
    if not at_most(row.delta, row.delta_ub_pred):
        return "delta > delta_ub_pred"
    if row.a_mode == "kappa" and not at_most(row.kappa_lb_pred, row.kappa_est):
        return "kappa_est < kappa_lb_pred"
    if row.a_mode == "theta" and not at_most(row.theta_est, row.theta_ub_pred):
        return "theta_est > theta_ub_pred"
    return None


# ---------------------------------------------------------------------------
# workloads


class Pass:
    """One pass over a workload's operations."""

    def __init__(self, latencies, refs, wall_s, reasons, labels, digest, problems):
        self.latencies = latencies  # seconds, one per operation
        self.refs = refs  # reference_s() around each operation, or None
        self.wall_s = wall_s  # timed phase, first operation start to last write
        self.reasons = reasons  # failure reason or None, one per operation
        self.labels = labels
        self.digest = digest  # sha256 of the non-timing outputs
        self.problems = problems  # run-level check failures


class CliWorkload:
    """Operations that are in-process `gamelcp` CLI calls on game files."""

    def __init__(self, gl, workdir):
        self.cli = gl.cli
        self.workdir = workdir
        self.ops = []  # (label, game key, argv, output path)

    def write_games(self, gl, seed, games, gammas):
        """Write random_game(n, gamma, 100 * seed + k) for k < games[n];
        yields (n, gamma, game seed, path), sizes interleaved."""
        for k in range(max(games.values())):
            for n in [n for n, count in games.items() if k < count]:
                for gamma in gammas:
                    game_seed = 100 * seed + k
                    path = self.workdir / f"game_n{n}_g{gamma}_s{game_seed}.json"
                    gl.save_game(gl.random_game(n, gamma, game_seed), str(path))
                    yield n, gamma, game_seed, path

    def warm_up(self, count):
        for _, _, argv, _ in self.ops[:count]:
            call_cli(self.cli, argv)

    def run_pass(self, tracer, speed=None):
        """One pass; ``speed`` (e.g. reference_s) is timed between operations."""
        for _, _, _, out in self.ops:
            out.unlink(missing_ok=True)
        latencies, codes, marks = [], [], []
        start = time.perf_counter()
        for i, (_, _, argv, _) in enumerate(self.ops):
            if speed:
                marks.append(speed())
            tracer.op = i
            t0 = time.perf_counter()
            codes.append(call_cli(self.cli, argv))
            latencies.append(time.perf_counter() - t0)
        if speed:
            marks.append(speed())
        wall = time.perf_counter() - start
        reasons, digest = self.check(codes)
        labels = [label for label, _, _, _ in self.ops]
        refs = [(a + b) / 2 for a, b in zip(marks, marks[1:])] if speed else None
        return Pass(latencies, refs, wall, reasons, labels, digest.hexdigest(), [])


class SolveRandom(CliWorkload):
    name = "solve_random"
    METHODS = ("ipm", "pivot", "si", "vi")

    # game seeds per size.  Latencies come in blocks by method and size; with
    # 5 seeds per size the 90th percentile sat on the edge between the n=32
    # and n=64 IPM blocks and moved by a third from one workload seed to the
    # next.  With these counts the median falls inside the n=64 Lemke block
    # and the 90th percentile inside the n=64 IPM block.
    GAMES = {16: 4, 32: 4, 64: 12}

    def __init__(self, gl, seed, workdir, games=GAMES, gammas=(0.9, 0.99)):
        super().__init__(gl, workdir)
        for n, gamma, game_seed, path in self.write_games(gl, seed, games, gammas):
            for method in self.METHODS:
                out = path.with_suffix(f".{method}.out.json")
                argv = ["--tol", "1e-9", "--output", str(out), "solve",
                        "--game", str(path), "--method", method]
                label = f"solve n={n} gamma={gamma} seed={game_seed} {method}"
                self.ops.append((label, (n, gamma, game_seed), argv, out))

    def warm_up(self):
        super().warm_up(len(self.METHODS))

    def check(self, codes):
        results = []
        digest = hashlib.sha256()
        for (_, game, _, out), code in zip(self.ops, codes):
            payload = read_json(out)
            results.append((game, code, payload))
            kept = None
            if payload is not None:
                kept = [payload.get(k) for k in ("method", "iterations", "profile", "values")]
            digest.update(json.dumps([list(game), str(code), kept]).encode())
        return solve_failures(results), digest


class CertifyRandom(CliWorkload):
    name = "certify_random"

    # game seeds per size: 15 on average, one fewer at n=8 and n=10 and one
    # more at n=12 and n=24, so that the median falls inside the n=12 block
    # instead of on the edge between the n=10 and n=12 blocks
    GAMES = {8: 14, 10: 14, 12: 16, 24: 16}

    def __init__(self, gl, seed, workdir, games=GAMES, gammas=(0.9, 0.99)):
        super().__init__(gl, workdir)
        for n, gamma, game_seed, path in self.write_games(gl, seed, games, gammas):
            out = path.with_suffix(".certify.out.json")
            argv = ["--output", str(out), "certify", "--game", str(path)]
            label = f"certify n={n} gamma={gamma} seed={game_seed}"
            self.ops.append((label, (n, gamma, game_seed), argv, out))

    def warm_up(self):
        super().warm_up(1)

    def check(self, codes):
        reasons = []
        digest = hashlib.sha256()
        for (_, _, _, out), code in zip(self.ops, codes):
            report = read_json(out)
            digest.update(json.dumps([str(code), report], sort_keys=True).encode())
            reasons.append(certify_failure(code, report))
        return reasons, digest


class SweepHard:
    name = "sweep_hard"
    MODES = ("kappa", "eigenvalue", "theta")
    SAMPLES = 2000

    def __init__(self, gl, seed, workdir, ns=(8, 12, 16, 24, 32, 48, 64),
                 gammas=(0.5, 0.8, 0.9, 0.95, 0.99)):
        self.bench = gl.bench
        self.base_seed = 100 * seed
        self.ns, self.gammas = tuple(ns), tuple(gammas)
        self.csv = workdir / "sweep.csv"
        self.svg = workdir / "sweep.kappa_est.svg"
        cells = [(n, g) for n in self.ns for g in self.gammas]
        self.labels = [f"cell {m} n={n} gamma={g}" for m in self.MODES for n, g in cells]

    def warm_up(self):
        self.bench.run_bench(self.ns[:1], self.gammas[:1], samples=self.SAMPLES)

    def run_pass(self, tracer, speed=None):
        """One pass; ``speed`` (e.g. reference_s) is timed between cells."""
        per_mode = len(self.ns) * len(self.gammas)
        rows, latencies, refs, problems = [], [], [], []
        last = [0.0, 0.0]  # end of the previous cell, speed measured there

        def on_row(row):
            now = time.perf_counter()
            latencies.append(now - last[0])
            rows.append(row)
            tracer.op = len(rows)
            if speed:
                mark = speed()
                refs.append((last[1] + mark) / 2)
                last[1] = mark
            last[0] = time.perf_counter()

        start = time.perf_counter()
        for m, mode in enumerate(self.MODES):
            last[1] = speed() if speed else 0.0
            last[0] = time.perf_counter()
            try:
                self.bench.run_bench(self.ns, self.gammas, a_mode=mode,
                                     seed=self.base_seed + per_mode * m,
                                     samples=self.SAMPLES, on_row=on_row)
            except Exception as exc:  # the cells not produced count as failed
                problems.append(f"run_bench({mode}) raised {type(exc).__name__}: {exc}")
            rows.extend([None] * (per_mode * (m + 1) - len(rows)))
        done = [r for r in rows if r is not None]
        try:
            self.bench.write_bench_csv(done, str(self.csv))
            self.svg.write_text(self._svg(done), encoding="utf-8")
        except (OSError, ValueError) as exc:
            problems.append(f"writing the sweep output failed: {exc}")
        wall = time.perf_counter() - start

        reasons = [sweep_failure(r) for r in rows]
        digest = hashlib.sha256()
        if self.csv.exists():
            lines = self.csv.read_text(encoding="utf-8").splitlines()
            col = lines[0].split(",").index("wall_ms")
            for line in lines:
                fields = line.split(",")
                digest.update((",".join(fields[:col] + fields[col + 1:]) + "\n").encode())
            back = [r.csv_row() for r in self.bench.read_bench_csv(str(self.csv))]
            if back != [r.csv_row() for r in done]:
                problems.append("the CSV does not read back as the rows written")
        # a cell lost to an escaped error has no latency sample
        return Pass(latencies, refs if speed else None, wall, reasons, self.labels,
                    digest.hexdigest(), problems)

    def _svg(self, rows):
        series = []
        for gamma in self.gammas:
            cells = sorted((r.n, r.kappa_est) for r in rows
                           if r.a_mode == "kappa" and r.gamma == gamma)
            series.append((f"gamma={gamma:g}", [c[0] for c in cells], [c[1] for c in cells]))
        return self.bench.render_loglog_svg(
            series, title="kappa_est vs n (log-log)", xlabel="n", ylabel="kappa_est"
        )


WORKLOADS = {w.name: w for w in (SolveRandom, CertifyRandom, SweepHard)}


# ---------------------------------------------------------------------------
# running and reporting


def setup(name, seed, workdir):
    """Import, generate and write the inputs, one warm-up op per op kind."""
    gl = import_gamelcp()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[name](gl, seed, workdir)
    workload.warm_up()
    return gl, workload


def probe_setup_s(name, seed):
    """Median set-up time over fresh processes, so the import is paid each
    time; each is scaled to the nominal speed by the reference kernel timed
    right after it.  Returns (median scaled, median raw) in seconds."""
    samples, raw = [], []
    for i in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe", str(i)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        elapsed, ref = map(float, proc.stdout.split())
        samples.append(elapsed * REF_NOMINAL_S / ref)
        raw.append(elapsed)
    return statistics.median(samples), statistics.median(raw)


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def measure(name, seed, seconds, trace):
    """Run one workload; returns (result dict, report lines)."""
    setup_s = setup_raw_s = None
    if not trace:
        setup_s, setup_raw_s = probe_setup_s(name, seed)
    _, workload = setup(name, seed, WORK / name)
    passes = []
    tracer = Tracer()
    if trace:
        with tracer.installed():
            passes.append(workload.run_pass(tracer))
    else:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(workload.run_pass(tracer, reference_s))

    first = passes[0]
    attempted = sum(len(p.reasons) for p in passes)
    failed = sum(r is not None for p in passes for r in p.reasons)
    problems = [q for p in passes for q in p.problems]
    if any(p.digest != first.digest for p in passes):
        problems.append("a repeated pass gave a different output digest")

    lines = [f"== {name} seed={seed} passes={len(passes)} trace={int(trace)}",
             f"   digest sha256:{first.digest}"]
    lines += [f"   failed: {label}: {reason}"
              for label, reason in zip(first.labels, first.reasons) if reason]
    lines += [f"   problem: {q}" for q in problems]
    if trace:
        metrics = layer_metrics(tracer.spans, first.wall_s)
        overhead = len(tracer.spans) * span_cost_s() / first.wall_s
        metrics["trace.overhead_frac"] = (overhead, "fraction")
        for key, (value, unit) in metrics.items():
            lines.append(f"   {key:40s} {value:14.6g} {unit}")
    else:
        raw_ms = [s * 1e3 for p in passes for s in p.latencies]
        speed = [REF_NOMINAL_S / r for p in passes for r in p.refs]
        ref_ms = [t * v for t, v in zip(raw_ms, speed)]
        p90 = statistics.quantiles(ref_ms, n=10)[-1]
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_ms_p50": (statistics.median(ref_ms), "ref_ms"),
            "op_ms_p90": (p90, "ref_ms"),
            "ops_per_s": (1e3 * len(ref_ms) / sum(ref_ms), "1/ref_s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        notes = {
            "setup_s": f"median of {SETUP_PROBES} fresh processes at nominal speed",
            "op_ms_p50": f"{len(ref_ms)} samples",
            "op_ms_p90": f"{len(ref_ms)} samples, {sum(x > p90 for x in ref_ms)} beyond",
            "ops_per_s": f"{len(ref_ms)} ops in {sum(ref_ms) / 1e3:.2f} ref_s",
            "peak_rss_mb": "ru_maxrss of this process",
        }
        for key, (value, unit) in metrics.items():
            lines.append(f"   {key:12s} {value:12.4f} {unit:7s} ({notes[key]})")
        lines.append(f"   {'failed_frac':12s} {failed / attempted:12.4f} {'-':7s} "
                     f"({failed} of {attempted} ops failed a check)")
        wall = sum(p.wall_s for p in passes)
        lines.append(
            f"   wall clock: p50 {statistics.median(raw_ms):.4f} ms, "
            f"p90 {statistics.quantiles(raw_ms, n=10)[-1]:.4f} ms, "
            f"{len(raw_ms) / wall:.4f} ops/s ({len(raw_ms)} ops in {wall:.2f} s), "
            f"setup {setup_raw_s:.4f} s; "
            f"machine speed {statistics.median(speed):.3f} of nominal "
            f"(range {min(speed):.3f}-{max(speed):.3f})"
        )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=19)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe is not None:
        start = time.perf_counter()
        setup(args.workload, args.seed, WORK / args.workload / f"probe{args.setup_probe}")
        elapsed = time.perf_counter() - start
        print(elapsed, reference_s())
        return 0

    import_gamelcp()
    print("env " + json.dumps(environment(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, lines = measure(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
