"""kslyap benchmark: production-shaped spectra and a resumed sweep, run through
the ``kslyap`` command line in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it imports ``kslyap`` from the ``src/`` directory next
to ``bench/`` and exits with code 2 if that is missing.  One repetition of a
workload is its sequence of CLI calls (``kslyap.cli.main``); repetitions run
back to back and every call's output is checked right after it returns,
outside the timed region.  The whole run, set-up samples included, fits in
``--seconds``: a repetition is started only if the median one so far would
end before the deadline.  The first repetition warms caches and lazy imports
and is left out of the timings.  Files go to a temporary directory under
``.bench_work/`` in the checkout, removed at exit.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
fresh-interpreter samples of importing ``kslyap.cli`` and computing a
one-step spectrum on the workload's first system), ``wall_norm_s`` (median
timed repetition, each CLI call rescaled to the reference machine speed by
the ``calibration`` kernel timed before and after it), the matching
``points_per_hour_norm``, ``peak_rss_mb`` and ``success_ratio``
(1 - failed_ratio).  The raw ``wall_s`` and ``points_per_hour`` are printed
in the text lines above the JSON.  ``--trace 1`` spends half the time
untraced and half with ``tracing.install`` active and reports per-layer
metrics (see ``tracing.layer_metrics``), the tracing overhead, the median
calibration kernel time and ``lyapunov.exponent_max_abs_delta`` against
``reference.json``.

The last stdout line is one JSON object with keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment.  The
exit code is 1 if any check failed.
"""

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# Pinned before numpy loads: exponents do not depend on the OpenBLAS thread
# count, timings do, and the machine is shared.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import calibration  # noqa: E402  (imports numpy)
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

REFERENCE_SEED = 0
SETUP_SAMPLES = 7
MIN_REPS = 3  # timed repetitions per phase, even past the deadline
TRACE_SHARE = 0.5  # of --seconds spent traced in a --trace 1 run

# Production dt, k_max and epsilon everywhere; T=2 with tau = N*T (see
# _schedule) keeps the production burn-in share: half of all steps run at
# batch 1.
PRODUCTION = ["--dt", "0.05", "--kmax", "9", "--epsilon", "1e-6"]
SWEEP_GRID = [round(21.7 + 0.1 * i, 10) for i in range(7)]


class CheckFailed(Exception):
    pass


def _schedule(N):
    return ["--T", "2", "--N", str(N), "--tau", str(2 * N)]


def _load(path, m, Ls, bc):
    """Reload a results CSV through ``kslyap.sweep.read_records`` (which
    re-derives D_KY and checks it to 1e-9) and check every row."""
    from kslyap.sweep import read_records
    records = read_records(path)
    got = [r.L for r in records]
    if len(got) != len(Ls) or any(abs(a - b) > 1e-9 for a, b in zip(got, Ls)):
        raise CheckFailed(f"{os.path.basename(path)}: L values {got}, expected {Ls}")
    for r in records:
        ex = r.exponents
        if r.bc != bc or "failed" in r.flags:
            raise CheckFailed(f"L={r.L:g}: bc={r.bc} flags={r.flag}")
        if len(ex) != m or not all(map(math.isfinite, ex)):
            raise CheckFailed(f"L={r.L:g}: {len(ex)} exponents, expected {m} finite")
        if any(b > a for a, b in zip(ex, ex[1:])):
            raise CheckFailed(f"L={r.L:g}: exponents not sorted non-increasing")
    return records


def _expect_rc(rc):
    if rc != 0:
        raise CheckFailed(f"kslyap returned {rc!r}")


def spectrum_steps(bc, N):
    """One ``kslyap lyap`` call at L=100, m=24 (dim 289 periodic, 286 odd)."""

    def steps(seed, workdir, rows):
        out = os.path.join(workdir, "spectrum.csv")

        def check(rc):
            _expect_rc(rc)
            rows.extend(r.exponents for r in _load(out, 24, [100.0], bc))

        argv = ["lyap", "--bc", bc, "--L", "100", "--m", "24", "--seed", str(seed),
                "--out", out] + _schedule(N) + PRODUCTION
        return [(argv, check)]

    return steps


def sweep_steps(N):
    """A 3-point periodic sweep, the same sweep resumed to 7 points, then
    ``kslyap dky`` on the result.  Every L in 21.7..22.3 has n_modes=32."""

    def steps(seed, workdir, rows):
        out = os.path.join(workdir, "sweep.csv")
        table = os.path.join(workdir, "dky.csv")
        first = []
        common = ["--bc", "periodic", "--m", "12", "--dL", "0.1", "--workers", "1",
                  "--seed", str(seed), "--out", out, "--L-start", "21.7"]

        def check_first(rc):
            _expect_rc(rc)
            first.extend(_load(out, 12, SWEEP_GRID[:3], "periodic"))

        def check_resumed(rc):
            _expect_rc(rc)
            records = _load(out, 12, SWEEP_GRID, "periodic")
            for old, new in zip(first, records):
                if list(old.exponents) != list(new.exponents):
                    raise CheckFailed(f"resumed row L={old.L:g} changed")
            rows.extend(r.exponents for r in records)

        def check_dky(rc):
            _expect_rc(rc)
            with open(table) as fh:
                lines = [ln for ln in fh.read().splitlines()
                         if ln and not ln.startswith(("#", "L,"))]
            got = [float(ln.split(",")[1]) for ln in lines]
            want = [r.dky for r in _load(out, 12, SWEEP_GRID, "periodic")]
            if got != want:
                raise CheckFailed(f"dky table {got} != sweep D_KY {want}")

        sched = _schedule(N) + PRODUCTION
        return [
            (["sweep", "--L-end", "21.9"] + common + sched, check_first),
            (["sweep", "--L-end", "22.3"] + common + sched, check_resumed),
            (["dky", "--results", out, "--Lmin-fit", "0", "--out", table], check_dky),
        ]

    return steps


def chain(*parts):
    """Run the parts' calls one after the other in one repetition."""

    def steps(seed, workdir, rows):
        return [step for part in parts for step in part(seed, workdir, rows)]

    return steps


# name -> (steps, spectra computed per repetition, first system as CLI args).
# The L=22 sweep rides along with the periodic spectrum rather than being a
# workload of its own: alone, its batch-1, interpreter-bound time spread over
# 0.25 between runs on a shared 2-core machine.
WORKLOADS = {
    "periodic-L100-sweep-L22": (chain(spectrum_steps("periodic", 40), sweep_steps(3)),
                                1 + 7, ["--bc", "periodic", "--L", "100"]),
    "spectrum-odd-L100": (spectrum_steps("odd", 75), 1,
                          ["--bc", "odd", "--L", "100"]),
}


class Runner:
    """Runs repetitions of one workload and tallies attempted/failed calls."""

    def __init__(self, name, workdir):
        self.steps = WORKLOADS[name][0]
        self.workdir = workdir
        self.attempted = 0
        self.failures = []
        self.reps = 0
        self.layers = []  # per traced repetition: tracing.layer_metrics
        self.kernels = []  # every calibration.kernel() time

    def repetition(self, seed, tracer=None):
        """Run one repetition; returns (seconds in CLI calls, the same
        rescaled to the calibration's reference speed, exponent rows)."""
        from kslyap import cli
        repdir = os.path.join(self.workdir, f"rep{self.reps}")
        self.reps += 1
        os.mkdir(repdir)
        rows = []
        wall = norm = 0.0
        gc.collect()
        kernel = calibration.kernel()
        self.kernels.append(kernel)
        for argv, check in self.steps(seed, repdir, rows):
            self.attempted += 1
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is not None:
                    tracer.active = True
                t0 = time.perf_counter()
                try:
                    rc = cli.main(argv)
                except Exception as exc:  # a crash is one failed call
                    rc = exc
                finally:
                    call = time.perf_counter() - t0
                    if tracer is not None:
                        tracer.active = False
            before, kernel = kernel, calibration.kernel()
            self.kernels.append(kernel)
            wall += call
            norm += call * 2 * calibration.REFERENCE_S / (before + kernel)
            try:
                check(rc)
            except (CheckFailed, ValueError, IndexError, OSError) as exc:
                self.failures.append(f"{argv[0]} (seed {seed}): {exc}")
        shutil.rmtree(repdir)
        return wall, norm, rows

    def run_until(self, deadline, seed, tracer=None, warm_up=True, min_reps=MIN_REPS):
        """Run an untimed warm-up repetition (if ``warm_up``), then timed ones
        until ``min_reps`` are done and the next would likely end past
        ``deadline`` (a ``perf_counter`` time), or until a check fails.
        Returns the timed repetitions' (wall, rescaled wall) times (the
        warm-up's alone if it failed) and the first repetition's exponents,
        which every later one must reproduce bit for bit."""
        walls, spans, first = [], [], None
        while True:
            if tracer is not None:
                tracer.reset()
            t0 = time.perf_counter()
            wall, norm, rows = self.repetition(seed, tracer)
            rows = [list(r) for r in rows]
            if first is None:
                first = rows
            elif rows != first:
                self.failures.append(f"seed {seed}: a repetition is not "
                                     "bit-identical to the first")
            if warm_up:
                warm_up, warm = False, (wall, norm)
            else:
                walls.append((wall, norm))
                spans.append(time.perf_counter() - t0)
                if tracer is not None:
                    self.layers.append(tracing.layer_metrics(tracer, wall))
            if self.failures:  # report the warm-up if it failed
                return walls or [warm], first
            if len(walls) >= min_reps and time.perf_counter() + statistics.median(spans) > deadline:
                return walls, first


def setup_seconds(runner, first_system, seed):
    """Median over fresh interpreters of: import kslyap.cli, then a one-step,
    one-exponent spectrum on the workload's first system."""
    argv = (["lyap", "--m", "1", "--T", "0.05", "--N", "1", "--tau", "0",
             "--seed", str(seed)] + first_system + PRODUCTION)
    code = (
        "import contextlib, io, sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "from kslyap import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = cli.main({argv!r})\n"
        "print(time.perf_counter() - t0)\n"
        "sys.exit(rc)\n")
    samples = []
    for _ in range(SETUP_SAMPLES):
        runner.attempted += 1
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, timeout=120,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            runner.failures.append(f"setup: {proc.stderr.strip()[-300:]}")
            continue
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples) if samples else None


def environment():
    import numpy
    import scipy
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": BLAS_THREADS, "loadavg": list(os.getloadavg())}
    for mod in (numpy, scipy):
        with contextlib.suppress(KeyError, TypeError):
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            info[f"{mod.__name__}_blas"] = f"{blas['name']} {blas['version']}"
    return info


def reference_delta(name, rows):
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh).get(name)
    if ref is None or len(ref) != len(rows):
        return None
    return max(abs(a - b) for r0, r1 in zip(ref, rows) for a, b in zip(r0, r1))


def median_metrics(samples):
    """Per-name median over repetitions; counts stay whole numbers."""
    out = {}
    for name in sorted(set().union(*samples)):
        values = [s[name][0] for s in samples if name in s]
        unit = next(s[name][1] for s in samples if name in s)
        ints = all(isinstance(v, int) for v in values)
        out[name] = ((statistics.median_low if ints else statistics.median)(values), unit)
    return out


def end_to_end(args, runner, deadline):
    _, points, first_system = WORKLOADS[args.workload]
    setup = setup_seconds(runner, first_system, args.seed)
    times = runner.run_until(deadline, args.seed)[0]
    wall, norm = (statistics.median(t) for t in zip(*times))
    metrics = {
        "wall_norm_s": (norm, "s"),
        "points_per_hour_norm": (points * 3600.0 / norm, "1/h"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_ratio": (1.0 - len(runner.failures) / runner.attempted, "ratio"),
    }
    if setup is not None:
        metrics["setup_s"] = (setup, "s")
    raw = {"wall_s": (wall, "s"), "points_per_hour": (points * 3600.0 / wall, "1/h")}
    return metrics, raw


def per_layer(args, runner, deadline):
    untraced, rows = runner.run_until(deadline - args.seconds * TRACE_SHARE, args.seed)
    untraced = [wall for wall, _ in untraced]
    if args.seed != REFERENCE_SEED:  # leave time for one reference repetition
        deadline -= statistics.median(untraced)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        traced, traced_rows = runner.run_until(deadline, args.seed, tracer, warm_up=False)
    finally:
        uninstall()
    traced = [wall for wall, _ in traced]
    if traced_rows != rows:
        runner.failures.append("traced exponents differ from untraced ones")
    if args.seed != REFERENCE_SEED and not runner.failures:
        rows = runner.run_until(0, REFERENCE_SEED, warm_up=False, min_reps=1)[1]

    metrics = median_metrics(runner.layers)
    t_wall, u_wall = statistics.median(traced), statistics.median(untraced)
    metrics["trace.wall_s"] = (t_wall, "s")
    metrics["trace.untraced_wall_s"] = (u_wall, "s")
    metrics["trace.overhead_s"] = (t_wall - u_wall, "s")
    metrics["calibration.kernel_s"] = (statistics.median(runner.kernels), "s")
    delta = reference_delta(args.workload, rows)
    if delta is not None:
        metrics["lyapunov.exponent_max_abs_delta"] = (delta, "1/time")
    return metrics, {}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + args.seconds
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "kslyap", "cli.py")):
        print(f"error: no kslyap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import kslyap
    if not os.path.abspath(kslyap.__file__).startswith(SRC + os.sep):
        print(f"error: kslyap imported from {kslyap.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    env = environment()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        runner = Runner(args.workload, workdir)
        metrics, raw = (per_layer if args.trace else end_to_end)(args, runner, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    failed = len(runner.failures)
    for msg in runner.failures:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={runner.attempted} failed={failed}")
    shown = dict(metrics, **raw, failed_ratio=(failed / runner.attempted, "ratio"))
    for name, (value, unit) in sorted(shown.items()):
        print(f"#   {name:34s} {value:14.6g} {unit}")
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0, "attempted": runner.attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in sorted(metrics.items())},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
