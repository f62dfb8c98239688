"""Command-line interface: simulate, lyap, sweep, fit, dky.

Every output file starts with ``#``-prefixed metadata lines echoing the full
effective configuration, so re-running the same command reproduces the file
byte for byte.  Options may also be supplied through ``--config FILE`` with
flat ``key = value`` lines (dashes or underscores); explicit command-line
flags override the file.
"""

import argparse
import sys

import numpy as np

from . import analysis
from .dynamics import initial_state, integrate, lorenz_system, diagonal_linear_system
from .errors import KslyapError
from .ks import DomainSpec, DEFAULT_K_MAX, PERIODIC, make_model
from .lyapunov import LyapunovConfig, compute_spectrum, scan_reorthonormalization_interval
from .sweep import (SweepPlan, _g17, header_row, read_records, record_to_row,
                    run_sweep, spectrum_record)

_LYAP = LyapunovConfig()
_DEFAULTS = {
    "bc": PERIODIC, "m": _LYAP.m, "tau": _LYAP.tau, "T": _LYAP.T, "N": _LYAP.N,
    "epsilon": _LYAP.epsilon, "seed": _LYAP.seed, "dt": _LYAP.dt,
    "kmax": DEFAULT_K_MAX, "dL": 0.1, "workers": 1, "t_end": 500.0, "dt_out": 0.5,
    "halfwidth": 1.0, "p_grid": "0.02:0.02:2.0", "Lmin_fit": 80.0,
}


def _read_config_file(path):
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise KslyapError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = value
    return values


def _effective(args, keys, defaults=_DEFAULTS):
    """Merge defaults, config file, and explicit flags (in that order)."""
    file_values = _read_config_file(args.config) if args.config else {}
    out = {}
    for key in keys:
        value = getattr(args, key, None)
        if value is None and key in file_values:
            value = file_values[key]
        if value is None:
            value = defaults.get(key)
        out[key] = value
    return out


def _lyap_config(cfg):
    return LyapunovConfig(
        m=int(cfg["m"]), tau=float(cfg["tau"]), T=float(cfg["T"]),
        N=int(cfg["N"]), epsilon=float(cfg["epsilon"]), seed=int(cfg["seed"]),
        dt=float(cfg["dt"]))


def _meta_lines(cmd, cfg):
    pairs = " ".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return [f"# kslyap {cmd}", f"# {pairs}"]


def _parse_grid(text):
    start, step, end = (float(v) for v in text.split(":"))
    n = int(round((end - start) / step)) + 1
    return np.round(start + step * np.arange(n), 10)


def cmd_simulate(args):
    cfg = _effective(args, ["bc", "L", "kmax", "dt", "seed", "t_end", "dt_out", "out"])
    if cfg["L"] is None or cfg["out"] is None:
        raise KslyapError("simulate requires --L and --out")
    bc, L = cfg["bc"], float(cfg["L"])
    model = make_model(DomainSpec(L=L, bc=bc, k_max_target=float(cfg["kmax"])))
    system = model.build_system()
    dt = float(cfg["dt"])
    state = initial_state(model.dim, int(cfg["seed"]))
    t_end, dt_out = float(cfg["t_end"]), float(cfg["dt_out"])
    times = np.round(np.arange(int(np.floor(t_end / dt_out + 0.5)) + 1) * dt_out, 10)
    times = times[times <= t_end + dt_out / 2]
    x, _ = model.to_physical(state)
    lines = _meta_lines("simulate", cfg)
    lines.append("t," + ",".join(_g17(v) for v in x))
    t_prev = 0.0
    for t in times:
        if t > 0:
            state = integrate(system, state, t_prev, t, dt)
            t_prev = t
        _, u = model.to_physical(state)
        lines.append(_g17(t) + "," + ",".join(_g17(v) for v in u))
    with open(cfg["out"], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {cfg['out']} ({times.size} time samples, {x.size} grid points)")
    return 0


def _oracle_system(name):
    """An oracle system and its default time step."""
    if name == "lorenz":
        return lorenz_system(), 0.005
    if name == "diaglin":
        return diagonal_linear_system([0.3, -0.1, -2.0]), 0.01
    raise KslyapError(f"unknown oracle system {name!r}")


def cmd_lyap(args):
    keys = ["bc", "L", "kmax", "m", "tau", "T", "N", "epsilon", "seed", "dt",
            "out", "scan_T", "system"]
    cfg = _effective(args, keys)
    if cfg["system"]:
        system, dt = _oracle_system(cfg["system"])
        # the oracle's step unless a flag or the config file sets dt
        cfg = _effective(args, keys, {**_DEFAULTS, "dt": dt})
        cfg["m"] = min(int(cfg["m"]), system.dim)
        bc, L = cfg["system"], float("nan")
    else:
        if cfg["L"] is None:
            raise KslyapError("lyap requires --L (or --system)")
        bc, L = cfg["bc"], float(cfg["L"])
        spec = DomainSpec(L=L, bc=bc, k_max_target=float(cfg["kmax"]))
        system = make_model(spec).build_system()
    lyap = _lyap_config(cfg)

    if cfg["scan_T"]:
        T_values = np.array([float(v) for v in str(cfg["scan_T"]).split(",")])
        T_values, rows = scan_reorthonormalization_interval(system, lyap, T_values)
        lines = _meta_lines("lyap --scan-T", cfg)
        lines.append("T," + ",".join(f"lambda_{i}" for i in range(1, lyap.m + 1)))
        for T, row in zip(T_values, rows):
            lines.append(_g17(T) + "," + ",".join(_g17(v) for v in row))
        text = "\n".join(lines) + "\n"
        if cfg["out"]:
            with open(cfg["out"], "w") as fh:
                fh.write(text)
        print(text, end="")
        return 0

    result = compute_spectrum(system, lyap)
    rec = spectrum_record(L, bc, lyap.seed, result.exponents)
    for i, lam in enumerate(rec.exponents, 1):
        print(f"lambda_{i:<3d} {lam: .6f}")
    print(f"D_KY      {rec.dky:.4f}   (j={rec.j})")
    if cfg["out"]:
        lines = _meta_lines("lyap", cfg)
        lines.append(header_row(lyap.m))
        lines.append(record_to_row(rec))
        with open(cfg["out"], "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def cmd_sweep(args):
    cfg = _effective(args, ["bc", "L_start", "L_end", "dL", "kmax", "m", "tau",
                            "T", "N", "epsilon", "seed", "dt", "workers", "out"])
    if cfg["L_start"] is None or cfg["L_end"] is None or cfg["out"] is None:
        raise KslyapError("sweep requires --L-start, --L-end and --out")
    plan = SweepPlan(
        L_start=float(cfg["L_start"]), L_end=float(cfg["L_end"]),
        bc=cfg["bc"], dL=float(cfg["dL"]), k_max=float(cfg["kmax"]),
        lyap=_lyap_config(cfg), output_path=cfg["out"],
        workers=int(cfg["workers"]))

    def log(rec):
        print(f"L={rec.L:<8g} flag={rec.flag:<12s} lambda_1={rec.exponents[0]: .4f} "
              f"D_KY={rec.dky:.3f}", flush=True)

    records = run_sweep(plan, log=log)
    print(f"{len(records)} records in {plan.output_path}")
    return 0


def _stat_centers(records, halfwidth):
    Ls = sorted({round(r.L) for r in records})
    return [c for c in Ls if any(abs(r.L - c) <= halfwidth for r in records)]


def cmd_fit(args):
    cfg = _effective(args, ["results", "halfwidth", "p_grid", "L_centers", "out"])
    if not cfg["results"] or not cfg["out"]:
        raise KslyapError("fit requires --results and --out")
    records = []
    for path in str(cfg["results"]).split(","):
        records.extend(read_records(path))
    halfwidth = float(cfg["halfwidth"])
    if cfg["L_centers"]:
        centers = [float(v) for v in str(cfg["L_centers"]).split(",")]
    else:
        centers = _stat_centers(records, halfwidth)
    m = max(len(r.exponents) for r in records)
    stats = []
    for c in centers:
        for i in range(1, m + 1):
            try:
                stats.append(analysis.windowed_median_mad(records, c, i, halfwidth))
            except KslyapError:
                pass
    p_grid = _parse_grid(str(cfg["p_grid"]))
    p_grid, rms, mad, best_p = analysis.scan_exponent_p(stats, p_grid)
    best_fit = analysis.fit_power_law(stats, best_p)
    unit_fit = analysis.fit_power_law(stats, 1.0)

    out = str(cfg["out"])
    meta = _meta_lines("fit", cfg)
    with open(out + "_stats.csv", "w") as fh:
        fh.write("\n".join(meta + ["L,i,median,mad,count"] + [
            f"{_g17(s.L_center)},{s.index},{_g17(s.median)},{_g17(s.mad)},{s.count}"
            for s in stats]) + "\n")
    with open(out + "_pscan.csv", "w") as fh:
        fh.write("\n".join(meta + ["p,rms,mad"] + [
            f"{_g17(p)},{_g17(r)},{_g17(d)}" for p, r, d in zip(p_grid, rms, mad)]) + "\n")
    with open(out + "_fit.csv", "w") as fh:
        fh.write("\n".join(meta + ["which,a,b,c,p,rms,mad,n_points"] + [
            f"{name},{_g17(f.a)},{_g17(f.b)},{_g17(f.c)},{_g17(f.p)},"
            f"{_g17(f.rms_residual)},{_g17(f.mad_residual)},{f.n_points}"
            for name, f in (("best", best_fit), ("p1", unit_fit))]) + "\n")
    print(f"best p = {best_p:g}; fit at p=1: a={unit_fit.a:.4f} "
          f"b={unit_fit.b:.4f} c={unit_fit.c:.4f}")
    return 0


def cmd_dky(args):
    cfg = _effective(args, ["results", "Lmin_fit", "out"])
    if not cfg["results"] or not cfg["out"]:
        raise KslyapError("dky requires --results and --out")
    records = []
    for path in str(cfg["results"]).split(","):
        records.extend(read_records(path))
    records.sort(key=lambda r: r.L)
    usable = [r for r in records if "failed" not in r.flags]
    slope, intercept, rms = analysis.fit_dky_linear(usable, float(cfg["Lmin_fit"]))
    lines = _meta_lines("dky", cfg)
    lines.append(f"# fit: slope={_g17(slope)} intercept={_g17(intercept)} rms={_g17(rms)}")
    lines.append("L,dky,flag")
    for r in records:
        lines.append(f"{_g17(r.L)},{_g17(r.dky)},{r.flag}")
    with open(cfg["out"], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"D_KY ~= {slope:.4f} L + {intercept:.4f} (rms {rms:.4f}, "
          f"L >= {cfg['Lmin_fit']})")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kslyap",
        description="Kuramoto-Sivashinsky Lyapunov spectra and Kaplan-Yorke dimensions")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out")

    p = sub.add_parser("simulate", help="integrate the PDE and dump u(x,t)")
    common(p)
    for flag in ("--bc", "--L", "--kmax", "--dt", "--seed", "--t-end", "--dt-out"):
        p.add_argument(flag)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("lyap", help="compute one Lyapunov spectrum")
    common(p)
    for flag in ("--bc", "--L", "--kmax", "--m", "--tau", "--T", "--N",
                 "--epsilon", "--seed", "--dt", "--scan-T", "--system"):
        p.add_argument(flag)
    p.set_defaults(func=cmd_lyap)

    p = sub.add_parser("sweep", help="sweep spectra over a grid of domain sizes")
    common(p)
    for flag in ("--bc", "--L-start", "--L-end", "--dL", "--kmax", "--m",
                 "--tau", "--T", "--N", "--epsilon", "--seed", "--dt", "--workers"):
        p.add_argument(flag)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", help="windowed stats, p-scan, and power-law fit")
    common(p)
    for flag in ("--results", "--halfwidth", "--p-grid", "--L-centers"):
        p.add_argument(flag)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("dky", help="D_KY vs L table and linear fit")
    common(p)
    for flag in ("--results", "--Lmin-fit"):
        p.add_argument(flag)
    p.set_defaults(func=cmd_dky)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KslyapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
