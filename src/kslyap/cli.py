"""Command-line interface: simulate, lyap, sweep, fit, dky.

:data:`COMMANDS` declares each subcommand's options once; the parser, the
config-file reader and the "requires" errors read it.  Every output file
starts with ``#``-prefixed metadata lines echoing the full effective
configuration, so re-running the same command reproduces the file byte for
byte.  Options may also be supplied through ``--config FILE`` with flat
``key = value`` lines; explicit flags override the file, and a key that no
subcommand takes is refused.
"""

import argparse
import sys
from dataclasses import asdict

import numpy as np

from . import analysis
from .dynamics import initial_state, integrate, lorenz_system, diagonal_linear_system
from .errors import InsufficientData, IntegrationBlowUp, KslyapError
from .ks import DEFAULT_K_MAX, PERIODIC, make_model
from .lyapunov import LyapunovConfig, compute_spectrum, scan_reorthonormalization_interval
from .sweep import (SweepPlan, _g17, header_row, read_records, record_to_row,
                    run_sweep, spectrum_record, write_lines)

_SPECTRUM = asdict(LyapunovConfig())
_DOMAIN = {"bc": PERIODIC, "L": None, "kmax": DEFAULT_K_MAX}

#: Subcommand -> (help, {option: default}, required options), besides
#: ``--config``.  Option ``x_y`` is the flag ``--x-y`` and the config key
#: ``x_y`` or ``x-y``.  The spectrum options are the fields of LyapunovConfig,
#: each value converted by the type of its default.  A required option is
#: missing when unset or empty.
COMMANDS = {
    "simulate": ("integrate the PDE and dump u(x,t)",
                 {"out": None, **_DOMAIN, "dt": _SPECTRUM["dt"],
                  "seed": _SPECTRUM["seed"], "t_end": 500.0, "dt_out": 0.5},
                 ("L", "out")),
    "lyap": ("compute one Lyapunov spectrum",
             {"out": None, **_DOMAIN, **_SPECTRUM, "scan_T": None, "system": None},
             ()),
    "sweep": ("sweep spectra over a grid of domain sizes",
              {"out": None, "bc": PERIODIC, "L_start": None, "L_end": None,
               "dL": 0.1, "kmax": DEFAULT_K_MAX, **_SPECTRUM, "workers": 1},
              ("L_start", "L_end", "out")),
    "fit": ("windowed stats, p-scan, and power-law fit",
            {"out": None, "results": None, "halfwidth": 1.0,
             "p_grid": "0.02:0.02:2.0", "L_centers": None},
            ("results", "out")),
    "dky": ("D_KY vs L table and linear fit",
            {"out": None, "results": None, "Lmin_fit": 80.0},
            ("results", "out")),
}


def _flag(option):
    return "--" + option.replace("_", "-")


def _read_config_file(path):
    known = {key for _, options, _ in COMMANDS.values() for key in options}
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise KslyapError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            name = key.replace("-", "_")
            if name not in known:
                raise KslyapError(f"{path}:{lineno}: unknown key {key!r}")
            values[name] = value
    return values


def _effective(args, options=None):
    """The command's options (or ``options``, {option: default}) merged from
    defaults, config file and explicit flags, in that order; a required
    option still missing is an error."""
    _, table, requires = COMMANDS[args.command]
    file_values = _read_config_file(args.config) if args.config else {}
    cfg = {}
    for key, default in (options or table).items():
        value = getattr(args, key)
        cfg[key] = file_values.get(key, default) if value is None else value
    if any(not cfg[key] for key in requires):
        flags = [_flag(key) for key in requires]
        raise KslyapError(f"{args.command} requires {', '.join(flags[:-1])} "
                          f"and {flags[-1]}")
    return cfg


def _lyap_config(cfg):
    return LyapunovConfig(**{key: type(default)(cfg[key])
                             for key, default in _SPECTRUM.items()})


def _meta_lines(cmd, cfg):
    pairs = " ".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return [f"# kslyap {cmd}", f"# {pairs}"]


def _parse_grid(text):
    """The points of ``start:step:end`` (``analysis._grid``)."""
    fields = text.split(":")
    if len(fields) != 3:
        raise KslyapError(f"grid {text!r} must be start:step:end")
    start, step, end = (float(v) for v in fields)
    if not step > 0 or not end >= start:
        raise KslyapError(f"grid {text!r} needs step > 0 and end >= start")
    return analysis._grid(start, step, end)


def cmd_simulate(args):
    cfg = _effective(args)
    t_end, dt_out = float(cfg["t_end"]), float(cfg["dt_out"])
    if not np.isfinite([t_end, dt_out]).all():
        raise KslyapError("simulate needs finite --t-end and --dt-out")
    if not dt_out > 0 or not t_end >= 0:
        raise KslyapError("simulate needs --dt-out > 0 and --t-end >= 0")
    model = make_model(cfg["bc"], float(cfg["L"]), float(cfg["kmax"]))
    dt = float(cfg["dt"])
    state = initial_state(model, int(cfg["seed"]))
    times = analysis._grid(0.0, dt_out, t_end)
    x, _ = model.to_physical(state)
    lines = _meta_lines("simulate", cfg)
    lines.append("t," + ",".join(_g17(v) for v in x))
    for i, t in enumerate(times):
        if i:
            # the system is autonomous: every interval is walked from 0, so
            # each one takes the same steps (and the same remainder stepper)
            try:
                state = integrate(model, state, dt_out, dt)
            except IntegrationBlowUp as exc:
                raise IntegrationBlowUp(times[i - 1] + exc.time) from None
        _, u = model.to_physical(state)
        lines.append(_g17(t) + "," + ",".join(_g17(v) for v in u))
    write_lines(cfg["out"], lines)
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
    cfg = _effective(args)
    if cfg["system"]:
        system, dt = _oracle_system(cfg["system"])
        # the oracle's step unless a flag or the config file sets dt; no
        # domain, boundary condition or resolution applies, so none is echoed
        options = {k: v for k, v in COMMANDS["lyap"][1].items() if k not in _DOMAIN}
        cfg = _effective(args, {**options, "dt": dt})
        cfg["m"] = min(int(cfg["m"]), system.dim)
        bc, L = cfg["system"], float("nan")
    else:
        if cfg["L"] is None:
            raise KslyapError("lyap requires --L (or --system)")
        bc, L = cfg["bc"], float(cfg["L"])
        system = make_model(bc, L, float(cfg["kmax"]))
    lyap = _lyap_config(cfg)

    if cfg["scan_T"]:
        T_values = np.array([float(v) for v in str(cfg["scan_T"]).split(",")])
        T_values, rows = scan_reorthonormalization_interval(system, lyap, T_values)
        lines = _meta_lines("lyap --scan-T", cfg)
        lines.append("T," + ",".join(f"lambda_{i}" for i in range(1, lyap.m + 1)))
        for T, row in zip(T_values, rows):
            lines.append(_g17(T) + "," + ",".join(_g17(v) for v in row))
        if cfg["out"]:
            write_lines(cfg["out"], lines)
        print("\n".join(lines))
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
        write_lines(cfg["out"], lines)
    return 0


def cmd_sweep(args):
    cfg = _effective(args)
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


def _read_results(cfg):
    """The records of the sweep CSVs ``--results`` names; none is an error."""
    records = [rec for path in str(cfg["results"]).split(",")
               for rec in read_records(path)]
    if not records:
        raise InsufficientData(f"no data rows in {cfg['results']}")
    return records


def cmd_fit(args):
    cfg = _effective(args)
    p_grid = _parse_grid(str(cfg["p_grid"]))
    records = _read_results(cfg)
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
    p_grid, rms, mad, best_p = analysis.scan_exponent_p(stats, p_grid)
    best_fit = analysis.fit_power_law(stats, best_p)
    unit_fit = analysis.fit_power_law(stats, 1.0)

    out = str(cfg["out"])
    meta = _meta_lines("fit", cfg)
    write_lines(out + "_stats.csv", meta + ["L,i,median,mad,count"] + [
        f"{_g17(s.L_center)},{s.index},{_g17(s.median)},{_g17(s.mad)},{s.count}"
        for s in stats])
    write_lines(out + "_pscan.csv", meta + ["p,rms,mad"] + [
        f"{_g17(p)},{_g17(r)},{_g17(d)}" for p, r, d in zip(p_grid, rms, mad)])
    write_lines(out + "_fit.csv", meta + ["which,a,b,c,p,rms,mad,n_points"] + [
        f"{name},{_g17(f.a)},{_g17(f.b)},{_g17(f.c)},{_g17(f.p)},"
        f"{_g17(f.rms_residual)},{_g17(f.mad_residual)},{f.n_points}"
        for name, f in (("best", best_fit), ("p1", unit_fit))])
    print(f"best p = {best_p:g}; fit at p=1: a={unit_fit.a:.4f} "
          f"b={unit_fit.b:.4f} c={unit_fit.c:.4f}")
    return 0


def cmd_dky(args):
    cfg = _effective(args)
    records = sorted(_read_results(cfg), key=lambda r: r.L)
    # an unsaturated row's D_KY is clipped to m, so like a failed row it stays
    # in the table but not in the fit
    L_min = float(cfg["Lmin_fit"])
    usable = [r for r in records if not r.flags & {"failed", "unsaturated"}]
    unsaturated = sum("unsaturated" in r.flags for r in records if r.L >= L_min)
    note = f"; unsaturated rows left out: {unsaturated}" if unsaturated else ""
    try:
        slope, intercept, rms = analysis.fit_dky_linear(usable, L_min)
    except InsufficientData as exc:
        raise InsufficientData(f"{exc}{note}") from None
    lines = _meta_lines("dky", cfg)
    lines.append(f"# fit: slope={_g17(slope)} intercept={_g17(intercept)} rms={_g17(rms)}"
                 f"{note}")
    lines.append("L,dky,flag")
    for r in records:
        lines.append(f"{_g17(r.L)},{_g17(r.dky)},{r.flag}")
    write_lines(cfg["out"], lines)
    print(f"D_KY ~= {slope:.4f} L + {intercept:.4f} (rms {rms:.4f}, "
          f"L >= {cfg['Lmin_fit']}{note})")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kslyap",
        description="Kuramoto-Sivashinsky Lyapunov spectra and Kaplan-Yorke dimensions")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, options, _) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="flat key = value config file")
        for option in options:
            p.add_argument(_flag(option))
        # looked up here, not at import, so a wrapper that replaced a cmd_*
        # function in this module is the one called
        p.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KslyapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
