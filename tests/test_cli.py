import argparse
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import kslyap
from kslyap import IntegrationBlowUp, LyapunovConfig, cli, kaplan_yorke
from kslyap.cli import main
from kslyap.sweep import (SpectrumRecord, fingerprint, point_settings, read_records,
                          record_line, spectrum_record, write_records)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_simulate_initial_condition_only(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code, _, _ = run(["simulate", "--bc", "periodic", "--L", "22",
                      "--t-end", "0", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().split("\n")
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0].startswith("t,")
    assert len(data) == 2  # header + t=0 row
    assert data[1].split(",")[0] == "0"


def test_simulate_rerun_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    argv = ["simulate", "--bc", "odd", "--L", "18", "--t-end", "2",
            "--dt-out", "1", "--out", str(a)]
    assert main(argv) == 0
    first = a.read_bytes()
    assert main(argv) == 0
    capsys.readouterr()
    assert a.read_bytes() == first


def test_simulate_row_count_and_grid(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code, _, _ = run(["simulate", "--L", "22", "--t-end", "5", "--dt-out", "1",
                      "--out", str(out)], capsys)
    assert code == 0
    data = [ln for ln in out.read_text().split("\n") if ln and not ln.startswith("#")]
    assert len(data) == 7  # x header + t = 0..5
    x = np.array([float(v) for v in data[0].split(",")[1:]])
    assert x[0] == 0.0 and x[-1] < 22.0
    times = [float(ln.split(",")[0]) for ln in data[1:]]
    assert times == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_simulate_writes_no_sample_past_t_end(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code, _, _ = run(["simulate", "--L", "22", "--t-end", "1.1", "--dt-out", "0.4",
                      "--out", str(out)], capsys)
    assert code == 0
    data = [ln for ln in out.read_text().split("\n") if ln and not ln.startswith("#")]
    assert [float(ln.split(",")[0]) for ln in data[1:]] == [0.0, 0.4, 0.8]


@pytest.mark.parametrize("grid", [["--dt-out", "0"], ["--dt-out", "-0.5"],
                                  ["--t-end", "-1"]], ids=" ".join)
def test_simulate_refuses_an_output_grid_that_does_not_step_forward(tmp_path, capsys, grid):
    out = tmp_path / "sim.csv"
    code, _, err = run(["simulate", "--L", "22", "--out", str(out)] + grid, capsys)
    assert code == 1
    assert err == "error: simulate needs --dt-out > 0 and --t-end >= 0\n"
    assert not out.exists()


TINY = ["--m", "4", "--tau", "0", "--T", "0.05", "--N", "1"]


@pytest.mark.parametrize("argv", [
    ["lyap", "--L", "inf"] + TINY,
    ["lyap", "--L", "22", "--kmax", "inf"] + TINY,
    ["lyap", "--L", "22", "--kmax", "nan"] + TINY,
    ["lyap", "--L", "22"] + TINY + ["--tau", "inf"],
    ["lyap", "--L", "22"] + TINY + ["--T", "inf"],
    ["simulate", "--L", "22", "--t-end", "inf"],
    ["simulate", "--L", "22", "--dt-out", "nan"],
    ["simulate", "--L", "22", "--t-end", "1", "--dt", "inf"],
    ["sweep", "--L-start", "22", "--L-end", "inf"] + TINY,
    ["sweep", "--L-start", "22", "--L-end", "23", "--dL", "nan"] + TINY,
    ["sweep", "--L-start", "22", "--L-end", "22", "--kmax", "inf"] + TINY,
], ids=" ".join)
def test_a_non_finite_value_is_refused_before_any_file_is_written(tmp_path, capsys, argv):
    code, _, err = run(argv + ["--out", str(tmp_path / "out.csv")], capsys)
    assert code == 1
    assert err.startswith("error: ") and "finite" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bc, L, floor", [("periodic", "0.1", "n_modes=1 < 4"),
                                           ("odd", "0.4", "n_interior=1 < 2")])
def test_lyap_refuses_a_grid_below_the_floor(tmp_path, capsys, bc, L, floor):
    out = tmp_path / "out.csv"
    code, _, err = run(["lyap", "--bc", bc, "--L", L, "--m", "1", "--tau", "0",
                        "--T", "0.05", "--N", "1", "--out", str(out)], capsys)
    assert code == 1 and err.startswith(f"error: {floor} for L={L}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bc", ["periodic", "odd"])
def test_lyap_refuses_a_huge_domain_at_once(tmp_path, bc):
    # the grid sizes of L = 1e300 are found in a few products (the periodic
    # padded grid too) and exceed numpy's array size: exit 1 with an error
    # line.  Run in a subprocess with a timeout, so that a hang fails the
    # test instead of the suite.
    src = os.path.dirname(os.path.dirname(os.path.abspath(kslyap.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "kslyap.cli", "lyap", "--bc", bc, "--L", "1e300",
         "--m", "4", "--tau", "0", "--T", "0.05", "--N", "1"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == "error: Maximum allowed size exceeded\n"


def test_simulate_reports_the_blow_up_time(tmp_path, monkeypatch, capsys):
    # each output interval is walked from t = 0; a blow-up in the third one,
    # 0.25 into it, is reported at t = 2.25
    walks = []

    def blow_up(system, state, t, dt):
        walks.append(t)
        if len(walks) == 3:
            raise IntegrationBlowUp(0.25)
        return state

    monkeypatch.setattr(cli, "integrate", blow_up)
    code, _, err = run(["simulate", "--L", "22", "--t-end", "5", "--dt-out", "1",
                        "--out", str(tmp_path / "sim.csv")], capsys)
    assert code == 1 and "t=2.25" in err
    assert walks == [1.0] * 3


def _lyap_file(path):
    """(settings echoed on the metadata line, the one record); an echoed
    value may hold spaces (the NUMERICS entry's)."""
    echo = dict(re.findall(r"(\w+)=(.*?)(?= \w+=|$)", path.read_text().split("\n")[1][2:]))
    [rec] = read_records(path)
    return echo, rec


def test_lyap_ks_echo_keeps_the_domain(tmp_path, capsys):
    out = tmp_path / "ks.jsonl"
    assert main(["lyap", "--L", "22", "--m", "2", "--tau", "0", "--T", "0.5", "--N", "1",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    echo, _ = _lyap_file(out)
    assert (echo["L"], echo["bc"], echo["k_max"]) == ("22.0", "periodic", "9.0")


def test_lyap_row_flags_match_a_sweep_row(tmp_path, capsys):
    # no burn-in: the two fastest-growing modes of L=22 give two positive
    # exponents, so D_KY = j = m, which a sweep flags
    settings = ["--m", "2", "--tau", "0", "--T", "1", "--N", "10"]
    lyap, sweep = tmp_path / "m2.jsonl", tmp_path / "s.jsonl"
    assert main(["lyap", "--L", "22", "--out", str(lyap)] + settings) == 0
    assert main(["sweep", "--L-start", "22", "--L-end", "22", "--out", str(sweep)]
                + settings) == 0
    capsys.readouterr()
    _, rec = _lyap_file(lyap)
    assert rec.flag == "unsaturated" and rec.j == 2
    [swept] = read_records(sweep)
    assert swept.flag == rec.flag and swept.j == rec.j


#: Each subcommand's flags after -h, --help and --config, in help order.
FLAGS = {
    "simulate": "--out --bc --L --kmax --dt --seed --t-end --dt-out",
    "lyap": "--out --bc --L --kmax --m --tau --T --N --epsilon --seed --dt",
    "sweep": "--out --bc --L-start --L-end --dL --kmax --m --tau --T --N --epsilon "
             "--seed --dt --workers",
    "fit": "--out --results --halfwidth --p-grid --L-centers",
    "dky": "--out --results --Lmin-fit",
}


def test_each_subcommand_takes_exactly_its_flags():
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(action.choices) == list(FLAGS)
    for name, sub in action.choices.items():
        flags = [flag for a in sub._actions for flag in a.option_strings]
        assert flags == ["-h", "--help", "--config"] + FLAGS[name].split()


@pytest.mark.parametrize("argv", [
    # the shapes of the benchmark's calls (bench/run.py)
    ["lyap", "--bc", "odd", "--L", "100", "--m", "24", "--seed", "0", "--out", "s.csv",
     "--T", "2", "--N", "75", "--tau", "150", "--dt", "0.05", "--kmax", "9",
     "--epsilon", "1e-6"],
    ["lyap", "--m", "1", "--T", "0.05", "--N", "1", "--tau", "0", "--seed", "0",
     "--bc", "periodic", "--L", "100", "--dt", "0.05", "--kmax", "9", "--epsilon", "1e-6"],
    ["sweep", "--L-end", "21.9", "--bc", "periodic", "--m", "12", "--dL", "0.1",
     "--workers", "1", "--seed", "0", "--out", "w.csv", "--L-start", "21.7",
     "--T", "2", "--N", "3", "--tau", "6", "--dt", "0.05", "--kmax", "9",
     "--epsilon", "1e-6"],
    ["dky", "--results", "w.csv", "--Lmin-fit", "0", "--out", "d.csv"],
])
def test_the_benchmark_command_lines_parse(argv):
    args = cli.build_parser().parse_args(argv)
    assert args.func is getattr(cli, f"cmd_{argv[0]}")


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--L", "22"], "simulate requires --L and --out"),
    (["sweep", "--L-start", "1", "--out", "s.csv"],
     "sweep requires --L-start, --L-end and --out"),
    (["fit", "--out", "f"], "fit requires --results and --out"),
    (["dky", "--results", "s.csv"], "dky requires --results and --out"),
    (["lyap"], "lyap requires --L"),
])
def test_a_missing_required_option_is_named(capsys, argv, message):
    assert run(argv, capsys) == (1, "", f"error: {message}\n")


def test_sweep_bad_range_exits_nonzero(tmp_path, capsys):
    code, _, err = run(["sweep", "--L-start", "12", "--L-end", "10",
                        "--out", str(tmp_path / "s.jsonl")], capsys)
    assert code == 1 and "error" in err


@pytest.mark.parametrize("bc, L, m", [("periodic", "22", "80"), ("odd", "1", "24")])
def test_sweep_configuration_error_is_an_error_not_a_failed_row(tmp_path, capsys,
                                                                bc, L, m):
    out = tmp_path / "s.jsonl"
    settings = ["--bc", bc, "--m", m, "--tau", "1", "--T", "0.5", "--N", "2"]
    sweep = ["sweep", "--L-start", L, "--L-end", L, "--out", str(out)] + settings
    code, _, err = run(sweep, capsys)
    assert (code, err) == run(["lyap", "--L", L] + settings, capsys)[::2]
    assert code == 1 and "exceeds system dimension" in err
    assert not out.exists()
    # nothing was recorded as done: a rerun meets the same error
    assert run(sweep, capsys)[::2] == (code, err)


def test_sweep_refuses_an_unknown_bc_before_writing_a_file(tmp_path, capsys):
    code, out, err = run(["sweep", "--bc", "rigid", "--L-start", "22", "--L-end", "22",
                          "--out", str(tmp_path / "s.jsonl")], capsys)
    assert (code, out, err) == (1, "", "error: bc must be 'periodic' or 'odd'\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad, fixed", [
    (["--L-start", "0", "--L-end", "5", "--dL", "5"], ["--L-start", "5", "--L-end", "5"]),
    (["--L-start", "22", "--L-end", "22", "--kmax", "0.1"],
     ["--L-start", "22", "--L-end", "22"]),
    (["--L-start", "5", "--L-end", "5", "--m", "40"],
     ["--L-start", "5", "--L-end", "5", "--m", "4"]),
    (["--bc", "odd", "--L-start", "0.4", "--L-end", "0.4", "--m", "1"],
     ["--bc", "odd", "--L-start", "5", "--L-end", "5", "--m", "1"])])
def test_sweep_refuses_a_bad_setting_before_writing_a_file(tmp_path, capsys, bad, fixed):
    # an L that is not positive, a k_max below the periodic floor, an m above
    # the dimension (17 at L=5), a grid below the odd model's floor (one
    # interior point at L=0.4): no file is left to refuse the corrected run
    out = tmp_path / "s.jsonl"
    settings = ["--tau", "1", "--T", "0.5", "--N", "2", "--out", str(out)]
    code, _, err = run(["sweep", "--m", "4"] + bad + settings, capsys)
    assert code == 1 and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []
    assert run(["sweep", "--m", "4"] + fixed + settings, capsys)[0] == 0
    assert len(read_records(out)) == 1


def test_sweep_and_dky_round_trip(tmp_path, capsys):
    out = tmp_path / "s.jsonl"
    # m=4: every row's D_KY saturates, so all three enter the dky fit
    argv = ["sweep", "--L-start", "10", "--L-end", "12", "--dL", "1",
            "--m", "4", "--tau", "5", "--T", "0.5", "--N", "5",
            "--out", str(out)]
    code, text, _ = run(argv, capsys)
    assert code == 0
    assert "3 records" in text
    # rerun resumes without recomputing; file unchanged
    before = out.read_bytes()
    code, text, _ = run(argv, capsys)
    assert code == 0 and out.read_bytes() == before

    dky_out = tmp_path / "d.csv"
    code, text, _ = run(["dky", "--results", str(out), "--Lmin-fit", "9",
                         "--out", str(dky_out)], capsys)
    assert code == 0
    data = [ln for ln in dky_out.read_text().split("\n") if ln]
    assert "L,dky,flag" in data
    assert any(ln.startswith("# fit:") for ln in data)


def _write_synthetic_sweep(path, m=6, Ls=None, a=0.093, b=0.367, c=-0.94, p=1.0):
    """Record file whose exponents follow the planted power law exactly."""
    records = []
    if Ls is None:
        Ls = [round(55 + 10 * j + 0.1 * k, 10) for j in range(5) for k in range(-10, 11)]
    for L in Ls:
        lam = np.array([a + (b + c * i) / L**p for i in range(1, m + 1)])
        lam = np.sort(lam)[::-1]
        ky = kaplan_yorke(lam)
        records.append(SpectrumRecord(L=float(L), bc="periodic", seed=0, exponents=lam,
                                      dky=ky.dimension, j=ky.j))
    write_records(str(path), {"synthetic": "power law"}, records)


def test_fit_recovers_planted_power_law(tmp_path, capsys):
    results = tmp_path / "synth.jsonl"
    _write_synthetic_sweep(results)
    out = tmp_path / "fit"
    code, text, _ = run(["fit", "--results", str(results),
                         "--L-centers", "55,65,75,85,95",
                         "--out", str(out)], capsys)
    assert code == 0
    fit_lines = [ln for ln in (tmp_path / "fit_fit.csv").read_text().split("\n")
                 if ln and not ln.startswith("#") and not ln.startswith("which")]
    by_name = {ln.split(",")[0]: ln.split(",") for ln in fit_lines}
    assert abs(float(by_name["best"][4]) - 1.0) <= 0.02 + 1e-12
    assert abs(float(by_name["p1"][1]) - 0.093) < 1e-6
    assert abs(float(by_name["p1"][3]) - (-0.94)) < 1e-6
    pscan = [ln for ln in (tmp_path / "fit_pscan.csv").read_text().split("\n")
             if ln and not ln.startswith("#") and not ln.startswith("p,")]
    assert len(pscan) == 100
    stats = [ln for ln in (tmp_path / "fit_stats.csv").read_text().split("\n")
             if ln and not ln.startswith("#") and not ln.startswith("L,")]
    assert len(stats) == 5 * 6


def test_fit_scans_no_p_past_the_grid_end(tmp_path, capsys):
    results = tmp_path / "synth.jsonl"
    _write_synthetic_sweep(results)
    code, _, _ = run(["fit", "--results", str(results), "--p-grid", "0.1:0.35:1.0",
                      "--out", str(tmp_path / "fit")], capsys)
    assert code == 0
    pscan = [ln for ln in (tmp_path / "fit_pscan.csv").read_text().split("\n")
             if ln and not ln.startswith("#") and not ln.startswith("p,")]
    assert [float(ln.split(",")[0]) for ln in pscan] == [0.1, 0.45, 0.8]


@pytest.mark.parametrize("grid", ["0:0:2", "2:0.02:1", "1:2", "1:2:3:4"])
def test_fit_refuses_a_grid_that_does_not_step_forward(tmp_path, capsys, grid):
    results = tmp_path / "synth.jsonl"
    _write_synthetic_sweep(results)
    code, _, err = run(["fit", "--results", str(results), "--p-grid", grid,
                        "--out", str(tmp_path / "fit")], capsys)
    assert code == 1
    if grid.count(":") == 2:
        assert err == f"error: grid {grid!r} needs step > 0 and end >= start\n"
    else:
        assert err == f"error: grid {grid!r} must be start:step:end\n"
    assert not (tmp_path / "fit_pscan.csv").exists()


def _failed_rows(Ls, m=6):
    return [record_line(SpectrumRecord(
        L=L, bc="periodic", seed=0, exponents=np.full(m, np.nan), dky=np.nan, j=0,
        flags=frozenset({"failed"}))) + "\n" for L in Ls]


@pytest.mark.parametrize("command", ["fit", "dky"])
def test_results_without_a_data_row_are_refused_by_name(tmp_path, capsys, command):
    results = tmp_path / "empty.jsonl"
    write_records(str(results), {"synthetic": "no record"}, [])
    code, _, err = run([command, "--results", str(results),
                        "--out", str(tmp_path / "out")], capsys)
    assert (code, err) == (1, f"error: no data rows in {results}\n")
    assert list(tmp_path.iterdir()) == [results]


def test_every_output_file_is_written_through_one_helper(tmp_path, monkeypatch, capsys):
    # each output replaces its path whole (sweep.write_lines), so a command
    # cut short leaves no torn file
    written = []

    def spy(path, lines):
        written.append(str(path).removeprefix(f"{tmp_path}/"))
        write_lines(path, lines)

    from kslyap.sweep import write_lines
    results = tmp_path / "synth.jsonl"
    _write_synthetic_sweep(results)
    # lyap --out writes through sweep.write_records, which calls sweep's name
    monkeypatch.setattr(cli, "write_lines", spy)
    monkeypatch.setattr(kslyap.sweep, "write_lines", spy)
    for argv, out in [
            (["simulate", "--L", "22", "--t-end", "0"], "sim.csv"),
            (["lyap", "--L", "22"] + TINY, "lyap.jsonl"),
            (["fit", "--results", str(results)], "fit"),
            (["dky", "--results", str(results)], "dky.csv")]:
        assert main(argv + ["--out", str(tmp_path / out)]) == 0
    assert written == ["sim.csv", "lyap.jsonl", "fit_stats.csv",
                       "fit_pscan.csv", "fit_fit.csv", "dky.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(written + ["synth.jsonl"])


def test_fit_leaves_failed_rows_out_of_the_windows(tmp_path, capsys):
    clean, mixed = tmp_path / "clean.jsonl", tmp_path / "mixed.jsonl"
    _write_synthetic_sweep(clean)
    mixed.write_text(clean.read_text() + "".join(_failed_rows([65.05, 85.0, 95.1])))
    stats = {}
    for name, results in (("clean", clean), ("mixed", mixed)):
        code, _, _ = run(["fit", "--results", str(results), "--L-centers",
                          "55,65,75,85,95", "--out", str(tmp_path / name)], capsys)
        assert code == 0
        text = (tmp_path / f"{name}_stats.csv").read_text()
        stats[name] = [ln for ln in text.split("\n") if not ln.startswith("#")]
    assert "nan" not in "\n".join(stats["mixed"])
    assert stats["mixed"] == stats["clean"]


def _write_dky_rows(path, rows):
    """Record file of (L, j, f) rows with D_KY = j + f, m=4; f=None makes the
    row unsaturated (all four exponents positive, D_KY clipped to 4)."""
    records = []
    for L, j, f in rows:
        if f is None:
            lam = np.array([0.04, 0.03, 0.02, 0.01])
        else:
            lam = np.array([0.01] * j + [-0.01 * j / f] + [-5.0] * (3 - j))
        records.append(spectrum_record(L, "periodic", 0, lam))
    write_records(str(path), {"synthetic": "dky rows"}, records)


def test_dky_leaves_unsaturated_rows_out_of_the_fit(tmp_path, capsys):
    results, out = tmp_path / "synth.jsonl", tmp_path / "d.csv"
    _write_dky_rows(results, [(80.0, 2, 0.5), (85.0, 0, None), (90.0, 3, 0.75),
                              (95.0, 0, None)])
    code, text, _ = run(["dky", "--results", str(results), "--Lmin-fit", "80",
                         "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().split("\n")
    fit_line = [ln for ln in lines if ln.startswith("# fit:")][0]
    slope = float(fit_line.split("slope=")[1].split()[0])
    assert slope == pytest.approx((3.75 - 2.5) / 10.0, abs=1e-12)
    assert fit_line.endswith("; unsaturated rows left out: 2")
    assert "unsaturated rows left out: 2" in text
    assert sum(ln.endswith(",unsaturated") for ln in lines) == 2


def test_dky_refuses_a_fit_of_fewer_than_two_saturated_rows(tmp_path, capsys):
    results, out = tmp_path / "synth.jsonl", tmp_path / "d.csv"
    _write_dky_rows(results, [(80.0, 2, 0.5), (85.0, 0, None), (90.0, 0, None)])
    code, _, err = run(["dky", "--results", str(results), "--Lmin-fit", "80",
                        "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("error: ") and "unsaturated rows left out: 2" in err
    assert not out.exists()


def test_dky_synthetic_slope(tmp_path, capsys):
    results = tmp_path / "synth.jsonl"
    # dky = j + f by construction: j positive exponents then a sharp drop
    records = []
    for L, j, f in ((80.0, 2, 0.5), (90.0, 3, 0.75)):
        lam = np.array([0.01] * j + [-0.01 * j / f] + [-5.0] * (3 - j))
        ky = kaplan_yorke(lam)
        assert ky.dimension == pytest.approx(j + f)
        records.append(SpectrumRecord(L=L, bc="periodic", seed=0, exponents=lam,
                                      dky=ky.dimension, j=ky.j))
    write_records(str(results), {"synthetic": "dky slope"}, records)
    out = tmp_path / "d.csv"
    code, text, _ = run(["dky", "--results", str(results), "--Lmin-fit", "80",
                         "--out", str(out)], capsys)
    assert code == 0
    fit_line = [ln for ln in out.read_text().split("\n") if ln.startswith("# fit:")][0]
    slope = float(fit_line.split("slope=")[1].split()[0])
    assert slope == pytest.approx((3.75 - 2.5) / 10.0, abs=1e-12)


def _nan_L_row():
    """A record line of a spectrum of no KS domain: L is NaN."""
    return record_line(spectrum_record(float("nan"), "lorenz", 0,
                                       np.array([0.9, 0.0, -14.6])))


def test_fit_refuses_a_record_whose_L_is_no_domain_size(tmp_path, capsys):
    results = tmp_path / "synth.jsonl"
    _write_synthetic_sweep(results, Ls=[80.0, 90.0])
    results.write_text(results.read_text() + _nan_L_row() + "\n")
    code, _, err = run(["fit", "--results", str(results), "--out", str(tmp_path / "f")],
                       capsys)
    assert (code, err) == (1, f"error: {results}:5: L=nan is not a finite domain "
                              "size > 0\n")
    assert list(tmp_path.iterdir()) == [results]


@pytest.mark.parametrize("tail", [
    lambda line: line[:line.index('"bc": ') + 9],              # inside bc
    lambda line: line[:line.index('"flags": ') + 10],          # inside flags
    lambda line: line[:-4],                                    # inside the last exponent
    lambda line: line[:line.index(', "exponents"')] + "}\n",   # a whole key short
], ids=["bc", "flag", "exponent", "short"])
def test_dky_refuses_a_torn_last_row(tmp_path, capsys, tail):
    results = tmp_path / "synth.jsonl"
    _write_synthetic_sweep(results, Ls=[80.0, 90.0, 100.0])
    head, last = results.read_text().rstrip("\n").rsplit("\n", 1)
    results.write_text(head + "\n" + tail(last))
    code, _, err = run(["dky", "--results", str(results), "--Lmin-fit", "80",
                        "--out", str(tmp_path / "d.csv")], capsys)
    assert code == 1
    assert err.startswith("error: ") and f"{results}:5:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("line", [
    "80.0,periodic,0,ok,2.5,2",                         # a CSV row
    '{"L": 80.0, "bc": "periodic"}',                    # keys missing
    "extra",                                            # a key too many
    "flags",                                            # flags not a list
    "L-nan",                                            # no domain size
])
def test_dky_refuses_a_line_that_is_no_record(tmp_path, capsys, line):
    results = tmp_path / "synth.jsonl"
    _write_synthetic_sweep(results, Ls=[80.0, 90.0])
    if line == "L-nan":
        line = _nan_L_row()
    elif line == "extra":
        line = _failed_rows([100.0])[0][:-2] + ', "wall_time": 1.0}'
    elif line == "flags":
        line = _failed_rows([100.0])[0][:-1].replace('"flags": ["failed"]', '"flags": 3')
    results.write_text(results.read_text() + line + "\n")
    code, _, err = run(["dky", "--results", str(results), "--Lmin-fit", "80",
                        "--out", str(tmp_path / "d.csv")], capsys)
    assert code == 1
    assert err.startswith(f"error: {results}:5: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_lyap_out_is_the_record_file_of_its_settings(tmp_path, capsys):
    # the file an acceptance cache holds for the same job: one writer, and
    # the settings composed by one function
    out = tmp_path / "l22.jsonl"
    assert main(["lyap", "--L", "22", "--m", "3", "--tau", "1", "--T", "0.5", "--N", "2",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    lyap = LyapunovConfig(m=3, tau=1.0, T=0.5, N=2)
    settings = point_settings("periodic", 22.0, 9.0, lyap)
    result = kslyap.compute_spectrum(kslyap.make_model("periodic", 22.0, 9.0), lyap)
    expected = tmp_path / "expected.jsonl"
    write_records(str(expected), settings,
                  [spectrum_record(22.0, "periodic", 0, result.exponents)])
    assert out.read_bytes() == expected.read_bytes()
    assert out.read_text().startswith(f"# fingerprint={fingerprint(settings)}\n")


def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    cfgfile = tmp_path / "conf.txt"
    cfgfile.write_text("L = 22\nt-end = 0\n# comment\ndt-out = 1\n")
    out = tmp_path / "sim.csv"
    code, _, _ = run(["simulate", "--config", str(cfgfile), "--out", str(out)], capsys)
    assert code == 0
    data = [ln for ln in out.read_text().split("\n") if ln and not ln.startswith("#")]
    assert len(data) == 2  # t-end 0 taken from the file
    out2 = tmp_path / "sim2.csv"
    code, _, _ = run(["simulate", "--config", str(cfgfile), "--t-end", "2",
                      "--out", str(out2)], capsys)
    assert code == 0
    data2 = [ln for ln in out2.read_text().split("\n") if ln and not ln.startswith("#")]
    assert len(data2) == 4  # flag overrides the file: t = 0, 1, 2


def test_config_file_refuses_a_key_no_subcommand_takes(tmp_path, capsys):
    cfgfile = tmp_path / "conf.txt"
    cfgfile.write_text("L = 22\n\ntua = 5\n")
    out = tmp_path / "sim.csv"
    code, _, err = run(["simulate", "--config", str(cfgfile), "--out", str(out)], capsys)
    assert (code, err) == (1, f"error: {cfgfile}:3: unknown key 'tua'\n")
    assert not out.exists()


def test_one_config_file_serves_lyap_and_sweep(tmp_path, capsys):
    cfgfile = tmp_path / "conf.txt"
    cfgfile.write_text("L = 22\nL-start = 22\nL_end = 22\nm = 2\ntau = 0\n"
                       "T = 0.5\nN = 1\n")
    lyap, sweep = tmp_path / "l.jsonl", tmp_path / "s.jsonl"
    assert main(["lyap", "--config", str(cfgfile), "--out", str(lyap)]) == 0
    assert main(["sweep", "--config", str(cfgfile), "--out", str(sweep)]) == 0
    capsys.readouterr()
    # each run takes the keys it has and leaves the other's
    assert len(_lyap_file(lyap)[1].exponents) == 2
    [rec] = read_records(sweep)
    assert (rec.L, len(rec.exponents)) == (22.0, 2)


def test_config_file_rejects_garbage(tmp_path, capsys):
    cfgfile = tmp_path / "conf.txt"
    cfgfile.write_text("this is not a key value line\n")
    code, _, err = run(["simulate", "--config", str(cfgfile), "--L", "22",
                        "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 1 and "error" in err


def test_missing_results_file_exits_nonzero(tmp_path, capsys):
    code, _, err = run(["dky", "--results", str(tmp_path / "nope.csv"),
                        "--out", str(tmp_path / "d.csv")], capsys)
    assert code == 1 and "error" in err
