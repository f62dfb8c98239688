import numpy as np
import pytest

from kslyap import kaplan_yorke
from kslyap.cli import main


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


def test_lyap_oracle_diaglin(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    code, text, _ = run(["lyap", "--system", "diaglin", "--tau", "0",
                         "--T", "1", "--N", "50", "--out", str(out)], capsys)
    assert code == 0
    values = [float(ln.split()[1]) for ln in text.splitlines()
              if ln.startswith("lambda_")]
    assert np.allclose(values, [0.3, -0.1, -2.0], atol=1e-3)
    data = [ln for ln in out.read_text().split("\n") if ln and not ln.startswith("#")]
    assert data[0] == "L,bc,seed,flag,dky,j,lambda_1,lambda_2,lambda_3"
    cells = data[1].split(",")
    assert cells[1] == "diaglin"
    lam = np.array([float(v) for v in cells[6:]])
    assert abs(float(cells[4]) - kaplan_yorke(lam).dimension) < 1e-12


def _lyap_file(path):
    """(settings echoed on the metadata line, the data row's cells)."""
    lines = path.read_text().split("\n")
    echo = dict(pair.split("=", 1) for pair in lines[1][2:].split())
    return echo, lines[3].split(",")


def test_lyap_oracle_dt_flag_is_used_and_echoed(tmp_path, capsys):
    argv = ["lyap", "--system", "lorenz", "--tau", "1", "--T", "0.5", "--N", "4"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--dt", "0.001", "--out", str(b)]) == 0
    capsys.readouterr()
    echo_a, row_a = _lyap_file(a)
    echo_b, row_b = _lyap_file(b)
    assert (echo_a["dt"], echo_a["m"]) == ("0.005", "3")  # the oracle's defaults
    assert (echo_b["dt"], echo_b["m"]) == ("0.001", "3")
    assert row_a[6:] != row_b[6:]


def test_lyap_config_file_dt_overrides_the_oracle_step(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("dt = 0.001\n")
    out = tmp_path / "a.csv"
    assert main(["lyap", "--system", "lorenz", "--config", str(cfgfile), "--tau", "1",
                 "--T", "0.5", "--N", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert _lyap_file(out)[0]["dt"] == "0.001"


def test_lyap_row_flags_match_a_sweep_row(tmp_path, capsys):
    # two exponents summing to 0.2 > 0: D_KY = j = m, which a sweep flags
    out = tmp_path / "m2.csv"
    code, _, _ = run(["lyap", "--system", "diaglin", "--m", "2", "--tau", "0",
                      "--T", "1", "--N", "10", "--out", str(out)], capsys)
    assert code == 0
    _, cells = _lyap_file(out)
    assert cells[3] == "unsaturated" and cells[5] == "2"


def test_lyap_oracle_lorenz_scan_T(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, _, _ = run(["lyap", "--system", "lorenz", "--m", "3", "--tau", "5",
                      "--N", "40", "--scan-T", "0.25,0.5", "--out", str(out)], capsys)
    assert code == 0
    data = [ln for ln in out.read_text().split("\n") if ln and not ln.startswith("#")]
    assert data[0] == "T,lambda_1,lambda_2,lambda_3"
    rows = np.array([[float(v) for v in ln.split(",")] for ln in data[1:]])
    assert rows.shape == (2, 4)
    assert np.all(np.isfinite(rows))


def test_lyap_requires_L_or_system(capsys):
    code, _, err = run(["lyap"], capsys)
    assert code == 1 and "error" in err


def test_sweep_bad_range_exits_nonzero(tmp_path, capsys):
    code, _, err = run(["sweep", "--L-start", "12", "--L-end", "10",
                        "--out", str(tmp_path / "s.csv")], capsys)
    assert code == 1 and "error" in err


def test_sweep_and_dky_round_trip(tmp_path, capsys):
    out = tmp_path / "s.csv"
    argv = ["sweep", "--L-start", "10", "--L-end", "12", "--dL", "1",
            "--m", "2", "--tau", "5", "--T", "0.5", "--N", "5",
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
    """Sweep CSV whose exponents follow the planted power law exactly."""
    from kslyap.sweep import SpectrumRecord, header_row, record_to_row
    rows = ["# synthetic", header_row(m)]
    if Ls is None:
        Ls = [round(55 + 10 * j + 0.1 * k, 10) for j in range(5) for k in range(-10, 11)]
    for L in Ls:
        lam = np.array([a + (b + c * i) / L**p for i in range(1, m + 1)])
        lam = np.sort(lam)[::-1]
        ky = kaplan_yorke(lam)
        rec = SpectrumRecord(L=float(L), bc="periodic", seed=0, exponents=lam,
                             dky=ky.dimension, j=ky.j)
        rows.append(record_to_row(rec))
    path.write_text("\n".join(rows) + "\n")


def test_fit_recovers_planted_power_law(tmp_path, capsys):
    results = tmp_path / "synth.csv"
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


def test_dky_synthetic_slope(tmp_path, capsys):
    results = tmp_path / "synth.csv"
    # dky = j + f by construction: j positive exponents then a sharp drop
    from kslyap.sweep import SpectrumRecord, header_row, record_to_row
    rows = ["# synthetic", header_row(4)]
    for L, j, f in ((80.0, 2, 0.5), (90.0, 3, 0.75)):
        lam = np.array([0.01] * j + [-0.01 * j / f] + [-5.0] * (3 - j))
        ky = kaplan_yorke(lam)
        assert ky.dimension == pytest.approx(j + f)
        rec = SpectrumRecord(L=L, bc="periodic", seed=0, exponents=lam,
                             dky=ky.dimension, j=ky.j)
        rows.append(record_to_row(rec))
    results.write_text("\n".join(rows) + "\n")
    out = tmp_path / "d.csv"
    code, text, _ = run(["dky", "--results", str(results), "--Lmin-fit", "80",
                         "--out", str(out)], capsys)
    assert code == 0
    fit_line = [ln for ln in out.read_text().split("\n") if ln.startswith("# fit:")][0]
    slope = float(fit_line.split("slope=")[1].split()[0])
    assert slope == pytest.approx((3.75 - 2.5) / 10.0, abs=1e-12)


@pytest.mark.parametrize("tail", [
    lambda cells: ",".join(cells[:1] + [cells[1][:3]]),        # inside bc
    lambda cells: ",".join(cells[:3] + [cells[3][:1]]),        # inside flag
    lambda cells: ",".join(cells[:-1] + [cells[-1][:4]]),      # inside the last exponent
    lambda cells: ",".join(cells[:-1]) + "\n",                 # a whole cell short
], ids=["bc", "flag", "exponent", "short"])
def test_dky_refuses_a_torn_last_row(tmp_path, capsys, tail):
    results = tmp_path / "synth.csv"
    _write_synthetic_sweep(results, Ls=[80.0, 90.0, 100.0])
    head, last = results.read_text().rstrip("\n").rsplit("\n", 1)
    results.write_text(head + "\n" + tail(last.split(",")))
    code, _, err = run(["dky", "--results", str(results), "--Lmin-fit", "80",
                        "--out", str(tmp_path / "d.csv")], capsys)
    assert code == 1
    assert err.startswith("error: ") and f"{results}:5:" in err
    assert "Traceback" not in err


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
