import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kslyap import (FingerprintMismatch, LyapunovConfig,
                    SpectrumRecord, SweepPlan, compute_point, kaplan_yorke,
                    lyapunov, read_records, run_sweep, sweep)
from kslyap.sweep import NUMERICS, _groups, record_line


def tiny_plan(tmp_path, name="out.jsonl", **kwargs):
    lyap = LyapunovConfig(m=2, tau=5.0, T=0.5, N=5, epsilon=1e-6, seed=42, dt=0.05)
    defaults = dict(L_start=10.0, L_end=12.0, dL=1.0, bc="periodic",
                    lyap=lyap, output_path=str(tmp_path / name), workers=1)
    defaults.update(kwargs)
    return SweepPlan(**defaults)


def test_grid_arithmetic(tmp_path):
    plan = tiny_plan(tmp_path)
    assert list(plan.grid()) == [10.0, 11.0, 12.0]
    assert list(tiny_plan(tmp_path, dL=0.1, L_start=10.0, L_end=10.25).grid()) == [10.0, 10.1, 10.2]


def test_plan_validation(tmp_path):
    with pytest.raises(ValueError):
        tiny_plan(tmp_path, L_start=5.0, L_end=4.0)
    with pytest.raises(ValueError):
        tiny_plan(tmp_path, dL=0.0)


@pytest.mark.parametrize("field", ["L_start", "L_end", "dL"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_plan_refuses_non_finite_values(tmp_path, field, value):
    with pytest.raises(ValueError, match="L_start, L_end and dL must be finite"):
        tiny_plan(tmp_path, **{field: value})


def test_run_sweep_produces_one_record_per_point(tmp_path):
    plan = tiny_plan(tmp_path)
    records = run_sweep(plan)
    assert len(records) == 3
    assert [r.L for r in records] == [10.0, 11.0, 12.0]
    assert all(r.bc == "periodic" for r in records)
    assert all(np.all(np.diff(r.exponents) <= 0) for r in records)
    first, echo = Path(plan.output_path).read_text().splitlines()[:2]
    assert first == f"# fingerprint={plan.fingerprint()}"
    assert echo.startswith("# L_end=12.0 L_start=10.0 ")
    assert list(tmp_path.iterdir()) == [tmp_path / "out.jsonl"]


def test_rerun_is_byte_identical(tmp_path):
    plan = tiny_plan(tmp_path)
    run_sweep(plan)
    first = Path(plan.output_path).read_bytes()
    run_sweep(plan)
    assert Path(plan.output_path).read_bytes() == first


def test_point_seeds_are_deterministic_and_distinct(tmp_path):
    plan = tiny_plan(tmp_path)
    seeds = [plan.point_seed(i) for i in range(3)]
    assert seeds == [plan.point_seed(i) for i in range(3)]
    assert len(set(seeds)) == 3
    other = tiny_plan(tmp_path, bc="odd")
    assert other.point_seed(0) != plan.point_seed(0)


def test_resume_computes_only_missing_points(tmp_path):
    plan = tiny_plan(tmp_path)
    run_sweep(plan)
    reference = Path(plan.output_path).read_text()
    # drop the middle record to simulate an interrupted sweep
    lines = reference.strip().split("\n")
    kept = [ln for ln in lines if not ln.startswith('{"L": 11.0,')]
    assert len(kept) == len(lines) - 1
    with open(plan.output_path, "w") as fh:
        fh.write("\n".join(kept) + "\n")
    records = run_sweep(plan)
    assert len(records) == 3
    assert Path(plan.output_path).read_text() == reference


@pytest.mark.parametrize("cell", [2, 7])
def test_resume_recomputes_a_torn_last_row(tmp_path, cell):
    # a write interrupted inside the last record's seed (cell 2, its third
    # key) or inside its last exponent (cell 7, lambda_2 of m=2)
    plan = tiny_plan(tmp_path)
    run_sweep(plan)
    with open(plan.output_path, "rb") as fh:
        reference = fh.read()
    head, last = reference.rstrip(b"\n").rsplit(b"\n", 1)
    start = last.index(b'"seed": ') + 8 if cell == 2 else last.rindex(b", ") + 2
    torn = last[:start + 3]
    with open(plan.output_path, "wb") as fh:
        fh.write(head + b"\n" + torn)
    records = run_sweep(plan)
    assert [len(r.exponents) for r in records] == [2, 2, 2]
    with open(plan.output_path, "rb") as fh:
        assert fh.read() == reference


def test_resume_with_nothing_missing_leaves_file_alone(tmp_path):
    plan = tiny_plan(tmp_path)
    run_sweep(plan)
    before = Path(plan.output_path).read_bytes()
    run_sweep(plan)
    assert Path(plan.output_path).read_bytes() == before


@pytest.mark.parametrize("change", ["epsilon", "dt", "k_max", "numerics"])
def test_fingerprint_mismatch_refuses_to_mix(tmp_path, monkeypatch, change):
    plan = tiny_plan(tmp_path)
    run_sweep(plan)
    if change == "epsilon":
        changed = replace(plan, lyap=replace(plan.lyap, epsilon=1e-5))
    elif change == "dt":
        changed = replace(plan, lyap=replace(plan.lyap, dt=0.025))
    elif change == "k_max":
        changed = replace(plan, k_max=8.0)
    else:
        # a later revision of the plan's boundary condition's numerics
        monkeypatch.setitem(NUMERICS, plan.bc, {**NUMERICS[plan.bc], "revision": "test"})
        changed = plan
    with pytest.raises(FingerprintMismatch):
        run_sweep(changed)


def test_resume_refuses_a_csv_without_its_fingerprint_line(tmp_path):
    plan = tiny_plan(tmp_path)
    run_sweep(plan)
    lines = Path(plan.output_path).read_text().splitlines(keepends=True)
    Path(plan.output_path).write_text("".join(lines[1:]))
    with pytest.raises(FingerprintMismatch):
        run_sweep(plan)


@pytest.mark.parametrize("L_start", [10.0, 10.5])
def test_resume_refuses_rows_of_another_grid(tmp_path, L_start):
    # rows 11 and 12 were grid indices 0 and 1; from L_start 10 they are
    # indices 1 and 2 (other seeds), from 10.5 they are off the grid
    run_sweep(tiny_plan(tmp_path, L_start=11.0))
    with pytest.raises(FingerprintMismatch):
        run_sweep(tiny_plan(tmp_path, L_start=L_start))


def test_resume_to_a_larger_L_end_keeps_rows(tmp_path):
    run_sweep(tiny_plan(tmp_path, L_end=11.0))
    run_sweep(tiny_plan(tmp_path))
    run_sweep(tiny_plan(tmp_path, name="fresh.jsonl"))
    with open(tmp_path / "out.jsonl", "rb") as a, open(tmp_path / "fresh.jsonl", "rb") as b:
        assert a.read() == b.read()


def test_odd_sweep_from_coordinate_frame_is_refused(tmp_path):
    # the periodic digest since the 5-smooth grid and the bounded start;
    # a sweep under the one before is refused
    periodic = tiny_plan(tmp_path, name="periodic.jsonl")
    assert periodic.fingerprint() == (
        "fa656e510dc810a646c646cd12b0669fc5c7b460b53d3f6780084a93b87057c7")
    before = "4ea361e8ea1ca39ce027169e9c677bcf52c7aeabbab74cb6253d7e9374451a2b"
    with open(periodic.output_path, "w") as fh:
        fh.write(f"# fingerprint={before}\n")
    with pytest.raises(FingerprintMismatch):
        run_sweep(periodic)
    plan = tiny_plan(tmp_path, bc="odd")
    # the odd digest since the model steps in sine coordinates
    assert plan.fingerprint() == (
        "bcdb9a0ac1637bcbc99be031785d8c7c30c1706aba405260adfdb374571cd652")
    for old in (
            # the grid model's digest (a banded Crank-Nicolson solve) since
            # spectra start from sine modes
            "bae4ad164709455538e9193e73f1a0c4b66d538d06e1e0f3e4e187172be55676",
            # the digest while spectra started from grid-point perturbations
            "8a3cde559d677701aaacab87f8610c388a76343448321bfd5d3712eb4ca3ea1f"):
        with open(plan.output_path, "w") as fh:
            fh.write(f"# fingerprint={old}\n")
        with pytest.raises(FingerprintMismatch):
            run_sweep(plan)


def _todo(plan):
    return list(enumerate(plan.grid()))


def _data_rows(plan):
    return [ln for ln in Path(plan.output_path).read_text().splitlines()
            if not ln.startswith("#")]


def test_worker_count_does_not_change_output(tmp_path):
    # L = 10.0..10.4 all have n_modes 15: one group of 5 with one worker,
    # groups of 3 and 2 with two
    a = tiny_plan(tmp_path, name="a.jsonl", workers=1, L_end=10.4, dL=0.1)
    b = tiny_plan(tmp_path, name="b.jsonl", workers=2, L_end=10.4, dL=0.1)
    assert [len(g) for g in _groups(a, _todo(a))] == [5]
    assert [len(g) for g in _groups(b, _todo(b))] == [3, 2]
    run_sweep(a)
    run_sweep(b)
    assert Path(a.output_path).read_text() == Path(b.output_path).read_text()


def test_pool_workers_start_no_row_helper(tmp_path, monkeypatch):
    # every block would split, but a pool worker already shares the cores;
    # forked workers inherit these patches, so a helper started in one
    # ends the sweep with the error
    def no_helper(*args):
        raise RuntimeError("a pool worker started a row helper")

    monkeypatch.setattr(lyapunov, "SPLIT_NUMBERS", 0)
    monkeypatch.setattr(lyapunov, "_RowHelper", no_helper)
    plan = tiny_plan(tmp_path, workers=2, L_end=10.4, dL=0.1)
    assert [len(g) for g in _groups(plan, _todo(plan))] == [3, 2]
    assert len(run_sweep(plan)) == 5


@pytest.mark.parametrize("m, workers, sizes", [
    (12, 1, [4, 3, 3]), (24, 1, [2, 2, 2, 1, 2, 1]), (12, 4, [3, 3, 1, 3])])
def test_groups_are_consecutive_points_of_one_dimension(tmp_path, m, workers, sizes):
    # periodic n_modes is 15 from L=9.8 to 10.4 and 16 from 10.5 to 11.1
    lyap = LyapunovConfig(m=m, tau=1.0, T=0.5, N=1)
    plan = tiny_plan(tmp_path, L_start=9.8, L_end=10.7, dL=0.1, lyap=lyap,
                     workers=workers)
    groups = _groups(plan, _todo(plan))
    assert [len(g) for g in groups] == sizes
    assert [p for g in groups for p in g] == [(i, float(L)) for i, L in _todo(plan)]


def test_a_group_is_one_point_when_its_rows_fill_the_block(tmp_path):
    # m + 1 = 61 rows exceed GROUP_ROWS; periodic dim is 63 from L=21.0 to 21.3
    plan = tiny_plan(tmp_path, L_start=21.0, L_end=21.3, dL=0.1,
                     lyap=LyapunovConfig(m=60, tau=1.0, T=0.5, N=1))
    assert _groups(plan, _todo(plan)) == [[(i, float(L))] for i, L in _todo(plan)]


@pytest.mark.parametrize("bc, L_start, L_end, dL, m, size", [
    ("periodic", 21.7, 22.0, 0.1, 12, 4),
    ("periodic", 99.9, 100.0, 0.1, 24, 2),
    ("odd", 41.0, 41.1, 0.05, 12, 3)])
def test_group_rows_equal_single_point_runs(tmp_path, bc, L_start, L_end, dL, m, size):
    lyap = LyapunovConfig(m=m, tau=5.0, T=0.5, N=5, epsilon=1e-6, seed=3, dt=0.05)
    plan = tiny_plan(tmp_path, bc=bc, L_start=L_start, L_end=L_end, dL=dL, lyap=lyap)
    assert [len(g) for g in _groups(plan, _todo(plan))] == [size]
    run_sweep(plan)
    singles = [compute_point(bc, float(L), plan.k_max, lyap, plan.point_seed(i))
               for i, L in _todo(plan)]
    assert _data_rows(plan) == [record_line(rec) for rec in singles]
    assert all("failed" not in rec.flags for rec in singles)


def test_a_failing_member_flags_only_itself(tmp_path, monkeypatch):
    # the second of a group of four starts far outside the attractor and
    # blows up; the group is recomputed point by point
    plan = tiny_plan(tmp_path, L_start=21.7, L_end=22.0, dL=0.1)
    assert [len(g) for g in _groups(plan, _todo(plan))] == [4]
    singles = [compute_point("periodic", float(L), plan.k_max, plan.lyap,
                             plan.point_seed(i)) for i, L in _todo(plan)]
    bad_seed = plan.point_seed(1)
    draw = sweep.initial_state

    def initial_state(system, seed):
        return draw(system, seed) * (1e7 if seed == bad_seed else 1.0)

    monkeypatch.setattr(sweep, "initial_state", initial_state)
    monkeypatch.setattr(lyapunov, "initial_state", initial_state)
    records = run_sweep(plan)
    assert [r.flag == "failed" for r in records] == [False, True, False, False]
    rows = _data_rows(plan)
    assert [rows[i] for i in (0, 2, 3)] == [record_line(singles[i]) for i in (0, 2, 3)]


def test_an_error_that_is_no_run_failure_ends_the_sweep_and_keeps_its_rows(
        tmp_path, monkeypatch):
    plan = tiny_plan(tmp_path)
    run_sweep(tiny_plan(tmp_path, name="fresh.jsonl"))
    spectrum = sweep.compute_spectrum

    def faulty(system, cfg, u0=None):
        if system.dim == 37:  # L=12
            raise RuntimeError("a fault of the program")
        return spectrum(system, cfg, u0)

    monkeypatch.setattr(sweep, "compute_spectrum", faulty)
    with pytest.raises(RuntimeError):
        run_sweep(plan)
    assert [rec.L for rec in read_records(plan.output_path)] == [10.0, 11.0]
    monkeypatch.undo()
    run_sweep(plan)
    assert (Path(plan.output_path).read_bytes()
            == (tmp_path / "fresh.jsonl").read_bytes())


def _with_dky_999_at_L10(text):
    """``text`` of a record file with the dky of its L=10 record set to 999."""
    lines = text.split("\n")
    for i, ln in enumerate(lines):
        if ln.startswith('{"L": 10.0,'):
            lines[i] = ln.replace(f'"dky": {json.loads(ln)["dky"]!r}', '"dky": 999.0')
            assert lines[i] != ln
    return "\n".join(lines)


def test_read_records_checks_dky_consistency(tmp_path):
    plan = tiny_plan(tmp_path)
    run_sweep(plan)
    records = read_records(plan.output_path)
    for rec in records:
        assert abs(kaplan_yorke(rec.exponents).dimension - rec.dky) <= 1e-9
    # corrupt one dky on disk
    path = Path(plan.output_path)
    path.write_text(_with_dky_999_at_L10(path.read_text()))
    with pytest.raises(ValueError):
        read_records(plan.output_path)


def test_resume_refuses_a_stored_dky_that_disagrees_with_its_exponents(tmp_path):
    plan = tiny_plan(tmp_path, L_end=11.0)
    run_sweep(plan)
    path = Path(plan.output_path)
    path.write_text(_with_dky_999_at_L10(path.read_text()))
    with pytest.raises(ValueError, match=r"out\.jsonl:3: stored D_KY 999\.0 inconsistent"):
        run_sweep(tiny_plan(tmp_path))


def _failed_record():
    # every field at an edge: NaN exponents and D_KY, the largest seed, two
    # flags and an L with no short binary form
    return SpectrumRecord(L=54.1, bc="odd", seed=2**64 - 1, dky=float("nan"), j=0,
                          exponents=np.full(2, np.nan),
                          flags=frozenset({"failed", "nonchaotic"}))


def test_a_failed_record_round_trips_exactly(tmp_path):
    rec = _failed_record()
    path = tmp_path / "failed.jsonl"
    sweep.write_records(str(path), {"bc": "odd"}, [rec])
    [back] = read_records(str(path))
    assert (back.L, back.bc, back.seed, back.j, back.flags) == (
        54.1, "odd", 2**64 - 1, 0, frozenset({"failed", "nonchaotic"}))
    assert back.flag == "failed|nonchaotic"
    assert np.isnan(back.dky) and back.exponents.shape == (2,)
    assert np.all(np.isnan(back.exponents))
    assert record_line(back) == record_line(rec)


@pytest.mark.parametrize("line, what", [
    ("54.1,odd,18446744073709551615,failed", "not a JSON record"),
    ('["L", "bc"]', "not a record of exactly the keys"),
    ("missing", "not a record of exactly the keys"),
    ("extra", "not a record of exactly the keys"),
    ({"flags": 3}, "not a valid record"),
    ({"exponents": "x"}, "not a valid record"),
    ({"flags": [], "dky": None}, "not a valid record"),
    ({"L": "x"}, "not a valid record"),
    ({"L": float("nan")}, "L=nan is not a finite domain size > 0"),
    ({"L": 0.0}, "L=0.0 is not a finite domain size > 0")],
    ids=["csv", "list", "missing", "extra", "flags-int", "exponents-str", "dky-null",
         "L-str", "L-nan", "L-zero"])
def test_read_records_refuses_a_line_that_is_no_record(tmp_path, line, what):
    fields = json.loads(record_line(_failed_record()))
    if line == "missing":
        del fields["j"]
        line = json.dumps(fields)
    elif line == "extra":
        line = json.dumps({**fields, "wall_time": 1.0})
    elif isinstance(line, dict):
        line = json.dumps({**fields, **line})
    path = tmp_path / "bad.jsonl"
    path.write_text(f"# fingerprint=0\n# echo\n{record_line(_failed_record())}\n{line}\n")
    with pytest.raises(ValueError, match=rf"bad\.jsonl:4: {what}"):
        read_records(str(path))


def test_check_fingerprint_refuses_a_file_of_other_settings(tmp_path):
    path = str(tmp_path / "one.jsonl")
    settings = {"bc": "odd", "L": 54.1}
    sweep.write_records(path, settings, [_failed_record()])
    sweep.check_fingerprint(path, settings)
    with pytest.raises(FingerprintMismatch):
        sweep.check_fingerprint(path, {**settings, "L": 54.2})


def test_a_fingerprint_of_an_unknown_bc_fails_loudly():
    # only settings without a bc merge no NUMERICS entry
    with pytest.raises(KeyError):
        sweep.fingerprint({"bc": "dirichlet", "L": 22.0})


def test_write_lines_cut_short_leaves_the_previous_file_whole(tmp_path):
    path = tmp_path / "table.csv"
    sweep.write_lines(str(path), ["# kept", "a,b", "1,2"])
    assert path.read_text() == "# kept\na,b\n1,2\n"

    def lines():
        yield "# replaced"
        raise OSError("no space left on device")

    with pytest.raises(OSError):
        sweep.write_lines(str(path), lines())
    assert path.read_text() == "# kept\na,b\n1,2\n"
    assert not (tmp_path / "table.csv.tmp").exists()

    def interrupted():
        yield "# replaced"
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        sweep.write_lines(str(path), interrupted())
    assert path.read_text() == "# kept\na,b\n1,2\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]


def test_failed_point_is_flagged_not_fatal(tmp_path):
    # epsilon so tiny the perturbations underflow into rank deficiency
    lyap = LyapunovConfig(m=2, tau=0.0, T=0.5, N=2, epsilon=1e-310, seed=1, dt=0.05)
    plan = tiny_plan(tmp_path, lyap=lyap)
    records = run_sweep(plan)
    assert len(records) == 3
    assert all("failed" in r.flags for r in records)
    assert all(np.all(np.isnan(r.exponents)) for r in records)
