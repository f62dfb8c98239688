import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kslyap import (FingerprintMismatch, LyapunovConfig,
                    SpectrumRecord, SweepPlan, kaplan_yorke, read_records,
                    run_sweep)
from kslyap.sweep import NUMERICS, header_row, record_to_row, row_to_record


def tiny_plan(tmp_path, name="out.csv", **kwargs):
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


def test_run_sweep_produces_one_record_per_point(tmp_path):
    plan = tiny_plan(tmp_path)
    records = run_sweep(plan)
    assert len(records) == 3
    assert [r.L for r in records] == [10.0, 11.0, 12.0]
    assert all(r.bc == "periodic" for r in records)
    assert all(np.all(np.diff(r.exponents) <= 0) for r in records)
    meta = json.loads(Path(plan.output_path + ".meta.json").read_text())
    assert meta["fingerprint"] == plan.fingerprint()


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
    # drop the middle row to simulate an interrupted sweep
    lines = reference.strip().split("\n")
    kept = [ln for ln in lines if not ln.startswith("11,")]
    assert len(kept) == len(lines) - 1
    with open(plan.output_path, "w") as fh:
        fh.write("\n".join(kept) + "\n")
    records = run_sweep(plan)
    assert len(records) == 3
    assert Path(plan.output_path).read_text() == reference


@pytest.mark.parametrize("cell", [2, 7])
def test_resume_recomputes_a_torn_last_row(tmp_path, cell):
    # a write interrupted inside the last row's seed (cell 2) or inside its
    # last exponent (cell 7, lambda_2 of m=2)
    plan = tiny_plan(tmp_path)
    run_sweep(plan)
    with open(plan.output_path, "rb") as fh:
        reference = fh.read()
    head, last = reference.rstrip(b"\n").rsplit(b"\n", 1)
    cells = last.split(b",")
    torn = b",".join(cells[:cell] + [cells[cell][:3]])
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
    run_sweep(tiny_plan(tmp_path, name="fresh.csv"))
    with open(tmp_path / "out.csv", "rb") as a, open(tmp_path / "fresh.csv", "rb") as b:
        assert a.read() == b.read()


def test_odd_sweep_from_coordinate_frame_is_refused(tmp_path):
    # the periodic digest predates the sine frame and must stay
    assert tiny_plan(tmp_path).fingerprint() == (
        "4ea361e8ea1ca39ce027169e9c677bcf52c7aeabbab74cb6253d7e9374451a2b")
    plan = tiny_plan(tmp_path, bc="odd")
    # the odd digest (IMEX-CNAB2) since spectra start from sine modes
    assert plan.fingerprint() == (
        "bae4ad164709455538e9193e73f1a0c4b66d538d06e1e0f3e4e187172be55676")
    # the odd digest while spectra started from grid-point perturbations
    old = "8a3cde559d677701aaacab87f8610c388a76343448321bfd5d3712eb4ca3ea1f"
    with open(plan.output_path + ".meta.json", "w") as fh:
        json.dump({"fingerprint": old}, fh)
    with open(plan.output_path, "w") as fh:
        fh.write(f"# fingerprint={old}\n{header_row(2)}\n")
    with pytest.raises(FingerprintMismatch):
        run_sweep(plan)


def test_worker_count_does_not_change_output(tmp_path):
    a = tiny_plan(tmp_path, name="a.csv", workers=1)
    b = tiny_plan(tmp_path, name="b.csv", workers=2)
    run_sweep(a)
    run_sweep(b)
    assert Path(a.output_path).read_text() == Path(b.output_path).read_text()


def test_read_records_checks_dky_consistency(tmp_path):
    plan = tiny_plan(tmp_path)
    run_sweep(plan)
    records = read_records(plan.output_path)
    for rec in records:
        assert abs(kaplan_yorke(rec.exponents).dimension - rec.dky) <= 1e-9
    # corrupt one dky on disk
    text = Path(plan.output_path).read_text().split("\n")
    for i, ln in enumerate(text):
        if ln.startswith("10,"):
            cells = ln.split(",")
            cells[4] = "999.0"
            text[i] = ",".join(cells)
    with open(plan.output_path, "w") as fh:
        fh.write("\n".join(text))
    with pytest.raises(ValueError):
        read_records(plan.output_path)


def test_record_row_round_trip():
    rec = SpectrumRecord(L=10.1, bc="odd", seed=123456789, dky=2.0 / 3.0, j=1,
                         exponents=np.array([0.1, -1.0 / 3.0]),
                         flags=frozenset({"nonchaotic"}))
    back = row_to_record(record_to_row(rec))
    assert back.L == rec.L and back.bc == rec.bc and back.seed == rec.seed
    assert back.dky == rec.dky and back.j == rec.j
    assert np.array_equal(back.exponents, rec.exponents)
    assert back.flags == rec.flags
    assert header_row(2) == "L,bc,seed,flag,dky,j,lambda_1,lambda_2"


def test_failed_point_is_flagged_not_fatal(tmp_path):
    # epsilon so tiny the perturbations underflow into rank deficiency
    lyap = LyapunovConfig(m=2, tau=0.0, T=0.5, N=2, epsilon=1e-310, seed=1, dt=0.05)
    plan = tiny_plan(tmp_path, lyap=lyap)
    records = run_sweep(plan)
    assert len(records) == 3
    assert all("failed" in r.flags for r in records)
    assert all(np.all(np.isnan(r.exponents)) for r in records)
