"""Sweep the Lyapunov-spectrum computation over a grid of domain sizes.

Results are durable: every completed grid point is appended to the output CSV
immediately, a sidecar ``<output>.meta.json`` pins the configuration
fingerprint, and re-running the same plan resumes from what is already on
disk.  Failed grid points are recorded with a ``failed`` flag instead of
aborting the sweep.

:func:`fingerprint` is the one name of a cached result's numbers: it hashes
the settings a result depends on together with its boundary condition's
entry in :data:`NUMERICS`.  Sweep sidecars and the acceptance-test caches
are named by it.  A change that alters a boundary condition's numbers adds
an entry to :data:`NUMERICS`; old sweeps are then refused on resume and old
cache files are no longer found, so the change commits the regenerated
files and removes the orphaned old ones.

CSV schema: header ``L,bc,seed,flag,dky,j,lambda_1,...,lambda_m``; reals are
written with 17 significant digits so they round-trip exactly.
"""

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace

import numpy as np

from . import analysis
from .errors import FingerprintMismatch
from .ks import DomainSpec, make_model, DEFAULT_K_MAX, ODD_PERIODIC, PERIODIC
from .lyapunov import LyapunovConfig, compute_spectrum

#: Each boundary condition's numerics, merged into every fingerprint payload:
#: first the scheme its system is integrated with (``dynamics.make_stepper``
#: picks it from the system), then the revisions since the first release.
#: Odd-periodic spectra start from sine modes instead of grid-point
#: perturbations.
NUMERICS = {PERIODIC: {"scheme": "etdrk4"},
            ODD_PERIODIC: {"scheme": "imex_cnab2", "initial_frame": "sine"}}

#: Records with leading exponent below this are flagged non-chaotic.
NONCHAOTIC_THRESHOLD = 0.005

FLAG_OK = "ok"
FLAGS = ("nonchaotic", "unsaturated", "failed")


@dataclass
class SpectrumRecord:
    """One sweep row: the spectrum and derived dimension at a single (bc, L)."""

    L: float
    bc: str
    seed: int
    exponents: np.ndarray
    dky: float
    j: int
    flags: frozenset = frozenset()

    @property
    def flag(self):
        return "|".join(sorted(self.flags)) if self.flags else FLAG_OK


@dataclass
class SweepPlan:
    L_start: float
    L_end: float
    bc: str = PERIODIC
    dL: float = 0.1
    k_max: float = DEFAULT_K_MAX
    lyap: LyapunovConfig = field(default_factory=LyapunovConfig)
    output_path: str = "sweep.csv"
    workers: int = 1

    def __post_init__(self):
        if self.L_start > self.L_end:
            raise ValueError("L_start must be <= L_end")
        if not self.dL > 0 or self.workers < 1:
            raise ValueError("dL must be positive and workers >= 1")

    def grid(self):
        n = int(math.floor((self.L_end - self.L_start) / self.dL + 0.5)) + 1
        values = self.L_start + self.dL * np.arange(n)
        values = values[values <= self.L_end + 1e-6 * self.dL]
        return np.round(values, 10)

    def point_seed(self, index):
        """Deterministic per-point seed: hash of (base seed, bc, grid index)."""
        digest = hashlib.sha256(
            f"{self.lyap.seed}|{self.bc}|{index}".encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def _settings(self):
        """Every setting a row's numbers depend on, apart from its L."""
        return {**spectrum_settings(self.bc, self.k_max, self.lyap),
                "dL": self.dL, "base_seed": self.lyap.seed}

    def fingerprint(self):
        return fingerprint(self._settings())

    def echo(self):
        return {"L_start": self.L_start, "L_end": self.L_end,
                **_payload(self._settings())}


def spectrum_settings(bc, k_max, lyap):
    """The settings a spectrum's numbers depend on, apart from L and how its
    seed is chosen; callers add those."""
    return {"bc": bc, "k_max": k_max,
            "m": lyap.m, "tau": lyap.tau, "T": lyap.T,
            "N": lyap.N, "epsilon": lyap.epsilon, "dt": lyap.dt}


def _payload(settings):
    """``settings`` (which names its ``bc``) merged with that boundary
    condition's :data:`NUMERICS` entry."""
    return {**settings, **NUMERICS[settings["bc"]]}


def fingerprint(settings):
    """SHA-256 hex digest of ``settings`` merged with its :data:`NUMERICS` entry."""
    payload = _payload(settings)
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _g17(x):
    return f"{x:.17g}"


def record_to_row(rec):
    cells = [_g17(rec.L), rec.bc, str(rec.seed), rec.flag,
             _g17(rec.dky), str(rec.j)]
    cells += [_g17(v) for v in rec.exponents]
    return ",".join(cells)


def header_row(m):
    return "L,bc,seed,flag,dky,j," + ",".join(f"lambda_{i}" for i in range(1, m + 1))


def row_to_record(line):
    cells = line.strip().split(",")
    flags = frozenset() if cells[3] == FLAG_OK else frozenset(cells[3].split("|"))
    return SpectrumRecord(
        L=float(cells[0]), bc=cells[1], seed=int(cells[2]), flags=flags,
        dky=float(cells[4]), j=int(cells[5]),
        exponents=np.array([float(v) for v in cells[6:]]))


def read_records(path, check_dky=True):
    """Load a sweep CSV; optionally re-derive D_KY from the stored exponents
    and verify consistency to 1e-9.

    A row cut short is refused with a ``ValueError`` naming the file and
    line: a final line without its newline (an interrupted write; resume
    cuts such a line off before reading) or a row whose cell count differs
    from the header's."""
    records = []
    n_cells = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.count(",") + 1
            if line.startswith("L,"):
                n_cells = cells
                continue
            if not raw.endswith("\n"):
                raise ValueError(f"{path}:{lineno}: last row has no line end; "
                                 "it was cut short by an interrupted write")
            if cells != n_cells:
                raise ValueError(f"{path}:{lineno}: row has {cells} cells, "
                                 f"the header {n_cells}")
            rec = row_to_record(line)
            if check_dky and "failed" not in rec.flags:
                ky = analysis.kaplan_yorke(rec.exponents)
                if abs(ky.dimension - rec.dky) > 1e-9:
                    raise ValueError(
                        f"stored D_KY {rec.dky!r} inconsistent with exponents at L={rec.L:g}")
            records.append(rec)
    return records


def spectrum_record(L, bc, seed, exponents):
    """The record of a computed spectrum: its D_KY and its flags."""
    ky = analysis.kaplan_yorke(exponents)
    flags = set()
    if exponents[0] < NONCHAOTIC_THRESHOLD:
        flags.add("nonchaotic")
    if ky.unsaturated:
        flags.add("unsaturated")
    return SpectrumRecord(L=L, bc=bc, seed=seed, exponents=exponents,
                          dky=ky.dimension, j=ky.j, flags=frozenset(flags))


def compute_point(bc, L, k_max, lyap, seed):
    """Compute one SpectrumRecord; failures are captured in the flags."""
    cfg = replace(lyap, seed=seed)
    try:
        system = make_model(DomainSpec(L=L, bc=bc, k_max_target=k_max)).build_system()
        result = compute_spectrum(system, cfg)
    except Exception:
        return SpectrumRecord(L=L, bc=bc, seed=seed,
                              exponents=np.full(lyap.m, np.nan),
                              dky=float("nan"), j=0, flags=frozenset({"failed"}))
    return spectrum_record(L, bc, seed, result.exponents)


def _load_existing(plan, path):
    meta_path = path + ".meta.json"
    if not os.path.exists(meta_path):
        raise FingerprintMismatch(f"missing sidecar {meta_path}")
    with open(meta_path) as fh:
        meta = json.load(fh)
    if meta.get("fingerprint") != plan.fingerprint():
        raise FingerprintMismatch(
            "existing output was produced with a different configuration")
    _cut_torn_row(path)
    # a row's seed hashes its grid index, so rows of another grid (another
    # L_start, which the fingerprint leaves out) must not be mixed in either
    index = {float(L): idx for idx, L in enumerate(plan.grid())}
    done = {}
    for rec in read_records(path, check_dky=False):
        idx = index.get(rec.L)
        if idx is None or rec.seed != plan.point_seed(idx):
            raise FingerprintMismatch(
                f"existing row at L={rec.L:g} is not a point of this plan's grid")
        done[rec.L] = rec
    return done


def _cut_torn_row(path):
    """Drop a final row without its newline: every row is written with one, so
    such a row was cut short by an interrupted write and its point is not done."""
    with open(path, "rb+") as fh:
        data = fh.read()
        if data and not data.endswith(b"\n"):
            fh.truncate(data.rfind(b"\n") + 1)


def _write_sorted(plan, path, records):
    lines = [f"# fingerprint={plan.fingerprint()}",
             header_row(plan.lyap.m)]
    for L in sorted(records):
        lines.append(record_to_row(records[L]))
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def run_sweep(plan, log=None):
    """Run (or resume) the sweep; returns the records sorted by L.

    Completed points are appended to the output immediately (a row cut
    short by an interrupted write is recomputed on resume); on normal
    completion the file is rewritten sorted by L, so the on-disk result is
    independent of worker count and completion order.
    """
    path = plan.output_path
    if os.path.exists(path):
        done = _load_existing(plan, path)
    else:
        done = {}
        with open(path + ".meta.json", "w") as fh:
            json.dump({"fingerprint": plan.fingerprint(), "plan": plan.echo()},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(path, "w") as fh:
            fh.write(f"# fingerprint={plan.fingerprint()}\n")
            fh.write(header_row(plan.lyap.m) + "\n")

    grid = plan.grid()
    todo = [(idx, L) for idx, L in enumerate(grid) if float(L) not in done]
    if todo:
        with open(path, "a") as sink:
            for L, rec in _compute_many(plan, todo, log):
                done[float(L)] = rec
                sink.write(record_to_row(rec) + "\n")
                sink.flush()
        _write_sorted(plan, path, done)
    records = [done[float(L)] for L in grid]
    return records


def _compute_many(plan, todo, log):
    args = [(plan.bc, float(L), plan.k_max, plan.lyap, plan.point_seed(idx))
            for idx, L in todo]
    if plan.workers == 1 or len(args) == 1:
        for a in args:
            rec = compute_point(*a)
            if log:
                log(rec)
            yield a[1], rec
    else:
        with ProcessPoolExecutor(max_workers=plan.workers) as pool:
            futures = {pool.submit(compute_point, *a): a[1] for a in args}
            for fut in as_completed(futures):
                rec = fut.result()
                if log:
                    log(rec)
                yield futures[fut], rec
