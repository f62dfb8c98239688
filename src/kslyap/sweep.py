"""Sweep the Lyapunov-spectrum computation over a grid of domain sizes.

Consecutive grid points of one model dimension run as one lockstep group
(:func:`compute_group`, the system ``ks.make_model`` builds from their
lengths): their burn-in is one batch and each reorthonormalization interval
another, so a group costs far less than its points alone, and every row is
bit-identical to its point's run alone.

Results are durable: the rows of every completed group are appended to the
output CSV immediately, the CSV's first line pins the configuration
fingerprint, and re-running the same plan resumes from what is already on
disk.  A grid point whose run fails (a blow-up, a non-finite flow-map
column, a rank-deficient frame) is recorded with a ``failed`` flag instead
of aborting the sweep.  A setting no grid point can run with (an L that is
not positive, a grid below a model's floor, an m above a model's
dimension) is refused before anything is written; any other error ends the
sweep and leaves the rows written so far.

:func:`fingerprint` is the one name of a cached result's numbers: it hashes
the settings a result depends on together with its boundary condition's
entry in :data:`NUMERICS`.  Sweep CSVs and the acceptance-test caches
are named by it.  A change that alters a boundary condition's numbers adds
an entry to :data:`NUMERICS`; old sweeps are then refused on resume and old
cache files are no longer found, so the change commits the regenerated
files and removes the orphaned old ones.

CSV schema: a ``# fingerprint=<digest>`` line, a ``#`` line echoing the
plan, then the header ``L,bc,seed,flag,dky,j,lambda_1,...,lambda_m``; reals
are written with 17 significant digits so they round-trip exactly.
"""

import contextlib
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import analysis
from .dynamics import initial_state
from .errors import RUN_FAILURES, FingerprintMismatch
from .ks import check_bc, make_model, DEFAULT_K_MAX, ODD_PERIODIC, PERIODIC
from .lyapunov import LyapunovConfig, compute_spectrum

#: Each boundary condition's numerics, merged into every fingerprint payload:
#: first the scheme its system is integrated with (``dynamics.make_stepper``
#: picks it from the system), then the revisions since the first release.
#: Odd-periodic spectra start from sine modes instead of grid-point
#: perturbations, and the odd model steps in its sine (DST-I) coordinates,
#: the same map with other rounding.  The periodic model evaluates its
#: quadratic term on a 5-smooth grid with the forward-normalized FFT pair
#: (the same alias-free term with other rounding), and its random start has
#: unit variance per grid point instead of per coordinate.
NUMERICS = {PERIODIC: {"scheme": "etdrk4", "grid": "5-smooth, norm=forward",
                       "initial_state": "unit grid variance"},
            ODD_PERIODIC: {"scheme": "imex_cnab2", "initial_frame": "sine",
                           "coordinates": "dst1"}}

#: Records with leading exponent below this are flagged non-chaotic.
NONCHAOTIC_THRESHOLD = 0.005

#: Trajectories per lockstep block: a group holds at most
#: ``GROUP_ROWS // (m + 1)`` grid points (4 at m=12, 2 at m=24).  Measured
#: per trajectory on a 2-core VM, periodic L=22: an ETDRK4 step costs
#: 176-201 us at batch 1 and 41-44 us at batch 4 (burn-in), 19-28 us at
#: batch 13 and 11-12 us at batch 52 (accumulation); near 100 rows a step
#: leaves the cache and gains nothing.
GROUP_ROWS = 52

FLAG_OK = "ok"


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
        if not np.isfinite([self.L_start, self.L_end, self.dL]).all():
            raise ValueError("L_start, L_end and dL must be finite")
        if self.L_start > self.L_end:
            raise ValueError("L_start must be <= L_end")
        if not self.dL > 0 or self.workers < 1:
            raise ValueError("dL must be positive and workers >= 1")
        check_bc(self.bc)

    def grid(self):
        return analysis._grid(self.L_start, self.dL, self.L_end)

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
    seed is chosen; callers add those.  Every field of ``lyap`` but its seed
    is one, so a new field enters every fingerprint."""
    settings = asdict(lyap)
    del settings["seed"]
    return {"bc": bc, "k_max": k_max, **settings}


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


def read_records(path):
    """Load a sweep CSV, re-deriving each row's D_KY from its exponents.

    A row that does not hold together is refused with a ``ValueError``
    naming the file and line: a row before the header, a final line without
    its newline (an interrupted write; resume cuts such a line off before
    reading), a row whose cell count differs from the header's, or a row
    (not failed) whose stored D_KY is more than 1e-9 from its exponents'."""
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
            where = f"{path}:{lineno}"
            if n_cells is None:
                raise ValueError(f"{where}: row before the header line 'L,bc,...'")
            if not raw.endswith("\n"):
                raise ValueError(f"{where}: last row has no line end; "
                                 "it was cut short by an interrupted write")
            if cells != n_cells:
                raise ValueError(f"{where}: row has {cells} cells, the header {n_cells}")
            rec = row_to_record(line)
            if "failed" not in rec.flags:
                ky = analysis.kaplan_yorke(rec.exponents)
                if abs(ky.dimension - rec.dky) > 1e-9:
                    raise ValueError(f"{where}: stored D_KY {rec.dky!r} inconsistent "
                                     f"with exponents at L={rec.L:g}")
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
    """Compute one SpectrumRecord; a run failure (:data:`RUN_FAILURES`) is
    captured in the flags, any other error raised."""
    system = make_model(bc, L, k_max)
    try:
        result = compute_spectrum(system, replace(lyap, seed=seed))
    except RUN_FAILURES:
        return SpectrumRecord(L=L, bc=bc, seed=seed,
                              exponents=np.full(lyap.m, np.nan),
                              dky=float("nan"), j=0, flags=frozenset({"failed"}))
    return spectrum_record(L, bc, seed, result.exponents)


def compute_group(bc, Ls, k_max, lyap, seeds):
    """The SpectrumRecords of grid points of one model dimension, computed in
    lockstep, each bit-identical to :func:`compute_point`'s.

    If the group's run fails, every point is recomputed alone by
    :func:`compute_point`, so a failure flags only the points that fail
    alone.  A group of one is :func:`compute_point`.
    """
    if len(Ls) == 1:
        return [compute_point(bc, Ls[0], k_max, lyap, seeds[0])]
    system = make_model(bc, Ls, k_max)
    u0 = np.stack([initial_state(system, seed) for seed in seeds])
    try:
        result = compute_spectrum(system, lyap, u0)
    except RUN_FAILURES:
        return [compute_point(bc, L, k_max, lyap, seed) for L, seed in zip(Ls, seeds)]
    return [spectrum_record(L, bc, seed, exponents)
            for L, seed, exponents in zip(Ls, seeds, result.exponents)]


FINGERPRINT_LINE = "# fingerprint="


def _load_existing(plan, path):
    with open(path) as fh:
        first = fh.readline()
    if not first.startswith(FINGERPRINT_LINE):
        raise FingerprintMismatch(f"{path} has no '{FINGERPRINT_LINE}' first line")
    if first[len(FINGERPRINT_LINE):].strip() != plan.fingerprint():
        raise FingerprintMismatch(
            "existing output was produced with a different configuration")
    _cut_torn_row(path)
    # a row's seed hashes its grid index, so rows of another grid (another
    # L_start, which the fingerprint leaves out) must not be mixed in either
    index = {float(L): idx for idx, L in enumerate(plan.grid())}
    done = {}
    for rec in read_records(path):
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
    echo = " ".join(f"{k}={v}" for k, v in sorted(plan.echo().items()))
    rows = [record_to_row(records[L]) for L in sorted(records)]
    write_lines(path, [FINGERPRINT_LINE + plan.fingerprint(), f"# {echo}",
                       header_row(plan.lyap.m), *rows])


def write_lines(path, lines):
    """Write ``lines``, each with a newline, to a temporary file that then
    replaces ``path``: a write cut short (an error or Ctrl-C) leaves the
    previous file whole and removes the temporary one."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.writelines(line + "\n" for line in lines)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def run_sweep(plan, log=None):
    """Run (or resume) the sweep; returns the records sorted by L.

    The points still to do are computed in lockstep groups
    (:func:`_groups`), and each group's rows are appended to the output as
    it completes (a row cut short by an interrupted write is recomputed on
    resume); on normal completion the file is rewritten sorted by L, so the
    on-disk result is independent of worker count, grouping and completion
    order.  Every point's model is built, and m checked against its
    dimension, before the output is first written.  An error other than a
    run failure propagates and leaves the rows already written on disk.
    """
    path = plan.output_path
    done = _load_existing(plan, path) if os.path.exists(path) else {}
    grid = plan.grid()
    groups = _groups(plan, [(idx, L) for idx, L in enumerate(grid)
                            if float(L) not in done])
    if not os.path.exists(path):
        _write_sorted(plan, path, done)
    if groups:
        with open(path, "a") as sink:
            for group in _compute_many(plan, groups):
                sink.write("".join(record_to_row(rec) + "\n" for rec in group))
                sink.flush()
                for rec in group:
                    done[rec.L] = rec
                    if log:
                        log(rec)
        _write_sorted(plan, path, done)
    return [done[float(L)] for L in grid]


def _groups(plan, todo):
    """Split the to-do ``(index, L)`` points into lockstep groups: runs of
    consecutive points with equal model dimension, cut to at most
    ``GROUP_ROWS // (m + 1)`` points, and small enough that there are at
    least ``workers`` groups when there are that many points.  Builds every
    point's model and checks m against its dimension, so a setting no point
    can run with raises here."""
    size = max(1, min(GROUP_ROWS // (plan.lyap.m + 1),
                      math.ceil(len(todo) / plan.workers)))
    groups, dim = [], None
    for idx, L in todo:
        point_dim = make_model(plan.bc, float(L), plan.k_max).dim
        if plan.lyap.m > point_dim:
            raise ValueError(f"m={plan.lyap.m} exceeds system dimension {point_dim}")
        if point_dim != dim or len(groups[-1]) == size:
            groups.append([])
            dim = point_dim
        groups[-1].append((idx, float(L)))
    return groups


def _compute_many(plan, groups):
    """Yield each group's records as the group completes."""
    args = [(plan.bc, [L for _, L in group], plan.k_max, plan.lyap,
             [plan.point_seed(idx) for idx, _ in group])
            for group in groups]
    if plan.workers == 1 or len(args) == 1:
        for a in args:
            yield compute_group(*a)
        return
    from concurrent.futures import ProcessPoolExecutor, as_completed
    with ProcessPoolExecutor(max_workers=plan.workers) as pool:
        futures = [pool.submit(compute_group, *a) for a in args]
        try:
            for fut in as_completed(futures):
                yield fut.result()
        finally:
            # an error ends the sweep without starting the groups still queued
            for fut in futures:
                fut.cancel()
