"""Sweep the Lyapunov-spectrum computation over a grid of domain sizes.

Consecutive grid points of one model dimension run as one lockstep group
(:func:`compute_group`, the system ``ks.make_model`` builds from their
lengths): their burn-in is one batch and each reorthonormalization interval
another, so a group costs far less than its points alone, and every
record is bit-identical to its point's run alone.

Results are durable: the records of every completed group are appended to
the output immediately, the file's first line pins the configuration
fingerprint, and re-running the same plan resumes from what is already on
disk.  A grid point whose run fails (a blow-up, a non-finite flow-map
column, a rank-deficient frame) is recorded with a ``failed`` flag instead
of aborting the sweep.  A setting no grid point can run with (an L that is
not positive, a grid below a model's floor, an m above a model's
dimension) is refused before anything is written; any other error ends the
sweep and leaves the records written so far.

:func:`fingerprint` is the one name of a cached result's numbers: it hashes
the settings a result depends on together with its boundary condition's
entry in :data:`NUMERICS`.  Sweep files, ``kslyap lyap --out`` files and the
acceptance-test caches are named by it.  A change that alters a boundary
condition's numbers adds an entry to :data:`NUMERICS`; old sweeps are then
refused on resume and old cache files are no longer found, so the change
commits the regenerated files and removes the orphaned old ones.

Record file: a ``# fingerprint=<digest>`` line, a ``#`` line echoing the
settings, then one :class:`SpectrumRecord` per line as a JSON object whose
floats (``NaN`` for a failed point's) are in shortest round-trip form, so
:func:`read_records` reads it back exactly.
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
    """One spectrum and its D_KY at a single (bc, L): a line of a record file."""

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
    output_path: str = "sweep.jsonl"
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
        """Every setting a record's numbers depend on, apart from its L."""
        settings = {"bc": self.bc, "k_max": self.k_max, **asdict(self.lyap), "dL": self.dL}
        settings["base_seed"] = settings.pop("seed")
        return settings

    def fingerprint(self):
        return fingerprint(self._settings())


def point_settings(bc, L, k_max, lyap):
    """The settings one spectrum's numbers depend on, which name its record
    file (``lyap --out``, an acceptance cache).  Every field of ``lyap`` is
    one, here and in a sweep's, so a new field enters every fingerprint."""
    return {"bc": bc, "k_max": k_max, **asdict(lyap), "L": L}


def _payload(settings):
    """``settings`` merged with the :data:`NUMERICS` entry of their ``bc``;
    settings without a ``bc`` (of no KS model) merge none."""
    return {**settings, **(NUMERICS[settings["bc"]] if "bc" in settings else {})}


def fingerprint(settings):
    """SHA-256 hex digest of ``settings`` merged with its :data:`NUMERICS` entry."""
    payload = _payload(settings)
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


FINGERPRINT_LINE = "# fingerprint="

#: The keys of a record line, in the order they are written.
RECORD_KEYS = ("L", "bc", "seed", "flags", "dky", "j", "exponents")


def record_line(rec):
    """``rec`` as one JSON line, which :func:`read_records` reads back exactly."""
    return json.dumps({"L": rec.L, "bc": rec.bc, "seed": rec.seed, "flags": sorted(rec.flags),
                       "dky": rec.dky, "j": rec.j, "exponents": rec.exponents.tolist()})


def write_records(path, settings, records, **extra):
    """Write a record file through :func:`write_lines`: the fingerprint of
    ``settings``, a line echoing them, their :data:`NUMERICS` entry and
    ``extra`` (which is not fingerprinted), then one line per record."""
    echo = " ".join(f"{k}={v}" for k, v in sorted({**extra, **_payload(settings)}.items()))
    write_lines(path, [FINGERPRINT_LINE + fingerprint(settings), f"# {echo}",
                       *map(record_line, records)])


def check_fingerprint(path, settings):
    """Refuse, with :class:`FingerprintMismatch`, a record file whose first
    line is not ``# fingerprint=`` and the fingerprint of ``settings``."""
    with open(path) as fh:
        if fh.readline().rstrip("\n") != FINGERPRINT_LINE + fingerprint(settings):
            raise FingerprintMismatch(f"{path} was produced with another configuration "
                                      f"(or has no '{FINGERPRINT_LINE}' first line)")


def read_records(path):
    """Load a record file, re-deriving each record's D_KY from its exponents.

    A ``ValueError`` naming the file and line refuses a final line without
    its newline (an interrupted write; resume cuts it off before reading), a
    line that is not a JSON object of exactly the keys :data:`RECORD_KEYS`,
    a value of the wrong type, an ``L`` that is not finite and positive, and
    a record (not failed) whose D_KY is more than 1e-9 off its exponents'."""
    records = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            if not raw.strip() or raw.startswith("#"):
                continue
            where = f"{path}:{lineno}"
            if not raw.endswith("\n"):
                raise ValueError(f"{where}: last line has no line end; "
                                 "it was cut short by an interrupted write")
            try:
                fields = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: not a JSON record ({exc})") from None
            if not isinstance(fields, dict) or set(fields) != set(RECORD_KEYS):
                raise ValueError(f"{where}: not a record of exactly the keys "
                                 f"{', '.join(RECORD_KEYS)}")
            try:
                rec = SpectrumRecord(**{**fields, "flags": frozenset(fields["flags"]),
                                        "exponents": np.array(fields["exponents"], dtype=float)})
                domain = np.isfinite(rec.L) and rec.L > 0
                consistent = ("failed" in rec.flags or abs(
                    analysis.kaplan_yorke(rec.exponents).dimension - rec.dky) <= 1e-9)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{where}: not a valid record ({exc})") from None
            if not domain:
                raise ValueError(f"{where}: L={rec.L!r} is not a finite domain size > 0")
            if not consistent:
                raise ValueError(f"{where}: stored D_KY {rec.dky!r} inconsistent "
                                 f"with exponents at L={rec.L!r}")
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


def _load_existing(plan, path):
    check_fingerprint(path, plan._settings())
    _cut_torn_line(path)
    # a record's seed hashes its grid index, so records of another grid
    # (another L_start, which the fingerprint leaves out) must not be mixed in
    index = {float(L): idx for idx, L in enumerate(plan.grid())}
    done = {}
    for rec in read_records(path):
        idx = index.get(rec.L)
        if idx is None or rec.seed != plan.point_seed(idx):
            raise FingerprintMismatch(
                f"existing record at L={rec.L:g} is not a point of this plan's grid")
        done[rec.L] = rec
    return done


def _cut_torn_line(path):
    """Drop a final line without its newline: an interrupted write cut it
    short, so its point is not done."""
    with open(path, "rb+") as fh:
        data = fh.read()
        if data and not data.endswith(b"\n"):
            fh.truncate(data.rfind(b"\n") + 1)


def _write_sorted(plan, path, records):
    write_records(path, plan._settings(), [records[L] for L in sorted(records)],
                  L_start=plan.L_start, L_end=plan.L_end)


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
    (:func:`_groups`), and each group's records are appended to the output
    as it completes (a line cut short by an interrupted write is recomputed
    on resume); on normal completion the file is rewritten sorted by L, so
    the on-disk result is independent of worker count, grouping and
    completion order.  Every point's model is built, and m checked against
    its dimension, before the output is first written.  An error other than
    a run failure propagates and leaves the records already written on disk.
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
                sink.write("".join(record_line(rec) + "\n" for rec in group))
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
