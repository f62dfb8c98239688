"""In-process call tracing of kslyap for the benchmark's traced pass.

``install`` wraps, in the running process only, every public function of the
layers in ``LAYERS`` under each name it is bound to in any ``kslyap`` module
(so ``from .dynamics import integrate`` in ``lyapunov`` is traced too), plus
``DynamicalSystem.rhs_batch`` (span ``ks.rhs``) and the ``step`` method of
every stepper class in ``dynamics`` (span ``dynamics.step``).  No source file
is touched.  ``ks.rhs`` and ``dynamics.step`` spans carry a batch tag:
``.b1`` for one trajectory, ``.bm`` for a lockstep block (m+1 rows in every
Lyapunov interval).

Spans are aggregated as they close: per span name the call count, total
time, self time (total minus the time covered by child spans) and a count of
units (rows for ``ks.rhs`` and ``dynamics.step``, records for
``sweep.run_sweep``, failed records for ``sweep.compute_point``).
"""

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("cli", "sweep", "lyapunov", "dynamics", "ks", "analysis")


def _rows(args):
    shape = getattr(args[2], "shape", ())
    return shape[0] if len(shape) == 2 else 1


def _batch_tag(rows):
    return ".b1" if rows == 1 else ".bm"


# span name -> units(args, result) for spans that count something besides calls
_UNITS = {
    "sweep.run_sweep": lambda args, result: len(result),
    "sweep.compute_point": lambda args, result: int("failed" in result.flags),
}


class Stat:
    __slots__ = ("calls", "total", "self_time", "units")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.units = 0


class Tracer:
    """Span aggregation; wrappers record only while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.stats = {}
        self.installed = set()  # span names whose wrapped callable exists
        self._stack = []        # per open span: time covered by its children

    def reset(self):
        self.stats = {}

    def _close(self, key, dur, child, units):
        self._stack.pop()
        if self._stack:
            self._stack[-1] += dur
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        stat.calls += 1
        stat.total += dur
        stat.self_time += dur - child
        stat.units += units

    def wrap(self, name, fn):
        units = _UNITS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._stack.append(0.0)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = perf_counter() - t0
                n = units(args, result) if units and result is not None else 0
                self._close(name, dur, self._stack[-1], n)

        self.installed.add(name)
        return traced

    def wrap_batched(self, name, fn):
        """Wrap a method ``fn(self, t, states)``; tag the span by batch size."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rows = _rows(args)
            self._stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self._close(name + _batch_tag(rows), dur, self._stack[-1], rows)

        self.installed.add(name)
        return traced


def install(tracer, package="kslyap"):
    """Wrap the package in place; returns a function that undoes it."""
    layers = {name: sys.modules.get(f"{package}.{name}") for name in LAYERS}
    wrappers = {}
    for layer, module in layers.items():
        if module is None:
            continue
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                wrappers[obj] = tracer.wrap(f"{layer}.{attr}", obj)

    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patch(module, attr, wrappers[obj])

    dynamics = layers["dynamics"]
    if dynamics is not None:
        system_cls = getattr(dynamics, "DynamicalSystem", None)
        if system_cls is not None and "rhs_batch" in vars(system_cls):
            patch(system_cls, "rhs_batch",
                  tracer.wrap_batched("ks.rhs", system_cls.rhs_batch))
        for obj in list(vars(dynamics).values()):
            if (inspect.isclass(obj) and obj.__module__ == dynamics.__name__
                    and inspect.isfunction(vars(obj).get("step"))):
                patch(obj, "step", tracer.wrap_batched("dynamics.step", obj.step))

    def uninstall():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return uninstall


def _sum(stats, prefix, field):
    return sum(getattr(s, field) for k, s in stats.items()
               if k == prefix or k.startswith(prefix + "."))


def layer_metrics(tracer, wall):
    """Per-layer metrics of the spans recorded since the last ``reset``, over
    ``wall`` seconds of traced calls.

    A metric whose span was not installed (the public name no longer exists)
    is left out rather than reported as zero.
    """
    stats, have = tracer.stats, tracer.installed

    def get(key, field):
        s = stats.get(key)
        return getattr(s, field) if s is not None else 0

    def per(key, num_field, den_field, scale=1e6):
        den = get(key, den_field)
        return get(key, num_field) / den * scale if den else 0.0

    out = {}

    def put(name, unit, needs, value):
        if all(n in have for n in needs):
            out[name] = (value(), unit)

    rhs = ("ks.rhs",)
    put("ks.rhs_calls", "count", rhs, lambda: _sum(stats, "ks.rhs", "calls"))
    put("ks.rhs_rows", "count", rhs, lambda: _sum(stats, "ks.rhs", "units"))
    put("ks.rhs_s", "s", rhs, lambda: _sum(stats, "ks.rhs", "total"))
    for tag in ("b1", "bm"):
        put(f"ks.rhs_us_per_row.{tag}", "us", rhs,
            lambda tag=tag: per(f"ks.rhs.{tag}", "total", "units"))

    step = ("dynamics.step",)
    for tag in ("b1", "bm"):
        put(f"dynamics.steps.{tag}", "count", step,
            lambda tag=tag: get(f"dynamics.step.{tag}", "calls"))
        put(f"dynamics.step_us.{tag}", "us", step,
            lambda tag=tag: per(f"dynamics.step.{tag}", "total", "calls"))
    put("dynamics.step_self_s", "s", step,
        lambda: _sum(stats, "dynamics.step", "self_time"))
    put("dynamics.make_stepper_calls", "count", ("dynamics.make_stepper",),
        lambda: get("dynamics.make_stepper", "calls"))
    put("dynamics.make_stepper_s", "s", ("dynamics.make_stepper",),
        lambda: get("dynamics.make_stepper", "total"))
    put("dynamics.integrate_self_s", "s", ("dynamics.integrate",),
        lambda: get("dynamics.integrate", "self_time"))

    put("lyapunov.burn_in_s", "s", ("lyapunov.burn_in",),
        lambda: get("lyapunov.burn_in", "total"))
    put("lyapunov.accum_s", "s", ("lyapunov.compute_spectrum", "lyapunov.burn_in"),
        lambda: get("lyapunov.compute_spectrum", "total")
        - get("lyapunov.burn_in", "total"))
    put("lyapunov.propagate_frame_calls", "count", ("lyapunov.propagate_frame",),
        lambda: get("lyapunov.propagate_frame", "calls"))
    put("lyapunov.propagate_frame_self_s", "s", ("lyapunov.propagate_frame",),
        lambda: get("lyapunov.propagate_frame", "self_time"))
    put("lyapunov.reorthonormalize_s", "s", ("lyapunov.reorthonormalize",),
        lambda: get("lyapunov.reorthonormalize", "total"))

    point, sweep = ("sweep.compute_point",), ("sweep.run_sweep", "sweep.compute_point")
    put("sweep.points_computed", "count", point,
        lambda: get("sweep.compute_point", "calls"))
    put("sweep.points_resumed", "count", sweep,
        lambda: get("sweep.run_sweep", "units") - get("sweep.compute_point", "calls"))
    put("sweep.points_failed", "count", point,
        lambda: get("sweep.compute_point", "units"))
    put("sweep.compute_point_s", "s", point,
        lambda: get("sweep.compute_point", "total"))
    put("sweep.io_s", "s", sweep,
        lambda: get("sweep.run_sweep", "total") - get("sweep.compute_point", "total"))

    analysis = [n for n in have if n.startswith("analysis.")]
    if analysis:
        out["analysis.calls"] = (_sum(stats, "analysis", "calls"), "count")
        out["analysis.s"] = (_sum(stats, "analysis", "self_time"), "s")

    for layer in ("cli", "sweep", "lyapunov", "dynamics", "ks"):
        if any(n.startswith(layer + ".") for n in have):
            out[f"{layer}.self_s"] = (_sum(stats, layer, "self_time"), "s")
    # every span belongs to exactly one layer, so this is 1 when the layers'
    # self times account for the traced wall time
    out["trace.self_share"] = (sum(s.self_time for s in stats.values()) / wall, "ratio")
    return out
