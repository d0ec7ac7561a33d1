"""Span tracer that wraps fracwave's public functions from outside the package.

``Tracer.install`` replaces every public function and public method of the
traced modules with a wrapper that records a span, at every name a caller
looks it up by:

* module globals of any ``fracwave`` module that hold the function, which
  covers re-exports and names copied by ``from .x import y`` (for example
  ``fracwave.spectral.oscillatory_integral``);
* class attributes, for methods;
* the ``experiments.RUNNERS`` table that ``cli.main`` dispatches through.

``Tracer.uninstall`` puts the originals back.  Nothing inside ``fracwave``
changes.

Each span knows the span that caused it.  Parents are tracked per thread;
a task that ``experiments.map_times`` hands to a worker thread gets the
``map_times`` span as its parent.  A span's self time is its duration minus
the time its child spans cover: children on the same thread nest, so their
durations add; children on other threads may overlap, so the union of their
intervals counts.  Time spent in the tracer's own per-function hooks counts
in no span's self time.  Self times and counters are aggregated as spans
end; the spans themselves stay in memory, up to ``keep`` of them, until
``write_spans`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("quadrature", "spectral", "profiles", "estimates", "lemmas", "grid",
          "ratefit", "experiments", "cli")

# Metric names for wrapped callables whose default name ``<layer>.<qualname>``
# would split one job across several names.
GROUPS = {
    "spectral.sine_multiplier": "spectral.multiplier",
    "spectral.QuadratureSnapshot.u_hat_at": "spectral.field_eval",
    "spectral.QuadratureSnapshot.ut_hat_at": "spectral.field_eval",
    **{f"spectral.{cls}.{m}": "spectral.norm"
       for cls, methods in (("Snapshot", ("physical_l2", "energy")),
                            ("QuadratureSnapshot", ("spectral_l2", "ut_l2",
                                                    "hs_seminorm", "spectral_mass")),
                            ("GridSnapshot", ("spectral_l2", "ut_l2", "hs_seminorm")))
       for m in methods},
    "profiles.Gaussian.fourier": "profiles.fourier.gaussian",
    "profiles.GaussianDerivative.fourier": "profiles.fourier.derivative",
    "profiles.CompactBump.fourier": "profiles.fourier.bump",
    **{f"profiles.{cls}.frequency_radius": "profiles.frequency_radius"
       for cls in ("Profile", "Gaussian", "GaussianDerivative", "CompactBump",
                   "SampledProfile", "ProfileSum")},
    **{f"profiles.{name}": "profiles.norms"
       for name in ("moment0", "l1_norm", "l2_norm", "weighted_l1_norm")},
    "grid.GridSpec.forward": "grid.fft",
    "grid.GridSpec.inverse": "grid.fft",
    **{f"experiments.{name}": "experiments.write"
       for name in ("write_csv", "write_report", "write_svg_plot")},
    "ratefit.fit_power_exponent": "ratefit.fit",
    "ratefit.fit_log_rate": "ratefit.fit",
}


class Span:
    __slots__ = ("sid", "metric", "parent", "tid", "start", "child_time",
                 "hook_time", "remote", "counts", "tallies")

    def __init__(self, sid, metric, parent, tid, start):
        self.sid = sid
        self.metric = metric
        self.parent = parent
        self.tid = tid
        self.start = start
        self.child_time = 0.0
        self.hook_time = 0.0        # spent in the tracer's hooks
        self.remote = []            # (start, end) of children on other threads
        self.counts = None
        self.tallies = None

    def add(self, key: str, amount: float = 1.0):
        if self.counts is None:
            self.counts = {}
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def tally(self, key: str):
        """A counter to step with ``next()``; its total is added to ``key``
        when the span ends, whether or not the call raised."""
        counter = itertools.count()
        if self.tallies is None:
            self.tallies = []
        self.tallies.append((key, counter))
        return counter


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Tracer:
    """Records spans while installed; aggregates per-metric self time and counts."""

    def __init__(self, keep: int = 20_000):
        self.keep = keep
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.errors: dict[str, float] = defaultdict(float)
        self.bumps: dict[int, object] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple] = []
        self.metrics: set[str] = set()   # every span metric the wrappers record
        self._origin = time.perf_counter()

    # -- span bookkeeping --------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, metric: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), metric, stack[-1] if stack else None,
                    threading.get_ident(), time.perf_counter())
        stack.append(span)
        return span

    def exit(self, span: Span, error: BaseException | None = None):
        end = time.perf_counter()
        self._stack().pop()
        if span.tallies:
            for key, counter in span.tallies:
                span.add(key, float(next(counter)))
        duration = end - span.start
        own = duration - span.child_time - span.hook_time - covered(span.remote)
        parent = span.parent
        if parent is not None:
            if parent.tid == span.tid:
                parent.child_time += duration
            else:
                parent.remote.append((span.start, end))
        with self._lock:
            stats = self.stats[span.metric]
            stats["calls"] += 1
            stats["self_s"] += own
            stats["total_s"] += duration
            if span.counts:
                for key, amount in span.counts.items():
                    stats[key] += amount
            if error is not None and not getattr(error, "_bench_counted", False):
                # count an exception once, in the layer where it was raised
                self.errors[span.metric.split(".", 1)[0]] += 1
                error._bench_counted = True
            if len(self.spans) < self.keep:
                self.spans.append((span.sid, parent.sid if parent else None,
                                   span.metric, span.tid, span.start - self._origin,
                                   end - self._origin))
            else:
                self.dropped += 1

    def call(self, metric: str, fn, args, kwargs, hooks=None):
        span = self.enter(metric)
        if hooks is not None and hooks.before is not None:
            begin = time.perf_counter()
            args, kwargs = hooks.before(self, span, args, kwargs)
            span.hook_time += time.perf_counter() - begin
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if hooks is not None and hooks.failed is not None:
                hooks.failed(span, exc)
            self.exit(span, exc)
            raise
        if hooks is not None and hooks.after is not None:
            begin = time.perf_counter()
            hooks.after(self, span, args, kwargs, result)
            span.hook_time += time.perf_counter() - begin
        self.exit(span)
        return result

    # -- installing wrappers -----------------------------------------------

    def install(self):
        """Wrap every public function and method of the traced modules."""
        if self._patches:
            return
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"fracwave.{layer}")
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    for attr, member in vars(obj).items():
                        if not attr.startswith("_") and inspect.isfunction(member):
                            self._patch(obj, attr,
                                        self._wrap(member, f"{layer}.{name}.{attr}"))
        experiments = sys.modules["fracwave.experiments"]
        packages = [mod for name, mod in sys.modules.items()
                    if name == "fracwave" or name.startswith("fracwave.")]
        for module in packages:
            for name, obj in list(vars(module).items()):
                try:
                    wrapper = wrappers.get(obj)
                except TypeError:           # unhashable module global
                    continue
                if wrapper is not None:
                    self._patch(module, name, wrapper)
        for key, runner in list(experiments.RUNNERS.items()):
            self._patch(experiments.RUNNERS, key, wrappers[runner])
        self.metrics.add("experiments.map_times.task")

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, replacement):
        if isinstance(owner, dict):
            self._patches.append((owner, name, owner[name]))
            owner[name] = replacement
        else:
            self._patches.append((owner, name, vars(owner)[name]))
            setattr(owner, name, replacement)

    def _wrap(self, fn, qualified: str):
        metric = GROUPS.get(qualified, qualified)
        hooks = HOOKS.get(qualified)
        tracer = self
        self.metrics.add(metric)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(metric, fn, args, kwargs, hooks)

        return traced

    # -- output --------------------------------------------------------------

    def bump_cache_entries(self) -> int:
        return sum(len(p._fourier_cache) for p in self.bumps.values())

    def write_spans(self, path):
        with open(path, "w") as handle:
            for sid, parent, metric, tid, start, end in self.spans:
                handle.write(json.dumps({"id": sid, "parent": parent, "name": metric,
                                         "thread": tid, "start_s": start,
                                         "end_s": end}) + "\n")
            handle.write(json.dumps({"kept": len(self.spans),
                                     "dropped": self.dropped}) + "\n")


# ---------------------------------------------------------------------------
# per-function hooks: counters and thread hand-off
# ---------------------------------------------------------------------------

class Hooks:
    def __init__(self, before=None, after=None, failed=None):
        self.before, self.after, self.failed = before, after, failed


def _argument(args, kwargs, position: int, name: str):
    """A call's argument read by position or keyword, without binding."""
    if len(args) > position:
        return args[position]
    return kwargs.get(name)


@functools.lru_cache(maxsize=None)
def _gauss_panels_default_order() -> int:
    from fracwave import quadrature
    return inspect.signature(quadrature.gauss_panels).parameters["order"].default


def _gauss_panels_after(tracer, span, args, kwargs, result):
    edges = _argument(args, kwargs, 1, "edges")
    order = _argument(args, kwargs, 2, "order")
    if order is None:
        order = _gauss_panels_default_order()
    panels = max(len(edges) - 1, 0)
    span.add("panels", panels)
    span.add("nodes", panels * order)
    parent = span.parent
    if parent is not None and parent.metric == "quadrature.singular_origin_integral":
        parent.add("panels", panels)


def _adaptive_before(tracer, span, args, kwargs):
    """Count integrand evaluations.

    The counting wrapper costs one Python call per evaluation inside the
    ``adaptive`` span, small next to the integrands it wraps.
    """
    f = args[0]
    evals = span.tally("evals")

    def counted(x, *rest):
        next(evals)
        return f(x, *rest)

    return (counted, *args[1:]), kwargs


def _nodes_of(position):
    def after(tracer, span, args, kwargs, result):
        span.add("nodes", float(getattr(args[position], "size", 1)))
    return after


def _bump_fourier_after(tracer, span, args, kwargs, result):
    tracer.bumps[id(args[0])] = args[0]
    span.add("nodes", float(getattr(args[1], "size", 1)))


def _divergence(span, exc):
    from fracwave.errors import DivergenceError
    if isinstance(exc, DivergenceError):
        span.add("divergences")


def _map_times_before(tracer, span, args, kwargs):
    fn = args[0]

    def task(t):
        stack = tracer._stack()
        stack.append(span)              # the task's parent is the map_times span
        try:
            return tracer.call("experiments.map_times.task", fn, (t,), {})
        finally:
            stack.pop()

    return (task, *args[1:]), kwargs


def _write_after(tracer, span, args, kwargs, result):
    span.add("bytes", float(os.path.getsize(args[0])))


def _fft_after(tracer, span, args, kwargs, result):
    span.add("points", float(getattr(args[1], "size", 0)))


HOOKS = {
    "quadrature.gauss_panels": Hooks(after=_gauss_panels_after),
    "quadrature.adaptive": Hooks(before=_adaptive_before),
    "quadrature.singular_origin_integral": Hooks(failed=_divergence),
    "spectral.sine_multiplier": Hooks(after=_nodes_of(2)),
    "profiles.Gaussian.fourier": Hooks(after=_nodes_of(1)),
    "profiles.CompactBump.fourier": Hooks(after=_bump_fourier_after),
    "experiments.map_times": Hooks(before=_map_times_before),
    **{f"experiments.{name}": Hooks(after=_write_after)
       for name in ("write_csv", "write_report", "write_svg_plot")},
    "grid.GridSpec.forward": Hooks(after=_fft_after),
    "grid.GridSpec.inverse": Hooks(after=_fft_after),
}
