"""Span tracing of the phasestop layers, installed from outside the package.

:class:`Tracer` wraps every public function of the layer modules (and the
two hot methods ``SimplexGrid.nearest`` and ``DetectionModel.discrete_obs``)
and replaces *every* binding of the original: the module attribute, each
``from ... import`` copy in another layer module, and each module-level dict
that holds it (``cli._COMMANDS``).  A missed binding would silently report a
layer as idle, so the benchmark's test checks the cross-module edges.

Each call records a span ``(name, parent, start, end)``.  Per name the tracer
keeps the call count, the total time and the self time (total minus the time
covered by child spans); per ``(parent, name)`` edge it keeps a call count.
The first ``MAX_SPANS`` raw spans are kept for export.  Probes attached to a
few functions derive work counts from argument and result sizes.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "model", "filters", "orders", "dp", "policy", "sim")
METHODS = (("dp", "SimplexGrid", "nearest"), ("model", "DetectionModel", "discrete_obs"))
MAX_SPANS = 20_000
FLOAT_BYTES = 8


# ---------------------------------------------------------------------------
# Probes: work counts computed from array sizes and results.  The kernel
# counts model the brute-force kernels in dp: each nearest query and each
# convexity midpoint is compared with all N grid points (N*X multiply-adds,
# one row of an N-wide float64 distance matrix).


def _nearest(counts, args, kwargs, result):
    grid, pts = args[0], (args[1] if len(args) > 1 else kwargs["pts"])
    rows = np.atleast_2d(np.asarray(pts)).shape[0]
    counts["dp.nearest_rows"] += rows
    if grid.n_states == 2:  # closed-form rounding, no distance matrix
        counts["dp.nearest_ops_computed"] += rows
        return
    counts["dp.nearest_ops_computed"] += rows * grid.n_points * grid.n_states
    counts["dp.nearest_bytes_computed"] += rows * grid.n_points * FLOAT_BYTES


def _convexity(counts, args, kwargs, result):
    region, grid = args[0], (args[1] if len(args) > 1 else kwargs["grid"])
    r = len({int(i) for i in region})
    pairs = r * (r - 1) // 2
    counts["dp.convexity_pairs"] += pairs
    counts["dp.convexity_ops_computed"] += pairs * grid.n_points * grid.n_states


def _value_iterate(counts, args, kwargs, result):
    counts["dp.sweeps"] += result.sweeps


def _simulate_batch(counts, args, kwargs, result):
    # a row is active from step 1 through its stop step (the cap when
    # censored), and the loop runs until the last row stops
    counts["sim.loop_steps"] += int(result.tau.max())
    counts["sim.belief_steps"] += int(result.tau.sum())
    counts["sim.rows"] += result.tau.size
    counts["sim.censored_rows"] += int(result.censored.sum())


def _spsa_optimize(counts, args, kwargs, result):
    # J+ == J- gives a zero gradient, so phi does not move
    phi = result.phi_trace
    counts["policy.spsa_iterations"] += phi.shape[0] - 1
    counts["policy.flat_iterations"] += int(np.all(phi[1:] == phi[:-1], axis=1).sum())


PROBES = {
    "dp.nearest": _nearest,
    "dp.convexity_check": _convexity,
    "dp.value_iterate": _value_iterate,
    "sim.simulate_batch": _simulate_batch,
    "policy.spsa_optimize": _spsa_optimize,
}


# ---------------------------------------------------------------------------


class Tracer:
    """Installs span-recording wrappers on the package; use as a context manager."""

    def __init__(self, package):
        self.package = package
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        stack, clock, probe = self._stack, time.perf_counter, PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]  # name, time covered by child spans
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self._close(frame, t0, t1)
            if probe is not None:
                probe(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _close(self, frame, t0, t1):
        name, dur = frame[0], t1 - t0
        parent = self._stack[-1] if self._stack else None
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - frame[1]
        if parent is not None:
            parent[1] += dur
        parent_name = parent[0] if parent is not None else None
        self.edges[(parent_name, name)] += 1
        if len(self.spans) < MAX_SPANS:
            self.spans.append((name, parent_name, t0, t1))

    @property
    def n_spans(self) -> int:
        return sum(self.calls.values())

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_time.items() if k.split(".")[0] == layer)

    # -- installation ------------------------------------------------------

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self):
        mods = {layer: getattr(self.package, layer) for layer in LAYERS}
        wrapped = {}  # id(original) -> wrapper
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in obj.items():
                        if id(val) in wrapped:
                            self._set(obj, key, wrapped[id(val)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            self._set(cls, meth, self._wrap(f"{layer}.{meth}", getattr(cls, meth)))
        return self

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def span_cost(package, n: int = 20_000) -> float:
    """Seconds one traced call adds, measured on a wrapped no-op."""

    def noop():
        return None

    tracer = Tracer(package)
    wrapped = tracer._wrap("trace.noop", noop)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        wrapped()
    return max((time.perf_counter() - t0 - bare) / n, 0.0)
