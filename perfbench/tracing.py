"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function where its calling module
looks it up (``breakline.cli`` holds its own references to everything it
imported, so both it and the defining module are patched) with a wrapper
that records a span: name, start, end, parent and whether it raised.  The
fitters handed to the bootstrap are wrapped too, as ``bands.refit``.  Spans
stay in memory until the run writes them out.  ``uninstall`` puts the
originals back; untraced runs never call ``install``.
"""

from __future__ import annotations

import importlib
import json
import statistics
from time import perf_counter

# (module, attribute) -> span name; the layer is the part before the dot
TARGETS = {
    ("breakline.cli", "load_dataset"): "dataset.load",
    ("breakline.cli", "fit_loess"): "loess.fit",
    ("breakline.loess", "fit_loess"): "loess.fit",
    ("breakline.cli", "fit_segmented"): "piecewise.fit",
    ("breakline.piecewise", "fit_segmented"): "piecewise.fit",
    ("breakline.cli", "breakpoint_intervals"): "piecewise.intervals",
    ("breakline.cli", "plrm_prediction_band"): "piecewise.band",
    ("breakline.cli", "bootstrap_bands"): "bands.bootstrap",
    ("breakline.piecewise", "bootstrap_band"): "bands.bootstrap",
    ("breakline.bands", "predicted_residual_pool"): "bands.pool",
    ("breakline.bands", "band_from_pool"): "bands.quantile",
    ("breakline.cli", "fit_tau_grid"): "quantile.grid",
    ("breakline.cli", "fit_segmented_quantile"): "quantile.tau_fit",
    ("breakline.quantile", "fit_segmented_quantile"): "quantile.tau_fit",
    ("breakline.cli", "quantile_breakpoint_intervals"): "quantile.intervals",
    ("breakline.cli", "pqrm_prediction_band"): "quantile.band",
    ("breakline.cli", "compute_area"): "area.band_area",
    ("breakline.area", "compute_area"): "area.band_area",
    ("breakline.cli", "compare_methods"): "area.compare",
    ("breakline.cli", "write_json"): "report.write",
    ("breakline.cli", "write_band_csv"): "report.write",
    ("breakline.cli", "write_tau_table_csv"): "report.write",
    ("breakline.cli", "write_comparison_csv"): "report.write",
    ("breakline.cli", "write_geometry_csv"): "report.write",
    ("breakline.cli", "write_svg_figure"): "report.write",
}
# factories whose returned fitter is wrapped as a "bands.refit" span
FITTER_FACTORIES = (("breakline.cli", "loess_fitter"), ("breakline.piecewise", "segmented_fitter"))


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, raised]
        self._stack = []
        self._saved = []

    def span(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), None, parent, False]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            record[4] = True
            raise
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self):
        for (module, attr), name in TARGETS.items():
            self._patch(module, attr, self.wrap(name, getattr(importlib.import_module(module), attr)))
        for module, attr in FITTER_FACTORIES:
            factory = getattr(importlib.import_module(module), attr)
            self._patch(module, attr, self._wrapped_factory(factory))

    def _wrapped_factory(self, factory):
        def make(*args, **kwargs):
            return self.wrap("bands.refit", factory(*args, **kwargs))

        return make

    def _patch(self, module, attr, value):
        mod = importlib.import_module(module)
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "raised"], "spans": self.spans}, handle)


def self_times(spans, root):
    """Spans under ``root`` (inclusive) as (name, duration, self time, raised)."""
    children_time = {}
    rows = []
    for k in range(root, len(spans)):
        name, start, end, parent, raised = spans[k]
        if k != root and parent == -1:
            break
        if k != root:
            children_time[parent] = children_time.get(parent, 0.0) + (end - start)
        rows.append((k, name, end - start, raised))
    return [(name, dur, dur - children_time.get(k, 0.0), raised) for k, name, dur, raised in rows]


def wrapper_cost():
    """Seconds per wrapped call of a no-op, and per install plus uninstall;
    each the median of five timings of a tight loop."""

    def noop():
        return None

    per_call, per_install = [], []
    for _ in range(5):
        tracer = Tracer()
        wrapped = tracer.wrap("noop", noop)
        start = perf_counter()
        for _ in range(20_000):
            wrapped()
        per_call.append((perf_counter() - start) / 20_000)
        start = perf_counter()
        for _ in range(100):
            tracer.install()
            tracer.uninstall()
        per_install.append((perf_counter() - start) / 100)
    return statistics.median(per_call), statistics.median(per_install)
