"""Span tracing around the public functions of every ``polsardr`` module.

``Tracer.install`` replaces each public module-level function (and each public
classmethod) with a wrapper that records a span: name, start, end and the
index of the enclosing span.  Modules bind functions directly
(``from .classify import distance_stack`` in ``evolution``, the subcommand
imports in ``cli``), so every module attribute that holds the original
function is patched, not only the defining one.  ``uninstall`` restores the
originals, so untraced iterations run the program exactly as shipped.

Spans stay in memory; ``layer_metrics`` folds one iteration's spans into the
per-layer totals that ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

from workloads import RULES

PACKAGE = "polsardr"

# Per-layer metric -> span names whose self time it sums.
SELF_TIME = {
    "hermitian.inv3_s": ["hermitian.inv3"],
    "hermitian.det3_s": ["hermitian.det3"],
    "hermitian.is_positive_definite_s": ["hermitian.is_positive_definite"],
    "hermitian.assemble_s": ["hermitian.assemble"],
    "distances.kl_s": ["distances.kl_distance"],
    "distances.hd_s": ["distances.hellinger_distance"],
    "distances.ed_s": ["distances.euclidean_distance"],
    "classify.distance_stack_s": ["classify.distance_stack"],
    "classify.classify_image_s": ["classify.classify_image"],
    "wishart.log_density_s": ["wishart.log_density"],
    "wishart.sample_s": ["wishart.sample"],
    "evolution.evolve_s": ["evolution.evolve"],
    "evolution.diffusion_step_s": ["evolution.diffusion_step"],
    "evolution.reaction_step_s": ["evolution.reaction_step"],
    "weights.optimize_s": ["weights.optimize_weights"],
    "weights.distance_tables_s": ["weights.distance_tables"],
    "estimation.sample_stats_s": ["estimation.SampleStats.from_sample",
                                  "estimation.estimate_sigma"],
    "estimation.looks_s": ["estimation.estimate_looks_corrected",
                           "estimation.estimate_looks_ml", "estimation.looks_score",
                           "estimation.polygamma3", "estimation.box_snell_bias"],
    "phantom.generate_s": ["phantom.generate_phantom", "phantom.region_map"],
    "dataio.read_s": ["dataio.read_covariance_image", "dataio.read_classmap",
                      "dataio.read_roi", "dataio.read_model", "dataio.read_ppm"],
    "dataio.write_s": ["dataio.write_covariance_image", "dataio.write_classmap",
                       "dataio.write_roi", "dataio.write_model", "dataio.write_ppm"],
    "dataio.render_s": ["dataio.render_rgb", "dataio.render_classmap",
                        "dataio.default_palette"],
}

# Per-layer metric -> span names whose calls it counts.
CALLS = {
    "hermitian.inv3_calls": ["hermitian.inv3"],
    "hermitian.det3_calls": ["hermitian.det3"],
    "distances.calls": ["distances.kl_distance", "distances.hellinger_distance",
                        "distances.bhattacharyya_distance", "distances.euclidean_distance"],
    "classify.distance_stack_calls": ["classify.distance_stack"],
    "evolution.diffusion_step_calls": ["evolution.diffusion_step"],
    "evolution.reaction_step_calls": ["evolution.reaction_step"],
}

# Inclusive (not self) time of classify_image, split by rule.
RULE_TIME = {f"classify.rule.{r.replace('+', '_')}_s": r for r in RULES}

# Metrics that observers fill from call arguments and results.
OBSERVED = ("weights.iterations", "evolution.field_bytes_computed",
            "dataio.bytes_read", "dataio.bytes_written")

PER_LAYER = (list(SELF_TIME) + list(CALLS) + list(RULE_TIME) + list(OBSERVED)
             + ["evolution.pixel_iters_per_s", "trace.overhead_s"])

UNITS = {m: "count" if m in CALLS or m == "weights.iterations"
         else "bytes" if "bytes" in m else "1/s" if m.endswith("_per_s") else "s"
         for m in PER_LAYER}

# Metrics that are a peak or a rate, not a sum, when set-up and run combine.
PEAK = ("evolution.field_bytes_computed", "evolution.pixel_iters_per_s")


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _file_bytes(args, kwargs) -> int:
    paths = [a for a in list(args) + list(kwargs.values())
             if isinstance(a, (str, os.PathLike))]
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


def _peak_field_bytes(counters, field) -> None:
    nbytes = int(getattr(getattr(field, "data", None), "nbytes", 0))
    key = "evolution.field_bytes_computed"
    counters[key] = max(counters[key], nbytes)


class Tracer:
    """Records spans and counters while installed; restores the package on uninstall."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ----------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()

    def _wrap(self, name: str, fn):
        observe = self._observer(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if observe is not None:
                observe(args, kwargs, result, span[2] - span[1])
            return result

        return traced

    def _observer(self, name: str):
        c = self.counters
        if name == "classify.classify_image":
            def observe(args, kwargs, result, seconds):
                rule = _arg(args, kwargs, 2, "rule", "KL")
                c[f"classify.rule.{rule.replace('+', '_')}_s"] += seconds
                _peak_field_bytes(c, _arg(args, kwargs, 0, "field"))
            return observe
        if name in ("evolution.diffusion_step", "evolution.reaction_step"):
            def observe(args, kwargs, result, seconds):
                _peak_field_bytes(c, result)
            return observe
        if name == "evolution.evolve":
            def observe(args, kwargs, result, seconds):
                field, params = _arg(args, kwargs, 0, "field"), _arg(args, kwargs, 2, "params")
                c["evolution.pixel_iters"] += field.height * field.width * params.iterations
                c["evolution.evolve_inclusive_s"] += seconds
            return observe
        if name == "weights.optimize_weights":
            def observe(args, kwargs, result, seconds):
                c["weights.iterations"] += result.n_iter
            return observe
        if name.startswith("dataio.read_"):
            def observe(args, kwargs, result, seconds):
                c["dataio.bytes_read"] += _file_bytes(args, kwargs)
            return observe
        if name.startswith("dataio.write_"):
            def observe(args, kwargs, result, seconds):
                c["dataio.bytes_written"] += _file_bytes(args, kwargs)
            return observe
        return None

    # --- patching -----------------------------------------------------------

    def install(self):
        """Wrap every public function and classmethod of the loaded package modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {n: m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))}
        wrappers: dict[int, object] = {}
        for modname, mod in modules.items():
            short = modname[len(PACKAGE) + 1:]
            for attr, val in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(val) and val.__module__ == modname:
                    wrappers[id(val)] = self._wrap(f"{short}.{val.__name__}", val)
                elif inspect.isclass(val) and val.__module__ == modname:
                    for cattr, cval in list(vars(val).items()):
                        if isinstance(cval, classmethod) and not cattr.startswith("_"):
                            wrapped = classmethod(self._wrap(
                                f"{short}.{val.__name__}.{cattr}", cval.__func__))
                            self._patches.append((val, cattr, cval))
                            setattr(val, cattr, wrapped)
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # --- aggregation --------------------------------------------------------

    def span_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return dict(table)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer totals of the spans recorded since the last reset."""
        table = self.span_table()
        out: dict[str, float] = {}
        for metric, names in SELF_TIME.items():
            out[metric] = sum(table[n]["self_s"] for n in names if n in table)
        for metric, names in CALLS.items():
            out[metric] = sum(table[n]["calls"] for n in names if n in table)
        for metric in list(RULE_TIME) + list(OBSERVED):
            out[metric] = self.counters.get(metric, 0.0)
        seconds = self.counters.get("evolution.evolve_inclusive_s", 0.0)
        out["evolution.pixel_iters_per_s"] = (
            self.counters["evolution.pixel_iters"] / seconds if seconds else 0.0)
        return out
