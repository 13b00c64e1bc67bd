"""Outside-in layer trace of the tracking pipeline.

The tracer replaces public functions of ``almbtrack`` by timing wrappers
at every module that holds a reference to them (the defining module and
each importer, such as ``pipeline``, ``lmb``, ``dglmb`` and
``switching``), so calls made through any import site are seen.  Spans
are kept as a stack: a span's self time is its duration minus the time
covered by the spans it encloses, and self time is summed per layer.
Counters are read from the arguments and results at the same
boundaries.  ``pipeline_step`` is the root span: one call is one scan.

Nothing inside ``src/`` changes; ``uninstall`` restores every original.
"""

import sys
from collections import Counter, defaultdict
from time import perf_counter

# Pipeline stage functions and the stage name they are reported under.
STAGES = {
    "inject_birth": "birth",
    "predict_group": "predict",
    "gate_measurements": "gate",
    "merge_groups": "merge",
    "update_group": "update",
    "prune_group": "prune",
    "split_group": "split",
    "extract_tracks": "extract",
}

# (module, function) -> layer.  Stage functions and the root belong to
# the pipeline layer.
TRACED = {("pipeline", "pipeline_step"): "pipeline"}
TRACED.update({("pipeline", name): "pipeline" for name in STAGES})
TRACED.update({
    ("lmb", "lmb_predict"): "lmb",
    ("lmb", "lmb_update"): "lmb",
    ("dglmb", "dglmb_predict"): "dglmb",
    ("dglmb", "dglmb_update"): "dglmb",
    ("dglmb", "dglmb_prune"): "dglmb",
    ("densities", "dglmb_to_lmb"): "densities",
    ("densities", "lmb_to_dglmb"): "densities",
    ("densities", "dglmb_cardinality"): "densities",
    ("densities", "lmb_cardinality"): "densities",
    ("densities", "top_weighted_subsets"): "densities",
    ("gaussian", "gm_predict"): "gaussian",
    ("gaussian", "gm_kalman_update_log"): "gaussian",
    ("gaussian", "mahalanobis_sq"): "gaussian",
    ("gaussian", "gate_mask"): "gaussian",
    ("gaussian", "gm_reduce"): "gaussian",
    ("gaussian", "predicted_measurement"): "gaussian",
    ("gaussian", "map_point"): "gaussian",
    ("assignment", "ranked_assignments"): "assignment",
    ("switching", "kl_criterion"): "switching",
    ("switching", "kl_divergence"): "switching",
    ("switching", "association_entropy"): "switching",
    ("switching", "decide_switch"): "switching",
})

LAYERS = ("pipeline", "lmb", "dglmb", "densities", "gaussian", "assignment",
          "switching")

# Per-layer metric names (suffixed ``.<filter>`` in the report) and units.
LAYER_METRICS = (
    [("pipeline.%s_ms" % stage, "ms/scan") for stage in STAGES.values()]
    + [("pipeline.self_ms", "ms/scan"),
       ("pipeline.groups", "count/scan"),
       ("pipeline.dglmb_groups", "count/scan"),
       ("pipeline.merged_away", "count/scan"),
       ("pipeline.split_out", "count/scan"),
       ("lmb.self_ms", "ms/scan"),
       ("dglmb.self_ms", "ms/scan"),
       ("dglmb.hyp_in", "count/scan"),
       ("dglmb.children", "count/scan"),
       ("dglmb.hyp_out", "count/scan"),
       ("dglmb.kept_ratio", "ratio"),
       ("densities.self_ms", "ms/scan"),
       ("densities.to_lmb_calls", "count/scan"),
       ("densities.to_dglmb_calls", "count/scan"),
       ("gaussian.self_ms", "ms/scan"),
       ("gaussian.kalman_updates", "count/scan"),
       ("gaussian.mahalanobis_calls", "count/scan"),
       ("gaussian.gate_mask_calls", "count/scan"),
       ("gaussian.predict_calls", "count/scan"),
       ("gaussian.reduce_calls", "count/scan"),
       ("assignment.self_ms", "ms/scan"),
       ("assignment.calls", "count/scan"),
       ("assignment.murty_share", "ratio"),
       ("assignment.maps_per_call", "count"),
       ("switching.self_ms", "ms/scan"),
       ("switching.switch_up", "count/scan"),
       ("switching.switch_down", "count/scan")])

# With ``method="auto"``, ``ranked_assignments`` enumerates up to this
# many rows x measurements and runs Murty above it
# (``assignment._ENUMERATE_LIMIT``).
_ENUMERATE_LIMIT = 16


def _count_pipeline_step(counts, args, kwargs, result):
    diagnostics = result[2]
    counts["scans"] += 1
    counts["groups"] += diagnostics["n_groups"]
    counts["dglmb_groups"] += diagnostics["n_dglmb_groups"]


def _count_merge(counts, args, kwargs, result):
    counts["merged_away"] += len(args[0]) - len(result)


def _count_split(counts, args, kwargs, result):
    counts["split_out"] += len(result) - 1


def _count_dglmb_update(counts, args, kwargs, result):
    counts["hyp_in"] += len(args[0].hypotheses)
    counts["hyp_out"] += len(result.posterior.hypotheses)


def _count_assignment(counts, args, kwargs, result):
    rows, cols = args[0].shape
    method = kwargs.get("method", args[2] if len(args) > 2 else "auto")
    if method == "auto":
        method = ("murty" if rows * (cols - rows) > _ENUMERATE_LIMIT
                  else "enumerate")
    if method == "murty":
        counts["murty_calls"] += 1
    counts["maps"] += len(result)


def _count_switch(counts, args, kwargs, result):
    before, after = args[0].mode.value, result.mode.value
    if before != after:
        counts["switch_up" if after == "dglmb" else "switch_down"] += 1


COUNTERS = {
    "pipeline_step": _count_pipeline_step,
    "merge_groups": _count_merge,
    "split_group": _count_split,
    "dglmb_update": _count_dglmb_update,
    "ranked_assignments": _count_assignment,
    "decide_switch": _count_switch,
}


class Tracer:
    """Span stack plus per-function totals, per-layer self time and
    counters, accumulated in memory until ``reset``."""

    def __init__(self):
        self._installed = []
        self._stack = []
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()

    def _wrap(self, name, layer, fn):
        count = COUNTERS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[layer] += elapsed - children[0]
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self):
        """Wrap every traced function at every ``almbtrack`` module that
        holds it; returns the list of (module, attribute) sites."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "almbtrack" or key.startswith("almbtrack.")]
        sites = []
        for (home, name), layer in TRACED.items():
            original = getattr(sys.modules["almbtrack." + home], name)
            wrapper = self._wrap(name, layer, original)
            for module in modules:
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapper)
                    self._installed.append((module, name, original))
                    sites.append((module.__name__, name))
        return sites

    def uninstall(self):
        for module, name, original in self._installed:
            setattr(module, name, original)
        self._installed = []

    def metrics(self):
        """Per-scan layer metrics of everything traced since ``reset``."""
        scans = self.counts["scans"]
        if not scans:
            raise RuntimeError("no scan was traced")
        calls, counts = self.calls, self.counts

        def per_scan(value):
            return value / scans

        def ms(seconds):
            return 1e3 * seconds / scans

        def ratio(num, den):
            return num / den if den else 0.0

        out = {"pipeline.%s_ms" % stage: ms(self.total_s[name])
               for name, stage in STAGES.items()}
        out.update({"%s.self_ms" % layer: ms(self.self_s[layer])
                    for layer in LAYERS})
        out.update({
            "pipeline.groups": per_scan(counts["groups"]),
            "pipeline.dglmb_groups": per_scan(counts["dglmb_groups"]),
            "pipeline.merged_away": per_scan(counts["merged_away"]),
            "pipeline.split_out": per_scan(counts["split_out"]),
            "dglmb.hyp_in": per_scan(counts["hyp_in"]),
            "dglmb.children": per_scan(counts["maps"]),
            "dglmb.hyp_out": per_scan(counts["hyp_out"]),
            "dglmb.kept_ratio": ratio(counts["hyp_out"], counts["maps"]),
            "densities.to_lmb_calls": per_scan(calls["dglmb_to_lmb"]),
            "densities.to_dglmb_calls": per_scan(calls["lmb_to_dglmb"]),
            "gaussian.kalman_updates": per_scan(calls["gm_kalman_update_log"]),
            "gaussian.mahalanobis_calls": per_scan(calls["mahalanobis_sq"]),
            "gaussian.gate_mask_calls": per_scan(calls["gate_mask"]),
            "gaussian.predict_calls": per_scan(calls["gm_predict"]),
            "gaussian.reduce_calls": per_scan(calls["gm_reduce"]),
            "assignment.calls": per_scan(calls["ranked_assignments"]),
            "assignment.murty_share": ratio(counts["murty_calls"],
                                            calls["ranked_assignments"]),
            "assignment.maps_per_call": ratio(counts["maps"],
                                              calls["ranked_assignments"]),
            "switching.switch_up": per_scan(counts["switch_up"]),
            "switching.switch_down": per_scan(counts["switch_down"]),
        })
        return out
