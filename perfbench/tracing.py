"""Span tracing of the public functions of every ris_sim module.

`Tracer.install` wraps each public function defined in a traced module and
rebinds the wrapper under every name that refers to the function in any
ris_sim module namespace, including names bound by `from ... import` and
the values of module-level dicts such as `experiments.RUNNERS`.  Calls made
through a module attribute (`numkernel.capacity_closed_form`) or through an
imported name therefore both land in a span.  `uninstall` restores the
originals.  Tracing assumes one thread, so traced runs use `--threads 1`.

A span is [name, start, end, parent index, child time]; self time is
end - start - child time.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import Counter, defaultdict

MODULES = ("numkernel", "seeding", "channel", "ris", "scheduler", "coexist",
           "deploy", "experiments", "cli")


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, on_return):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        sig = inspect.signature(fn) if on_return is not None else None

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += span[2] - span[1]
            if on_return is not None:
                on_return(self.counters, sig.bind(*args, **kwargs).arguments, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def reset(self):
        self.spans.clear()
        self.counters.clear()

    # -- patching ----------------------------------------------------------

    def install(self, package):
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, fn in _public_functions(module):
                qual = f"{short}.{name}"
                wrappers[id(fn)] = self._wrap(qual, fn, _COUNTERS.get(qual))
        for module in modules:
            ns = vars(module)
            for key, value in list(ns.items()):
                if id(value) in wrappers:
                    self._patches.append((ns, key, value))
                    ns[key] = wrappers[id(value)]
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if id(v) in wrappers:
                            self._patches.append((value, k, v))
                            value[k] = wrappers[id(v)]

    def uninstall(self):
        for mapping, key, original in reversed(self._patches):
            mapping[key] = original
        self._patches.clear()

    # -- reduction ---------------------------------------------------------

    def per_function(self) -> dict:
        """name -> {"calls", "total_s", "self_s"} over all recorded spans."""
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for name, start, end, _, child in self.spans:
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child
        return dict(out)

    def span_records(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "self_s": e - s - c}
            for n, s, e, p, c in self.spans
        ]


# -- counters computed from arguments and results ----------------------------

def _ascent(counters, bound, out):
    sweeps = len(out[2]) - 1
    live = int((bound["amplitudes"] > 0.0).sum())
    counters["ris.ascent_sweeps"] += sweeps
    counters["ris.ascent_max_iter_hits"] += sweeps >= bound["max_iters"]
    counters["ris.candidate_evals"] += (
        sweeps * live * len(bound["entries"]) * bound["grid_points"])


def _snr_map(counters, bound, out):
    counters["deploy.cells_evaluated"] += out.snr_db.size


def _write_outputs(counters, bound, out):
    counters["experiments.bytes_out"] += sum(os.path.getsize(p) for p in out)


_COUNTERS = {
    "ris.weighted_phase_ascent": _ascent,
    "deploy.snr_map": _snr_map,
    "experiments.write_outputs": _write_outputs,
}


# -- per-layer metrics --------------------------------------------------------

#: per-layer metric -> functions whose spans it sums
GROUPS = {
    "ris.weighted_phase_ascent": ("ris.weighted_phase_ascent",),
    "scheduler.compare_shared_vs_ideal": ("scheduler.compare_shared_vs_ideal",),
    "numkernel.capacity_closed_form": ("numkernel.capacity_closed_form",),
    "numkernel.waterfill": ("numkernel.waterfill_powers", "numkernel.waterfill_precoder",
                            "numkernel.waterfill_capacity",
                            "numkernel.capacity_from_singular_values"),
    "numkernel.rate_with_precoder": ("numkernel.rate_with_precoder",),
    "numkernel.svd": ("numkernel.svd", "numkernel.singular_values",
                      "numkernel.numerical_rank"),
    "coexist.stale_csi_trial": ("coexist.stale_csi_trial",),
    "channel.draw_realization": ("channel.draw_realization",),
    "channel.gen_los": ("channel.gen_los",),
    "seeding.subseed": ("seeding.subseed",),
    "deploy.snr_map": ("deploy.snr_map",),
    "deploy.greedy_place": ("deploy.greedy_place",),
}


def layer_metrics(per_fn: dict, counters: Counter) -> dict:
    """Self times, call counts and counters of one traced run."""
    out = {}
    for group, names in GROUPS.items():
        out[f"{group}.self_s"] = sum(per_fn.get(n, {}).get("self_s", 0.0) for n in names)
        out[f"{group}.calls"] = sum(per_fn.get(n, {}).get("calls", 0) for n in names)
    out["experiments.self_s"] = sum(
        v["self_s"] for n, v in per_fn.items()
        if n.startswith("experiments.") and n != "experiments.write_outputs")
    out["experiments.serialize_s"] = per_fn.get("experiments.write_outputs", {}).get(
        "total_s", 0.0)
    out["cli.validate_s"] = per_fn.get("cli.validate_config", {}).get("total_s", 0.0)
    for key in ("ris.ascent_sweeps", "ris.ascent_max_iter_hits", "ris.candidate_evals",
                "deploy.cells_evaluated", "experiments.bytes_out"):
        out[key] = counters.get(key, 0)
    return out
