"""Span tracing around privtest's public functions, installed from outside.

:func:`install` replaces every public function of the privtest modules, in
every privtest namespace that binds it, with a wrapper that records a span
(name, start, end, parent) in a :class:`Recorder`.  ``PolicySpace.batch_laws``
and the verify suite table are wrapped as well.  Private helpers are never
wrapped, so they may change freely; their time shows as the self time of the
nearest public caller.  :func:`layer_metrics` turns the spans into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from dataclasses import dataclass, field

import numpy as np

from workloads import SUITE_TRIALS

MODULES = ("probkit", "model", "bayes", "optimizer", "verify", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Recorder.spans, -1 at the top
    counters: dict = field(default_factory=dict)
    raised: bool = False


class Recorder:
    """Keeps spans in memory; records only while ``enabled``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self._stack: list[int] = []

    def call(self, name, fn, counter, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        counters = counter(fn, args, kwargs) if counter else {}
        span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1,
                    counters=counters)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span.raised = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()


# ---------------------------------------------------------------------------
# Counters computed from call arguments
# ---------------------------------------------------------------------------


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _rows(fn, args, kwargs) -> dict:
    params = _bound(fn, args, kwargs)["params"]
    return {"rows": np.atleast_2d(np.asarray(params)).shape[0]}


def _types(fn, args, kwargs) -> dict:
    a = _bound(fn, args, kwargs)
    m = len(a["block_laws"].block_labels)
    return {"types": math.comb(a["n"] + m - 1, m - 1)}


def _sanov_points(fn, args, kwargs) -> dict:
    a = _bound(fn, args, kwargs)
    m = len(a["block_laws"].block_labels)
    steps = max(1, round(1.0 / a["grid_step"]))
    return {"points": math.comb(steps + m - 1, m - 1)}


def _sequences(fn, args, kwargs) -> dict:
    a = _bound(fn, args, kwargs)
    return {"sequences": len(a["laws"].block_labels) ** a["n_blocks"]}


COUNTERS = {
    "model.batch_laws": _rows,
    "bayes.exact_min_error_iid_log": _types,
    "bayes.exponent_sanov": _sanov_points,
    "bayes.exact_min_error": _sequences,
}


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------


def _wrap(recorder: Recorder, name: str, fn):
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, counter, args, kwargs)

    return wrapper


def install(recorder: Recorder, package) -> None:
    """Wrap privtest's public functions so that ``recorder`` sees their calls."""
    modules = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
    wrappers = {}
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if not obj.__module__.startswith(package.__name__ + "."):
                continue
            if obj not in wrappers:
                layer = obj.__module__.rsplit(".", 1)[-1]
                wrappers[obj] = _wrap(recorder, f"{layer}.{obj.__name__}", obj)
            setattr(module, attr, wrappers[obj])
    space = package.model.PolicySpace
    space.batch_laws = _wrap(recorder, "model.batch_laws", space.batch_laws)
    suites = package.verify.SUITES
    for key, fn in list(suites.items()):
        suites[key] = _wrap(recorder, f"verify.{key}", fn)


# ---------------------------------------------------------------------------
# Self time and per-layer metrics
# ---------------------------------------------------------------------------


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        clipped = [(max(s, span.start), min(e, span.end)) for s, e in kids]
        out.append(span.end - span.start - covered([c for c in clipped if c[1] > c[0]]))
    return out


def aggregate(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds (outermost of a same-name nest
    only), self seconds, and summed counters."""
    selfs = self_times(spans)
    agg: dict[str, dict] = {}
    for i, span in enumerate(spans):
        a = agg.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        a["calls"] += 1
        a["self_s"] += selfs[i]
        p = span.parent
        while p >= 0 and spans[p].name != span.name:
            p = spans[p].parent
        if p < 0:
            a["s"] += span.end - span.start
        for key, value in span.counters.items():
            a[key] = a.get(key, 0) + value
    return agg


# Calls under optimize_policy that re-validate and re-score the chosen kernel.
REVERIFY = ("optimizer.guarantee_check", "optimizer.privacy_objective",
            "model.validate_policy", "model.induced_output_laws")

# Unordered cross-group law pairs scored per grid candidate.
PAIRS_PER_CANDIDATE = 6


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition whose timed region took
    ``wall`` seconds (trace.overhead_frac is added by the caller).

    Durations are shares of ``wall``.  Every workload leaves some layers
    idle, and their durations would read exactly 0 s on every run; a share
    of 0 is still a measurement.  Speeds are per second of the function's
    own inclusive time.
    """
    agg = aggregate(spans)
    selfs = self_times(spans)
    m: dict[str, float] = {}

    def get(name, key="s"):
        return agg.get(name, {}).get(key, 0)

    def add(name, *keys):
        for key in keys:
            if key == "share":
                m[f"{name}.share"] = get(name) / wall
            elif key == "self_share":
                m[f"{name}.self_share"] = get(name, "self_s") / wall
            else:
                m[f"{name}.{key}"] = get(name, key)

    def under(parent_name, names):
        return [s for s in spans if s.name in names and s.parent >= 0
                and spans[s.parent].name == parent_name]

    g = "optimizer.grid_evaluation"
    add(g, "calls", "share", "self_share")
    grid_rows = sum(s.counters["rows"] for s in under(g, {"model.batch_laws"}))
    m[f"{g}.candidates"] = grid_rows
    m[f"{g}.pair_evals_per_s"] = _rate(PAIRS_PER_CANDIDATE * grid_rows, get(g))
    o = "optimizer.optimize_policy"
    add(o, "calls", "share", "self_share")
    refine = under(o, {"model.batch_laws"})
    m[f"{o}.evals"] = len(refine)
    m[f"{o}.rows"] = sum(s.counters["rows"] for s in refine)
    m[f"{o}.evals_per_s"] = _rate(len(refine), get(o))
    m["optimizer.reverify.share"] = sum(s.end - s.start for s in under(o, REVERIFY)) / wall
    add("optimizer.tradeoff_sweep", "share")
    add("optimizer.monotonicity_check", "share")
    b = "model.batch_laws"
    add(b, "calls", "rows", "share")
    m[f"{b}.rows_per_s"] = _rate(get(b, "rows"), get(b))
    add("model.policy_space", "calls", "share")
    add("model.induced_output_laws", "calls", "share")
    add("model.validate_policy", "share")
    add("model.blockwise_extend", "share")
    c = "probkit.chernoff_from_probs"
    add(c, "calls", "share")
    m[f"{c}.calls_per_s"] = _rate(get(c, "calls"), get(c))
    for name in ("composite_chernoff", "composite_chernoff_primal_oracle", "kl_from_probs"):
        add(f"probkit.{name}", "calls", "share")
    for name, counter in (("bayes.exact_min_error_iid_log", "types"),
                          ("bayes.exponent_sanov", "points")):
        add(name, "calls", "share", counter)
        m[f"{name}.{counter}_per_s"] = _rate(get(name, counter), get(name))
    add("bayes.exact_min_error", "calls", "share", "sequences")
    for name in ("exponent_composite", "exponent_chernoff", "exponent_lower_bound"):
        add(f"bayes.{name}", "share")
    for suite in SUITE_TRIALS:
        add(f"verify.{suite}", "share")
    add("cli.main", "share", "self_share")
    for layer in MODULES:
        mine = [i for i, s in enumerate(spans) if s.name.startswith(layer + ".")]
        m[f"{layer}.self_share"] = sum(selfs[i] for i in mine) / wall
        m[f"{layer}.raised"] = sum(spans[i].raised for i in mine)
    return {k: float(v) for k, v in m.items()}
