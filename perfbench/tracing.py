"""Span tracing installed on the library from outside it.

`install` replaces the public functions of every `practica` module, the
public methods and arithmetic operators of its classes, and the
constructors of the geometry point types, with wrappers that record one
span per call: name, start, end, parent span and op id.  Modules import
each other's names (`from .numerics import Interval, ...`) and keep
registries such as `METHODS`, so every module-level binding of a wrapped
function, and every dict value holding one, is rebound as well.

Spans live in flat arrays in memory and are written out once, at the end
of the run.  A span's self time is its duration minus the durations of
its direct children.  Only the traced run calls `install`; untraced runs
import nothing from this file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import types
from array import array
from pathlib import Path

MODULES = (
    "numerics",
    "geometry",
    "heron",
    "circle_measurement",
    "mean_proportionals",
    "root_extraction",
    "cli",
)
METHODS = ("heron_apollonius", "philo", "diocles", "nicomedes")

_OPERATORS = frozenset(
    "__add__ __radd__ __sub__ __rsub__ __mul__ __rmul__ __truediv__ __rtruediv__ __neg__".split()
)
#: Layers whose class constructions are spans (the point-construction count).
_CONSTRUCTIONS_TRACED = ("geometry",)
_FORMATTERS = ("format_decimal", "format_magnitude_bound", "render_value", "render_svg")


class Tracer:
    """In-memory span store plus the few counters read off call results."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.failed = array("b")
        self._stack: list[int] = []
        self.op_id = -1
        self.max_den_bits = 0
        self.precision_retries = 0
        self.root_steps = 0
        self.trial_corrections = 0
        self._op_seed_digits: int | None = None

    def begin_op(self) -> None:
        self.op_id += 1
        self._op_seed_digits = None

    def wrap(self, name: str, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        start, end, names, parents = self.start, self.end, self.name, self.parent
        ops, failed, stack, clock = self.op, self.failed, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            failed.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- counters read off arguments and results ---------------------

    def _interval_bits(self, interval_type):
        def after(args, kwargs, result) -> None:
            if isinstance(result, interval_type):
                bits = max(result.lo.denominator.bit_length(), result.hi.denominator.bit_length())
                if bits > self.max_den_bits:
                    self.max_den_bits = bits
        return after

    def _seed_precision(self, signature: inspect.Signature):
        # A seed built at more digits than the op's first seed is a retry.
        def after(args, kwargs, result) -> None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            digits = bound.arguments["p"].decimal_digits
            if self._op_seed_digits is None:
                self._op_seed_digits = digits
            elif digits > self._op_seed_digits:
                self.precision_retries += 1
        return after

    def _extraction_steps(self, args, kwargs, result) -> None:
        self.root_steps += len(result.steps)
        self.trial_corrections += sum(s.trial_digit - s.corrected_digit for s in result.steps)

    # -- reading the spans back --------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, failures."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total": 0.0, "self": 0.0, "failed": 0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name[i]]]
            rec["calls"] += 1
            rec["total"] += dur[i]
            rec["self"] += dur[i] - child[i]
            rec["failed"] += self.failed[i]
        return out

    def dump(self, directory: Path, stem: str) -> None:
        """Write the spans as raw arrays plus a JSON index of names and layout."""
        directory.mkdir(parents=True, exist_ok=True)
        fields = ("start", "end", "name", "parent", "op", "failed")
        with open(directory / f"{stem}.bin", "wb") as fh:
            for field in fields:
                getattr(self, field).tofile(fh)
        meta = {
            "spans": len(self.start),
            "fields": [[f, getattr(self, f).typecode] for f in fields],
            "names": self.names,
        }
        (directory / f"{stem}.json").write_text(json.dumps(meta))


def install(tracer: Tracer) -> None:
    """Wrap the public surface of every practica module in place."""
    package = importlib.import_module("practica")
    modules = {layer: importlib.import_module(f"practica.{layer}") for layer in MODULES}
    interval_bits = tracer._interval_bits(modules["numerics"].Interval)
    hooks = {
        "circle_measurement.polygon_seed": tracer._seed_precision(
            inspect.signature(modules["circle_measurement"].polygon_seed)
        ),
        "root_extraction.extract_root": tracer._extraction_steps,
    }

    def hook_for(name: str):
        return interval_bits if name.startswith("numerics.") else hooks.get(name)

    wrappers: dict[int, object] = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = tracer.wrap(name, obj, hook_for(name))
            elif isinstance(obj, type):
                _wrap_class(tracer, layer, obj, hook_for)

    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])
            elif isinstance(obj, dict):
                for key, value in obj.items():
                    if id(value) in wrappers:
                        obj[key] = wrappers[id(value)]


def _wrap_class(tracer: Tracer, layer: str, cls: type, hook_for) -> None:
    for attr, member in list(vars(cls).items()):
        wanted = (
            not attr.startswith("_")
            or attr in _OPERATORS
            or (attr == "__init__" and layer in _CONSTRUCTIONS_TRACED)
        )
        if not wanted:
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(member, types.FunctionType):
            setattr(cls, attr, tracer.wrap(name, member, hook_for(name)))
        elif isinstance(member, (classmethod, staticmethod)):
            setattr(cls, attr, type(member)(tracer.wrap(name, member.__func__, hook_for(name))))
        elif isinstance(member, property) and member.fget is not None:
            wrapped = tracer.wrap(name, member.fget, hook_for(name))
            setattr(cls, attr, property(wrapped, member.fset, member.fdel, member.__doc__))


# ----------------------------------------------------------------------
# per-layer metrics

#: Per-layer metric units; `s/op` and `count/op` are totals divided by
#: the ops of the traced run, `s` is a per-call mean or median.
LAYER_UNITS = {
    "numerics.interval_ops": "count/op",
    "numerics.interval_self_s": "s/op",
    "numerics.interval_max_den_bits": "bits",
    "numerics.sqrt_calls": "count/op",
    "numerics.sqrt_self_s": "s/op",
    "geometry.point_constructions": "count/op",
    "geometry.self_s": "s/op",
    **{f"mean_proportionals.{m}.solve_s": "s" for m in METHODS},
    **{f"mean_proportionals.{m}.failed": "frac" for m in METHODS},
    "mean_proportionals.neusis_calls": "count/op",
    "mean_proportionals.neusis_self_s": "s/op",
    "mean_proportionals.neusis_useful_ratio": "ratio",
    "circle_measurement.double_polygon_calls": "count/op",
    "circle_measurement.double_polygon_self_s": "s/op",
    "circle_measurement.precision_retries": "count/op",
    "circle_measurement.failed": "frac",
    "heron.verify_identity_s": "s",
    "heron.self_s": "s/op",
    "heron.failed": "frac",
    "root_extraction.extract_root_s": "s",
    "root_extraction.form_divisor_calls": "count/op",
    "root_extraction.form_divisor_self_s": "s/op",
    "root_extraction.steps": "count/op",
    "root_extraction.trial_corrections": "count/op",
    "root_extraction.failed": "frac",
    "cli.main_s": "s",
    "cli.format_self_s": "s/op",
    "cli.process_overhead_s": "s",
    "cli.failed": "frac",
    "trace.spans": "count",
    "trace.ops_per_s_delta": "1/s",
}


def layer_metrics(tracer: Tracer, ops: int, tally: dict) -> dict[str, float]:
    """Per-layer values from the spans, the counters and the op outcomes.

    ``tally`` maps an outcome key (a layer, or a solver for
    mean_proportionals) to {"attempted": n, "solved": n}.
    ``cli.main_s``, ``cli.process_overhead_s`` and
    ``trace.ops_per_s_delta`` come from the untraced run and are filled in
    by the caller.
    """
    agg = tracer.aggregate()

    def pick(pred, field: str) -> float:
        return sum(rec[field] for name, rec in agg.items() if pred(name))

    def named(*names: str):
        return lambda n: n in names

    def prefixed(prefix: str):
        return lambda n: n.startswith(prefix)

    def mean_call(name: str) -> float:
        rec = agg.get(name)
        return rec["total"] / rec["calls"] if rec and rec["calls"] else 0.0

    def failed_frac(key: str) -> float:
        rec = tally.get(key)
        return 1 - rec["solved"] / rec["attempted"] if rec and rec["attempted"] else 0.0

    per_op = 1 / max(ops, 1)
    interval = prefixed("numerics.Interval.")
    sqrt = named("numerics.rat_sqrt_bounds", "numerics.interval_sqrt")
    neusis = named("mean_proportionals.solve_neusis")
    neusis_calls = pick(neusis, "calls")
    nicomedes_solved = tally.get("mean_proportionals.nicomedes", {"solved": 0})["solved"]

    m = {
        "numerics.interval_ops": pick(interval, "calls") * per_op,
        "numerics.interval_self_s": pick(interval, "self") * per_op,
        "numerics.interval_max_den_bits": tracer.max_den_bits,
        "numerics.sqrt_calls": pick(named("numerics.rat_sqrt_bounds"), "calls") * per_op,
        "numerics.sqrt_self_s": pick(sqrt, "self") * per_op,
        "geometry.point_constructions": pick(
            named("geometry.Point2.__init__", "geometry.PointBounds.__init__"), "calls"
        ) * per_op,
        "geometry.self_s": pick(prefixed("geometry."), "self") * per_op,
        "mean_proportionals.neusis_calls": neusis_calls * per_op,
        "mean_proportionals.neusis_self_s": pick(neusis, "self") * per_op,
        "mean_proportionals.neusis_useful_ratio": (
            nicomedes_solved / neusis_calls if neusis_calls else 0.0
        ),
        "circle_measurement.double_polygon_calls": pick(
            named("circle_measurement.double_polygon"), "calls"
        ) * per_op,
        "circle_measurement.double_polygon_self_s": pick(
            named("circle_measurement.double_polygon"), "self"
        ) * per_op,
        "circle_measurement.precision_retries": tracer.precision_retries * per_op,
        "circle_measurement.failed": failed_frac("circle_measurement"),
        "heron.verify_identity_s": mean_call("heron.verify_heron_identity"),
        "heron.self_s": pick(prefixed("heron."), "self") * per_op,
        "heron.failed": failed_frac("heron"),
        "root_extraction.extract_root_s": mean_call("root_extraction.extract_root"),
        "root_extraction.form_divisor_calls": pick(
            named("root_extraction.form_divisor"), "calls"
        ) * per_op,
        "root_extraction.form_divisor_self_s": pick(
            named("root_extraction.form_divisor"), "self"
        ) * per_op,
        "root_extraction.steps": tracer.root_steps * per_op,
        "root_extraction.trial_corrections": tracer.trial_corrections * per_op,
        "root_extraction.failed": failed_frac("root_extraction"),
        "cli.format_self_s": pick(named(*(f"cli.{f}" for f in _FORMATTERS)), "self") * per_op,
        "cli.failed": failed_frac("cli"),
        "trace.spans": len(tracer.start),
    }
    for method in METHODS:
        m[f"mean_proportionals.{method}.solve_s"] = mean_call(f"mean_proportionals.solve_{method}")
        m[f"mean_proportionals.{method}.failed"] = failed_frac(f"mean_proportionals.{method}")
    return m
