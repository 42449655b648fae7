"""Span tracing for the traced benchmark run, installed from outside ``src/``.

:meth:`Tracer.install` wraps every public function named in the ``__all__``
of each combsqec layer module, wherever that function object is bound
across the loaded ``combsqec.*`` modules (callers import by name, so the
defining module's attribute alone is not enough).  It also counts
``LabeledOperator`` and ``ChoiOperator`` constructions and
``numpy.linalg.eigh``/``eigvalsh`` calls.  Each count is credited to the
innermost open span.  An untraced run never calls :meth:`install`, so it
runs the program unmodified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("tensor", "combs", "model", "conditions", "optimize", "library", "io")

# span record fields
NAME, START, END, PARENT, OP, COUNTS = range(6)


class Tracer:
    """In-memory spans and counters; spans are written out by :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = "setup"
        self.wrapped: set[str] = set()
        self.seesaw_calls: list[tuple[dict, object]] = []
        self._restore: list[tuple[object, str, object]] = []
        # spans are opened on this thread only; counts made on other threads
        # (the speed monitor's kernel) belong to no span
        self._thread = threading.get_ident()

    # ------------------------------------------------------------------
    # spans and counts
    # ------------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.op, None]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self.stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        """Credit ``n`` to ``key`` on the innermost open span."""
        if not self.stack or threading.get_ident() != self._thread:
            return
        rec = self.spans[self.stack[-1]]
        if rec[COUNTS] is None:
            rec[COUNTS] = {}
        rec[COUNTS][key] = rec[COUNTS].get(key, 0) + n

    def maximum(self, key: str, value: float) -> None:
        if not self.stack or threading.get_ident() != self._thread:
            return
        rec = self.spans[self.stack[-1]]
        if rec[COUNTS] is None:
            rec[COUNTS] = {}
        rec[COUNTS][key] = max(rec[COUNTS].get(key, 0), value)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, *callers) -> None:
        """Wrap the public functions; ``callers`` are further modules that
        imported them by name (the benchmark's own)."""
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "combsqec" or n.startswith("combsqec.")]
        loaded += callers
        for layer in LAYERS:
            module = importlib.import_module(f"combsqec.{layer}")
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if not inspect.isfunction(fn):
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, attr, wrapper)
                self.wrapped.add(f"{layer}.{name}")
        self._count_constructions()
        self._count_eigensolvers()

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    def _wrap(self, span_name: str, fn):
        after = _AFTER.get(span_name)
        signature = inspect.signature(fn) if after else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(span_name):
                result = fn(*args, **kwargs)
                if after is not None:
                    bound = signature.bind(*args, **kwargs)
                    after(self, bound.arguments, result)
                return result

        return wrapper

    def _count_constructions(self) -> None:
        tensor = importlib.import_module("combsqec.tensor")
        combs = importlib.import_module("combsqec.combs")
        labeled_init = tensor.LabeledOperator.__post_init__
        choi_init = combs.ChoiOperator.__post_init__

        def labeled_post_init(op) -> None:
            labeled_init(op)
            self.count("labeled_operator_constructions")
            self.count("bytes_copied", op.data.nbytes)

        def choi_post_init(choi) -> None:
            # a span of its own, so the PSD check's eigvalsh is credited
            # to the combs layer whichever layer built the operator
            with self.span("combs.ChoiOperator"):
                choi_init(choi)
                self.count("choi_constructions")
                self.maximum("choi_validated_dim_max", choi.op.row_dim)

        self._patch(tensor.LabeledOperator, "__post_init__", labeled_post_init)
        self._patch(combs.ChoiOperator, "__post_init__", choi_post_init)

    def _count_eigensolvers(self) -> None:
        la = np.linalg
        for name in ("eigh", "eigvalsh"):
            fn = getattr(la, name)

            def counted(a, *args, _fn=fn, _name=name, **kwargs):
                self.count(f"{_name}_calls")
                self.count(f"{_name}_n3", int(np.shape(a)[-1]) ** 3)
                return _fn(a, *args, **kwargs)

            self._patch(la, name, counted)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "name": rec[NAME], "start": rec[START], "end": rec[END],
                    "parent": rec[PARENT], "op": rec[OP], "counts": rec[COUNTS],
                }) + "\n")


# ----------------------------------------------------------------------
# per-function hooks: extra counts read from arguments and results
# ----------------------------------------------------------------------


def _after_load(tracer: Tracer, arguments: dict, result) -> None:
    tracer.count("load_bytes", os.path.getsize(arguments["path"]))


def _after_export(tracer: Tracer, arguments: dict, result) -> None:
    tracer.count("export_bytes", os.path.getsize(arguments["path"]))


def _after_seesaw(tracer: Tracer, arguments: dict, state) -> None:
    # the first record is the initial state, then one per coordinate step;
    # a cycle starts at the first factor stepped
    trace = state.trace
    tracer.count("trace_records", len(trace))
    tracer.count("rejected_steps", len(state.rejected_steps))
    tracer.count("cycles", sum(1 for r in trace[1:] if r.factor == trace[1].factor))
    tracer.seesaw_calls.append((arguments, state))


_AFTER = {
    "io.load_instance": _after_load,
    "io.export_instance": _after_export,
    "optimize.seesaw": _after_seesaw,
}


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out


def outermost(spans: list[list], index: int) -> bool:
    """True when no enclosing span has the same name (recursion guard)."""
    name = spans[index][NAME]
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return False
        parent = spans[parent][PARENT]
    return True


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

# name -> (unit, how, argument); how is one of
#   incl   inclusive seconds of the named function (outermost calls)
#   self   seconds of the named function minus its child spans
#   calls  calls of the named function
#   layer  a counter credited to spans of the metric's layer
#   total  a counter credited to any span
#   probe  milliseconds of the named function in the probe calls
PER_LAYER = {
    "cli.self_ms": ("ms", "cli_self", None),
    "io.load_s": ("s", "incl", "io.load_instance"),
    "io.load_bytes": ("B", "total", "load_bytes"),
    "io.load_calls": ("count", "calls", "io.load_instance"),
    "io.export_s": ("s", "incl", "io.export_instance"),
    "io.export_bytes": ("B", "total", "export_bytes"),
    "library.build_instance_s": ("s", "incl", "library.build_instance"),
    "library.random_instance_s": ("s", "incl", "library.random_instance"),
    "model.compose_K_calls": ("count", "calls", "model.compose_K"),
    "model.compose_K_s": ("s", "incl", "model.compose_K"),
    "model.enumerate_trajectories_calls": ("count", "calls", "model.enumerate_trajectories"),
    "model.enumerate_trajectories_s": ("s", "incl", "model.enumerate_trajectories"),
    "model.error_comb_s": ("s", "incl", "model.error_comb"),
    "model.interrogator_operator_s": ("s", "incl", "model.interrogator_operator"),
    "conditions.check_algebraic_s": ("s", "self", "conditions.check_algebraic"),
    "conditions.check_info_s": ("s", "self", "conditions.check_info"),
    "conditions.lambda_tensor_s": ("s", "self", "conditions.lambda_tensor"),
    "conditions.joint_state_s": ("s", "self", "conditions.joint_state"),
    "conditions.synth_decoder_algebraic_s": ("s", "incl", "conditions.synth_decoder_algebraic"),
    "conditions.synth_decoder_schmidt_s": ("s", "incl", "conditions.synth_decoder_schmidt"),
    "conditions.verify_recovery_s": ("s", "incl", "conditions.verify_recovery"),
    "optimize.seesaw_s": ("s", "incl", "optimize.seesaw"),
    "optimize.initial_state_s": ("s", "incl", "optimize.initial_state"),
    "optimize.eigh_calls": ("count", "layer", "eigh_calls"),
    "optimize.eigvalsh_calls": ("count", "layer", "eigvalsh_calls"),
    "optimize.eig_n3": ("count", "layer", ("eigh_n3", "eigvalsh_n3")),
    "optimize.cycles": ("count", "total", "cycles"),
    "optimize.trace_records": ("count", "total", "trace_records"),
    "optimize.rejected_steps": ("count", "total", "rejected_steps"),
    "optimize.accepted_step_ratio": ("ratio", "accepted", None),
    "optimize.ent_fidelity_ms": ("ms", "probe", "optimize.ent_fidelity"),
    "optimize.coordinate_step_ms": ("ms", "probe", "optimize.coordinate_step"),
    "optimize.project_cptp_ms": ("ms", "probe", "optimize.project_cptp"),
    "combs.choi_constructions": ("count", "layer", "choi_constructions"),
    "combs.choi_validated_dim_max": ("count", "max", "choi_validated_dim_max"),
    "combs.eigvalsh_n3": ("count", "layer", "eigvalsh_n3"),
    "combs.link_product_s": ("s", "incl", "combs.link_product"),
    "combs.validate_comb_s": ("s", "incl", "combs.validate_comb"),
    "combs.choi_from_kraus_s": ("s", "incl", "combs.choi_from_kraus"),
    "tensor.labeled_operator_constructions": ("count", "total", "labeled_operator_constructions"),
    "tensor.bytes_copied": ("B", "total", "bytes_copied"),
    "tensor.entropy_s": ("s", "incl", "tensor.entropy"),
    "tensor.herm_eig_s": ("s", "incl", "tensor.herm_eig"),
    "tensor.permute_subsystems_s": ("s", "incl", "tensor.permute_subsystems"),
    "tensor.partial_trace_s": ("s", "incl", "tensor.partial_trace"),
}

# exact counters kept per operation kind of the first traced pass
FINGERPRINT = (
    ("model.compose_K_calls", "calls", "model.compose_K"),
    ("optimize.eigh_calls", "layer", "eigh_calls"),
    ("optimize.eigvalsh_calls", "layer", "eigvalsh_calls"),
    ("eigh_calls", "total", "eigh_calls"),
    ("eigvalsh_calls", "total", "eigvalsh_calls"),
    ("combs.choi_constructions", "layer", "choi_constructions"),
    ("tensor.labeled_operator_constructions", "total", "labeled_operator_constructions"),
)


class _Group:
    """Aggregates of the spans of one set-up, pass, or operation."""

    def __init__(self) -> None:
        self.incl: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.layer: dict[tuple[str, str], float] = {}
        self.total: dict[str, float] = {}
        self.max: dict[str, float] = {}
        self.cli_self: list[float] = []

    def add(self, spans: list[list], index: int, self_s: float) -> None:
        rec = spans[index]
        name = rec[NAME]
        self.self_s[name] = self.self_s.get(name, 0.0) + self_s
        if outermost(spans, index):
            self.incl[name] = self.incl.get(name, 0.0) + rec[END] - rec[START]
        self.calls[name] = self.calls.get(name, 0) + 1
        if layer_of(name) == "cli":
            self.cli_self.append(self_s)
        for key, value in (rec[COUNTS] or {}).items():
            if key.endswith("_max"):
                self.max[key] = max(self.max.get(key, 0), value)
                continue
            lk = (layer_of(name), key)
            self.layer[lk] = self.layer.get(lk, 0) + value
            self.total[key] = self.total.get(key, 0) + value

    def value(self, metric: str, how: str, arg) -> float:
        layer = layer_of(metric)
        if how == "incl":
            return self.incl.get(arg, 0.0)
        if how == "self":
            return self.self_s.get(arg, 0.0)
        if how == "calls":
            return self.calls.get(arg, 0)
        if how == "layer":
            keys = arg if isinstance(arg, tuple) else (arg,)
            return sum(self.layer.get((layer, k), 0) for k in keys)
        if how == "total":
            return self.total.get(arg, 0)
        if how == "max":
            return self.max.get(arg, 0)
        raise ValueError(how)


def _median(values: list[float]) -> float:
    return float(np.median(values)) if values else 0.0


def per_layer(tracer: Tracer, untraced_pass_s: float, traced_pass_s: list[float]):
    """Per-layer metrics: the traced set-up plus the median traced pass.

    Returns ``(metrics, details)``; details hold the tracing overhead, the
    exact counters per operation kind, and the metrics whose function is
    no longer public (reported as 0 and listed under ``absent``).
    """
    spans = tracer.spans
    selfs = self_times(spans)
    setup, probe, passes, kinds = _Group(), _Group(), {}, {}
    for i, rec in enumerate(spans):
        op = rec[OP]
        if op == "setup":
            setup.add(spans, i, selfs[i])
        elif op.startswith("probe."):
            probe.add(spans, i, selfs[i])
        else:
            pass_id, _, kind = op.split(".", 2)
            passes.setdefault(pass_id, _Group()).add(spans, i, selfs[i])
            if pass_id == "pass0":
                kinds.setdefault(kind, _Group()).add(spans, i, selfs[i])
    groups = list(passes.values())

    metrics: dict[str, tuple[float, str]] = {}
    absent = []
    for metric, (unit, how, arg) in PER_LAYER.items():
        if how in ("incl", "self", "calls", "probe") and arg not in tracer.wrapped:
            absent.append(metric)
        if how == "cli_self":
            value = 1000.0 * _median([s for g in groups for s in g.cli_self])
        elif how == "probe":
            value = 1000.0 * probe.incl.get(arg, 0.0)
        elif how == "accepted":
            steps = _median([g.total.get("trace_records", 0) - g.calls.get("optimize.seesaw", 0)
                             for g in groups])
            rejected = _median([g.total.get("rejected_steps", 0) for g in groups])
            value = (steps - rejected) / steps if steps else 0.0
        elif how == "max":
            value = max([setup.value(metric, how, arg)] + [g.value(metric, how, arg) for g in groups])
        else:
            value = setup.value(metric, how, arg) + _median(
                [g.value(metric, how, arg) for g in groups])
        metrics[metric] = (value, unit)

    traced = _median(traced_pass_s)
    metrics["trace.overhead_s"] = (traced - untraced_pass_s, "s")
    metrics["trace.overhead_ratio"] = ((traced - untraced_pass_s) / untraced_pass_s, "ratio")

    details: dict[str, tuple[float, str]] = {
        "untraced_pass_s": (untraced_pass_s, "s"),
        "traced_pass_s": (traced, "s"),
        "spans": (len(spans), "count"),
    }
    for kind, group in sorted(kinds.items()):
        for name, how, arg in FINGERPRINT:
            value = group.value(name, how, arg)
            if value:
                details[f"count.{kind}.{name}"] = (value, "count")
    for metric in absent:
        details[f"absent.{metric}"] = (0, "count")
    return metrics, details
