"""Span recorder installed from outside the library.

``Tracer.install`` replaces, for the duration of a traced run, the public
functions that one ``cpoe`` module calls in another (and the kernel classes'
evaluation methods) with wrappers that record a span: name, start, end,
parent span and the benchmark operation it belongs to.  Counts are taken at
the same boundaries.  Nothing is recorded outside a timed operation.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

# per-layer metrics reported as self times: span name -> metric name
SPAN_METRICS = {
    "expert_graph.build": "expert_graph.build_s",
    "kernels.call": "kernels.call_s",
    "kernels.grad_stack": "kernels.grad_stack_s",
    "kernels.grad": "kernels.grad_s",
    "kernels.jittered_cholesky": "kernels.jittered_cholesky_s",
    "cpoe_model.build_local_factors": "cpoe_model.build_local_factors_s",
    "cpoe_model.assemble_prior_precision": "cpoe_model.assemble_prior_precision_s",
    "cpoe_model.assemble_posterior": "cpoe_model.assemble_posterior_s",
    "cpoe_model.lml_gradient": "cpoe_model.lml_gradient_s",
    "cpoe_model.stochastic_lml_term": "cpoe_model.stochastic_lml_term_s",
    "block_sparse.block_cholesky": "block_sparse.block_cholesky_s",
    "block_sparse.partial_inverse": "block_sparse.partial_inverse_s",
    "prediction.predict_arrays": "prediction.predict_arrays_s",
    "training.adam_step": "training.adam_step_s",
}
COUNT_METRICS = ("kernels.entries", "kernels.jittered_cholesky_calls",
                 "kernels.jitter_applied", "block_sparse.factor_blocks",
                 "prediction.experts_per_query")
_KERNEL_SPANS = ("kernels.call", "kernels.grad", "kernels.grad_stack")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int, float]] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op: int | None = None          # current operation id, None = not recording
        self._stack: list[list] = []        # [name, start, child time, span index]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enclosing(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def _count(self, name: str, args, kwargs, result) -> None:
        c = self.counts[self.op]
        parent = self._stack[-1][0] if self._stack else None
        if name in _KERNEL_SPANS and parent not in _KERNEL_SPANS:
            c["kernels.entries"] += np.size(result)
            if name == "kernels.call" and self._enclosing("prediction.predict_arrays"):
                c["prediction.query_rows"] += np.shape(args[1])[0]
        elif name == "kernels.jittered_cholesky":
            c["kernels.jittered_cholesky_calls"] += 1
            c["kernels.jitter_applied"] += result[1] > 0
        elif name == "block_sparse.block_cholesky":
            c["block_sparse.factor_blocks"] += len(result.blocks)
        elif name == "prediction.predict_arrays":
            c["prediction.queries"] += np.shape(args[1])[0]

    def _wrap(self, name_of, fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            name = name_of(args, kwargs)
            frame = [name, time.perf_counter(), 0.0, len(tracer.spans)]
            tracer.spans.append(None)  # placeholder keeps parents before children
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - frame[1]
                parent = tracer._stack[-1][3] if tracer._stack else -1
                if tracer._stack:
                    tracer._stack[-1][2] += duration
                tracer.spans[frame[3]] = (name, frame[1], end, parent, tracer.op,
                                          duration - frame[2])
            tracer._count(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, name_of) -> None:
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(self._wrap(name_of, original.__func__)))
        else:
            setattr(owner, attr, self._wrap(name_of, original))

    def install(self) -> None:
        """Wrap each layer boundary, at the name its caller looks it up by."""
        from cpoe import cpoe_model, expert_graph, kernels, prediction, training

        def fixed(name):
            return lambda args, kwargs: name

        self._patch(expert_graph.ExpertGraph, "build", fixed("expert_graph.build"))
        for cls in (kernels.SquaredExponential, kernels.Periodic,
                    kernels.SpectralMixture, kernels.SumKernel):
            for attr, name in (("__call__", "kernels.call"), ("grad", "kernels.grad"),
                               ("grad_stack", "kernels.grad_stack")):
                if attr in cls.__dict__:
                    self._patch(cls, attr, fixed(name))
        self._patch(cpoe_model, "jittered_cholesky", fixed("kernels.jittered_cholesky"))
        for attr in ("build_local_factors", "assemble_prior_precision",
                     "assemble_posterior", "lml_gradient"):
            self._patch(cpoe_model, attr, fixed("cpoe_model." + attr))
        for attr in ("block_cholesky", "partial_inverse"):
            self._patch(cpoe_model, attr, fixed("block_sparse." + attr))

        self._patch(cpoe_model, "stochastic_lml_term", fixed("cpoe_model.stochastic_lml_term"))
        self._patch(prediction, "predict_arrays", fixed("prediction.predict_arrays"))
        self._patch(training.Adam, "step", fixed("training.adam_step"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def self_times(self, ops) -> dict[str, float]:
        """Summed self time per span name over the given operation ids."""
        ops = set(ops)
        out: dict[str, float] = defaultdict(float)
        for name, _, _, _, op, self_time in self.spans:
            if op in ops:
                out[name] += self_time
        return out

    def count_totals(self, ops) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for op in ops:
            for key, value in self.counts.get(op, {}).items():
                out[key] += value
        return out

    def dump(self, path: str) -> None:
        fields = ("name", "start", "end", "parent", "op", "self")
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)
