"""Outside-in tracing of planefield's public functions.

The wrappers live in the benchmark, not in the package: ``Tracer.install``
replaces each traced function under every name a caller looks it up by
(module attributes such as ``distributions.christoffel_raw`` and
``cli.classify_op``, class attributes such as ``MetricField.eval``), and
``Tracer.uninstall`` puts the originals back.  Each call records one span
``(id, name, start, end, parent, thread)`` in memory; the spans are written
out once, when the run ends.

A span's self time is its duration minus the union of its children's
intervals.  ``chunked_eval`` hands its kernel to worker threads, so its
wrapper re-enters the span inside each worker; the kernel's spans on those
threads are then children of the ``chunked_eval`` span.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (layer.function label, module, attribute path, extra per-call count)
TRACED = (
    ("expr.eval_jet", "planefield.expr", "eval_jet", "points"),
    ("expr.parse", "planefield.expr", "parse", None),
    ("geometry.MetricField.eval", "planefield.geometry", "MetricField.eval", None),
    ("geometry.VectorField.eval", "planefield.geometry", "VectorField.eval", None),
    ("geometry.MetricJets.inv", "planefield.geometry", "MetricJets.inv", None),
    ("geometry.christoffel_raw", "planefield.geometry", "christoffel_raw", None),
    ("geometry.divergence_raw", "planefield.geometry", "divergence_raw", None),
    ("geometry.pairwise_sum", "planefield.geometry", "pairwise_sum", "values"),
    ("geometry.chunked_eval", "planefield.geometry", "chunked_eval", "bytes_returned"),
    ("distributions.distribution_frames", "planefield.distributions",
     "distribution_frames", None),
    ("distributions.normal_arrays", "planefield.distributions", "normal_arrays", None),
    ("distributions.curvature_arrays", "planefield.distributions",
     "curvature_arrays", None),
    ("distributions.normal_jets", "planefield.distributions", "normal_jets", None),
    ("distributions.classify", "planefield.distributions", "classify", None),
    ("distributions.integral_mean_curvature", "planefield.distributions",
     "integral_mean_curvature", None),
    ("jetalg.jets_from_metric", "planefield.jetalg", "jets_from_metric", None),
    ("jetalg.adjugate3", "planefield.jetalg", "adjugate3", None),
    ("jetalg.det3", "planefield.jetalg", "det3", None),
    ("jetalg.matvec", "planefield.jetalg", "matvec", None),
    ("models.verify_metric_path", "planefield.models.paths", "verify_metric_path", None),
    ("models.rank_one_path", "planefield.models.paths", "rank_one_path", None),
    ("models.assemble_open_book_demo", "planefield.models.openbook",
     "assemble_open_book_demo", None),
    ("models.transfer_metric", "planefield.models.transfer", "transfer_metric", None),
    ("models.contact_deformation_scan", "planefield.models.scan",
     "contact_deformation_scan", None),
    ("verify.run_suite", "planefield.verify", "run_suite", None),
    ("chartio.load_model", "planefield.chartio", "load_model", None),
    ("chartio.validate_payload", "planefield.chartio", "validate_payload", None),
    ("chartio.dump_json", "planefield.chartio", "dump_json", None),
    ("cli.main", "planefield.cli", "main", None),
)


def _batch_points(args, kwargs) -> int:
    point = np.asarray(args[1] if len(args) > 1 else kwargs["point"])
    return int(np.prod(point.shape[1:], dtype=np.int64))


def _values(args, kwargs) -> int:
    return int(np.size(args[0] if args else kwargs["values"]))


def _nbytes(result) -> int:
    if isinstance(result, dict):
        return sum(int(np.asarray(v).nbytes) for v in result.values())
    return int(np.asarray(result).nbytes)


class Tracer:
    """Span recorder plus the patch table that routes calls through it."""

    def __init__(self):
        self.spans = []     # (id, name, start, end, parent, thread, count)
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._patches = self._patch_table()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, extra):
        current, ids, spans = self._current, self._ids, self.spans

        if extra == "bytes_returned":       # chunked_eval(fn, points, jobs)
            @functools.wraps(fn)
            def wrapper(kernel, *args, **kwargs):
                sid = next(ids)
                parent = current.get()

                def in_span(pts):
                    tok = current.set(sid)
                    try:
                        return kernel(pts)
                    finally:
                        current.reset(tok)

                token = current.set(sid)
                start = time.perf_counter()
                try:
                    result = fn(in_span, *args, **kwargs)
                finally:
                    end = time.perf_counter()
                    current.reset(token)
                spans.append((sid, name, start, end, parent,
                              threading.get_ident(), _nbytes(result)))
                return result
            return wrapper

        count = {"points": _batch_points, "values": _values}.get(extra)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                current.reset(token)
                spans.append((sid, name, start, end, parent,
                              threading.get_ident(),
                              count(args, kwargs) if count else None))
        return wrapper

    def _patch_table(self) -> list:
        """(owner, attribute, original, wrapper) for every lookup site."""
        table = []
        loaded = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "planefield" or n.startswith("planefield."))]
        for label, module_name, path, extra in TRACED:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(label, original, extra)
            if outer:                       # a method: patch the class
                table.append((owner, attr, original, wrapper))
                continue
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        table.append((module, key, original, wrapper))
        return table

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- reduction --------------------------------------------------------

    def totals(self) -> dict:
        """label -> [self seconds, calls, extra count] summed over spans."""
        children = defaultdict(list)
        for sid, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = defaultdict(lambda: [0.0, 0, 0])
        for sid, name, start, end, _, _, count in self.spans:
            covered = _union_length(children.get(sid, ()), start, end)
            row = out[name]
            row[0] += (end - start) - covered
            row[1] += 1
            row[2] += count or 0
        return out

    def write(self, path) -> None:
        rows = [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "thread": s[5], "count": s[6]}
                for s in self.spans]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(rows, fh)


def _union_length(intervals, lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """name -> (value per op, unit) for every function in ``TRACED``."""
    totals = tracer.totals()
    out = {}
    for label, _, _, extra in TRACED:
        self_s, calls, count = totals.get(label, (0.0, 0, 0))
        out[f"{label}.s"] = (self_s / n_ops, "s")
        out[f"{label}.calls"] = (calls / n_ops, "count")
        if extra is not None:
            unit = "B" if extra == "bytes_returned" else "count"
            out[f"{label}.{extra}"] = (count / n_ops, unit)
    return out
