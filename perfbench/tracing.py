"""Spans around calls into jdan's layers, recorded from outside the program.

`Tracer.install()` replaces each function in LAYERS with a timing wrapper,
both at its home module and at every jdan module that imported it by name
(`from .marginal import normalized_cdf`), so a call is caught whichever name
the caller uses. The program itself is not edited.

A span is (id, parent, name, start, end, counts). Its parent is the
innermost open span on the same thread; work that parallel.ordered_map hands
to its pool threads is parented to the ordered_map span. Spans stay in
memory until the caller reads `spans`. `uninstall()` restores the originals.
"""

import functools
import itertools
import os
import statistics
import sys
import threading
import time
from collections import defaultdict, namedtuple

import numpy as np

Span = namedtuple("Span", "id parent name start end counts")

# "<module>.<function>" under jdan
LAYERS = (
    "autodiff.backward",
    "training.train", "training.nll_grad", "training.nll_loss",
    "hypernet.nfn_forward", "hypernet.materialize",
    "parallel.ordered_map",
    "metrics.log_score", "metrics.crps_marginal", "metrics.pit_values", "metrics.energy_score",
    "numerics.composite_simpson",
    "marginal.normalized_cdf", "marginal.normalized_pdf", "marginal.inverse_cdf",
    "copula.joint_pdf", "copula.sample",
    "model_io.load_model", "model_io.save_model",
    "data.load_csv",
    "cli.main",
)
# counted into the enclosing span's counts, without a span of its own, so the
# copula's arithmetic stays in joint_pdf's and sample's self time
PROPOSALS = "copula.copula_density"

# reported per traced iteration; every name here is a per_layer metric
PER_LAYER = (
    "autodiff.backward.calls", "autodiff.backward.s", "autodiff.tensors_per_step",
    "training.nll_grad.calls", "training.nll_grad.self_s", "training.nll_loss.s",
    "training.train.self_s",
    "hypernet.nfn_forward.calls", "hypernet.nfn_forward.self_s",
    "hypernet.materialize.calls", "hypernet.materialize.self_s",
    "parallel.ordered_map.calls", "parallel.ordered_map.items", "parallel.ordered_map.self_s",
    "metrics.log_score.s", "metrics.crps_marginal.s", "metrics.pit_values.s",
    "metrics.energy_score.s",
    "numerics.composite_simpson.calls", "numerics.composite_simpson.self_s",
    "marginal.normalized_cdf.calls", "marginal.normalized_cdf.points",
    "marginal.normalized_cdf.self_s", "marginal.normalized_pdf.self_s",
    "marginal.inverse_cdf.calls", "marginal.inverse_cdf.s",
    "marginal.inverse_cdf.cdf_evals_per_call",
    "copula.joint_pdf.calls", "copula.joint_pdf.points", "copula.joint_pdf.self_s",
    "copula.sample.calls", "copula.sample.self_s", "copula.sample.accept_ratio",
    "model_io.load_model.s", "model_io.save_model.s", "model_io.doc_bytes",
    "data.load_csv.s", "data.load_csv.rows",
    "cli.main.self_s",
    "trace.overhead_s",
)


def _n_points(y):
    y = np.asarray(y)
    return 1 if y.ndim <= 1 else y.shape[0]


# span name -> counts taken from (args, result) after the call returns
_COUNTS = {
    "marginal.normalized_cdf": lambda a, out: {"points": int(np.size(a[1]))},
    "copula.joint_pdf": lambda a, out: {"points": _n_points(a[1])},
    "copula.sample": lambda a, out: {"draws": int(np.shape(out)[0])},
    "parallel.ordered_map": lambda a, out: {"items": len(a[1])},
    "data.load_csv": lambda a, out: {"rows": int(out.targets.shape[0])},
    "model_io.load_model": lambda a, out: {"bytes": os.path.getsize(a[0])},
    "model_io.save_model": lambda a, out: {"bytes": os.path.getsize(a[0])},
}


def _graph_size(root):
    """Tape nodes reachable from root, constants included."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    """Records spans while installed; one instance per traced command."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []
        self._graph_counted = False

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "jdan" or n.startswith("jdan.")]
        wrappers = {}
        for name in LAYERS + (PROPOSALS,):
            module, attr = name.split(".")
            original = getattr(sys.modules["jdan." + module], attr)
            make = self._counted if name == PROPOSALS else self._wrap
            wrappers[id(original)] = make(name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((m, key, value))
                    setattr(m, key, wrapper)

    def uninstall(self):
        for m, key, value in reversed(self._saved):
            setattr(m, key, value)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn):
        local, spans, ids = self._local, self.spans, self._ids
        count = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)  # itertools.count is atomic under the GIL
            parent = getattr(local, "span", None)
            outer_counts = getattr(local, "counts", None)
            counts = {}
            if name == "parallel.ordered_map":
                args = (self._in_pool(sid, args[0]), list(args[1])) + args[2:]
            elif name == "autodiff.backward" and not self._graph_counted:
                self._graph_counted = True
                counts["tensors"] = _graph_size(args[0])
            local.span, local.counts = sid, counts
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                local.span, local.counts = parent, outer_counts
                spans.append(Span(sid, parent, name, start, end, counts))  # list.append is atomic
            if count is not None:
                counts.update(count(args, out))
            return out

        return traced

    def _in_pool(self, sid, fn):
        local = self._local

        def run(item):
            saved = getattr(local, "span", None), getattr(local, "counts", None)
            local.span, local.counts = sid, None
            try:
                return fn(item)
            finally:
                local.span, local.counts = saved

        return run

    def _counted(self, name, fn):
        local = self._local

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts = getattr(local, "counts", None)
            if counts is not None:  # only this thread writes its open span's counts
                counts["proposals"] = counts.get("proposals", 0) + _n_points(args[1])
            return fn(*args, **kwargs)

        return counted


def self_times(spans):
    """{span id: its duration minus the union of its children's intervals}."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start  # children sorted by start; reach = covered so far
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(spans):
    """Every PER_LAYER metric except trace.overhead_s, from one iteration's spans."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in by_name[name])

    out = {}
    for metric in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        group = by_name.get(layer, [])
        if stat == "calls":
            out[metric] = len(group)
        elif stat == "s":
            out[metric] = sum(s.end - s.start for s in group)
        elif stat == "self_s":
            out[metric] = sum(selfs[s.id] for s in group)
        elif stat in ("points", "items", "rows"):
            out[metric] = total(layer, stat)
    tensors = [s.counts["tensors"] for s in by_name["autodiff.backward"] if "tensors" in s.counts]
    out["autodiff.tensors_per_step"] = statistics.median(tensors) if tensors else 0
    inversions = {s.id for s in by_name["marginal.inverse_cdf"]}
    evals = sum(1 for s in by_name["marginal.normalized_cdf"] if s.parent in inversions)
    out["marginal.inverse_cdf.cdf_evals_per_call"] = evals / len(inversions) if inversions else 0
    proposals = total("copula.sample", "proposals")
    out["copula.sample.accept_ratio"] = total("copula.sample", "draws") / proposals if proposals else 0
    docs = by_name["model_io.load_model"] + by_name["model_io.save_model"]
    out["model_io.doc_bytes"] = sum(s.counts.get("bytes", 0) for s in docs) / len(docs) if docs else 0
    return out
