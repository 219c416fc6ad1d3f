"""Spans recorded from outside the program, by wrapping the public functions of ``tsketch``.

Child side: :func:`install` replaces each function in :data:`TARGETS` at every
``tsketch`` module attribute that binds it (``tsketch.sketch.mode_product``
and ``tsketch.recover.mode_product`` are separate bindings of one function),
and the accumulator methods on the class. Each call records a span (name,
start, end, parent, job id) in memory; :meth:`Tracer.dump` writes them as
JSONL when the step ends. ``read_chunks`` is a generator, so each slab it
yields is its own span. Bytes and flops attached to spans are computed from
array shapes, not measured.

Parent side: :func:`layer_metrics` turns one job's spans into the per-layer
metrics, with self time = span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

MIB = float(2**20)


def _mode_product_gflop(args, kwargs, out):
    x, a = args[0], args[1]
    # a (m x n_j) times the n_j x (size / n_j) unfolding: 2 * m * size flops.
    return {"gflop": 2.0 * a.shape[0] * x.size / 1e9}


def _out_mb(args, kwargs, out):
    return {"mb": out.nbytes / MIB}


def _slab_mb(args, kwargs, chunk):
    return {"mb": chunk.payload.nbytes / MIB}


# (module, attribute, span name, computed attributes). "Class.method" wraps the
# method on the class. A generator function gets one span per item it yields,
# and its attributes are computed from that item.
TARGETS = [
    ("tsketch.tensor", "mode_product", "tensor.mode_product", _mode_product_gflop),
    ("tsketch.tensor", "face_split", "tensor.face_split", _out_mb),
    ("tsketch.ensembles", "materialize", "ensembles.materialize", _out_mb),
    ("tsketch.sketch", "SketchAccumulator.__init__", "sketch.init", None),
    ("tsketch.sketch", "SketchAccumulator.update", "sketch.update", None),
    ("tsketch.sketch", "SketchAccumulator.merge", "sketch.merge", None),
    ("tsketch.sketch", "SketchAccumulator.finalize", "sketch.finalize", None),
    ("tsketch.sketch", "sketch", "sketch.sketch", None),
    ("tsketch.recover", "recover_factors", "recover.factors", None),
    ("tsketch.recover", "recover_core_onepass", "recover.core_onepass", None),
    ("tsketch.recover", "compute_core_twopass", "recover.core_twopass", None),
    ("tsketch.recover", "reconstruct", "recover.reconstruct", None),
    ("tsketch.recover", "one_pass", "recover.one_pass", None),
    ("tsketch.recover", "two_pass", "recover.two_pass", None),
    ("tsketch.evaluate", "relative_error", "evaluate.relative_error", None),
    ("tsketch.formats", "read_chunks", "formats.read_chunks", _slab_mb),
    ("tsketch.formats", "read_chunks_dense", "formats.read_chunks_dense", None),
    ("tsketch.formats", "read_tensor", "formats.read_tensor", None),
    ("tsketch.formats", "write_bundle", "formats.write_bundle", None),
    ("tsketch.formats", "read_bundle", "formats.read_bundle", None),
    ("tsketch.formats", "write_factorization", "formats.write_factorization", None),
    ("tsketch.formats", "read_factorization", "formats.read_factorization", None),
]

class Tracer:
    """In-memory span recorder for one process. Single-threaded by design."""

    def __init__(self, job, step):
        self.job = job
        self.step = step
        self.spans = []
        self._stack = []

    def open(self, name):
        span = {"id": len(self.spans), "name": name, "parent": self._stack[-1] if self._stack else None,
                "job": self.job, "step": self.step, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span, attrs=None):
        span["end"] = time.perf_counter()
        self._stack.pop()
        if attrs:
            span.update(attrs)

    def record(self, name, start, end, **attrs):
        """Add a finished top-level span measured by the caller."""
        self.spans.append({"id": len(self.spans), "name": name, "parent": None, "job": self.job,
                           "step": self.step, "start": start, "end": end, **attrs})

    def call(self, name, fn, *args, **kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def dump(self, path):
        with open(path, "a", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _wrap(tracer, name, fn, measure):
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                span = tracer.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    tracer.close(span)
                    return
                except BaseException:
                    tracer.close(span)
                    raise
                tracer.close(span, measure(args, kwargs, item) if measure else None)
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            tracer.close(span, measure(args, kwargs, out) if measure and out is not None else None)

    return wrapper


def install(tracer):
    """Wrap every target at each binding inside the loaded ``tsketch`` modules."""
    for module_name, attr, name, measure in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, _wrap(tracer, name, getattr(cls, meth), measure))
            continue
        original = getattr(module, attr)
        wrapped = _wrap(tracer, name, original, measure)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tsketch" or mod_name.startswith("tsketch.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


# -- parent side -------------------------------------------------------------


def read_spans(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def _index(spans):
    """Spans keyed by (step, id), with each span's children and duration filled in."""
    by_key = {(s["step"], s["id"]): s for s in spans}
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        s["child_dur"] = 0.0
    for s in spans:
        if s["parent"] is not None:
            by_key[(s["step"], s["parent"])]["child_dur"] += s["dur"]
    return by_key


def _under(span, name, by_key):
    parent = span["parent"]
    while parent is not None:
        p = by_key[(span["step"], parent)]
        if p["name"] == name:
            return True
        parent = p["parent"]
    return False


# Steps of a CLI job, in the order their per-layer metrics are reported.
CLI_STEPS = ("sketch", "recover", "recover_2p", "eval")

# The per-layer metrics of the result line. A time that is zero by design on
# some workload (say `sketch.merge_s` outside the sharded job) would read
# exactly 0 on every run there, so only times that every workload exercises go
# in, next to sizes and counts; the report prints all of layer_metrics().
RESULT_METRICS = (
    "cli.import_s", "cli.import_rss_mb",
    *(f"cli.{step}_rss_mb" for step in CLI_STEPS),
    "formats.read_chunks_mb",
    "ensembles.materialize_s", "ensembles.materialize_calls", "ensembles.materialize_mb",
    "sketch.init_s", "sketch.update_self_s", "sketch.update_calls", "sketch.finalize_s",
    "tensor.mode_product_s", "tensor.mode_product_calls", "tensor.mode_product_gflop",
    "tensor.face_split_mb",
    "recover.factors_s", "recover.core_onepass_s",
    "trace.overhead_s",
)


def layer_metrics(spans, step_rss):
    """Per-layer values for one job. `step_rss` maps a step name to its peak RSS in MiB."""
    by_key = _index(spans)

    def total(name, value=lambda s: s["dur"], where=None):
        return sum(value(s) for s in spans if s["name"] == name and (where is None or where(s)))

    def count(name):
        return sum(1 for s in spans if s["name"] == name)

    streamed = lambda s: not _under(s, "formats.read_chunks_dense", by_key)  # noqa: E731
    imports = [s for s in spans if s["name"] == "cli.import"]
    m = {
        "cli.import_s": statistics.median(s["dur"] for s in imports) if imports else 0.0,
        "cli.import_rss_mb": statistics.median(s["rss_mb"] for s in imports) if imports else 0.0,
    }
    mains = {s["step"]: s["dur"] for s in spans if s["name"] == "cli.main"}
    for step in CLI_STEPS:
        m[f"cli.{step}_s"] = mains.get(step, 0.0)
        m[f"cli.{step}_rss_mb"] = step_rss.get(step, 0.0) if step in mains else 0.0
    m.update({
        "formats.read_chunks_s": total("formats.read_chunks", where=streamed),
        "formats.read_chunks_mb": total("formats.read_chunks", lambda s: s.get("mb", 0.0), streamed),
        "formats.read_chunks_dense_s": total("formats.read_chunks_dense"),
        "formats.write_bundle_s": total("formats.write_bundle"),
        "formats.read_bundle_s": total("formats.read_bundle"),
        "formats.write_factorization_s": total("formats.write_factorization"),
        "formats.read_factorization_s": total("formats.read_factorization"),
        "ensembles.materialize_s": total("ensembles.materialize"),
        "ensembles.materialize_calls": count("ensembles.materialize"),
        "ensembles.materialize_mb": total("ensembles.materialize", lambda s: s.get("mb", 0.0)),
        "sketch.init_s": total("sketch.init"),
        "sketch.update_self_s": total("sketch.update", lambda s: s["dur"] - s["child_dur"]),
        "sketch.update_calls": count("sketch.update"),
        "sketch.merge_s": total("sketch.merge"),
        "sketch.finalize_s": total("sketch.finalize"),
        "tensor.mode_product_s": total("tensor.mode_product"),
        "tensor.mode_product_calls": count("tensor.mode_product"),
        "tensor.mode_product_gflop": total("tensor.mode_product", lambda s: s.get("gflop", 0.0)),
        "tensor.face_split_s": total("tensor.face_split"),
        "tensor.face_split_mb": total("tensor.face_split", lambda s: s.get("mb", 0.0)),
        "recover.factors_s": total("recover.factors"),
        "recover.core_onepass_s": total("recover.core_onepass"),
        "recover.core_twopass_s": total("recover.core_twopass"),
        "recover.reconstruct_s": total("recover.reconstruct"),
        "evaluate.relative_error_s": total("evaluate.relative_error"),
    })
    return m


def self_times(spans):
    """Self time per span name for one job, largest first."""
    _index(spans)
    out = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + s["dur"] - s["child_dur"]
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
