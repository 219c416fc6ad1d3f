"""Entry points of the benchmark's child processes: ``python3 perfbench/child.py MODE SPEC_JSON``.

Modes:

* ``env``    - print the interpreter and library versions and the BLAS thread
               count in effect, as one JSON line.
* ``setup``  - import ``tsketch.cli``, build a workload's plan, construct its
               accumulators and exit; the parent times the whole process.
* ``libjob`` - the sharded khatri_rao library job: two accumulators fed the
               lower and upper half of the slabs, merged, finalized, written,
               read back and recovered one-pass. Prints its stage times.
* ``traced`` - run one CLI step (through ``tsketch.cli.main``) or the library
               job in-process with every layer wrapped in spans, and append
               the spans to a JSONL file.

Library calls go through module attributes (``formats.read_chunks``) so that
the wrappers ``traced`` installs are the functions that run.
"""

from __future__ import annotations

import ctypes
import importlib
import json
import platform
import resource
import sys
import time

import tracing


def env(_spec):
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS, if it has one)
    import tsketch

    blas = []
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"library": path.rsplit("/", 1)[-1]}
        for prefix, suffix in (("", ""), ("", "64_"), ("scipy_", "64_"), ("scipy_", "")):
            try:
                get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
                get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
            except AttributeError:
                continue
            get_config.restype = ctypes.c_char_p
            get_threads.restype = ctypes.c_int
            entry["config"] = get_config().decode()
            entry["threads"] = get_threads()
            break
        blas.append(entry)
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "tsketch": tsketch.__file__,
    }))
    return 0


def setup(spec):
    import tsketch.cli  # noqa: F401
    from tsketch.sketch import SketchAccumulator, make_plan

    plan = make_plan(**spec["plan"])
    for _ in range(spec["accumulators"]):
        SketchAccumulator(plan)
    return 0


def libjob(spec):
    formats = importlib.import_module("tsketch.formats")
    sk = importlib.import_module("tsketch.sketch")
    recover = importlib.import_module("tsketch.recover")

    plan = sk.make_plan(**spec["plan"])
    lower, upper = sk.SketchAccumulator(plan), sk.SketchAccumulator(plan)
    half = plan.shape[-1] // 2
    t0 = time.perf_counter()
    for chunk in formats.read_chunks(spec["chunks"]):
        (lower if chunk.start < half else upper).update(chunk)
    formats.write_bundle(spec["bundle"], lower.merge(upper).finalize())
    t1 = time.perf_counter()
    t = recover.one_pass(formats.read_bundle(spec["bundle"]), spec["rank"])
    formats.write_factorization(spec["factorization"], t)
    t2 = time.perf_counter()
    print(json.dumps({"sketch_s": t1 - t0, "recover_s": t2 - t1}))
    return 0


def traced(spec):
    t0 = time.perf_counter()
    import tsketch.cli

    t1 = time.perf_counter()
    tracer = tracing.Tracer(spec["job"], spec["step"])
    tracer.record("cli.import", t0, t1,
                  rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    tracing.install(tracer)
    try:
        if "cli" in spec:
            return tracer.call("cli.main", tsketch.cli.main, spec["cli"])
        return tracer.call("lib.job", libjob, spec["lib"])
    finally:
        tracer.dump(spec["spans"])


MODES = {"env": env, "setup": setup, "libjob": libjob, "traced": traced}

if __name__ == "__main__":
    sys.exit(MODES[sys.argv[1]](json.loads(sys.argv[2]) if len(sys.argv) > 2 else None))
