"""The benchmark's own calls into tsketch must keep working.

perfbench/tracing.py wraps tsketch functions by name; it is loaded as a file
and none of its functions run, so nothing is wrapped here. perfbench/child.py's
``setup`` and ``libjob`` modes run at a tiny size, in a child process set up as
the benchmark sets up its children. A name that is renamed or deleted, or a
plan change that breaks the library job, fails here instead of a benchmark run.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tsketch.formats import read_bundle, read_factorization, write_chunks
from tsketch.sketch import make_plan, slab_chunks

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def _targets():
    return {name: (module_name, attr) for module_name, attr, name, _ in _load("tracing").TARGETS}


TARGETS = _targets()


@pytest.mark.parametrize("name", TARGETS)
def test_traced_name_resolves(name) -> None:
    module_name, attr = TARGETS[name]
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_read_chunks_is_a_generator_function() -> None:
    """The tracer times a generator one yielded slab at a time and reads its ``.payload``."""
    from tsketch import formats

    assert inspect.isgeneratorfunction(formats.read_chunks)


def _child(mode, spec):
    """Run one ``child.py`` mode in a child process set up as the benchmark sets up its children."""
    env = _load("procs").child_env(PERFBENCH.parent)
    return subprocess.run([sys.executable, str(PERFBENCH / "child.py"), mode, json.dumps(spec)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_child_setup_runs_the_kronecker_plan() -> None:
    """W1's set-up at a tiny size: a kronecker gaussian plan on 24^3, m = 5,
    m_c = 10, one accumulator."""
    plan_kwargs = {"shape": [24, 24, 24], "loo_kind": "kronecker", "m": 5, "m_c": 10,
                   "loo_family": "gaussian", "seed": 5}
    res = _child("setup", {"plan": plan_kwargs, "accumulators": 1})
    assert res.returncode == 0, res.stderr


def test_child_setup_and_libjob_run(tmp_path) -> None:
    """W2's two child modes at a tiny size: a 24^3 stream, khatri_rao `mix`,
    m = 8, m_c = 6, rank 2. Each exits 0; the library job prints its stage
    times and writes a bundle holding every entry the plan makes."""
    x = np.random.default_rng(0).standard_normal((24, 24, 24))
    write_chunks(tmp_path / "x.tskc", x.shape, slab_chunks(x, 4))
    plan_kwargs = {"shape": [24, 24, 24], "loo_kind": "khatri_rao", "m": 8, "m_c": 6,
                   "loo_family": "mix", "seed": 3}
    res = _child("setup", {"plan": plan_kwargs, "accumulators": 2})
    assert res.returncode == 0, res.stderr
    spec = {"plan": plan_kwargs, "chunks": str(tmp_path / "x.tskc"), "bundle": str(tmp_path / "b.tskb"),
            "factorization": str(tmp_path / "t.tuck"), "rank": 2}
    res = _child("libjob", spec)
    assert res.returncode == 0, res.stderr
    stages = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(stages) == {"sketch_s", "recover_s"} and all(t > 0 for t in stages.values())
    plan, bundle = make_plan(**plan_kwargs), read_bundle(spec["bundle"])
    assert bundle.plan == plan
    assert bundle.loo_entry_count() + bundle.core_entry_count() == plan.loo_entry_count() + plan.core_entry_count()
    assert read_factorization(spec["factorization"]).rank == 2
