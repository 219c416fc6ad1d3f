"""The benchmark's tracer wraps tsketch functions by name; each name must still resolve.

perfbench/tracing.py is loaded as a file and none of its functions run, so
nothing is wrapped here. A name that is renamed or deleted in tsketch fails
this test instead of a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: (module_name, attr) for module_name, attr, name, _ in module.TARGETS}


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
