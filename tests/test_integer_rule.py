"""The one integer rule: every scalar integer argument enters through ``tensor._as_int``.

A size, a mode index, a count or a seed is an integer (a numpy integer gives
what the int gives) inside its range, or the call raises a typed error that
names it. Each case here was once taken another way: a seed of 1.5 gave the
draws of seed 1 and a seed of -1 those of 2^64 - 1, a mode index of 1.5 or a
slab count of 2.5 reached numpy as a raw ``TypeError``, a float row count was
accepted by ``EnsembleSpec`` until its matrix was built, and a slab count of
0 split a tensor into no slabs. Ranks and a plan's ``m``, ``m_c`` and
``seed`` take the same rule; their cases live with their callers' tests.
Python's ``True`` and ``False`` index as 1 and 0 and were taken so, where
numpy's bools, which have no index, were refused: now no bool is an integer.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import tsketch
from tsketch.ensembles import EnsembleSpec, derive_seed, keyed_generator, materialize
from tsketch.errors import ConfigError, RankError, ShapeError
from tsketch.evaluate import add_noise_snr, gen_lowrank, gen_superdiag_exp, gen_superdiag_poly, tail_energy
from tsketch.recover import TuckerFactorization, one_pass, reconstruct
from tsketch.sketch import SketchAccumulator, SlabChunk, make_plan, sketch, slab_chunks
from tsketch.tensor import _as_shape, fold, mode_product, multi_mode_product, unfold

_rng = np.random.default_rng(5)
X = _rng.standard_normal((5, 4, 6))
CUBE = _rng.standard_normal((4, 4, 4))  # so that every mode index fits A
A = _rng.standard_normal((3, 4))

SEED_END = 2**64
_SHAPE = r"(tensor shape .* is not a tuple of integers|bad tensor shape .*)$"

# id: (the error, the start of its message, the call with the integer `v` in
# its place, a valid value, the smallest valid value, whether `v` is a seed)
CASES = {
    "unfold-mode": (ConfigError, "mode index must be", lambda v: unfold(X, v), 2, 1, False),
    "fold-mode": (ConfigError, "mode index must be", lambda v: fold(unfold(CUBE, 2), CUBE.shape, v), 2, 1,
                  False),
    "mode_product-mode": (ConfigError, "mode index must be", lambda v: mode_product(CUBE, A, v), 2, 1, False),
    "multi_mode_product-mode": (ConfigError, "mode index must be",
                                lambda v: multi_mode_product(CUBE, [(A, v)]), 2, 1, False),
    "tail_energy-mode": (ConfigError, "mode index must be", lambda v: tail_energy(X, 2, v), 2, 1, False),
    "slab_chunks-count": (ConfigError, "slab count must be",
                          lambda v: [(c.start, c.count) for c in slab_chunks(X, v)], 4, 1, False),
    "EnsembleSpec-rows": (ConfigError, "rows must be",
                          lambda v: materialize(EnsembleSpec("gaussian", v, 4, 7)), 3, 1, False),
    "EnsembleSpec-cols": (ConfigError, "cols must be",
                          lambda v: materialize(EnsembleSpec("srtt", 3, v, 7)), 4, 1, False),
    "EnsembleSpec-seed": (ConfigError, "seed must be",
                          lambda v: materialize(EnsembleSpec("gaussian", 3, 4, v)), 7, 0, True),
    "derive_seed-master": (ConfigError, "seed must be", lambda v: derive_seed(v, "t", 1), 7, 0, True),
    "derive_seed-index": (ConfigError, "index must be", lambda v: derive_seed(7, "t", v), 1, 0, True),
    "keyed_generator": (ConfigError, "seed must be", lambda v: keyed_generator(v, "t").random(3), 7, 0, True),
    "gen_lowrank-seed": (ConfigError, "seed must be", lambda v: gen_lowrank(4, 3, 2, v)[0], 7, 0, True),
    "add_noise_snr-seed": (ConfigError, "seed must be", lambda v: add_noise_snr(X, 20.0, v), 7, 0, True),
    "gen_lowrank-n": (ShapeError, _SHAPE, lambda v: gen_lowrank(v, 3, 2, 0)[0], 4, 1, False),
    "gen_lowrank-d": (ShapeError, "mode count must be", lambda v: gen_lowrank(4, v, 2, 0)[0], 3, 2, False),
    "gen_superdiag_exp-n": (ShapeError, _SHAPE, lambda v: gen_superdiag_exp(v, 3, 1), 4, 1, False),
    "gen_superdiag_exp-d": (ShapeError, "mode count must be", lambda v: gen_superdiag_exp(4, v, 1), 3, 2, False),
    "gen_superdiag_poly-n": (ShapeError, _SHAPE, lambda v: gen_superdiag_poly(v, 3, 1), 4, 1, False),
    "gen_superdiag_poly-d": (ShapeError, "mode count must be", lambda v: gen_superdiag_poly(4, v, 1), 3, 2,
                             False),
}


def _refusals():
    """(case, value) for every case: 1.5, None, "2", True, False, the value
    below its smallest, and 2^64 where a seed is meant."""
    for case, (*_, low, seed) in sorted(CASES.items()):
        bad = {"1.5": 1.5, "None": None, "str": "2", "True": True, "False": False, "below": low - 1}
        if seed:
            bad["2^64"] = SEED_END
        for name, value in bad.items():
            yield pytest.param(case, value, id=f"{case}-{name}")


@pytest.mark.parametrize("case,bad", _refusals())
def test_integers_outside_the_rule_are_refused(case, bad) -> None:
    error, message, call, *_ = CASES[case]
    with pytest.raises(error, match=f"^{message}"):
        call(bad)


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_numpy_integer_gives_what_the_int_gives(case) -> None:
    *_, call, good, _, seed = CASES[case]
    pairs = [(good, np.int64(good))] + ([(SEED_END - 1, np.uint64(SEED_END - 1))] if seed else [])
    for v, numpy_v in pairs:
        assert np.array_equal(call(numpy_v), call(v))


PLAN_SHAPE = (4, 5, 6)

# id: (the error, its message with "{v}" for the bool, the call with the bool `v`)
BOOL_CASES = {
    "make_plan-m": (ConfigError, "m must be an integer, got {v}",
                    lambda v: make_plan(PLAN_SHAPE, "kronecker", v, 2)),
    "make_plan-m_c": (ConfigError, "m_c must be an integer, got {v}",
                      lambda v: make_plan(PLAN_SHAPE, "kronecker", 2, v)),
    "make_plan-seed": (ConfigError, "seed must be an integer, got {v}",
                       lambda v: make_plan(PLAN_SHAPE, "kronecker", 2, 2, seed=v)),
    "_as_shape": (ShapeError, r"tensor shape \({v}, 3\) is not a tuple of integers", lambda v: _as_shape((v, 3))),
    "SlabChunk-start": (ShapeError, "slab range start={v}, count=2 is not a pair of integers",
                        lambda v: SketchAccumulator(make_plan(PLAN_SHAPE, "kronecker", 2, 2)).update(
                            SlabChunk(v, 2, np.zeros((4, 5, 2))))),
    "SlabChunk-count": (ShapeError, "slab range start=0, count={v} is not a pair of integers",
                        lambda v: SketchAccumulator(make_plan(PLAN_SHAPE, "kronecker", 2, 2)).update(
                            SlabChunk(0, v, np.zeros((4, 5, int(v)))))),
    "one_pass-rank": (RankError, "rank must be an integer, got {v}",
                      lambda v: one_pass(sketch(X, make_plan(X.shape, "kronecker", 3, 4)), v)),
    "reconstruct-range": (ShapeError, r"slab range lo={v}, hi=2 is not a pair of integers",
                          lambda v: reconstruct(TuckerFactorization(np.ones((1, 1, 1)), [np.ones((4, 1))] * 3), v, 2)),
}


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("case", sorted(BOOL_CASES))
def test_a_bool_is_not_an_integer(case, value) -> None:
    """Python's True is not the integer 1 to any reader of integers: a plan
    of m = True once had m = 1 and seed True the draws of seed 1, a slab
    starting at True was recorded at 1, and one_pass fitted rank True as 1."""
    error, message, call = BOOL_CASES[case]
    with pytest.raises(error, match="^" + message.format(v=value) + "$"):
        call(value)


def test_a_seed_names_one_draw() -> None:
    """Seeds that once shared a key draw differently: 1 is not 1.5 (refused),
    and 2^64 - 1 is not -1 (refused); 0 and 2^64 - 1 are both in range."""
    assert derive_seed(0, "t") != derive_seed(SEED_END - 1, "t")
    for bad in (1.5, -1, SEED_END):
        with pytest.raises(ConfigError, match=r"^seed must be"):
            derive_seed(bad, "t")


def _functions_calling(tree, module, name):
    """Names of the functions in `tree` that read `module.name`."""
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Attribute) and node.attr == name
                        and isinstance(node.value, ast.Name) and node.value.id == module):
                    found.append(fn.name)
                    break
    return found


def test_integers_are_read_in_four_places_only() -> None:
    """``operator.index`` is read by the integer rule and the three composite
    readers whose messages name the whole value (a shape, a slab range), and
    nowhere else; no name imports it bare. ``_hash_bytes`` masks no integer
    into 64 bits: a seed outside [0, 2^64) is refused instead."""
    readers, bare = [], []
    for path in sorted(Path(tsketch.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        readers += _functions_calling(tree, "operator", "index")
        bare += [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 and node.module == "operator" for a in node.names]
        if path.name == "ensembles.py":
            (hash_bytes,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_hash_bytes"]
            assert not any(isinstance(node, ast.BitAnd) for node in ast.walk(hash_bytes))
    assert sorted(readers) == ["_as_int", "_as_shape", "_int_pair", "_slab_range"]
    assert bare == []
