"""The one array rule: every dense array enters the library through ``tensor._as_tensor``.

An array must have at least one mode and no mode of length 0 (``ShapeError``)
and real entries, bool, integer or float (``ConfigError``, naming the
argument). Each case here was once taken another way: a complex array lost
its imaginary part with a warning, numeral strings were parsed as numbers,
``None`` in an object array was read as NaN, and ``fold`` cut a mode length
of 6.9 to 6.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from tsketch.errors import ConfigError, ShapeError
from tsketch.evaluate import (
    add_noise_snr,
    bound_rhs,
    hosvd_truncate,
    max_principal_angle,
    relative_error,
    snr_db,
    tail_baseline,
    tail_energy,
)
from tsketch.formats import write_bundle
from tsketch.recover import (
    TuckerFactorization,
    compute_core_twopass,
    reconstruct,
    recover_core_onepass,
    recover_core_recycled,
    recover_factors,
)
from tsketch.sketch import make_plan, sketch, slab_chunks
from tsketch.tensor import face_split, fold, inner, mode_product, multi_mode_product, norm, unfold, vec

_rng = np.random.default_rng(3)
X = _rng.standard_normal((5, 4, 6))
A = _rng.standard_normal((3, 4))
QS = [np.linalg.qr(_rng.standard_normal((n, 2)))[0] for n in X.shape]
PLAN = make_plan(X.shape, "kronecker", 3, 4)
BUNDLE = sketch(X, PLAN)
PHIS = PLAN.core_maps


def _swap(seq, i, a):
    return [a if k == i else b for k, b in enumerate(seq)]


# id: (the name the refusal gives the argument, a valid value of it, the
# call with `a` in its place, whether a 0-d or empty `a` meets the shape rule first)
CASES = {
    "vec": ("tensor", X, lambda a: vec(a), True),
    "unfold": ("tensor", X, lambda a: unfold(a, 2), True),
    "fold": ("matrix", unfold(X, 1), lambda a: fold(a, X.shape, 1), True),
    "mode_product-tensor": ("tensor", X, lambda a: mode_product(a, A, 2), True),
    "mode_product-matrix": ("matrix", A, lambda a: mode_product(X, a, 2), True),
    "multi_mode_product": ("tensor", X, lambda a: multi_mode_product(a, [(A, 2)]), True),
    "face_split-a": ("a", A, lambda a: face_split(a, A), True),
    "face_split-b": ("b", A, lambda a: face_split(A, a), True),
    "inner-x": ("x", X, lambda a: inner(a, X), True),
    "inner-y": ("y", X, lambda a: inner(X, a), True),
    "norm": ("tensor", X, norm, True),
    "relative_error-x_hat": ("x_hat", X, lambda a: relative_error(a, X), True),
    "relative_error-x": ("x", X, lambda a: relative_error(X, a), True),
    "relative_error-x0": ("x0", X, lambda a: relative_error(X, X, a), True),
    "snr_db-x": ("x", X, lambda a: snr_db(a, X), True),
    "snr_db-x0": ("x0", X, lambda a: snr_db(X, a), True),
    "add_noise_snr": ("tensor", X, lambda a: add_noise_snr(a, 20.0, 0), True),
    "max_principal_angle-q": ("q", QS[2], lambda a: max_principal_angle(a, QS[2]), True),
    "max_principal_angle-u": ("u", QS[2], lambda a: max_principal_angle(QS[2], a), True),
    "tail_energy": ("tensor", X, lambda a: tail_energy(a, 2, 1), True),
    "hosvd_truncate": ("tensor", X, lambda a: hosvd_truncate(a, 2), True),
    # An empty list of tail energies is refused first, as a ConfigError.
    "bound_rhs": ("deltas", np.array([1.0, 2.0]), lambda a: bound_rhs(0.5, a), False),
    "tail_baseline": ("tensor", X, lambda a: tail_baseline(a, 2), True),
    "recover_core_onepass-sketch": ("core sketch", BUNDLE.core,
                                    lambda a: recover_core_onepass(a, PHIS, QS), True),
    "recover_core_onepass-map": ("core map 2", PHIS[1],
                                 lambda a: recover_core_onepass(BUNDLE.core, _swap(PHIS, 1, a), QS), True),
    "recover_core_onepass-factor": ("factor 3", QS[2],
                                    lambda a: recover_core_onepass(BUNDLE.core, PHIS, _swap(QS, 2, a)), True),
    "recover_core_recycled": ("recycled sketch", BUNDLE.core,
                              lambda a: recover_core_recycled(a, PHIS, QS), True),
    # The sketch's size is checked against the rank first, as a RankError.
    "recover_factors": ("mode-1 sketch", BUNDLE.loo[0],
                        lambda a: recover_factors(replace(BUNDLE, loo=_swap(BUNDLE.loo, 0, a)), 2), False),
    "compute_core_twopass": ("factor 2", QS[1], lambda a: compute_core_twopass(X, _swap(QS, 1, a)), True),
    "reconstruct-core": ("tensor", np.ones((2, 2, 2)),
                         lambda a: reconstruct(TuckerFactorization(a, QS)), True),
    "reconstruct-factor": ("matrix", QS[0],
                           lambda a: reconstruct(TuckerFactorization(np.ones((2, 2, 2)), _swap(QS, 0, a))), True),
    "slab_chunks": ("tensor", X, lambda a: slab_chunks(a, 2), True),
    # The arrays' shapes are checked against the plan first.
    "write_bundle-sketch": ("mode-2 sketch", BUNDLE.loo[1],
                            lambda a: write_bundle("b.tskb", replace(BUNDLE, loo=_swap(BUNDLE.loo, 1, a))), False),
    "write_bundle-core": ("core sketch", BUNDLE.core,
                          lambda a: write_bundle("b.tskb", replace(BUNDLE, core=a)), False),
}
SHAPED = [k for k, case in CASES.items() if case[3]]


def _object(a):
    out = a.astype(object)
    out.flat[0] = None  # once read as NaN
    return out


NOT_REAL = {"complex": lambda a: a + 1j, "text": lambda a: a.astype(str), "object": _object}


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    """Run in an empty directory, and check that a refused call left no file there."""
    monkeypatch.chdir(tmp_path)
    yield
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", sorted(NOT_REAL))
@pytest.mark.parametrize("case", sorted(CASES))
def test_entries_that_are_not_real(case, kind) -> None:
    what, good, call, _ = CASES[case]
    with pytest.raises(ConfigError, match=f"^{re.escape(what)} has entries of type .*, not real numbers$"):
        call(NOT_REAL[kind](good))


@pytest.mark.parametrize("empty", ["0-d", "zero-length-mode"])
@pytest.mark.parametrize("case", sorted(SHAPED))
def test_a_shape_with_no_entries(case, empty) -> None:
    _, good, call, _ = CASES[case]
    bad = np.float64(1.0) if empty == "0-d" else np.zeros(good.shape[:-1] + (0,))
    with pytest.raises(ShapeError, match=f"^{re.escape(f'bad tensor shape {bad.shape}')}$"):
        call(bad)


def test_fold_refuses_a_mode_length_that_is_not_an_integer() -> None:
    """`fold` once read a mode length of 6.9 as 6."""
    with pytest.raises(ShapeError, match=r"^tensor shape \(5, 4, 6\.9\) is not a tuple of integers$"):
        fold(unfold(X, 1), (5, 4, 6.9), 1)

