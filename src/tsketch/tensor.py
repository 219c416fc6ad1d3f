"""Dense tensor kernels: unfoldings, modewise products, structured matrix products.

Conventions, fixed once and used everywhere:

* Tensors are d-dimensional float64 numpy arrays, d >= 1. The canonical flat
  layout is first-mode-fastest, i.e. ``vec(X) = X.ravel(order="F")``.
* Modes are 1-based in every public signature: ``unfold(x, 1)`` arranges the
  fibers of the first mode as columns.
* ``unfold(x, j)`` orders the remaining modes ascending, first remaining mode
  fastest. Under these two choices the matrix identity

      vec(X x_1 A_1 ... x_d A_d) = (A_d kron ... kron A_1) vec(X)

  holds literally (descending factor order), which the test suite pins down
  numerically on small instances.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ShapeError

__all__ = [
    "vec",
    "unfold",
    "fold",
    "mode_product",
    "multi_mode_product",
    "inner",
    "norm",
    "face_split",
]


def _as_tensor(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 1:
        raise ShapeError("tensor must have at least one mode")
    if any(n < 1 for n in x.shape):
        raise ShapeError(f"every mode length must be >= 1, got shape {x.shape}")
    return x


def _check_mode(x, j):
    if not 1 <= j <= x.ndim:
        raise ConfigError(f"mode index {j} out of range for a {x.ndim}-mode tensor")


def vec(x):
    """Flatten to the canonical first-mode-fastest vector."""
    return _as_tensor(x).ravel(order="F")


def unfold(x, j):
    """Mode-j unfolding: the n_j x prod(n_k, k != j) matrix of mode-j fibers.

    Column for the multi-index (i_1..i_d minus i_j) sits at
    sum_{k != j} i_k * prod_{l < k, l != j} n_l (remaining modes ascending,
    first remaining mode fastest). j is 1-based.
    """
    x = _as_tensor(x)
    _check_mode(x, j)
    return np.moveaxis(x, j - 1, 0).reshape((x.shape[j - 1], -1), order="F")


def fold(m, shape, j):
    """Exact inverse of ``unfold``: rebuild the tensor of `shape` from its mode-j unfolding."""
    m = np.asarray(m, dtype=np.float64)
    shape = tuple(int(n) for n in shape)
    if not 1 <= j <= len(shape):
        raise ConfigError(f"mode index {j} out of range for shape {shape}")
    rest = shape[: j - 1] + shape[j:]
    if m.ndim != 2 or m.shape[0] != shape[j - 1] or m.shape[1] != int(np.prod(rest, dtype=np.int64)):
        raise ShapeError(f"matrix {m.shape} inconsistent with shape {shape} at mode {j}")
    t = m.reshape((shape[j - 1],) + rest, order="F")
    return np.moveaxis(t, 0, j - 1)


def mode_product(x, a, j):
    """Apply matrix `a` along mode j: the result's mode-j unfolding is a @ unfold(x, j).

    Mode j's length n_j becomes a.shape[0]. The operand is viewed as
    (prod of the modes before j, n_j, prod of the modes after j) and contracted
    by one broadcast matmul, or by a plain 2-d matmul when either outer extent
    is 1. An F-contiguous operand is contracted through its C-contiguous
    transpose at the mirrored mode, so both layouts are contracted without a
    copy and the result keeps the operand's layout. Agrees with the
    unfold / matmul / fold definition to roundoff (the tests hold it to 1e-13
    against einsum), not bitwise.
    """
    x = _as_tensor(x)
    _check_mode(x, j)
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError("mode_product needs a 2-d matrix")
    if a.shape[1] != x.shape[j - 1]:
        raise ShapeError(
            f"matrix has {a.shape[1]} columns but mode {j} has length {x.shape[j - 1]}"
        )
    flip = x.flags.f_contiguous and not x.flags.c_contiguous
    if flip:
        x, j = x.T, x.ndim + 1 - j
    n = x.shape[j - 1]
    before = math.prod(x.shape[: j - 1])
    after = math.prod(x.shape[j:])
    if before == 1:
        out = a @ x.reshape(n, after)
    elif after == 1:
        out = x.reshape(before, n) @ a.T
    else:
        out = np.matmul(a, x.reshape(before, n, after))
    out = out.reshape(x.shape[: j - 1] + (a.shape[0],) + x.shape[j:])
    return out.T if flip else out


def multi_mode_product(x, mats):
    """Apply several (matrix, mode) pairs in the order given.

    Modes must be distinct; the result does not depend on the order beyond
    floating-point roundoff.
    """
    x = _as_tensor(x)
    modes = [j for _, j in mats]
    if len(set(modes)) != len(modes):
        raise ConfigError(f"repeated mode in multi_mode_product: {modes}")
    out = x
    for a, j in mats:
        out = mode_product(out, a, j)
    return out


def inner(x, y):
    x = _as_tensor(x)
    y = _as_tensor(y)
    if x.shape != y.shape:
        raise ShapeError(f"inner product shape mismatch: {x.shape} vs {y.shape}")
    # Pair entries by index: ravel both in one order, which copies neither
    # operand when both are F-contiguous or both C-contiguous.
    order = "F" if x.flags.f_contiguous and y.flags.f_contiguous else "C"
    return float(np.dot(x.ravel(order=order), y.ravel(order=order)))


def norm(x):
    """Frobenius norm (entrywise 2-norm) of a tensor of any order, read in memory order."""
    return float(np.linalg.norm(_as_tensor(x).ravel(order="K")))


def face_split(a, b):
    """Row-wise Kronecker product: row k of the result is a[k, :] kron b[k, :]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"row counts differ: {a.shape[0]} vs {b.shape[0]}")
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1)
