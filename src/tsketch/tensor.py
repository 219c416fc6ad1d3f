"""Dense tensor kernels: unfoldings, modewise products, structured matrix products.

Conventions, fixed once and used everywhere:

* Every dense array enters the library through ``_as_tensor``, by one rule:
  it has at least one mode and no mode of length 0 (``ShapeError``, the
  wording of ``_as_shape``), and its entries are real, that is bool, integer
  or float, never complex, text or objects (``ConfigError``, from ``_real``).
  It is then read as float64, without a copy when it already is. Slabs of a
  stream take the same ``_real`` inside the slab rule (``sketch._take_slab``).
* A sketch must also be finite (``_finite``): its entries and the sum of
  their squares, the scale of recovery's Gram matrices.
* Every scalar integer argument (a size, a mode index, a count, a rank or a
  seed) enters by one integer rule, ``_as_int``: an integer (a numpy integer
  will do; a float, text, ``None`` or a bool is refused) inside its range,
  else the caller's typed error.
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
import operator

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


_F64 = np.dtype(np.float64)


def _not_bool(value):
    """`value`, unless a bool (``TypeError``): True is not 1 here, as np.True_ is not."""
    if isinstance(value, bool):
        raise TypeError
    return value


def _as_int(value, what, error=ConfigError, low=1, high=None):
    """`value` as an int in [low, high), refused with `error` unless it is an
    integer (a numpy integer will do; a bool will not) in that range. `low`
    None sets no lower bound; `high` None sets no upper one."""
    try:
        n = operator.index(_not_bool(value))
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None
    if (low is not None and n < low) or (high is not None and n >= high):
        if high is None:
            raise error(f"{what} must be >= {low}, got {n}")
        top = "2^64" if high == 2**64 else high  # a seed's bound, written as the README writes it
        raise error(f"{what} must be in [{low}, {top}), got {n}")
    return n


def _as_shape(shape):
    """`shape` as a tuple of ints, refused with ``ShapeError`` unless it is a
    non-empty sequence of positive integers (a numpy integer will do; a bool
    will not)."""
    try:
        shape = tuple(operator.index(_not_bool(n)) for n in shape)
    except TypeError:
        raise ShapeError(f"tensor shape {shape!r} is not a tuple of integers") from None
    if not shape or any(n < 1 for n in shape):
        raise ShapeError(f"bad tensor shape {shape}")
    return shape


def _real(a, what):
    """`a` as a float64 array, refused with ``ConfigError`` unless its entries
    are real: bool, integer or float, never complex, text or objects."""
    a = np.asarray(a)
    if a.dtype is not _F64:  # a float64 array, the common case, needs neither step
        if a.dtype.kind not in "biuf":
            raise ConfigError(f"{what} has entries of type {a.dtype}, not real numbers")
        a = a.astype(np.float64, copy=False)
    return a


def _as_tensor(x, what="tensor"):
    """`x` as a float64 array with at least one mode and no mode of length 0
    (``ShapeError``) and real entries (``ConfigError``, see ``_real``). An
    array's shape holds integers already, so it is checked without a loop."""
    x = _real(x, what)
    if not x.ndim or 0 in x.shape:
        raise ShapeError(f"bad tensor shape {x.shape}")
    return x


def _finite(x, what):
    """`x` by the array rule, refused with ``ConfigError`` unless its entries
    and the sum of their squares (a Gram matrix's scale) are finite."""
    x = _as_tensor(x, what)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = norm(x)
    if not math.isfinite(scale * scale):
        raise ConfigError(f"{what} is not finite in float64: it holds a NaN or an infinity, "
                          "or its squared norm overflows")
    return x


def _check_mode(d, j):
    """The 1-based mode index `j` of a d-mode tensor, checked by ``_as_int``."""
    return _as_int(j, "mode index", ConfigError, 1, d + 1)


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
    j = _check_mode(x.ndim, j)
    return np.moveaxis(x, j - 1, 0).reshape((x.shape[j - 1], -1), order="F")


def fold(m, shape, j):
    """Exact inverse of ``unfold``: rebuild the tensor of `shape` from its mode-j unfolding."""
    m, shape = _as_tensor(m, "matrix"), _as_shape(shape)
    j = _check_mode(len(shape), j)
    rest = shape[: j - 1] + shape[j:]
    if m.ndim != 2 or m.shape[0] != shape[j - 1] or m.shape[1] != math.prod(rest):
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
    j = _check_mode(x.ndim, j)
    a = _as_tensor(a, "matrix")
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
    modes = [_check_mode(x.ndim, j) for _, j in mats]
    if len(set(modes)) != len(modes):
        raise ConfigError(f"repeated mode in multi_mode_product: {modes}")
    out = x
    for a, j in mats:
        out = mode_product(out, a, j)
    return out


def inner(x, y):
    x, y = _as_tensor(x, "x"), _as_tensor(y, "y")
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
    a, b = _as_tensor(a, "a"), _as_tensor(b, "b")
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"row counts differ: {a.shape[0]} vs {b.shape[0]}")
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1)
