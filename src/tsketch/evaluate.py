"""Metrics, error bounds, baselines, and synthetic test tensors.

Quantities follow the experiment conventions used throughout the test suite:

* relative error   ||X_hat - X|| / ||X0||, where X is the tensor that was
                    sketched (possibly noisy) and X0 the clean reference
                    (the same tensor in noiseless settings).
* SNR (dB)          10 log10(||X|| / ||X0 - X||). Note the numerator is the
                    noisy tensor's norm; add_noise_snr solves the quadratic
                    this induces exactly, so the target round-trips.
* tail energy       Delta_{r,j}: the sum of squared singular values of the
                    mode-j unfolding beyond index r. The truncated
                    higher-order SVD is quasi-optimal against these.
* one-pass bound    (1 + e^eps) * sqrt((1+eps)/(1-eps) * sum_j Delta_{r,j}).
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .ensembles import keyed_generator
from .errors import ConfigError, RankError, ShapeError
from .recover import TuckerFactorization, _rank, compute_core_twopass, reconstruct
from .sketch import _as_slabs, _require_coverage, _slab_entries, _take_slab
from .tensor import _as_int, _as_shape, _as_tensor, inner, multi_mode_product, norm, unfold

__all__ = [
    "relative_error",
    "score",
    "snr_db",
    "add_noise_snr",
    "max_principal_angle",
    "tail_energy",
    "hosvd_truncate",
    "bound_rhs",
    "gen_lowrank",
    "gen_superdiag_exp",
    "gen_superdiag_poly",
    "tail_baseline",
]

# add_noise_snr refuses a target that the float64 result misses by more than this.
_SNR_TOL_DB = 0.1

# Bytes of each slice of a difference that ``_distance`` forms.
_SLICE_BYTES = 2**20


def _ratio(err, ref):
    if ref == 0.0:
        raise ConfigError("relative error is undefined against a zero reference tensor")
    ratio = err / ref
    if not math.isfinite(ratio):
        raise ConfigError(f"relative error {err!r} / {ref!r} is not finite in float64")
    return ratio


def _decibels(signal, noise):
    return math.inf if noise == 0.0 else 10.0 * math.log10(signal / noise)


def _distance(a, b):
    """||a - b|| over slices of the difference along axis 0 (the last axis if
    `a` is F-ordered), each of at most 1 MiB or one index of that axis, so that
    no difference as large as the tensors is formed."""
    axis = a.ndim - 1 if a.flags.f_contiguous and not a.flags.c_contiguous else 0
    a, b = np.moveaxis(a, axis, 0), np.moveaxis(b, axis, 0)
    step = max(1, _SLICE_BYTES * a.shape[0] // (8 * a.size))
    return math.hypot(*(norm(a[lo : lo + step] - b[lo : lo + step]) for lo in range(0, a.shape[0], step)))


def relative_error(x_hat, x, x0=None):
    """||x_hat - x|| / ||x0||; x0 defaults to x (the noiseless convention)."""
    x, x_hat = _as_tensor(x, "x"), _as_tensor(x_hat, "x_hat")
    x0 = x if x0 is None else _as_tensor(x0, "x0")
    for y in (x_hat, x0):
        if y.shape != x.shape:
            raise ShapeError(f"shape mismatch: {y.shape} vs {x.shape}")
    return _ratio(_distance(x_hat, x), norm(x0))


def snr_db(x, x0):
    """Signal-to-noise ratio 10 log10(||x|| / ||x0 - x||) in decibels; +inf when noiseless."""
    x, x0 = _as_tensor(x, "x"), _as_tensor(x0, "x0")
    if x.shape != x0.shape:
        raise ShapeError(f"shape mismatch: {x.shape} vs {x0.shape}")
    return _decibels(norm(x), _distance(x0, x))


def _slab_squares(t, lo, hi, x, x0):
    """Squared norms of the slab [lo, hi): ||x_hat - x||^2 and ||x||^2, then, with
    the clean slab x0, ||x_hat - x0||^2, ||x0||^2 and ||x0 - x||^2 (zeros without)."""
    x_hat = reconstruct(t, lo, hi)
    out = np.zeros(5)
    out[1] = inner(x, x)
    if x0 is not None:
        diff = x_hat - x0
        out[2] = inner(diff, diff)
        out[3] = inner(x0, x0)
        np.subtract(x0, x, out=diff)
        out[4] = inner(diff, diff)
    x_hat -= x
    out[0] = inner(x_hat, x_hat)
    return out


def score(t, x, clean=None):
    """Relative errors of factorization `t` against a tensor read slab by slab.

    `x` is the observed tensor, dense or an iterable of its last-mode slabs
    (``SlabChunk``) that tile the last mode, as ``sketch`` takes it; each slab
    is checked as ``SketchAccumulator.update`` checks it. `clean`, if given,
    reads the clean tensor x0: ``clean(lo, hi)`` returns its last-mode slices
    [lo, hi), as ``TensorFile.read`` does, and is called over each slab's
    range, the slab it returns checked alike. Each slab of the reconstruction
    x_hat is built from its own rows of the last factor (see ``reconstruct``),
    so nothing tensor-sized is held. Returns ``relative_error``
    ||x_hat - x|| / ||x|| and, given `clean`, ``relative_error_clean``
    ||x_hat - x0|| / ||x0|| and ``snr_db`` as ``snr_db(x, x0)`` computes it.
    Squared norms that overflow float64 are a ``ConfigError``, as are ratios.
    """
    sums, covered = np.zeros(5), []
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        for chunk in _as_slabs(x):
            lo, hi, slab = _take_slab(covered, t.shape, chunk)
            if hi > lo:
                x0 = None if clean is None else _slab_entries(clean(lo, hi), t.shape, lo, hi, "clean slab")
                sums += _slab_squares(t, lo, hi, slab, x0)
    _require_coverage(covered, t.shape[-1])
    if not np.isfinite(sums).all():
        raise ConfigError("the factorization's error is not finite in float64: a squared norm overflows")
    res, xx, res0, x0x0, noise = np.sqrt(sums)
    out = {"relative_error": _ratio(float(res), float(xx))}
    if clean is not None:
        out["relative_error_clean"] = _ratio(float(res0), float(x0x0))
        out["snr_db"] = _decibels(float(xx), float(noise))
    return out


def add_noise_snr(x0, target_db, seed):
    """Add white gaussian noise scaled so snr_db(result, x0) hits target_db exactly.

    With rho = 10^(target/10) and N the unit draw, the scale s must satisfy
    ||x0 + s N|| = rho * s * ||N||, a quadratic in s solved in closed form;
    the positive root is taken. Raises ConfigError when no positive finite
    solution exists: targets at or below 0 dB can be unreachable for a given
    draw, and a target so high that the ratio overflows is unreachable too.
    It also raises ConfigError when the float64 sum misses the target by more
    than _SNR_TOL_DB, measured on the returned tensor: from about 160 dB up,
    s N falls toward half an ulp of the entries and rounding, not N, sets the
    noise, until the sum is the clean tensor itself.
    """
    x0 = _as_tensor(x0)
    rng = keyed_generator(seed, "noise", *x0.shape)
    noise = rng.standard_normal(x0.shape)
    try:
        rho = 10.0 ** (float(target_db) / 10.0)
    except OverflowError:
        rho = math.inf
    nn = norm(noise) ** 2
    xx = norm(x0) ** 2
    xn = inner(x0, noise)
    a = nn * (rho * rho - 1.0)
    if a <= 0.0:
        raise ConfigError(f"snr target {target_db} dB is not reachable (needs a positive ratio)")
    disc = xn * xn + a * xx
    s = (xn + math.sqrt(disc)) / a
    if not 0.0 < s < math.inf:  # NaN once the ratio overflows
        raise ConfigError(f"no positive finite noise scale reaches {target_db} dB")
    # x0 + s * noise, formed in the draw's memory: the same bits, one tensor fewer.
    x = np.multiply(noise, s, out=noise)
    x += x0
    measured = snr_db(x, x0)
    if not abs(measured - float(target_db)) <= _SNR_TOL_DB:
        raise ConfigError(f"snr target {target_db} dB is past float64 resolution: "
                          f"the noisy tensor measures {measured:.1f} dB")
    return x


def max_principal_angle(q, u):
    """Largest canonical angle between the column spaces of q and u, in degrees.

    Both inputs must have orthonormal columns (checked to 1e-8). The angle is
    atan2 of its sine, the largest singular value of u - q q^T u, and its
    cosine, the smallest singular value of q^T u. The cosine alone resolves
    nothing below about 1e-6 degrees; the sine keeps small angles accurate.
    """
    q, u = _as_tensor(q, "q"), _as_tensor(u, "u")
    if q.shape != u.shape:
        raise ShapeError(f"subspace bases differ in shape: {q.shape} vs {u.shape}")
    for name, a in (("first", q), ("second", u)):
        gram = a.T @ a
        if np.linalg.norm(gram - np.eye(a.shape[1])) > 1e-8:
            raise ConfigError(f"{name} basis does not have orthonormal columns")
    c = q.T @ u
    cos = np.linalg.svd(c, compute_uv=False).min()
    sin = np.linalg.norm(u - q @ c, 2)
    return float(np.clip(math.degrees(math.atan2(sin, cos)), 0.0, 90.0))


def tail_energy(x, r, j):
    """Sum of squared singular values of the mode-j unfolding beyond index r."""
    r, m = _rank(r), unfold(x, j)
    if r > min(m.shape):
        raise RankError(f"rank {r} exceeds min dimension {min(m.shape)} of the mode-{j} unfolding")
    if m.shape[1] > m.shape[0]:
        # A wide unfolding has the singular values of R in the QR of its
        # transpose, which costs less to find and is as accurate.
        m = np.linalg.qr(m.T, mode="r")
    s = np.linalg.svd(m, compute_uv=False)
    return float(np.sum(s[r:] ** 2))


def hosvd_truncate(x, r):
    """Plain truncated higher-order SVD: per-mode leading singular vectors, then project.

    The classical quasi-optimal baseline: its squared error is at most the sum
    of the per-mode tail energies. A one-mode tensor has no core (``ShapeError``).
    """
    r, x = _rank(r), _as_tensor(x)
    if r > min(x.shape):
        raise RankError(f"rank {r} exceeds smallest mode length {min(x.shape)}")
    factors = []
    for j in range(1, x.ndim + 1):
        u, _, _ = np.linalg.svd(unfold(x, j), full_matrices=False)
        factors.append(u[:, :r])
    core = compute_core_twopass(x, factors)
    return TuckerFactorization(core=core, factors=factors)


def bound_rhs(eps, deltas):
    """One-pass error bound value: (1 + e^eps) * sqrt((1+eps)/(1-eps) * sum(deltas))."""
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise ConfigError(f"eps must be in (0, 1), got {eps}")
    if not np.size(deltas):
        raise ConfigError("need at least one tail energy")
    deltas = _as_tensor(deltas, "deltas")
    if np.any(deltas < 0.0):
        raise ConfigError("tail energies must be non-negative")
    return float((1.0 + math.exp(eps)) * math.sqrt((1.0 + eps) / (1.0 - eps) * deltas.sum()))


def _cube(n, d, r):
    """(n, d, r) of a generated tensor as ints: d >= 2 modes, as every plan
    needs, of length n >= 1 (``ShapeError``, the shape read by ``_as_shape``)
    and a rank of at most n (``RankError``)."""
    shape = _as_shape((n,) * _as_int(d, "mode count", ShapeError, low=2))
    n, d, r = shape[0], len(shape), _rank(r)
    if r > n:
        raise RankError(f"rank {r} exceeds mode length {n}")
    return n, d, r


def gen_lowrank(n, d, r, seed):
    """Random exactly-rank-r tensor: uniform [0,1] core, orthonormalized gaussian factors.

    Returns (tensor, factors). Deterministic in `seed`, a seed in [0, 2^64).
    """
    n, d, r = _cube(n, d, r)
    core = keyed_generator(seed, "lowrank-core").random((r,) * d)
    factors = []
    for i in range(1, d + 1):
        g = keyed_generator(seed, "lowrank-factor", i).standard_normal((n, r))
        q, _ = np.linalg.qr(g)
        factors.append(q)
    return multi_mode_product(core, [(q, i) for i, q in enumerate(factors, start=1)]), factors


def _superdiag(n, d, r, tail):
    n, d, r = _cube(n, d, r)
    if r + 1 >= n:
        warnings.warn(f"super-diagonal tensor with n={n}, r={r} has no decaying tail", stacklevel=3)
    x = np.zeros((n,) * d)
    idx = np.arange(n)
    diag = np.ones(n)
    for i in range(r + 1, n):  # zero-based position i holds 1-based index i+1
        diag[i] = tail(i + 1 - r)
    x[tuple(idx for _ in range(d))] = diag
    return x


def gen_superdiag_exp(n, d, r):
    """Diagonal test tensor: ones through index r+1, then 10^-(i-r) decay (1-based i)."""
    return _superdiag(n, d, r, lambda k: 10.0 ** (-k))


def gen_superdiag_poly(n, d, r):
    """Diagonal test tensor: ones through index r+1, then (i-r)^-1 decay (1-based i)."""
    return _superdiag(n, d, r, lambda k: 1.0 / k)


def tail_baseline(x, r):
    """Norm of the diagonal beyond index r, relative to the tensor norm.

    The floor any rank-r approximation of a super-diagonal tensor converges to.
    """
    r, x = _rank(r), _as_tensor(x)
    n = min(x.shape)
    idx = np.arange(r, n)
    tail = x[tuple(idx for _ in range(x.ndim))]
    return float(np.linalg.norm(tail) / norm(x))
