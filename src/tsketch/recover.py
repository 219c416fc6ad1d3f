"""Recovery of a low Tucker-rank factorization from leave-one-out sketches.

The pipeline, given a bundle of d leave-one-out sketches plus a core sketch:

1. Factors: per mode i, keep the leading left singular vectors of the
   leave-one-out sketch B_i, whose mode i is not mapped. Only the left
   vectors are computed, by one of three routes:
   - a randomized range finder: the sketch times a keyed gaussian map, one
     power step with a QR after every product, and the SVD of the small
     projected sketch;
   - the eigenvectors of the n_i x n_i Gram matrix when the sketch is wide,
     or, when that Gram matrix is too ill-conditioned at the requested rank,
     a Householder QR of the transposed sketch followed by an SVD of its
     small triangular factor;
   - the thin SVD of a tall sketch (fewer columns than n_i).
   Two fixed rules choose: the range finder runs only where a flop count says
   it is cheaper than the exact route, and its result is kept only where its
   own singular values show a gap at the requested rank.
2. Joint truncation (``recover_factors``, which ``one_pass`` and ``two_pass``
   both call): the factors are first estimated at an oversampled rank
   k = r + 5, capped by half the core sketch side and by the sketch sizes.
   The k^d core solved from the core sketch is truncated to rank r in every
   mode at once, by higher-order orthogonal iteration (HOOI) started from its
   HOSVD, and the factors are rotated into that truncation. Truncating each
   mode on its own would let each mode break ties at its r-th singular value
   its own way; the small core sees all modes together and picks one
   consistent subspace.
3. Core, without touching the data again: peel the core sketch one mode at a
   time, multiplying by the pseudo-inverse of the small m_c x r matrix
   Phi_i Q_i, taken from its SVD, modes ascending. This equals multiplying
   the core sketch by the pseudo-inverses of every Phi_i Q_i.
4. Core, with a second pass over the data: project, G = X x_i Q_i^T, which is
   the error-minimizing core for the recovered factors.

``recover_core_recycled`` reuses one leave-one-out sketch in place of the core
sketch. It is experimental: reusing measurements couples the factor-estimation
error into the core solve in a way none of the accuracy guarantees cover, but
empirically the overall error is comparable. It does not do away with the core
sketch: every plan stores one (m_c >= 1), and ``recover_factors`` solves
against it for the joint truncation whenever m_c // 2 > r. Storage is saved
only by a plan with m_c <= 2r + 1, which gives that truncation up.

Everything here reads only the sketch bundle (and, for the two-pass core, the
tensor the caller explicitly provides); no operation on the one-pass path
accepts the original data. Every kernel works on sketch- or core-sized
matrices, so the cost of recovery does not grow with the tensor.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .ensembles import keyed_generator
from .errors import ConfigError, RankError, ShapeError, SingularError
from .sketch import _as_slabs, _int_pair, _KronSums
from .tensor import multi_mode_product, unfold

__all__ = [
    "TuckerFactorization",
    "recover_factors",
    "recover_core_onepass",
    "recover_core_recycled",
    "compute_core_twopass",
    "one_pass",
    "two_pass",
    "reconstruct",
]

# Relative cutoff under which a singular value counts as zero in the
# rank-revealing solves below.
_SOLVE_RCOND = 1e-12

# Oversampling of the per-mode factors ahead of the joint truncation.
_OVERSAMPLE = 5

# The Gram route squares the condition number: below this sigma_r / sigma_1
# the leading left vectors come from a QR of the sketch instead.
_GRAM_RCOND = 1e-3

# The randomized range finder samples k + _RANGE_OVERSAMPLE directions, and is
# trusted only where the last of them carries at most _RANGE_GAP of sigma_r.
_RANGE_OVERSAMPLE = 10
_RANGE_GAP = 0.5

# HOOI stops once a sweep grows the core norm by no more than this fraction,
# or after this many sweeps.
_HOOI_RTOL = 1e-12
_HOOI_MAX_SWEEPS = 100


@dataclass
class TuckerFactorization:
    """Core tensor with every side r plus one n_i x r orthonormal factor per mode."""

    core: np.ndarray
    factors: list

    @property
    def d(self):
        return self.core.ndim

    @property
    def rank(self):
        return self.core.shape[0]

    @property
    def shape(self):
        return tuple(q.shape[0] for q in self.factors)


def _rank(r):
    """A rank argument, an integer (a numpy integer will do) of at least 1, as an int."""
    try:
        r = operator.index(r)
    except TypeError:
        raise RankError(f"rank must be an integer, got {r!r}") from None
    if r < 1:
        raise RankError(f"rank must be >= 1, got {r}")
    return r


def _pinv(a, mode):
    """Pseudo-inverse of a full-column-rank matrix, from its thin SVD.

    Raises SingularError naming the offending mode when the matrix is
    numerically rank deficient at the 1e-12 relative threshold.
    """
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    rank = int(np.count_nonzero(s > _SOLVE_RCOND * s[0]))
    if rank < a.shape[1]:
        raise SingularError(
            f"measurement-times-factor matrix for mode {mode} is rank deficient "
            f"({rank} < {a.shape[1]})",
            mode=mode,
        )
    return (vt.T / s) @ u.T


def _exact_left_vectors(f, k, r):
    """The k leading left singular vectors of f, from a Gram, QR or thin SVD route.

    A wide f goes through the eigenvectors of f f^T. When sigma_r / sigma_1 of
    f is below _GRAM_RCOND (checked at the requested rank r, since on exact-rank
    inputs the oversampled sigma_k sits at roundoff), the Gram route would lose
    accuracy, and the vectors come from the SVD of the triangular factor of a
    QR of f^T instead. A tall f takes its thin SVD.
    """
    if f.shape[0] <= f.shape[1]:
        w, v = np.linalg.eigh(f @ f.T)
        if w[-r] >= _GRAM_RCOND**2 * w[-1]:
            return v[:, : -k - 1 : -1]
        f = np.linalg.qr(f.T, mode="r").T
    u, _, _ = np.linalg.svd(f, full_matrices=False)
    return u[:, :k]


def _range_finder_pays(shape, k):
    """Whether the range finder's flop count beats the exact route's for an f of this shape.

    With a and c the smaller and larger side and l = k + _RANGE_OVERSAMPLE, the
    exact route costs about a^2 c + 4a^3/3 (Gram and eigh) for a wide f and
    4ca^2 + 8a^3 (thin SVD) for a tall one, and the range finder about 6acl
    for its four products with f. The weights follow the measured crossover:
    the range finder wins at 256 x 625 and 256 x 100 and loses at 100 x 625.
    It also needs l below a, or its sample would span all of f's range.
    """
    a, c = min(shape), max(shape)
    l = k + _RANGE_OVERSAMPLE
    exact = a * a * c + 4 * a**3 / 3 if shape[0] <= shape[1] else 4 * c * a * a + 8 * a**3
    return l < a and 6 * a * c * l < exact


def _range_vectors(f, k, r, rng):
    """The k leading left singular vectors of f from a randomized range finder, or None.

    Y = f Omega with a gaussian Omega of l = k + _RANGE_OVERSAMPLE columns, then
    one power step with a QR after every product (Halko, Martinsson & Tropp
    2011, Algorithm 4.4), so directions far below sigma_1 survive roundoff.
    The leading left vectors of the small Q^T f are rotated by Q. Returns None
    when the captured spectrum shows no gap, sigma_l > _RANGE_GAP * sigma_r of
    Q^T f, since the range then misses part of the leading subspace.
    """
    l = k + _RANGE_OVERSAMPLE
    q = np.linalg.qr(f @ rng.standard_normal((f.shape[1], l)))[0]
    q = np.linalg.qr(f.T @ q)[0]
    q = np.linalg.qr(f @ q)[0]
    u, s, _ = np.linalg.svd(q.T @ f, full_matrices=False)
    if not s[-1] <= _RANGE_GAP * s[r - 1]:
        return None
    return q @ u[:, :k]


def _left_vectors(f, k, r, key):
    """The k leading left singular vectors of f, without its right vectors.

    Where ``_range_finder_pays`` says so, they come from the randomized range
    finder, its gaussian map drawn from ``keyed_generator(*key)``; otherwise,
    or when the range finder finds no gap at r, from the exact route.
    """
    if _range_finder_pays(f.shape, k):
        u = _range_vectors(f, k, r, keyed_generator(*key))
        if u is not None:
            return u
    return _exact_left_vectors(f, k, r)


def recover_factors(bundle, r):
    """The d orthonormal n_i x r factors, truncated to rank r in all modes jointly.

    Per mode: the k leading left singular vectors of B_i, k = r + _OVERSAMPLE
    capped by m_c // 2 (so the k^d core solve stays well overdetermined) and by
    the smaller side of every sketch. The k^d core solved from the core sketch
    is truncated by HOOI and each factor Q_i is rotated into Q_i U_i. When the
    cap leaves no room, or there is a single mode with no other mode to agree
    with, each mode keeps its own r leading vectors. A partial bundle is a
    ConfigError.
    """
    plan = bundle.plan
    if bundle.partial:
        raise ConfigError("bundle is partial (stream did not cover the last mode); "
                          "recovery needs a complete sketch")
    r = _rank(r)
    cap = min(plan.m_c // 2, *(min(b.shape) for b in bundle.loo))
    k = max(r, min(r + _OVERSAMPLE, cap)) if plan.d > 1 else r
    qs = []
    for i, b in enumerate(bundle.loo, start=1):
        if r > min(b.shape):
            raise RankError(
                f"rank {r} exceeds the {min(b.shape)} singular vectors available in mode {i} "
                f"(sketch is {b.shape[0]}x{b.shape[1]})"
            )
        f = np.asfortranarray(b)  # the layout a bundle file gives, built or read alike
        qs.append(_left_vectors(f, k, r, (plan.seed, "range", i)))
    if k == r:
        return qs
    us = _truncate_core(recover_core_onepass(bundle.core, plan.core_maps, qs), r)
    return [q @ u for q, u in zip(qs, us)]


def _peel(h, maps, qs, what):
    """Multiply h on every mode i, ascending, by pinv(maps[i] @ qs[i]).

    h is taken in column-major order, the order a bundle file stores, so the
    result does not depend on the layout h arrived in.
    """
    h = np.asfortranarray(h, dtype=np.float64)
    d = h.ndim
    if len(maps) != d or len(qs) != d:
        raise ShapeError(f"need {d} {what} maps and {d} factors, got {len(maps)} and {len(qs)}")
    pinvs = []
    for i in range(1, d + 1):
        a = np.asarray(maps[i - 1]) @ np.asarray(qs[i - 1])
        if a.shape[0] < a.shape[1]:
            raise RankError(
                f"{what} sketch dimension {a.shape[0]} is below rank {a.shape[1]} in mode {i}"
            )
        pinvs.append((_pinv(a, i), i))
    return multi_mode_product(h, pinvs)


def recover_core_onepass(core_sketch, phis, qs):
    """Solve for the core from its sketch alone, one mode at a time, ascending.

    `phis` are the core measurement maps, `qs` the recovered factors. The
    result equals core_sketch multiplied by pinv(phis[i] @ qs[i]) on every
    mode, up to solver roundoff.
    """
    return _peel(core_sketch, phis, qs, "core")


def recover_core_recycled(b_j, omegas, qs):
    """Core estimate reusing one leave-one-out measurement tensor (experimental).

    `b_j` is the d-mode measurement tensor of a kronecker-structured sketch
    (mode j still full length), `omegas` the d maps that produced it (the
    identity in position j), `qs` the recovered factors. Same
    ascending mode-peeling solve as the one-pass core; no accuracy guarantee
    covers the reuse, so prefer the core sketch when one is available.
    """
    return _peel(b_j, omegas, qs, "recycled")


def _leading(a, r):
    """The r leading left singular vectors of a small matrix, and its singular values."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, :r], s


def _truncate_core(core, r):
    """Rank-(r, ..., r) truncation of a small core by HOOI started from its HOSVD.

    Returns one k x r orthonormal matrix per mode. Each sweep refits every mode
    against the others; the captured core norm never decreases, and the sweeps
    stop once it stops growing.
    """
    d = core.ndim
    us = [_leading(unfold(core, i), r)[0] for i in range(1, d + 1)]
    captured = 0.0
    for _ in range(_HOOI_MAX_SWEEPS):
        for i in range(1, d + 1):
            y = multi_mode_product(core, [(u.T, j) for j, u in enumerate(us, start=1) if j != i])
            us[i - 1], s = _leading(unfold(y, i), r)
        grown = float(np.sum(s[:r] ** 2))
        if grown <= captured * (1.0 + _HOOI_RTOL):
            break
        captured = grown
    return us


def compute_core_twopass(x, qs):
    """Optimal core for the given factors, computed by projecting the data: G = X x_i Q_i^T.

    `x` is a dense tensor or an iterable of last-mode slabs (``SlabChunk``)
    that tile the last mode, as ``sketch`` takes it. The projection is
    linear, so the core is a sum over slabs, taken by the engine of the core
    sketch (``sketch._KronSums``) as its one measurement [Q_1^T, ..., Q_d^T]:
    it checks each slab as ``SketchAccumulator.update`` does, and refuses a
    gap. A dense tensor is the one-slab case.
    """
    sums = _KronSums(tuple(q.shape[0] for q in qs), [[q.T for q in qs]])
    for chunk in _as_slabs(x):
        sums.update(chunk)
        del chunk  # hold one slab: drop it before the next is read
    return sums.finish(whole=True)[0]


def one_pass(bundle, r):
    """Factorization from the bundle alone; never sees the original tensor.

    The factors of ``recover_factors``, then the r^d core solved from the core
    sketch for those factors.
    """
    qs = recover_factors(bundle, r)
    core = recover_core_onepass(bundle.core, bundle.plan.core_maps, qs)
    return TuckerFactorization(core=core, factors=qs)


def two_pass(bundle, x, r):
    """The factors of ``recover_factors``, with the core from a second pass over the tensor.

    `x` is the dense tensor or its last-mode slabs, as ``compute_core_twopass``
    takes them. The projection core is the best core for given factors, so
    against the observed tensor two-pass is never worse than one-pass. The
    second pass needs only the factors, so the bundle is dropped before it:
    a caller that keeps no reference of its own frees it there.
    """
    qs = recover_factors(bundle, r)
    del bundle
    core = compute_core_twopass(x, qs)
    return TuckerFactorization(core=core, factors=qs)


def reconstruct(t, lo=0, hi=None):
    """Expand a factorization back to a dense tensor: core x_1 Q_1 ... x_d Q_d.

    With a last-mode range [lo, hi), only those slices are built, from rows
    lo..hi-1 of Q_d. The last mode is expanded first, so building the tensor
    slab by slab costs about what building it whole does. The range must be
    integers 0 <= lo < hi <= n_d (``ShapeError``).
    """
    d, n = len(t.factors), t.factors[-1].shape[0]
    lo, hi = _int_pair(lo, n if hi is None else hi)
    if not 0 <= lo < hi <= n:
        raise ShapeError(f"slab [{lo}, {hi}) outside mode of length {n}")
    mats = [(t.factors[-1][lo:hi], d)] + [(q, i) for i, q in enumerate(t.factors[:-1], start=1)]
    return multi_mode_product(t.core, mats)
