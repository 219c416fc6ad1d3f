"""One-pass sketching of dense tensors, streamed as slabs along the last mode.

A measurement campaign is described by a :class:`SketchPlan`. For a d-mode
tensor it defines:

* d leave-one-out sketches. Sketch j compresses every mode except mode j,
  which stays at full length n_j and is not mapped at all. Three structures
  are supported:

  - ``kronecker``: one small map A_i per mode i, applied modewise and shared
    by every sketch that compresses mode i (the modewise measurements of
    Iwen, Needell, Rebrova & Zare 2021); the composite of sketch j acting on
    the unfolding is the Kronecker product of the A_i, i != j, in descending
    mode order and is never materialized. B_j is n_j x m^(d-1).
  - ``khatri_rao``: the same per-mode maps A_i, with the row count m, and the
    composite is their row-wise Kronecker product (descending mode order),
    rescaled so a unit vector keeps unit expected squared norm. B_j is n x m.
    The composite is never materialized either: a slab is contracted on its
    widest other mode by a matmul, then row-wise on the remaining other modes
    by batched matmuls over the composite's row index.
  - ``unstructured``: a single dense m x prod(n_k, k != j) map per sketch,
    capped at 256 MiB when the plan is made: nothing about it is compressible.

  Either way the plan draws d leave-one-out maps, the i-th named by
  ``SketchPlan.loo_spec(i)`` and held in ``loo_maps[i - 1]``: A_i, or
  sketch i's dense composite.

* one core sketch: the tensor compressed on every mode down to side m_c.

All measurements are linear, so a tensor arriving in last-mode slabs can be
sketched additively: each slab contributes through the map columns its index
range selects. ``SketchAccumulator`` holds the fixed-size measurement arrays
(never the slabs themselves), supports merging with a disjoint peer, and
finalizes into a :class:`SketchBundle`. ``sketch`` takes a dense tensor or
its slabs and feeds them to one accumulator; a dense tensor is the one slab
covering the whole mode. A bundle always sketches the whole tensor:
``finalize``, and so ``sketch``, refuses slabs that leave a gap.

One engine, ``_KronSums``, sums every measurement of a plan over the slab
stream: the modewise products (the core, the kronecker B_j, and the
two-pass core too) and the khatri_rao and unstructured B_j. Each slab is
read once for every measurement that contracts mode 1 first, by one matmul
with the plan's stacked mode-1 maps (``SketchPlan.mode1_stack``) on the
left: the core, the kronecker B_j for j != 1, and each khatri_rao B_j whose
widest other mode is mode 1, ties going to mode 1. The leave-one-out ones
share A_1, so the stack holds it once: m + m_c rows. Each takes its rows of
the product as a view; any other B_j takes its own first product before the
stacked one is formed, so that the two are never held at once. A last-mode
map applied to a thin slab is a matmul with a small inner dimension and an
output as large as the measurement, so the modewise measurements park thin
slabs, contracted on the other modes, in a buffer of up to
``_BUFFER_SLICES`` slices, and apply them a buffer at a time. A full buffer
reaches its sum in tiles: each tile of the sum's rows is formed in a
temporary of at most ``_TILE_BYTES`` and added, so no flush forms a
temporary as large as the measurement.

A streaming step holds the sums, the buffers, the maps and one slab with
its products. ``finalize`` lends the sums to its bundle as read-only views
instead of copying them: once the slabs cover the last mode, every further
non-empty slab is an overlap, so nothing changes the sums again.

A streamed sketch, the two-pass core and the error of a factorization are
each a sum over slabs, right only if every slab is real, finite and fits the
tensor and the slabs tile the last mode once. ``_take_slab`` and
``_require_coverage`` hold that rule: the engine applies it to every slab it
sums and to the stream it finishes, for the accumulator and
``compute_core_twopass`` alike, and ``score`` likewise; the engine refuses
sums that overflowed too (``_finite``). Each of them, and ``sketch``, takes
a dense tensor or its slabs the same way, by ``_as_slabs``.
"""

from __future__ import annotations

import bisect
import copy
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ensembles import EnsembleSpec, _seed, derive_seed, materialize
from .errors import ConfigError, ShapeError
from .tensor import _as_int, _as_shape, _as_tensor, _finite, _not_bool, _real, _shown, mode_product, unfold

__all__ = [
    "LOO_KINDS",
    "SketchPlan",
    "make_plan",
    "SlabChunk",
    "SketchBundle",
    "SketchAccumulator",
    "sketch",
    "slab_chunks",
]

LOO_KINDS = ("kronecker", "khatri_rao", "unstructured")

_MAP_CAP_MB = 256  # per dense composite of an unstructured plan

# Last-mode slices a modewise measurement of ``_KronSums`` gathers before
# applying its last-mode map, capped by the rows of that map, so that no buffer
# outgrows the measurement it feeds, and by the length of the mode. A buffer of
# w slices is w/m of a measurement whose last-mode map has m rows: at m = 25 a
# cap of 32 made each buffer as large as the measurement, which 8 slices cut to
# a third.
# A flush is still one matmul per measurement, of inner dimension 8, so thin
# slabs still reach the last-mode map a buffer at a time, not a slice at a time.
_BUFFER_SLICES = 8

# Bytes of the temporary through which a flush adds the product of a buffer
# and its last-mode map to a sum, one tile of the sum's rows at a time, so that
# no flush forms a temporary as large as the measurement it adds to.
_TILE_BYTES = 64 * 2**10


def _read_only(a):
    """A read-only view of `a`: how a plan shares its maps and a bundle borrows its sums."""
    a = a.view()
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SketchPlan:
    """Everything needed to reproduce a measurement campaign from its seed.

    `m` is the per-mode sketch dimension for kronecker plans and the composite
    row count for khatri_rao / unstructured plans; they, `m_c`, `seed` and the
    shape entries are integers (a numpy integer will do). `loo_families[i-1]`
    is the family of the one leave-one-out map A_i on mode i, which every
    kronecker or khatri_rao sketch j != i applies; `core_families[i-1]`
    likewise for the core map on mode i. The plan owns its materialized maps
    (``core_maps``, ``loo_maps`` and their stacked ``mode1_stack``): built on
    first use, read-only, and shared by every accumulator and recovery of the plan.
    Every check runs when the plan is made, before any map is drawn: a map of
    2^63 bytes or more, or an unstructured one over 256 MiB, is a ``ConfigError``.
    """

    shape: tuple
    loo_kind: str
    m: int
    m_c: int
    loo_families: tuple
    core_families: tuple
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "shape", _as_shape(self.shape))
        for key in ("m", "m_c"):  # their bound is checked below, in the plan's own words
            object.__setattr__(self, key, _as_int(getattr(self, key), key, low=None))
        object.__setattr__(self, "seed", _seed(self.seed))
        object.__setattr__(self, "loo_families", tuple(self.loo_families))
        object.__setattr__(self, "core_families", tuple(self.core_families))
        if self.loo_kind not in LOO_KINDS:
            raise ConfigError(f"loo_kind must be one of {LOO_KINDS}, got {_shown(self.loo_kind)}")
        if self.m < 1 or self.m_c < 1:
            raise ConfigError("sketch dimensions m and m_c must be >= 1")
        if self.d < 2:  # B_1 of one mode would be the vector itself
            raise ConfigError(f"sketches need at least two modes to compress, got shape {_shown(self.shape)}")
        if len(self.loo_families) != self.d or len(self.core_families) != self.d:
            raise ConfigError("need one leave-one-out family and one core family per mode")
        if self.loo_kind == "unstructured" and len(set(self.loo_families)) != 1:
            raise ConfigError("unstructured sketches use a single family for the composite map")
        # Fail fast, before any map is drawn: building each spec refuses an
        # unknown family or an infeasible map (e.g. srtt with more rows than columns).
        for i in range(1, self.d + 1):
            spec = self.loo_spec(i)
            self.core_spec(i)
            need = 8 * spec.rows * spec.cols
            if self.loo_kind == "unstructured" and need > _MAP_CAP_MB * 2**20:
                raise ConfigError(f"unstructured map for sketch {i} needs {need / 2**20:.1f} MiB, "
                                  f"over the {_MAP_CAP_MB} MiB cap")

    @property
    def d(self):
        return len(self.shape)

    def loo_spec(self, i):
        """Spec of the i-th leave-one-out map: A_i on mode i, which every
        kronecker or khatri_rao sketch j != i applies, or, for an unstructured
        plan, sketch i's dense m x prod(n_k, k != i) composite."""
        if self.loo_kind == "unstructured":
            cols, key = math.prod(self.shape) // self.shape[i - 1], (i, 0)
        else:
            cols, key = self.shape[i - 1], (i,)
        return EnsembleSpec(self.loo_families[i - 1], self.m, cols, derive_seed(self.seed, "loo", *key))

    def core_spec(self, i):
        return EnsembleSpec(
            self.core_families[i - 1], self.m_c, self.shape[i - 1], derive_seed(self.seed, "core", i)
        )

    @cached_property
    def core_maps(self):
        """The d core maps Phi_i, built on first use and read-only, so that every
        accumulator and every recovery of this plan shares one copy."""
        return tuple(_read_only(materialize(self.core_spec(i))) for i in range(1, self.d + 1))

    @cached_property
    def mode1_stack(self):
        """(stack, rows): the mode-1 maps of every measurement that contracts
        mode 1 first, stacked in one read-only matrix built on first use and
        shared by every accumulator of this plan, and each measurement's rows
        of it, a slice or None: ``rows[j - 1]`` for B_j, ``rows[d]`` for the core.

        Those measurements are the core, the kronecker B_j for j != 1 and each
        khatri_rao B_j whose widest other mode is mode 1, ties going to mode 1
        (at d = 3 and a cubic shape, B_2 and B_3). The B_j among them share
        A_1, which fills the first m rows, and ``loo_maps`` holds it as a view
        of them: the stack is [A_1; Phi_1], of m + m_c rows. With no such B_j
        the stack is ``core_maps[0]`` itself.
        """
        d, n, m = self.d, self.shape, self.m
        starts = [j for j in range(2, d + 1) if self.loo_kind == "kronecker" or (
            self.loo_kind == "khatri_rao"
            and n[0] >= max((n[i - 1] for i in range(2, d + 1) if i != j), default=0))]
        rows = [slice(0, m) if j in starts else None for j in range(1, d + 1)]
        core = self.core_maps[0]  # a copy in the stack: recovery builds it without any A_i
        if not starts:
            return core, rows + [slice(0, self.m_c)]
        stack = np.concatenate([materialize(self.loo_spec(1)), core])
        stack.flags.writeable = False
        return stack, rows + [slice(m, m + self.m_c)]

    @cached_property
    def loo_maps(self):
        """The d leave-one-out maps, ``loo_maps[i - 1]`` built from
        ``loo_spec(i)`` on first use and read-only, so that every accumulator
        of this plan (every shard of a stream) shares one copy. A_1 is a view
        of ``mode1_stack``'s rows if any B_j reads it there.
        """
        stack, rows = self.mode1_stack
        stacked = any(r is not None for r in rows[:-1])
        return tuple(stack[: self.m] if i == 1 and stacked else _read_only(materialize(self.loo_spec(i)))
                     for i in range(1, self.d + 1))

    def khat_scale(self):
        """Rescale applied to the raw row-wise Kronecker composite.

        Components carry per-entry second moment 1/m, so the (d-1)-fold
        composite has entry variance m^-(d-1); scaling by m^((d-2)/2) restores
        variance 1/m, i.e. E||Omega x||^2 = ||x||^2.
        """
        return float(self.m) ** ((self.d - 2) / 2.0)

    def loo_cols(self):
        """Columns of every B_j: m^(d-1) for kronecker plans, m otherwise."""
        return self.m ** (self.d - 1) if self.loo_kind == "kronecker" else self.m

    def loo_entry_count(self):
        """Total stored leave-one-out entries across all d sketches."""
        return sum(self.shape) * self.loo_cols()

    def core_entry_count(self):
        return self.m_c**self.d


def expand_families(family, d):
    """Expand a family argument to a per-mode tuple; 'mix' cycles three kinds by mode."""
    if isinstance(family, str):
        if family == "mix":
            cycle = ("gaussian", "srtt", "sparse_sign")
            return tuple(cycle[i % 3] for i in range(d))
        return (family,) * d
    try:
        fams = tuple(family)
        if not all(isinstance(f, str) for f in fams):
            raise TypeError
    except TypeError:
        raise ConfigError(f"a family is a name or a sequence of names, got {_shown(family)}") from None
    if len(fams) != d:
        raise ConfigError(f"expected {d} families, got {len(fams)}")
    return fams


def make_plan(shape, loo_kind, m, m_c, loo_family="gaussian", core_family=None, seed=0):
    """Convenience constructor: accepts one family name, a per-mode list, or 'mix'."""
    shape = _as_shape(shape)
    d = len(shape)
    if core_family is None:
        core_family = loo_family
    return SketchPlan(
        shape=shape,
        loo_kind=loo_kind,
        m=m,
        m_c=m_c,
        loo_families=expand_families(loo_family, d),
        core_families=expand_families(core_family, d),
        seed=seed,
    )


@dataclass(frozen=True)
class SlabChunk:
    """A contiguous slab of the tensor along its last mode.

    `payload` has the leading d-1 mode lengths of the full tensor and `count`
    entries along the last mode, covering indices [start, start+count).
    """

    start: int
    count: int
    payload: np.ndarray


def slab_chunks(x, n_slabs):
    """Split a tensor into `n_slabs` roughly equal last-mode slabs, each
    payload the view ``x[..., a:b]`` of the tensor, not a copy. `n_slabs` is
    an integer of at least 1 (``ConfigError``); past the last mode's length,
    it cuts one slab per last-mode index, so no slab is empty.

    ``tsketch gen`` writes a TSKC stream through it when its config sets
    ``slabs``; the tests use it to stream a tensor held in memory.
    """
    x, n_slabs = _as_tensor(x), _as_int(n_slabs, "slab count")
    bounds = np.linspace(0, x.shape[-1], min(n_slabs, x.shape[-1]) + 1).astype(int)
    return [SlabChunk(int(a), int(b - a), x[..., a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def _overlap(covered, start, count):
    """The slab of `covered` that [start, start + count) overlaps, or None.

    `covered` is a sorted list of disjoint, non-empty (start, count) slabs, so
    their ends ascend too and only the last slab starting before the new end
    can overlap it.
    """
    i = bisect.bisect_left(covered, (start + count,))
    if count and i:
        s, c = covered[i - 1]
        if s + c > start:
            return s, c
    return None


def _int_pair(lo, hi):
    """The slab range (lo, hi) as ints, refused with ``ShapeError`` unless both
    are integers (a numpy integer will do; a bool will not)."""
    try:
        return operator.index(_not_bool(lo)), operator.index(_not_bool(hi))
    except TypeError:
        raise ShapeError(f"slab range lo={_shown(lo)}, hi={_shown(hi)} is not a pair of integers") from None


def _slab_range(chunk, n, what="slab"):
    """(lo, hi) of the last-mode slab `chunk` of a mode of length n, refused
    with ``ShapeError`` unless its start and count are integers (a numpy
    integer will do; a bool will not) and [lo, hi) lies in the mode."""
    try:
        lo, count = operator.index(_not_bool(chunk.start)), operator.index(_not_bool(chunk.count))
    except TypeError:
        raise ShapeError(f"{what} range start={_shown(chunk.start)}, count={_shown(chunk.count)} "
                         "is not a pair of integers") from None
    if lo < 0 or count < 0 or lo + count > n:
        raise ShapeError(f"{what} [{_shown(lo)}, {_shown(lo + count)}) outside mode of length {_shown(n)}")
    return lo, lo + count


def _fit(payload, shape, lo, hi, what="slab"):
    """`payload`, refused with ``ShapeError`` unless it has the shape of the
    last-mode slices [lo, hi) of a tensor of `shape`."""
    if np.shape(payload) != shape[:-1] + (hi - lo,):
        raise ShapeError(f"{what} [{lo}, {hi}) of shape {np.shape(payload)} does not fit "
                         f"the tensor's shape {shape}")
    return payload


def _slab_entries(payload, shape, lo, hi, what="slab"):
    """The payload of the last-mode slices [lo, hi) of a tensor of `shape`, as
    float64: it fits them (``_fit``), and its entries are real (``_real``) and
    finite (``ConfigError``)."""
    payload = _real(_fit(payload, shape, lo, hi, what), f"{what} [{lo}, {hi})")
    if not np.isfinite(payload).all():
        raise ConfigError(f"{what} [{lo}, {hi}) has non-finite entries")
    return payload


def _take_slab(covered, shape, chunk):
    """Check one last-mode slab of a tensor of `shape`, record its range in
    the sorted `covered` (unless empty), and return (lo, hi, payload as float64).

    In order: the range lies in the last mode (``_slab_range``), the payload
    fits it and its entries are real and finite (``_slab_entries``), and the
    range overlaps no slab in `covered` (``ConfigError``).
    """
    lo, hi = _slab_range(chunk, shape[-1])
    payload = _slab_entries(chunk.payload, shape, lo, hi)
    hit = _overlap(covered, lo, hi - lo)
    if hit:
        s, c = hit
        raise ConfigError(f"slab [{lo}, {hi}) overlaps [{s}, {s + c})")
    if hi > lo:
        bisect.insort(covered, (lo, hi - lo))
    return lo, hi, payload


def _require_coverage(covered, n):
    """Refuse slabs recorded by ``_take_slab`` that leave part of a last mode of length n."""
    got = sum(c for _, c in covered)
    if got != n:
        raise ShapeError(f"slabs cover {got} of the {n} indices of the last mode")


def _as_slabs(x):
    """The last-mode slabs of `x`: an iterator, or a list of SlabChunk (an
    empty one too), as given, anything else as one dense tensor, the single
    slab covering its last mode. Entries are not converted: the slab rule
    (``_take_slab``) checks them."""
    if isinstance(x, Iterator) or (isinstance(x, (list, tuple)) and (not x or isinstance(x[0], SlabChunk))):
        return x
    return [SlabChunk(0, _as_shape(np.shape(x))[-1], x)]


@dataclass
class SketchBundle:
    """The complete output of a measurement campaign.

    `loo[j-1]` is B_j: n_j x m^(d-1) for kronecker plans, n_j x m otherwise.
    `core` is the all-modes-compressed tensor with every side m_c. A bundle
    sketches the whole tensor: the accumulator makes none of a stream with a gap.
    """

    plan: SketchPlan
    loo: list
    core: np.ndarray

    def loo_entry_count(self):
        return sum(b.size for b in self.loo)

    def core_entry_count(self):
        return self.core.size


@dataclass(frozen=True, eq=False)
class _Joint:
    """A leave-one-out sketch B_j (n_j x m) whose maps act on the other modes
    jointly. `maps` is the plan's ``loo_maps``: for a khatri_rao B_j, the maps
    on the other modes compose row-wise, rescaled by `scale`; for an
    unstructured (`dense`) B_j, ``maps[j - 1]`` is one dense map on the
    columns of the mode-j unfolding.

    Row a of the row-wise composite is the Kronecker product of row a of every
    other mode's map. So one other mode is contracted first, its map's rows
    becoming the shared index a: mode 1, through `first`, the sketch's rows of
    the slab's stacked mode-1 product, or else the widest other mode, by a
    ``mode_product``. Each remaining other mode is then contracted by one
    batched matmul over a. Nothing of size m x prod(n_k, k != j) is formed.
    """

    j: int
    maps: tuple
    m: int
    scale: float
    dense: bool

    def contract(self, x, lo, hi, first=None, modes=None):
        """unfold(x, j) times the composite's transpose, for the slab x, slices lo..hi-1 of the last mode."""
        d, j = x.ndim, self.j
        if self.dense:  # mode d is the slowest of the composite's columns
            a, stride = self.maps[j - 1], math.prod(x.shape[:-1]) // x.shape[j - 1]
            return unfold(x, j) @ (a if j == d else a[:, lo * stride : hi * stride]).T
        maps = {i: a[:, lo:hi] if i == d else a for i, a in enumerate(self.maps, start=1) if i != j}
        if first is None:
            w = max(maps, key=lambda i: maps[i].shape[1])
            g = np.moveaxis(mode_product(x, maps.pop(w), w), w - 1, 0)
            modes = [i for i in range(1, d + 1) if i != w]
        else:
            g, modes = first, list(modes)
        m = g.shape[0]
        while len(modes) > 1:
            if modes[-1] != j:
                i, rest = modes.pop(), g.shape[1:-1]
                g = np.matmul(g.reshape(m, -1, g.shape[-1]), maps[i][:, :, None])
            else:
                i, rest = modes.pop(0), g.shape[2:]
                g = np.matmul(maps[i][:, None, :], g.reshape(m, g.shape[1], -1))
            g = g.reshape((m,) + rest)
        if d > 2:  # g is the last matmul's own output; at d = 2 the scale is 1
            g *= self.scale
        return g.T


def _memory_order(meas, ndim):
    """The `ndim` axes of the sum of the measurement `meas`, fastest first:
    the modes it keeps at full length (where its map is None, or mode j of a
    ``_Joint`` B_j), then the others ascending, so that a compressed last
    mode is the slowest."""
    kept = [meas.j - 1] if isinstance(meas, _Joint) else [k for k, a in enumerate(meas) if a is None]
    return kept + [k for k in range(ndim) if k not in kept]


def _zeros_kept_first(shape, meas, last=None):
    """Zeros for the sum of the measurement `meas` of a tensor of `shape`,
    laid out column-major in ``_memory_order``, or, given `last`, for a
    buffer of it that many slices long, laid out alike. A ``_Joint`` B_j
    holds its m columns on the first other mode and is 1 long on the rest.
    So B_j, the unfolding on a kept mode j, is a column-major view of the
    sum of either kind, and a sum that keeps no mode is column-major.
    """
    if isinstance(meas, _Joint):
        dims = [1] * len(shape)
        dims[meas.j - 1], dims[1 if meas.j == 1 else 0] = shape[meas.j - 1], meas.m
    else:
        dims = [n if a is None else a.shape[0] for n, a in zip(shape, meas)]
    if last is not None:
        dims[-1] = last
    order = _memory_order(meas, len(dims))
    return np.moveaxis(np.zeros([dims[k] for k in order], order="F"), range(len(order)), order)


def _columns(t, meas):
    """The sum of the modewise measurement `meas` that compresses the last
    mode, or a buffer of it, as a column-major matrix with one column per
    last-mode index. Transposed to its ``_memory_order``, `t` is column-major
    with the last mode slowest, so this is a view."""
    return t.transpose(_memory_order(meas, t.ndim)).reshape((-1, t.shape[-1]), order="F")


def _mode1_product(x, stack):
    """(z, modes): z = stack @ unfold(x, 1), one GEMM with the map rows on the
    left, as a C-ordered matrix whose columns run over modes 2..d in the order
    `modes`, slowest first.

    The slab is read as it lies: an F-ordered one gives modes (d, ..., 2),
    any other is read C-ordered and gives (2, ..., d). So each measurement's
    row block, reshaped by ``_block``, is a C-contiguous view.
    """
    if x.flags.f_contiguous and not x.flags.c_contiguous:
        return stack @ x.reshape(x.shape[0], -1, order="F"), tuple(range(x.ndim, 1, -1))
    return stack @ x.reshape(x.shape[0], -1), tuple(range(2, x.ndim + 1))


def _block(product, rows, shape):
    """Rows `rows` of a ``_mode1_product`` of a slab of `shape`, as a
    C-contiguous view with the map's row index first and the product's modes after."""
    z, modes = product
    return z[rows].reshape((-1,) + tuple(shape[i - 1] for i in modes))


class _KronSums:
    """Sums over a last-mode slab stream of linear measurements of the slabs.

    A measurement is a list of one map per mode, None keeping that mode at
    full length, for a modewise product (the core, a kronecker B_j, the
    two-pass core), or a ``_Joint`` B_j; they come as B_1, ..., B_d, then
    the core. The last-mode map is cut to each slab's columns. Every
    measurement that compresses mode 1 first takes its rows of one
    ``_mode1_product`` per slab, through `stack`: (matrix, rows), as a plan's
    ``mode1_stack``. Given no stack, the engine takes one modewise
    measurement, the two-pass core, whose mode-1 map is its own stack. Of an
    F-ordered slab, whose row blocks hold their modes in reverse, a modewise
    measurement contracts a block's transpose, F-contiguous with mode 1 last,
    and moves mode 1 back first at the end; no block is copied. A ``_Joint``
    sketch with a first product of its own goes before the stacked product is
    formed, so that the two are never held at once; one with rows in it goes
    after the modewise ones. A modewise measurement that compresses the last
    mode applies its map to a slab at least `_width` wide and parks a thinner
    one, applying the parked slabs when the buffer fills, and at `merge` and
    `finish`. A buffer is laid out as its sum is, so that both are column-major
    matrices with a column per last-mode index (``_columns``), and a flush adds
    the buffer's product with the map to the sum one tile of rows at a time,
    each formed in a temporary of at most ``_TILE_BYTES``.

    The engine owns its stream: ``update`` checks each slab by the slab rule
    (``_take_slab``) and records its range in `covered`, ``merge`` refuses
    overlapping streams, and ``finish`` hands out the sums of a stream that
    covers the last mode, after which every non-empty slab is an overlap, so
    they never change. ``add`` takes a slab unchecked and unrecorded.
    """

    def __init__(self, shape, measurements, stack=None):
        self.shape = shape
        self.maps = list(measurements)
        self.sums = [_zeros_kept_first(shape, m) for m in self.maps]
        if stack is None:
            stack = (self.maps[0][0], [slice(None)])
        self._stack, self._rows = stack
        joint = [s for s, m in enumerate(self.maps) if isinstance(m, _Joint)]
        self._own = [s for s in joint if self._rows[s] is None]
        self._stacked = [s for s in joint if self._rows[s] is not None]
        self._parks = [s for s, m in enumerate(self.maps) if s not in joint and m[-1] is not None]
        self._width = min(_BUFFER_SLICES, shape[-1], *(self.maps[s][-1].shape[0] for s in self._parks))
        # (start, count) of the parked slabs, and the buffers: allocated by the
        # first thin slab; `finish` releases them.
        self._parked, self._bufs = [], None
        self.covered = []  # sorted, disjoint, non-empty (start, count) slabs seen so far

    def _buffers(self):
        """Per modewise measurement that compresses the last mode, room for
        `_width` slices of it, laid out as its sum is."""
        if self._bufs is None:
            self._bufs = [_zeros_kept_first(t.shape, self.maps[s], self._width) if s in self._parks else None
                          for s, t in enumerate(self.sums)]
        return self._bufs

    def _add_joint(self, s, x, lo, hi, *first):
        """Add the slab x, slices lo..hi-1 of the last mode, to the ``_Joint`` B_j of measurement s,
        through `first`: its block of the stacked mode-1 product and the product's modes, if any."""
        t, j = self.sums[s], self.maps[s].j
        b = t.swapaxes(0, j - 1).reshape(t.shape[j - 1], -1, order="F")  # unfold(t, j), at less cost
        out = b[lo:hi] if j == x.ndim else b
        out += self.maps[s].contract(x, lo, hi, *first)

    def update(self, chunk):
        """Check the slab `chunk` (``_take_slab``), record its range and add it.
        The chunk is not retained."""
        lo, hi, payload = _take_slab(self.covered, self.shape, chunk)
        if hi > lo:
            with np.errstate(over="ignore", invalid="ignore"):  # `finish` refuses sums that overflowed
                self.add(payload, lo, hi)

    def add(self, x, lo, hi):
        """Add the slab x, slices lo..hi-1 of the last mode, to every measurement:
        a modewise one takes its rows of the stacked mode-1 product (or x,
        when it keeps mode 1), contracted on modes 2..d-1, then on the last
        mode or parked."""
        for s in self._own:
            self._add_joint(s, x, lo, hi)
        d, w = x.ndim, hi - lo
        direct = w >= self._width
        at = sum(c for _, c in self._parked)
        if not direct and at + w > self._width:
            self._flush()
            at = 0
        bufs = None if direct else self._buffers()
        product = _mode1_product(x, self._stack)
        for s, (maps, rows, t) in enumerate(zip(self.maps, self._rows, self.sums)):
            if isinstance(maps, _Joint):
                continue
            y, rot = x, 0
            if rows is not None:
                # With its modes reversed (an F-ordered slab), a block is
                # taken transposed: modes in order, mode 1 moved last.
                rot = int(product[1][0] != 2)
                y = _block(product, rows, x.shape)
                y = y.T if rot else y
            for i in range(2, d):
                if maps[i - 1] is not None:
                    y = mode_product(y, maps[i - 1], i - rot)
            if maps[-1] is not None and direct:
                y = mode_product(y, maps[-1][:, lo:hi], d - rot)
            if rot:
                y = np.moveaxis(y, -1, 0)
            if maps[-1] is None:
                t[..., lo:hi] += y
            elif direct:
                t += y
            else:
                bufs[s][..., at : at + w] = y
        if not direct:
            self._parked.append((lo, w))
        for s in self._stacked:
            self._add_joint(s, x, lo, hi, _block(product, self._rows[s], x.shape), product[1])

    def _flush_into(self, sums):
        """Apply the last-mode map columns of the parked slabs to the buffers,
        adding the products to `sums` one tile of rows at a time, each formed
        in a temporary of at most ``_TILE_BYTES``."""
        if not self._parked:
            return
        idx = np.concatenate([np.arange(lo, lo + c) for lo, c in self._parked])
        for maps, t, buf in zip(self.maps, sums, self._bufs):
            if buf is not None:
                t, buf, a = _columns(t, maps), _columns(buf, maps)[:, : idx.size], maps[-1][:, idx].T
                # column-major, as the sum is, so that each add runs down its columns
                rows = max(1, min(t.shape[0], _TILE_BYTES // (8 * a.shape[1])))
                tile = np.empty((rows, a.shape[1]), order="F")
                for p in range(0, t.shape[0], rows):
                    q = min(p + rows, t.shape[0])
                    t[p:q] += np.matmul(buf[p:q], a, out=tile[: q - p])

    def _flush(self):
        self._flush_into(self.sums)
        self._parked = []

    def merge(self, other):
        """The sums of two engines over the same measurements and disjoint
        slabs, with the parked slabs of both applied and the ranges joined.
        Overlapping slabs are refused (``ConfigError``). Neither changes."""
        for s2, c2 in other.covered:
            hit = _overlap(self.covered, s2, c2)
            if hit:
                s, c = hit
                raise ConfigError(f"merge overlap: [{s}, {s + c}) and [{s2}, {s2 + c2})")
        out = copy.copy(self)  # shares the maps
        with np.errstate(over="ignore", invalid="ignore"):  # `finish` refuses sums that overflowed
            out.sums = [a + b for a, b in zip(self.sums, other.sums)]
            self._flush_into(out.sums)
            other._flush_into(out.sums)
        out._parked, out._bufs = [], None
        out.covered = sorted(self.covered + other.covered)
        return out

    def finish(self):
        """Refuse a gap (``_require_coverage``), apply the parked slabs, release
        the buffers, refuse sums that overflowed (``_finite``) and hand them out."""
        _require_coverage(self.covered, self.shape[-1])
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            self._flush()
        self._bufs = None
        for j, t in enumerate(self.sums, start=1):
            _finite(t, "core sketch" if j == len(self.sums) else f"mode-{j} sketch")
        return self.sums


class SketchAccumulator:
    """Single-writer additive state for one measurement campaign.

    Holds the plan and one engine, ``_KronSums``, that sums every measurement
    of the plan over the slab stream and records the slabs it has summed; the
    maps are the plan's own (``SketchPlan.loo_maps``, ``core_maps`` and
    ``mode1_stack``), so the accumulators of one plan share one copy of them,
    built by the first and checked against the cap when the plan was made.
    Chunks are folded in by `update` and never retained (the engine parks thin
    slabs only after contracting them on every mode but the last); `merge`
    combines two accumulators built from the same plan over disjoint slab ranges.
    """

    def __init__(self, plan):
        if not isinstance(plan, SketchPlan):
            raise ConfigError("accumulator needs a SketchPlan")
        self.plan = plan
        loo = plan.loo_maps
        if plan.loo_kind == "kronecker":  # B_j keeps mode j
            loo = [[None if i == j else a for i, a in enumerate(loo)] for j in range(plan.d)]
        else:
            dense = plan.loo_kind == "unstructured"
            loo = [_Joint(j, loo, plan.m, plan.khat_scale(), dense) for j in range(1, plan.d + 1)]
        self._kron = _KronSums(plan.shape, [*loo, plan.core_maps], plan.mode1_stack)

    def update(self, chunk):
        """Fold one slab into the sketches, checked by the slab rule (``_KronSums.update``)."""
        self._kron.update(chunk)

    def merge(self, other):
        """Combine with a peer accumulator over the same plan and disjoint slabs."""
        if not isinstance(other, SketchAccumulator):
            raise ConfigError("can only merge SketchAccumulators")
        if self.plan != other.plan:
            raise ConfigError("cannot merge accumulators built from different plans")
        out = copy.copy(self)
        out._kron = self._kron.merge(other._kron)
        return out

    def coverage_complete(self):
        """Whether the slabs folded in cover the whole last mode."""
        return sum(c for _, c in self._kron.covered) == self.plan.shape[-1]

    def finalize(self):
        """Produce the bundle of the whole tensor: a gap is a ``ShapeError``,
        after which the missing slabs are still taken, and sums that
        overflowed a ``ConfigError`` (``_KronSums.finish``).

        The bundle's arrays are read-only, column-major views of the
        accumulator's sums, not copies: a finished accumulator refuses every
        further non-empty slab as an overlap, so the bundle never changes.
        """
        *loo, core = self._kron.finish()
        return SketchBundle(
            plan=self.plan,
            loo=[_read_only(unfold(t, j)) for j, t in enumerate(loo, start=1)],
            core=_read_only(core),
        )


def sketch(x, plan):
    """Sketch `x`, a dense tensor or an iterable of its last-mode slabs
    (``SlabChunk``), in one pass: every slab goes to one accumulator of
    `plan` (``SketchAccumulator.update``), which is then finalized, so slabs
    that leave a gap, or no slabs at all, are a ``ShapeError``. A dense
    tensor is the one slab covering its last mode."""
    acc = SketchAccumulator(plan)
    for chunk in _as_slabs(x):
        acc.update(chunk)
        del chunk  # hold one slab: drop it before the next is read
    return acc.finalize()
