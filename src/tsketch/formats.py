"""Binary file formats. Everything is little-endian; floats are IEEE-754 f64.

Four magics, each followed by a version u32:

* ``TNSR`` v1 - a dense tensor: d u32, shape d x u64, then the entries in
  canonical first-mode-fastest order.
* ``TSKC`` v1 - a chunk stream: d u32, shape d x u64, then records
  {start u64, count u64, payload f64...} covering last-mode slabs, until EOF.
* ``TSKB`` v2 - a sketch bundle: the plan (d u32, shape d x u64, kind u8,
  m u64, m_c u64, leave-one-out then core families 2d x u8, seed u64), B_1..B_d
  and the core column-major in the shapes the plan makes, a partial flag u8.
  Nothing the plan derives is stored; the header alone sizes the payload.
  Recovery rebuilds the core maps from the seed but never a leave-one-out
  map, so how those are drawn (one per mode, shared by the sketches) is not
  part of the format: a bundle recovers the same whichever draw made it.
* ``TUCK`` v2 - a factorization: d u32, mode lengths d x u64, r u64, core
  (canonical order), factors (column-major), and a flag u8 recording that each
  factor column was sign-normalized (largest-magnitude entry positive) at
  write time, with the core adjusted so the reconstruction is unchanged.

A bundle and a factorization end in a u32 ``zlib.crc32`` of every byte
before it, folded in by ``_Crc32`` as the bytes are read or written; a
mismatch, or any other version of either format, is an ``IOFormatError``.

A TNSR file and a TSKC stream both hold last-mode slabs stored
first-mode-fastest, so any last-mode range of a slab is one contiguous run of
bytes. ``TensorFile`` reads either format by such ranges. Every streamed read
of a tensor, the CLI's and ``read_chunks``'s alike, takes it in the pieces of
``TensorFile.slabs``: at most ``_PIECE_BYTES`` (and at least one last-mode
slice) at fixed last-mode positions, so a reader holds one piece whatever the
file's records, and every file of one tensor gives the same pieces.
``TensorFile`` checks the file (headers, lengths, records that tile the last
mode) and passes the entries through as stored: whether a slab's entries are
fit to use is decided where slabs are used (``sketch._take_slab``).
"""

from __future__ import annotations

import bisect
import math
import os
import struct
import zlib

import numpy as np

from .ensembles import FAMILIES, FAMILY_NAMES
from .errors import ConfigError, IOFormatError, ShapeError
from .recover import TuckerFactorization
from .sketch import (
    LOO_KINDS, SketchBundle, SketchPlan, SlabChunk, _as_shape, _fit, _int_pair, _real, _slab_range,
)

__all__ = [
    "TensorFile",
    "write_tensor",
    "read_tensor",
    "write_chunks",
    "read_chunks",
    "read_chunks_dense",
    "write_bundle",
    "read_bundle",
    "write_factorization",
    "read_factorization",
]

# The one version each magic is read at. Bundles and factorizations are
# intermediates between the CLI's steps: their v1, with no CRC, is not read.
_VERSIONS = {b"TNSR": 1, b"TSKC": 1, b"TSKB": 2, b"TUCK": 2}

_KIND_IDS = {kind: i for i, kind in enumerate(LOO_KINDS)}
_KIND_NAMES = {i: kind for kind, i in _KIND_IDS.items()}


# Every step that reads a tensor reads it in pieces of at most this many bytes
# (and at least one last-mode slice), whatever record sizes it was written in.
_PIECE_BYTES = 2**20


def _open(path):
    try:
        return open(path, "rb")
    except OSError as e:
        raise IOFormatError(f"cannot open {path}: {e}")


def _need(f, n, what):
    # Checked against the bytes left in the file before reading, so a corrupt
    # length field fails here instead of driving an allocation.
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise IOFormatError(f"truncated file while reading {what} ({left} of {n} bytes)")


def _read_exact(f, n, what):
    _need(f, n, what)
    return f.read(n)


def _magic(magic):
    return magic + struct.pack("<I", _VERSIONS[magic])


def _expect_magic(f, magic):
    got = f.read(4)
    if got != magic:
        raise IOFormatError(f"bad magic {got!r}, expected {magic!r}")
    (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
    if version != _VERSIONS[magic]:
        raise IOFormatError(f"unsupported {magic.decode()} version {version} "
                            f"(this build reads version {_VERSIONS[magic]})")


class _Crc32:
    """A binary file whose every byte read or written is folded into a running
    CRC-32, over the buffers being moved, never a copy of them; ``seal`` writes
    the CRC and ``check`` reads and compares it. Other calls go to the file."""

    def __init__(self, f):
        self.f, self.crc = f, 0

    def __getattr__(self, name):
        return getattr(self.f, name)

    def write(self, b):
        self.crc = zlib.crc32(b, self.crc)
        self.f.write(b)

    def read(self, n):
        b = self.f.read(n)
        self.crc = zlib.crc32(b, self.crc)
        return b

    def readinto(self, out):
        n = self.f.readinto(out)
        self.crc = zlib.crc32(memoryview(out).cast("B")[:n], self.crc)
        return n

    def seal(self):
        self.f.write(struct.pack("<I", self.crc))

    def check(self, what):
        (stored,) = struct.unpack("<I", _read_exact(self.f, 4, f"{what} CRC-32"))
        if stored != self.crc:
            raise IOFormatError(f"corrupt {what}: stored CRC-32 {stored:08x}, the bytes give {self.crc:08x}")


def _fill(f, out, what):
    """Read straight into the contiguous array `out`, with no intermediate bytes object."""
    if f.readinto(out) != out.nbytes:
        raise IOFormatError(f"truncated file while reading {what}")


def _write_f64(f, a):
    """Write the entries of `a` first-mode-fastest as little-endian f64, from the
    array's own memory when it is already so laid out, else from one copy."""
    f.write(np.asfortranarray(a, dtype="<f8").T.data)


def _read_f64(f, count, what):
    _need(f, 8 * count, what)
    out = np.empty(count, dtype="<f8")
    _fill(f, out, what)
    return out


def _shape_header(f):
    (d,) = struct.unpack("<I", _read_exact(f, 4, "mode count"))
    if d < 1:
        raise IOFormatError("mode count must be >= 1")
    shape = struct.unpack(f"<{d}Q", _read_exact(f, 8 * d, "shape"))
    if any(n < 1 for n in shape):
        raise IOFormatError(f"bad shape {shape}")
    return tuple(int(n) for n in shape)


def _tensor_shape(f):
    """The shape in a TNSR or TSKC header, refused if it names 2^128 entries
    or more, more than any file holds, so that no count formed from it grows
    past the digits an error message can print."""
    shape = _shape_header(f)
    if sum(n.bit_length() - 1 for n in shape) >= 128:
        raise IOFormatError(f"a shape of {len(shape)} modes names more entries than any file holds")
    return shape


# -- tensors -------------------------------------------------------------


def write_tensor(path, x):
    """Write `x` as a TNSR file. It must have at least one mode and no mode of
    length 0 (``ShapeError``), and real entries (``ConfigError``)."""
    x = np.asarray(x)
    _as_shape(x.shape)
    x = _real(x, "tensor")
    with open(path, "wb") as f:
        f.write(_magic(b"TNSR"))
        f.write(struct.pack("<I", x.ndim))
        f.write(struct.pack(f"<{x.ndim}Q", *x.shape))
        _write_f64(f, x)


def read_tensor(path):
    """A TNSR file as one array, read and checked by ``TensorFile``. A TSKC
    stream is refused: ``read_chunks_dense`` assembles either format."""
    with TensorFile(path) as x:
        if x.magic != b"TNSR":
            raise IOFormatError(f"{path}: expected a TNSR file, found a {x.magic.decode()} stream")
        return x.read(0, x.shape[-1])


# -- chunk streams ---------------------------------------------------------


def write_chunks(path, shape, chunks):
    """Write last-mode slabs; `chunks` yields SlabChunk objects.

    The shape must be positive integers, refused before the file is opened,
    and each range must lie in the last mode and each payload fit it, as
    ``sketch._take_slab`` checks them (``ShapeError``); each payload must hold
    real entries (``ConfigError``). Nothing else is checked: a stream may
    leave gaps, overlap or hold non-finite entries, which its readers refuse.
    """
    shape = _as_shape(shape)
    with open(path, "wb") as f:
        f.write(_magic(b"TSKC"))
        f.write(struct.pack("<I", len(shape)))
        f.write(struct.pack(f"<{len(shape)}Q", *shape))
        for c in chunks:
            lo, hi = _slab_range(c, shape[-1], "chunk")
            payload = _real(_fit(c.payload, shape, lo, hi, "chunk"), f"chunk [{lo}, {hi})")
            f.write(struct.pack("<QQ", lo, hi - lo))
            _write_f64(f, payload)
            del payload


def _records(f, shape):
    """Yield (start, count, offset) for each record of a chunk stream.

    `f` starts at the first record header. Each header is checked against the
    mode length and each payload against the bytes left; `f` is left at the
    payload, for the caller to read or skip.
    """
    slab_bytes = 8 * math.prod(shape[:-1])
    end = f.tell()
    while True:
        f.seek(end)
        head = f.read(16)
        if not head:
            return
        if len(head) != 16:
            raise IOFormatError("truncated chunk record header")
        start, count = struct.unpack("<QQ", head)
        if start + count > shape[-1]:
            raise IOFormatError(f"chunk [{start}, {start + count}) exceeds mode length {shape[-1]}")
        _need(f, slab_bytes * count, f"chunk [{start}, {start + count})")
        offset = f.tell()
        end = offset + slab_bytes * count
        yield int(start), int(count), offset


def read_chunks(path):
    """Yield a TNSR file or a TSKC stream as the pieces of ``TensorFile.slabs``
    (generator): at most ``_PIECE_BYTES`` each at fixed last-mode positions,
    whatever the stored records, after ``TensorFile`` has checked that the
    records tile the last mode. A reader that drops each piece before asking
    for the next holds one piece of the tensor at a time, and every file of
    one tensor yields the same pieces."""
    with TensorFile(path) as x:
        yield from x.slabs()


class TensorFile:
    """A TNSR tensor or a TSKC chunk stream, opened for reads by last-mode range.

    Opening reads the header and, for a stream, every record header (not the
    payloads), and checks that the records tile the last mode: none overlaps
    another and together they cover it. A TNSR file is one record covering
    the whole mode. `magic` is b"TNSR" or b"TSKC", `shape` the tensor's. Use
    as a context manager, or call ``close``.
    """

    def __init__(self, path):
        self._f = _open(path)
        try:
            self._index(path)
        except BaseException:
            self._f.close()
            raise

    def _index(self, path):
        f = self._f
        magic = f.read(4)
        if magic not in (b"TNSR", b"TSKC"):
            raise IOFormatError(f"{path}: expected a TNSR or TSKC file, found magic {magic!r}")
        f.seek(0)
        _expect_magic(f, magic)
        self.magic = magic
        self.shape = _tensor_shape(f)
        self._slab_bytes = 8 * math.prod(self.shape[:-1])
        n = self.shape[-1]
        if magic == b"TNSR":
            _need(f, self._slab_bytes * n, "tensor entries")
            if os.fstat(f.fileno()).st_size - f.tell() > self._slab_bytes * n:
                raise IOFormatError(f"trailing bytes after {math.prod(self.shape)} tensor entries")
            records = [(0, n, f.tell())]
        else:
            records = sorted(r for r in _records(f, self.shape) if r[1])
            end = 0
            for start, count, _ in records:
                if start < end:
                    raise IOFormatError(f"chunk [{start}, {start + count}) overlaps earlier data")
                end = start + count
            if sum(count for _, count, _ in records) != n:
                raise IOFormatError("chunk stream does not cover the full tensor")
        self._records = records
        self._starts = [start for start, _, _ in records]

    def close(self):
        self._f.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def read(self, lo, hi):
        """The last-mode slices [lo, hi) as a first-mode-fastest array. The
        range must be integers (a numpy integer will do) with
        0 <= lo <= hi <= n (``ShapeError``)."""
        n = self.shape[-1]
        lo, hi = _int_pair(lo, hi)
        if not 0 <= lo <= hi <= n:
            raise ShapeError(f"slab [{lo}, {hi}) outside mode of length {n}")
        per = self._slab_bytes // 8
        out = np.empty(per * (hi - lo), dtype="<f8")
        i = max(bisect.bisect_right(self._starts, lo) - 1, 0)
        for start, count, offset in self._records[i:]:
            if start >= hi:
                break
            a, b = max(lo, start), min(hi, start + count)
            self._f.seek(offset + self._slab_bytes * (a - start))
            _fill(self._f, out[per * (a - lo) : per * (b - lo)], f"slab [{a}, {b})")
        return out.reshape(self.shape[:-1] + (hi - lo,), order="F")

    def slabs(self):
        """Yield the whole tensor as SlabChunks of at most _PIECE_BYTES, in last-mode order.

        The pieces start at fixed multiples of their width in the last mode and
        may span stored records, so every file of one tensor gives the same pieces.
        Entries are passed through as stored: every consumer of slabs checks
        them (see ``sketch._take_slab``).
        """
        n = self.shape[-1]
        width = max(1, _PIECE_BYTES // self._slab_bytes)
        for lo in range(0, n, width):
            hi = min(lo + width, n)
            yield SlabChunk(lo, hi - lo, self.read(lo, hi))


def read_chunks_dense(path):
    """Assemble a chunk stream (or a TNSR file) into one dense tensor, checking full coverage."""
    with TensorFile(path) as x:
        return x.read(0, x.shape[-1])


# -- sketch bundles ----------------------------------------------------------


def _power(base, exp):
    """base**exp, or 2**128 (more entries than any file holds) if it is more,
    so that a hostile header never forms a huge integer."""
    return base**exp if base < 2 or exp * (base.bit_length() - 1) < 128 else 2**128


def write_bundle(path, bundle):
    plan, d = bundle.plan, bundle.plan.d
    # No dimensions are stored: a wrongly shaped array of the right size would
    # read back silently reshaped, so none is written.
    shapes = [(n, plan.loo_cols()) for n in plan.shape] + [(plan.m_c,) * d]
    got = [np.shape(a) for a in (*bundle.loo, bundle.core)]
    if got != shapes:
        raise ShapeError(f"bundle arrays have shapes {got}, the plan makes {shapes}")
    with open(path, "wb") as raw:
        f = _Crc32(raw)
        f.write(_magic(b"TSKB") + struct.pack(f"<I{d}QBQQ", d, *plan.shape, _KIND_IDS[plan.loo_kind],
                                              plan.m, plan.m_c))
        f.write(bytes(FAMILIES[fam] for fam in plan.loo_families + plan.core_families))
        f.write(struct.pack("<Q", plan.seed))
        for a in (*bundle.loo, bundle.core):
            _write_f64(f, a)
        f.write(struct.pack("<B", 1 if bundle.partial else 0))
        f.seal()


def _family(family_id):
    if family_id not in FAMILY_NAMES:
        raise IOFormatError(f"unknown family id {family_id}")
    return FAMILY_NAMES[family_id]


def read_bundle(path):
    with _open(path) as raw:
        f = _Crc32(raw)
        _expect_magic(f, b"TSKB")
        shape = _shape_header(f)
        d = len(shape)
        kind_id, m, m_c = struct.unpack("<BQQ", _read_exact(f, 17, "sketch kind and dimensions"))
        if kind_id not in _KIND_NAMES:
            raise IOFormatError(f"unknown sketch kind id {kind_id}")
        ids = _read_exact(f, 2 * d, "families")
        (seed,) = struct.unpack("<Q", _read_exact(f, 8, "seed"))
        # The header alone sizes the payload (B_1..B_d, the core, the flag and
        # the CRC), so a header naming thousands of modes fails here, before
        # a plan is built from it.
        cols = _power(m, d - 1 if _KIND_NAMES[kind_id] == "kronecker" else 1)
        need = 8 * (sum(shape) * cols + _power(m_c, d)) + 5
        left = os.fstat(raw.fileno()).st_size - raw.tell()
        if left != need:
            raise IOFormatError(f"bundle payload is {left} bytes, its header implies {need}")
        families = tuple(map(_family, ids))
        try:
            plan = SketchPlan(shape, _KIND_NAMES[kind_id], m, m_c, families[:d], families[d:], seed)
        except (ConfigError, ShapeError) as e:
            raise IOFormatError(f"bundle holds an invalid plan: {e}") from e
        loo = [_read_f64(f, n * cols, f"mode-{j} sketch").reshape((n, cols), order="F")
               for j, n in enumerate(shape, start=1)]
        core = _read_f64(f, m_c**d, "core sketch").reshape((m_c,) * d, order="F")
        (partial,) = struct.unpack("<B", _read_exact(f, 1, "partial flag"))
        f.check("bundle")
    return SketchBundle(plan=plan, loo=loo, core=core, partial=bool(partial))


# -- factorizations ----------------------------------------------------------


def _sign_normalized(t):
    """Copy of the factorization with each factor column's largest-magnitude entry positive.

    The core absorbs the sign flips, so reconstruction is bit-for-bit
    unaffected (multiplying by +-1 is exact).
    """
    core = np.array(t.core, dtype=np.float64, copy=True)
    factors = []
    for i, q in enumerate(t.factors, start=1):
        q = np.array(q, dtype=np.float64, copy=True)
        signs = np.ones(q.shape[1])
        for k in range(q.shape[1]):
            lead = np.argmax(np.abs(q[:, k]))
            if q[lead, k] < 0.0:
                signs[k] = -1.0
        q *= signs[None, :]
        shape_one = [1] * core.ndim
        shape_one[i - 1] = len(signs)
        core *= signs.reshape(shape_one)
        factors.append(q)
    return TuckerFactorization(core=core, factors=factors)


def write_factorization(path, t):
    """Write `t` as a TUCK file, its factor columns sign-normalized.

    Checked before the file is opened: the core must be r x ... x r with
    r >= 1 and one factor per mode, each factor n_i x r with n_i >= 1
    (``ShapeError``), and every entry real (``ConfigError``).
    """
    core, factors = np.asarray(t.core), [np.asarray(q) for q in t.factors]
    d, r = core.ndim, core.shape[0] if core.ndim else 0
    if r < 1 or core.shape != (r,) * d or len(factors) != d:
        raise ShapeError(f"core of shape {core.shape} with {len(factors)} factors is not "
                         "r x ... x r with one factor per mode")
    for i, q in enumerate(factors, start=1):
        if q.ndim != 2 or q.shape[0] < 1 or q.shape[1] != r:
            raise ShapeError(f"factor {i} has shape {q.shape}, not n x {r}")
    t = _sign_normalized(TuckerFactorization(
        _real(core, "core"), [_real(q, f"factor {i}") for i, q in enumerate(factors, start=1)]))
    with open(path, "wb") as raw:
        f = _Crc32(raw)
        f.write(_magic(b"TUCK"))
        f.write(struct.pack("<I", d))
        f.write(struct.pack(f"<{d}Q", *(q.shape[0] for q in t.factors)))
        f.write(struct.pack("<Q", t.rank))
        _write_f64(f, t.core)
        for q in t.factors:
            _write_f64(f, q)
        f.write(struct.pack("<B", 1))  # sign convention applied
        f.seal()


def read_factorization(path):
    with _open(path) as raw:
        f = _Crc32(raw)
        _expect_magic(f, b"TUCK")
        shape = _shape_header(f)
        d = len(shape)
        (r,) = struct.unpack("<Q", _read_exact(f, 8, "rank"))
        if r < 1:
            raise IOFormatError("factorization rank must be >= 1")
        core = _read_f64(f, _power(r, d), "core").reshape((r,) * d, order="F")
        factors = []
        for n in shape:
            factors.append(_read_f64(f, n * r, "factor").reshape((n, r), order="F"))
        (flag,) = struct.unpack("<B", _read_exact(f, 1, "sign flag"))
        if flag not in (0, 1):
            raise IOFormatError(f"bad sign flag {flag}")
        f.check("factorization")
        if raw.read(1):
            raise IOFormatError("trailing bytes after factorization")
    return TuckerFactorization(core=core, factors=factors)
