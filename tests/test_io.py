"""Binary round trips for the four on-disk formats."""

import os
import re
import stat
import struct
import threading
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsketch import formats
from tsketch.ensembles import FAMILIES
from tsketch.errors import ConfigError, IOFormatError, ShapeError, TsketchError
from tsketch.evaluate import gen_lowrank, hosvd_truncate, relative_error, score
from tsketch.formats import (
    TensorFile,
    read_bundle,
    read_chunks,
    read_chunks_dense,
    read_factorization,
    read_tensor,
    write_bundle,
    write_chunks,
    write_factorization,
    write_tensor,
)
from tsketch.recover import TuckerFactorization, one_pass, reconstruct, two_pass
from tsketch.sketch import (
    LOO_KINDS,
    SketchAccumulator,
    SketchBundle,
    SlabChunk,
    make_plan,
    sketch,
    slab_chunks,
)


@pytest.fixture
def tensor():
    return np.random.default_rng(1).standard_normal((5, 4, 6))


def test_tensor_round_trip(tmp_path, tensor) -> None:
    p = tmp_path / "x.tnsr"
    write_tensor(p, tensor)
    assert np.array_equal(read_tensor(p), tensor)


def test_tensor_entries_are_first_mode_fastest(tmp_path) -> None:
    x = np.arange(12, dtype=np.float64).reshape((3, 2, 2), order="F")
    p = tmp_path / "x.tnsr"
    write_tensor(p, x)
    raw = p.read_bytes()
    payload = np.frombuffer(raw[-12 * 8 :], dtype="<f8")
    assert payload.tolist() == list(range(12))


def test_chunk_round_trip(tmp_path, tensor, monkeypatch) -> None:
    monkeypatch.setattr(formats, "_PIECE_BYTES", 2 * 8 * 5 * 4)  # two last-mode slices
    p = tmp_path / "x.tskc"
    write_chunks(p, tensor.shape, slab_chunks(tensor, 3))
    with TensorFile(p) as f:
        assert f.shape == tensor.shape
    got = list(read_chunks(p))
    assert [c.start for c in got] == [0, 2, 4]
    assert np.array_equal(np.concatenate([c.payload for c in got], axis=-1), tensor)
    assert np.array_equal(read_chunks_dense(p), tensor)


@pytest.mark.parametrize("order", ["C", "F"])
def test_slab_chunks_are_views_of_the_tensor(tensor, order) -> None:
    """No slab is a copy: `tsketch gen` with `slabs` set once held a second
    tensor-sized copy in them. A writer copies a slab that is not laid out
    first-mode-fastest, one slab at a time."""
    x = np.asarray(tensor, order=order)
    chunks = slab_chunks(x, 4)
    assert all(np.shares_memory(c.payload, x) for c in chunks)
    assert np.array_equal(np.concatenate([c.payload for c in chunks], axis=-1), x)


class TestWritersRefuseWithTypedErrors:
    """A writer refuses with a typed error a chunk range that is not integral
    or leaves the last mode (``ShapeError``), and entries that are not real
    (``ConfigError``): a complex payload would lose its imaginary part."""

    @pytest.mark.parametrize("start,count,match", [
        (-1, 2, r"chunk \[-1, 1\) outside mode of length 6"),
        (5, 2, r"chunk \[5, 7\) outside mode of length 6"),
        (2, -1, r"chunk \[2, 1\) outside mode of length 6"),
        (1.0, 2, "not a pair of integers"),
        (1, 2.5, "not a pair of integers"),
    ])
    def test_a_chunk_range_outside_the_mode(self, tmp_path, tensor, start, count, match) -> None:
        payload = np.zeros((5, 4, 2))
        with pytest.raises(ShapeError, match=match):
            write_chunks(tmp_path / "x.tskc", tensor.shape, [SlabChunk(start, count, payload)])

    @pytest.mark.parametrize("make", [
        lambda x: x + 1j,
        lambda x: x.astype(str),
        lambda x: x.astype(object),
    ], ids=["complex", "text", "object"])
    def test_entries_that_are_not_real(self, tmp_path, tensor, make) -> None:
        bad = make(tensor)
        with pytest.raises(ConfigError, match=r"tensor has entries of type .*, not real numbers"):
            write_tensor(tmp_path / "x.tnsr", bad)
        chunks = [SlabChunk(0, 2, tensor[..., :2]), SlabChunk(2, 4, bad[..., 2:])]
        with pytest.raises(ConfigError, match=r"chunk \[2, 6\) has entries of type .*, not real numbers"):
            write_chunks(tmp_path / "x.tskc", tensor.shape, chunks)

    @pytest.mark.parametrize("shape,message", [
        ((), "bad tensor shape ()"),
        ((3, 0, 2), "bad tensor shape (3, 0, 2)"),
        ((5, -4, 6), "bad tensor shape (5, -4, 6)"),
        ((5, 4, 6.9), "tensor shape (5, 4, 6.9) is not a tuple of integers"),
    ], ids=["no-mode", "zero-length-mode", "negative-length", "fractional-length"])
    def test_a_stream_shape_the_readers_refuse(self, tmp_path, tensor, shape, message) -> None:
        """Refused before the file is opened: `TensorFile` refuses each such
        file, and (5, 4, 6.9) was once written silently as (5, 4, 6)."""
        p = tmp_path / "x.tskc"
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            write_chunks(p, shape, [SlabChunk(0, 6, tensor)])
        assert not p.exists()

    @pytest.mark.parametrize("x", [np.float64(1.0), np.zeros((3, 0, 2))], ids=["no-mode", "zero-length-mode"])
    def test_a_tensor_the_readers_refuse(self, tmp_path, x) -> None:
        p = tmp_path / "x.tnsr"
        with pytest.raises(ShapeError, match=f"^{re.escape(f'bad tensor shape {x.shape}')}$"):
            write_tensor(p, x)
        assert not p.exists()

    def test_a_payload_that_does_not_fit(self, tmp_path, tensor) -> None:
        """The fit check of the slab rule, so a `ShapeError`, as every reader says."""
        with pytest.raises(ShapeError, match=r"^chunk \[0, 6\) of shape \(5, 4, 5\) does not fit "
                                             r"the tensor's shape \(5, 4, 6\)$"):
            write_chunks(tmp_path / "x.tskc", tensor.shape, [SlabChunk(0, 6, tensor[..., :5])])

    @pytest.mark.parametrize("core,factors,error,message", [
        (np.ones((2, 2)), [np.eye(4, 2)] * 3, ShapeError,
         "core of shape (2, 2) with 3 factors is not r x ... x r with one factor per mode"),
        (np.ones((2, 2, 2)), [np.eye(4, 2)] * 2, ShapeError,
         "core of shape (2, 2, 2) with 2 factors is not r x ... x r with one factor per mode"),
        (np.ones((2, 3, 2)), [np.eye(4, 2)] * 3, ShapeError,
         "core of shape (2, 3, 2) with 3 factors is not r x ... x r with one factor per mode"),
        (np.ones(()), [], ShapeError, "core of shape () with 0 factors is not r x ... x r with one factor per mode"),
        (np.ones((2, 2, 2)), [np.eye(4, 2), np.ones((6, 3)), np.eye(4, 2)], ShapeError,
         "factor 2 has shape (6, 3), not n x 2"),
        (np.ones((2, 2, 2)), [np.eye(4, 2), np.ones((0, 2)), np.eye(4, 2)], ShapeError,
         "factor 2 has shape (0, 2), not n x 2"),
        (np.ones((2, 2, 2)) + 1j, [np.eye(4, 2)] * 3, ConfigError,
         "core has entries of type complex128, not real numbers"),
        (np.ones((2, 2, 2)), [np.eye(4, 2), np.eye(4, 2).astype(str), np.eye(4, 2)], ConfigError,
         "factor 2 has entries of type <U32, not real numbers"),
    ], ids=["2-mode-core-3-factors", "3-mode-core-2-factors", "core-not-r-cubed", "0-d-core",
            "factor-not-n-by-r", "factor-of-no-rows", "complex-core", "text-factor"])
    def test_a_factorization_the_readers_refuse(self, tmp_path, core, factors, error, message) -> None:
        """Refused before the file is opened: a 3-mode core with 2 factors once
        left a truncated file, and a complex core lost its imaginary part."""
        p = tmp_path / "t.tuck"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            write_factorization(p, TuckerFactorization(core, factors))
        assert not p.exists()

    def test_gap_overlap_and_nan_streams_stay_writable(self, tmp_path, tensor) -> None:
        """Readers refuse these; the writer must still make them, so that the
        readers' checks can be tested."""
        nan = tensor.copy()
        nan[0, 0, 5] = np.nan
        streams = {
            "gap": [SlabChunk(0, 2, tensor[..., :2]), SlabChunk(4, 2, tensor[..., 4:])],
            "overlap": [SlabChunk(0, 4, tensor[..., :4]), SlabChunk(3, 3, tensor[..., 3:])],
            "nan": [SlabChunk(0, 6, nan)],
            "bool": [SlabChunk(0, 6, tensor > 0)],
        }
        for name, chunks in streams.items():
            write_chunks(tmp_path / f"{name}.tskc", tensor.shape, chunks)
        assert np.array_equal(read_chunks_dense(tmp_path / "bool.tskc"), (tensor > 0).astype(float))
        assert np.isnan(read_chunks_dense(tmp_path / "nan.tskc")[0, 0, 5])


class TestWritersWriteWholeFiles:
    """A writer writes a new file beside its target and moves it into place
    once complete, so a file appears whole or not at all."""

    @staticmethod
    def refused(p, x):
        """Write a stream whose second chunk is refused, once its first is written."""
        with pytest.raises(ShapeError, match=r"^chunk \[3, 6\) of shape \(5, 4, 2\) does not fit"):
            write_chunks(p, x.shape, [SlabChunk(0, 3, x[..., :3]), SlabChunk(3, 3, x[..., :2])])

    def test_a_refused_stream_leaves_no_file(self, tmp_path, tensor) -> None:
        """It once left a 532-byte stream behind, which `TensorFile` refuses."""
        self.refused(tmp_path / "x.tskc", tensor)
        assert list(tmp_path.iterdir()) == []

    def test_a_refused_stream_keeps_the_file_it_would_replace(self, tmp_path, tensor) -> None:
        """It once replaced a good stream's 1,028 bytes with those 532."""
        p = tmp_path / "x.tskc"
        write_chunks(p, tensor.shape, slab_chunks(tensor, 2))
        good = p.read_bytes()
        assert len(good) == 1028
        self.refused(p, tensor)
        assert p.read_bytes() == good
        assert list(tmp_path.iterdir()) == [p]

    @pytest.mark.parametrize("write,make", [
        (write_tensor, lambda x: x),
        (write_bundle, lambda x: sketch(x, make_plan(x.shape, "kronecker", 3, 4))),
        (write_factorization, lambda x: hosvd_truncate(x, 2)),
        (formats.write_text, lambda x: "text\n"),
    ], ids=["tensor", "bundle", "factorization", "text"])
    def test_every_writer_replaces_its_target_whole(self, tmp_path, tensor, write, make) -> None:
        new, old = tmp_path / "new", tmp_path / "old"
        write(new, make(tensor))
        old.write_bytes(b"old bytes")
        write(old, make(tensor))
        assert old.read_bytes() == new.read_bytes()
        assert sorted(tmp_path.iterdir()) == [new, old]

    def test_a_symbolic_link_is_written_through(self, tmp_path, tensor) -> None:
        target, link = tmp_path / "x.tnsr", tmp_path / "link.tnsr"
        write_tensor(target, tensor[..., :2])
        link.symlink_to(target)
        write_tensor(link, tensor)
        assert link.is_symlink()
        assert np.array_equal(read_tensor(target), tensor)

    def test_a_pipe_is_written_in_place(self, tmp_path) -> None:
        """Something that is not a file, such as `--output /dev/stdout`, is
        not replaced by a file."""
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        formats.write_text(fifo, "text\n")
        reader.join(timeout=10)
        assert got == [b"text\n"]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert list(tmp_path.iterdir()) == [fifo]

    def test_a_replaced_file_keeps_its_mode(self, tmp_path, tensor) -> None:
        p = tmp_path / "x.tnsr"
        p.write_bytes(b"old bytes")
        p.chmod(0o640)
        write_tensor(p, tensor)
        assert stat.S_IMODE(os.stat(p).st_mode) == 0o640
        assert np.array_equal(read_tensor(p), tensor)

    def test_a_read_only_file_is_refused(self, tmp_path, tensor, monkeypatch) -> None:
        """A 0444 target is refused and keeps its bytes, as `open(path, "wb")`
        refuses it. Root may write any file, so the test asks `os.access` as a
        user other than root would."""
        p = tmp_path / "x.tnsr"
        p.write_bytes(b"old bytes")
        p.chmod(0o444)
        monkeypatch.setattr(os, "access", lambda path, how: not how & os.W_OK)
        with pytest.raises(IOFormatError, match=f"^cannot write {re.escape(str(p))}: permission denied$"):
            write_tensor(p, tensor)
        assert p.read_bytes() == b"old bytes"
        assert list(tmp_path.iterdir()) == [p]

    def test_a_target_that_cannot_be_written(self, tmp_path, tensor) -> None:
        """A typed error naming the target, not the temporary file beside it."""
        p = tmp_path / "missing" / "x.tnsr"
        with pytest.raises(IOFormatError, match=f"^cannot write {re.escape(str(p))}: "):
            write_tensor(p, tensor)


def layouts(x):
    """One float64 array in the layouts a writer may be given: C order, F order,
    a strided view and big-endian."""
    strided = np.empty(x.shape + (2,))[..., 0]
    strided[...] = x
    return [np.ascontiguousarray(x), np.asfortranarray(x), strided, x.astype(">f8")]


def test_writers_encode_every_layout_as_before(tmp_path, tensor) -> None:
    """Each writer emits the first-mode-fastest little-endian f64 entries of
    its arrays, byte for byte as `ravel(order="F").astype("<f8").tobytes()`,
    whatever the layout of the arrays."""

    def entries(a):
        return np.asarray(a, dtype=np.float64).ravel(order="F").astype("<f8").tobytes()

    head = struct.pack("<II3Q", 1, 3, *tensor.shape)
    for x in layouts(tensor) + [tensor.astype(np.float32)]:
        write_tensor(tmp_path / "x.tnsr", x)
        assert (tmp_path / "x.tnsr").read_bytes() == b"TNSR" + head + entries(x)
        write_chunks(tmp_path / "x.tskc", x.shape, [SlabChunk(0, 2, x[..., :2]), SlabChunk(2, 4, x[..., 2:])])
        assert (tmp_path / "x.tskc").read_bytes() == (
            b"TSKC" + head + struct.pack("<QQ", 0, 2) + entries(x[..., :2])
            + struct.pack("<QQ", 2, 4) + entries(x[..., 2:]))

    b = sketch(tensor, make_plan(tensor.shape, "kronecker", 3, 4, seed=5))
    t = one_pass(b, 2)
    bundles, factorizations = set(), set()
    for arrays in zip(*(layouts(a) for a in b.loo + [b.core])):
        write_bundle(tmp_path / "b.tskb", SketchBundle(b.plan, list(arrays[:-1]), arrays[-1]))
        bundles.add((tmp_path / "b.tskb").read_bytes())
    for arrays in zip(*(layouts(a) for a in [t.core, *t.factors])):
        write_factorization(tmp_path / "t.tuck", TuckerFactorization(arrays[0], list(arrays[1:])))
        factorizations.add((tmp_path / "t.tuck").read_bytes())
    assert len(bundles) == 1 and len(factorizations) == 1
    # v2: the plan, the arrays in the shapes it makes, the flag, then a CRC-32 of all before it
    plan = b.plan
    body = (b"TSKB" + struct.pack("<II3QBQQ", 2, 3, *tensor.shape, LOO_KINDS.index("kronecker"), 3, 4)
            + bytes(FAMILIES[f] for f in plan.loo_families + plan.core_families)
            + struct.pack("<Q", 5) + b"".join(entries(a) for a in b.loo + [b.core]) + b"\x00")
    assert bundles == {body + struct.pack("<I", zlib.crc32(body))}
    (data,) = factorizations
    signed = formats._sign_normalized(t)
    body = data[:-4]
    assert body.endswith(entries(signed.core) + b"".join(entries(q) for q in signed.factors) + b"\x01")
    assert data[-4:] == struct.pack("<I", zlib.crc32(body))


def test_chunks_dense_requires_full_coverage(tmp_path, tensor) -> None:
    p = tmp_path / "gap.tskc"
    chunks = slab_chunks(tensor, 3)
    write_chunks(p, tensor.shape, chunks[:2])
    with pytest.raises(IOFormatError):
        read_chunks_dense(p)
    with pytest.raises(IOFormatError, match="does not cover"):
        next(read_chunks(p))


def test_chunks_dense_refuses_overlap(tmp_path, tensor) -> None:
    p = tmp_path / "overlap.tskc"
    write_chunks(p, tensor.shape, [SlabChunk(0, 4, tensor[..., :4]), SlabChunk(3, 3, tensor[..., 3:])])
    for read in (read_chunks_dense, lambda p: next(read_chunks(p))):
        with pytest.raises(IOFormatError, match=r"chunk \[3, 6\) overlaps earlier data"):
            read(p)


class TestReadChunksIsBounded:
    """`read_chunks` yields the bounded pieces of ``TensorFile.slabs``, not the
    stored records: a TNSR file or a one-record stream is not yielded whole."""

    @staticmethod
    def one_record_files(tmp_path, x):
        write_tensor(tmp_path / "x.tnsr", x)
        write_chunks(tmp_path / "x.tskc", x.shape, [SlabChunk(0, x.shape[-1], x)])
        return [tmp_path / "x.tnsr", tmp_path / "x.tskc"]

    def test_pieces_of_a_one_record_file_tile_the_tensor(self, tmp_path, tensor, monkeypatch) -> None:
        monkeypatch.setattr(formats, "_PIECE_BYTES", 2 * 8 * 5 * 4)  # two last-mode slices
        for p in self.one_record_files(tmp_path, tensor):
            got = list(read_chunks(p))
            assert [(c.start, c.count) for c in got] == [(0, 2), (2, 2), (4, 2)]
            assert np.array_equal(np.concatenate([c.payload for c in got], axis=-1), tensor)

    @pytest.mark.parametrize("kind,m", [("kronecker", 3), ("khatri_rao", 4), ("unstructured", 4)])
    def test_streaming_a_one_record_file_holds_a_few_pieces(self, tmp_path, monkeypatch, kind, m) -> None:
        """Streaming 16 pieces into an accumulator peaks below three pieces plus
        the sketch: the piece in hand, the one being read and the temporaries
        of one update, never the record."""
        x = np.random.default_rng(3).standard_normal((32, 32, 64))
        piece = 4 * 8 * 32 * 32  # four last-mode slices
        monkeypatch.setattr(formats, "_PIECE_BYTES", piece)
        plan = make_plan(x.shape, kind, m, 4, seed=8)
        sketch_bytes = 8 * (plan.loo_entry_count() + plan.core_entry_count())
        for p in self.one_record_files(tmp_path, x):
            acc = SketchAccumulator(plan)  # the maps are built before tracing starts
            tracemalloc.start()
            try:
                for c in read_chunks(p):
                    acc.update(c)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 3 * piece + sketch_bytes
            got, ref = acc.finalize(), sketch(x, plan)
            for a, b in zip(got.loo + [got.core], ref.loo + [ref.core]):
                assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


class TestTensorFile:
    """Reads by last-mode range from a TNSR file or a TSKC stream."""

    @pytest.fixture
    def files(self, tmp_path, tensor):
        # uneven TSKC records, out of order
        chunks = [SlabChunk(lo, hi - lo, tensor[..., lo:hi]) for lo, hi in [(4, 6), (0, 1), (1, 4)]]
        write_chunks(tmp_path / "x.tskc", tensor.shape, chunks)
        write_tensor(tmp_path / "x.tnsr", tensor)
        return [tmp_path / "x.tskc", tmp_path / "x.tnsr"]

    def test_any_range_equals_the_tensor_slices(self, files, tensor) -> None:
        for p in files:
            with TensorFile(p) as f:
                assert f.shape == tensor.shape
                for lo in range(7):
                    for hi in range(lo, 7):
                        got = f.read(lo, hi)
                        assert got.flags.f_contiguous
                        assert np.array_equal(got, tensor[..., lo:hi])
                with pytest.raises(ShapeError):
                    f.read(2, 7)

    @pytest.mark.parametrize("lo,hi", [(1.5, 3), (1, 3.0)])
    def test_a_range_that_is_not_integral(self, files, lo, hi) -> None:
        """Checked as `_slab_range` checks a slab's range: it once raised a raw numpy `TypeError`."""
        for p in files:
            with TensorFile(p) as f:
                with pytest.raises(ShapeError, match=f"^slab range lo={lo}, hi={hi} is not a pair of integers$"):
                    f.read(lo, hi)
                assert np.array_equal(f.read(np.int64(1), np.int32(3)), f.read(1, 3))

    def test_slabs_are_bounded_and_tile_the_mode(self, files, tensor, monkeypatch) -> None:
        monkeypatch.setattr(formats, "_PIECE_BYTES", 2 * 8 * 5 * 4)  # two last-mode slices
        for p in files:
            with TensorFile(p) as f:
                slabs = list(f.slabs())
            assert all(1 <= c.count <= 2 for c in slabs)
            assert [c.start for c in slabs] == sorted(c.start for c in slabs)
            assert sum(c.count for c in slabs) == tensor.shape[-1]
            assert np.array_equal(np.concatenate([c.payload for c in slabs], axis=-1), tensor)

    def test_non_finite_slab_is_refused_naming_its_range(self, tmp_path, tensor, monkeypatch) -> None:
        """The file passes a NaN through; the consumers of its slabs refuse it."""
        monkeypatch.setattr(formats, "_PIECE_BYTES", 3 * 8 * 5 * 4)  # three last-mode slices
        b = sketch(tensor, make_plan(tensor.shape, "kronecker", 3, 4))
        t = one_pass(b, 2)
        x = np.array(tensor)
        x[1, 2, 4] = np.nan
        p = tmp_path / "nan.tnsr"
        write_tensor(p, x)
        with TensorFile(p) as f:
            assert np.isnan(f.read(3, 6)).any()
            pieces = [(c.start, c.count, np.isnan(c.payload).any()) for c in f.slabs()]
            assert pieces == [(0, 3, False), (3, 3, True)]
            with pytest.raises(ConfigError, match=r"slab \[3, 6\) has non-finite entries"):
                two_pass(b, f.slabs(), 2)
            with pytest.raises(ConfigError, match=r"slab \[3, 6\) has non-finite entries"):
                score(t, f.slabs())

    def test_refuses_other_formats(self, tmp_path, tensor) -> None:
        p = tmp_path / "t.tuck"
        write_factorization(p, one_pass(sketch(tensor, make_plan(tensor.shape, "kronecker", 3, 4)), 2))
        with pytest.raises(IOFormatError, match="expected a TNSR or TSKC file"):
            TensorFile(p)


@pytest.mark.parametrize(
    "kind,m,family",
    [("kronecker", 3, "mix"), ("khatri_rao", 4, "mix"), ("unstructured", 7, "sparse_sign")],
)
def test_bundle_round_trip(tmp_path, tensor, kind, m, family) -> None:
    plan = make_plan(tensor.shape, kind, m, 4, loo_family=family, seed=9)
    b = sketch(tensor, plan)
    p = tmp_path / "b.tskb"
    write_bundle(p, b)
    got = read_bundle(p)
    assert got.plan == plan
    for a, c in zip(b.loo, got.loo):
        assert np.array_equal(a, c)
    assert np.array_equal(b.core, got.core)


def test_factorization_round_trip_preserves_reconstruction(tmp_path, tensor) -> None:
    plan = make_plan(tensor.shape, "kronecker", 3, 4, seed=2)
    t = one_pass(sketch(tensor, plan), 2)
    p = tmp_path / "t.tuck"
    write_factorization(p, t)
    got = read_factorization(p)
    # column signs are normalized on write, the product is untouched
    assert np.array_equal(reconstruct(got), reconstruct(t))
    for q in got.factors:
        for k in range(q.shape[1]):
            lead = np.argmax(np.abs(q[:, k]))
            assert q[lead, k] > 0


def _sign_normalized_by_columns(t):
    """The column-by-column reference of ``formats._sign_normalized``."""
    core, factors = t.core.copy(), []
    for i, q in enumerate(t.factors, start=1):
        q = q.copy()
        for k in range(q.shape[1]):
            if q[np.argmax(np.abs(q[:, k])), k] < 0.0:
                q[:, k] *= -1.0
                core[(slice(None),) * (i - 1) + (k,)] *= -1.0
        factors.append(q)
    return TuckerFactorization(core, factors)


def test_sign_normalization_matches_the_column_loop() -> None:
    """One vectorized flip per factor gives the loop's bits, ties (the first
    largest magnitude leads) and signed zeros included."""
    rng = np.random.default_rng(31)
    for trial in range(50):
        d, r = 1 + trial % 4, 1 + trial % 3
        qs = [rng.standard_normal((int(n), r)) for n in rng.integers(r, 6, size=d)]
        if trial % 2:  # entries from {-1, -0.0, 0, 1}: tied magnitudes in most columns
            qs = [rng.choice([-1.0, -0.0, 0.0, 1.0], size=q.shape) for q in qs]
        t = TuckerFactorization(rng.standard_normal((r,) * d), qs)
        got, want = formats._sign_normalized(t), _sign_normalized_by_columns(t)
        for a, b in zip([got.core, *got.factors], [want.core, *want.factors]):
            assert np.asfortranarray(a).tobytes() == np.asfortranarray(b).tobytes()


def test_factorization_round_trip_exact_recovery(tmp_path) -> None:
    x, _ = gen_lowrank(10, 3, 3, seed=3)
    plan = make_plan(x.shape, "kronecker", 5, 6, seed=4)
    t = one_pass(sketch(x, plan), 3)
    p = tmp_path / "t.tuck"
    write_factorization(p, t)
    assert relative_error(reconstruct(read_factorization(p)), x) < 1e-10


class TestCorruption:
    def test_wrong_magic(self, tmp_path, tensor) -> None:
        p = tmp_path / "x.tnsr"
        write_tensor(p, tensor)
        data = bytearray(p.read_bytes())
        data[:4] = b"NOPE"
        p.write_bytes(bytes(data))
        with pytest.raises(IOFormatError):
            read_tensor(p)

    def test_cross_format_magic(self, tmp_path, tensor) -> None:
        p = tmp_path / "x.tnsr"
        write_tensor(p, tensor)
        with pytest.raises(IOFormatError):
            read_bundle(p)

    def test_unsupported_version(self, tmp_path, tensor) -> None:
        p = tmp_path / "x.tnsr"
        write_tensor(p, tensor)
        data = bytearray(p.read_bytes())
        data[4:8] = struct.pack("<I", 99)
        p.write_bytes(bytes(data))
        with pytest.raises(IOFormatError):
            read_tensor(p)

    def test_truncation(self, tmp_path, tensor) -> None:
        for writer, reader, name in [
            (write_tensor, read_tensor, "x.tnsr"),
            (lambda p, x: write_chunks(p, x.shape, slab_chunks(x, 2)), read_chunks_dense, "x.tskc"),
        ]:
            p = tmp_path / name
            writer(p, tensor)
            data = p.read_bytes()
            p.write_bytes(data[: len(data) - 16])
            with pytest.raises(IOFormatError):
                reader(p)

    def test_trailing_garbage(self, tmp_path, tensor) -> None:
        p = tmp_path / "x.tnsr"
        write_tensor(p, tensor)
        with open(p, "ab") as f:
            f.write(b"\x00" * 8)
        with pytest.raises(IOFormatError):
            read_tensor(p)

    # Offsets into the 3-mode bundle of `bundle_bytes`: magic, version, d,
    # shape, kind, m, m_c, then the leave-one-out and core families and the seed.
    FAMILIES_AT = 4 + 4 + 4 + 24 + 1 + 16
    SEED_AT = FAMILIES_AT + 6
    B1_AT = SEED_AT + 8

    @staticmethod
    def bundle_bytes(tmp_path, tensor):
        p = tmp_path / "b.tskb"
        write_bundle(p, sketch(tensor, make_plan(tensor.shape, "kronecker", 3, 4, seed=5)))
        return p, bytearray(p.read_bytes())

    def test_tampered_bundle_seed(self, tmp_path, tensor) -> None:
        """Any seed makes a valid plan, so a changed one would silently draw
        other maps: the CRC-32 refuses it."""
        p, data = self.bundle_bytes(tmp_path, tensor)
        assert struct.unpack_from("<Q", data, self.SEED_AT) == (5,)
        data[self.SEED_AT] ^= 0xFF
        p.write_bytes(bytes(data))
        with pytest.raises(IOFormatError, match="corrupt bundle: stored CRC-32"):
            read_bundle(p)

    @pytest.mark.parametrize("where", ["B_1", "core", "flag", "CRC"])
    def test_bundle_with_a_flipped_bit_is_refused(self, tmp_path, tensor, where) -> None:
        """One flipped bit anywhere in the payload or in the stored CRC-32 is
        a format error, not a sketch that reads back changed."""
        p, data = self.bundle_bytes(tmp_path, tensor)
        at = {"B_1": self.B1_AT, "core": len(data) - 5 - 8, "flag": len(data) - 5,
              "CRC": len(data) - 1}[where]
        data[at] ^= 0x10
        p.write_bytes(bytes(data))
        with pytest.raises(IOFormatError, match="corrupt bundle: stored CRC-32"):
            read_bundle(p)

    @pytest.mark.parametrize("magic,writer,reader", [
        (b"TSKB", lambda p, b, t: write_bundle(p, b), read_bundle),
        (b"TUCK", lambda p, b, t: write_factorization(p, t), read_factorization),
    ])
    def test_version_1_is_refused_naming_it(self, tmp_path, tensor, magic, writer, reader) -> None:
        """Bundles and factorizations are read at version 2 only: v1 carried no CRC."""
        b = sketch(tensor, make_plan(tensor.shape, "kronecker", 3, 4, seed=5))
        p = tmp_path / "f"
        writer(p, b, one_pass(b, 2))
        data = bytearray(p.read_bytes())
        assert data[:8] == magic + struct.pack("<I", 2)
        data[4:8] = struct.pack("<I", 1)
        p.write_bytes(bytes(data))
        with pytest.raises(IOFormatError, match=f"unsupported {magic.decode()} version 1 "):
            reader(p)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("leave-one-out family of mode 1", 250, "unknown family id 250"),
            ("core family of mode 3", 250, "unknown family id 250"),
            ("m", 2**40, "payload"),
            ("m_c", 2**63, "payload"),
        ],
    )
    def test_hostile_bundle_field(self, tmp_path, tensor, field, value, message) -> None:
        """Unknown ids and sketch dimensions the payload does not hold are
        format errors raised before anything is allocated from them."""
        p, data = self.bundle_bytes(tmp_path, tensor)
        at = {"leave-one-out family of mode 1": self.FAMILIES_AT, "core family of mode 3":
              self.FAMILIES_AT + 5, "m": self.FAMILIES_AT - 16, "m_c": self.FAMILIES_AT - 8}[field]
        if field.startswith("m"):
            struct.pack_into("<Q", data, at, value)
        else:
            data[at] = value
        p.write_bytes(bytes(data))
        with pytest.raises(IOFormatError, match=message):
            read_bundle(p)

    @pytest.mark.parametrize("d,m", [(2000, 1), (2000, 2**64 - 1), (200_000, 2**64 - 1)])
    @pytest.mark.parametrize("kind", LOO_KINDS)
    def test_bundle_header_without_its_payload_fails_at_once(self, tmp_path, kind, d, m) -> None:
        """A 2000-mode plan of length-1 modes fits in a 20 KB header; the
        payload it implies is checked against the file before the plan is
        built, and without forming m^(d-1) when m is 2^64 - 1 (seconds of
        big-integer work at d = 200000)."""
        p = tmp_path / "b.tskb"
        p.write_bytes(
            b"TSKB"
            + struct.pack(f"<II{d}QBQQ", 2, d, *[1] * d, LOO_KINDS.index(kind), m, m)
            + bytes([FAMILIES["gaussian"]]) * (2 * d)
            + struct.pack("<Q", 0)
        )
        t0 = time.perf_counter()
        with pytest.raises(IOFormatError, match="payload"):
            read_bundle(p)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("kind", LOO_KINDS)
    def test_one_mode_bundle_is_refused(self, tmp_path, kind) -> None:
        """A whole one-mode TSKB, CRC-32 and all, names a plan that cannot be
        built: a plan needs two modes to compress."""
        cols = 1 if kind == "kronecker" else 5  # m^(d-1), or m
        body = (b"TSKB" + struct.pack("<II1QBQQ", 2, 1, 40, LOO_KINDS.index(kind), 5, 6)
                + bytes([FAMILIES["gaussian"]]) * 2 + struct.pack("<Q", 0)
                + bytes(8 * (40 * cols + 6)) + b"\0")
        p = tmp_path / "b.tskb"
        p.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(IOFormatError, match="invalid plan: sketches need at least two modes"):
            read_bundle(p)

    @pytest.mark.parametrize("n", [2**40, 2**58, 2**63])
    def test_hostile_tensor_shape(self, tmp_path, tensor, n) -> None:
        """A mode length far beyond the file is a format error, not a
        MemoryError, an OverflowError or a product wrapped to int64."""
        p = tmp_path / "x.tnsr"
        write_tensor(p, tensor)
        data = bytearray(p.read_bytes())
        struct.pack_into("<Q", data, 12, n)
        p.write_bytes(bytes(data))
        with pytest.raises(IOFormatError):
            read_tensor(p)

    def test_rank_zero_factorization(self, tmp_path) -> None:
        """A TUCK header of rank 0 holds no factorization, though its empty
        core and factors would otherwise read cleanly."""
        p = tmp_path / "t.tuck"
        body = b"TUCK" + struct.pack("<II3QQB", 2, 3, 5, 4, 6, 0, 1)
        p.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(IOFormatError, match="rank"):
            read_factorization(p)

    def test_hostile_factorization_rank_fails_at_once(self, tmp_path) -> None:
        """A 200000-mode TUCK header of rank 2^64 - 1 names a core of r^d
        entries: it is refused by the bytes left, without forming r^d."""
        d = 200_000
        p = tmp_path / "t.tuck"
        p.write_bytes(b"TUCK" + struct.pack(f"<II{d}QQ", 2, d, *[1] * d, 2**64 - 1))
        t0 = time.perf_counter()
        with pytest.raises(IOFormatError, match="truncated file while reading core"):
            read_factorization(p)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("name,write,tail,read,message", [
        ("x.tskc", lambda p, x: write_chunks(p, x.shape, [SlabChunk(0, 6, x)]), b"\0" * 5,
         TensorFile, "truncated chunk record header"),
        ("t.tuck", lambda p, x: write_factorization(p, hosvd_truncate(x, 2)), b"\0",
         read_factorization, "trailing bytes after factorization"),
    ], ids=["cut-short-record-header", "bytes-after-a-factorization"])
    def test_typed_errors(self, tmp_path, tensor, name, write, tail, read, message) -> None:
        p = tmp_path / name
        write(p, tensor)
        p.write_bytes(p.read_bytes() + tail)
        with pytest.raises(TsketchError) as e:
            read(p)
        assert (e.value.category, str(e.value)) == ("io", message)

    def test_missing_file(self, tmp_path) -> None:
        with pytest.raises(IOFormatError):
            read_tensor(tmp_path / "absent.tnsr")

    def test_read_tensor_refuses_a_chunk_stream(self, tmp_path, tensor) -> None:
        """`read_tensor` reads TNSR only; `read_chunks_dense` takes either format."""
        p = tmp_path / "x.tskc"
        write_chunks(p, tensor.shape, slab_chunks(tensor, 2))
        with pytest.raises(IOFormatError, match="expected a TNSR file, found a TSKC stream"):
            read_tensor(p)
        assert np.array_equal(read_chunks_dense(p), tensor)


@pytest.mark.parametrize("bad", ["transposed B_1", "flattened core", "missing B_3"])
def test_write_bundle_refuses_arrays_the_plan_does_not_shape(tmp_path, tensor, bad) -> None:
    """Nothing but the plan records the shapes, so a transposed B_j of the
    right size would read back silently reshaped: it is refused, and no file
    is left."""
    b = sketch(tensor, make_plan(tensor.shape, "kronecker", 3, 4, seed=5))
    loo, core = list(b.loo), b.core
    if bad == "transposed B_1":
        loo[0] = loo[0].T
    elif bad == "flattened core":
        core = core.reshape(16, 4)
    else:
        loo.pop()
    p = tmp_path / "b.tskb"
    with pytest.raises(ShapeError, match="the plan makes"):
        write_bundle(p, SketchBundle(b.plan, loo, core))
    assert not p.exists()


def test_bundle_flag_is_written_clear_and_refused_when_set(tmp_path, tensor) -> None:
    """TSKB v2 keeps its flag byte, which once marked a bundle of part of a
    tensor: every bundle is written with it 0, and one with it set is refused
    even when its CRC-32 holds."""
    p = tmp_path / "b.tskb"
    write_bundle(p, sketch(tensor, make_plan(tensor.shape, "kronecker", 2, 3, seed=6)))
    data = bytearray(p.read_bytes())
    assert data[-5] == 0
    data[-5] = 1
    data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])))
    p.write_bytes(bytes(data))
    with pytest.raises(IOFormatError, match=r"^bundle flag is 1, not 0"):
        read_bundle(p)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """One small valid file of each format, as bytes, with its reader."""
    d = tmp_path_factory.mktemp("valid")
    x = np.random.default_rng(7).standard_normal((4, 3, 5))
    files = {
        "tnsr": (lambda p: write_tensor(p, x), read_tensor),
        "tskc": (lambda p: write_chunks(p, x.shape, slab_chunks(x, 2)), read_chunks_dense),
        "tskb-kronecker": (
            lambda p: write_bundle(p, sketch(x, make_plan(x.shape, "kronecker", 2, 2, seed=8))),
            read_bundle,
        ),
        "tskb-khatri_rao": (
            lambda p: write_bundle(p, sketch(x, make_plan(x.shape, "khatri_rao", 3, 2, seed=9))),
            read_bundle,
        ),
        "tuck": (
            lambda p: write_factorization(
                p, one_pass(sketch(x, make_plan(x.shape, "kronecker", 3, 3, seed=10)), 2)
            ),
            read_factorization,
        ),
    }
    out = {}
    for name, (writer, reader) in files.items():
        writer(d / name)
        out[name] = ((d / name).read_bytes(), reader)
    return d, out


@pytest.mark.parametrize("name", ["tnsr", "tskc", "tskb-kronecker", "tskb-khatri_rao", "tuck"])
@given(flips=st.lists(st.tuples(st.integers(0, 2**32), st.integers(1, 255)), min_size=1, max_size=3))
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
def test_byte_flips_read_or_raise_io_error(valid_files, name, flips) -> None:
    """Flipping one to three bytes of a valid file either still reads or
    raises IOFormatError; no other exception escapes the reader. A bundle or a
    factorization, checked by its CRC-32, never still reads once changed."""
    d, files = valid_files
    raw, reader = files[name]
    data = bytearray(raw)
    for pos, mask in flips:
        data[pos % len(data)] ^= mask
    p = d / f"flipped-{name}"
    p.write_bytes(bytes(data))
    if name.startswith(("tskb", "tuck")) and data != raw:
        with pytest.raises(IOFormatError):
            reader(p)
        return
    try:
        reader(p)
    except IOFormatError:
        pass


@pytest.mark.parametrize("name", ["tskb-kronecker", "tuck"])
def test_every_single_bit_flip_is_refused(valid_files, name) -> None:
    """A CRC-32 detects every error burst of 32 bits or fewer, so each
    single-bit flip of a small bundle or factorization, at every position,
    is an IOFormatError."""
    d, files = valid_files
    raw, reader = files[name]
    p = d / f"bit-flipped-{name}"
    for pos in range(len(raw)):
        for bit in range(8):
            data = bytearray(raw)
            data[pos] ^= 1 << bit
            p.write_bytes(bytes(data))
            with pytest.raises(IOFormatError):
                reader(p)
