"""Leave-one-out and core sketching: oracles, streaming, merging, accounting."""

import importlib
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from tsketch import formats
from tsketch.ensembles import materialize
from tsketch.errors import ConfigError, ShapeError, TsketchError
from tsketch.evaluate import score
from tsketch.recover import TuckerFactorization, compute_core_twopass, two_pass
from tsketch.sketch import (
    LOO_KINDS,
    SketchAccumulator,
    SketchPlan,
    SlabChunk,
    _KronSums,
    make_plan,
    sketch,
    slab_chunks,
)
from tsketch.tensor import multi_mode_product, unfold


def random_tensor(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def loo_composite(plan, j):
    """Explicit dense leave-mode-j composite map, built the slow way."""
    if plan.loo_kind == "unstructured":
        return materialize(plan.loo_spec(j))
    others = [materialize(plan.loo_spec(i)) for i in range(plan.d, 0, -1) if i != j]
    if plan.loo_kind == "kronecker":  # at d = 1, the 1 x 1 identity
        return reduce(np.kron, others, np.ones((1, 1)))
    rows = []
    for p in range(plan.m):
        w = np.array([1.0])
        for om in others:
            w = np.kron(w, om[p])
        rows.append(w)
    return np.asarray(rows) * plan.khat_scale()


class TestAgainstExplicitOperators:
    """Tiny instances where the whole measurement operator fits in memory."""

    def test_kronecker_matches_vec_oracle(self) -> None:
        x = random_tensor((4, 3, 2), seed=0)
        plan = make_plan(x.shape, "kronecker", 2, 2, seed=1)
        b = sketch(x, plan).loo
        for j in (1, 2, 3):
            expect = unfold(x, j) @ loo_composite(plan, j).T
            assert np.allclose(b[j - 1], expect, atol=1e-12)

    def test_khatri_rao_matches_row_loop_oracle(self) -> None:
        x = random_tensor((4, 3, 2), seed=2)
        plan = make_plan(x.shape, "khatri_rao", 5, 2, seed=3)
        b = sketch(x, plan).loo
        for j in (1, 2, 3):
            expect = unfold(x, j) @ loo_composite(plan, j).T
            assert np.allclose(b[j - 1], expect, atol=1e-12)

    def test_unstructured_matches_its_stored_map(self) -> None:
        x = random_tensor((4, 3, 2), seed=4)
        plan = make_plan(x.shape, "unstructured", 5, 2, seed=5)
        b = sketch(x, plan).loo
        for j in (1, 2, 3):
            omega = materialize(plan.loo_spec(j))
            assert np.allclose(b[j - 1], unfold(x, j) @ omega.T, atol=1e-12)

    def test_core_matches_modewise_compression(self) -> None:
        x = random_tensor((4, 3, 2), seed=6)
        plan = make_plan(x.shape, "kronecker", 2, 3, seed=7)
        phis = [(materialize(plan.core_spec(i)), i) for i in (1, 2, 3)]
        assert np.allclose(sketch(x, plan).core, multi_mode_product(x, phis), atol=1e-12)

    @pytest.mark.parametrize("kind,m", [("kronecker", 2), ("khatri_rao", 5), ("unstructured", 5)])
    @pytest.mark.parametrize("feeding", ["batch", "uneven", "merged"])
    def test_every_feeding_matches_the_oracle(self, kind, m, feeding) -> None:
        """B_j keeps mode j unmapped, whether the tensor arrives whole, as
        uneven out-of-order slabs, or as two shards merged before finalizing."""
        x = random_tensor((4, 3, 5), seed=8)
        plan = make_plan(x.shape, kind, m, 2, seed=9)
        if feeding == "batch":
            b = sketch(x, plan).loo
        else:
            shards = [[(3, 5), (0, 1), (1, 3)]] if feeding == "uneven" else [[(3, 5), (0, 1)], [(1, 3)]]
            accs = []
            for ranges in shards:
                acc = SketchAccumulator(plan)
                for lo, hi in ranges:
                    acc.update(SlabChunk(lo, hi - lo, x[..., lo:hi]))
                accs.append(acc)
            acc = accs[0] if len(accs) == 1 else accs[0].merge(accs[1])
            b = acc.finalize().loo
        for j in (1, 2, 3):
            expect = unfold(x, j) @ loo_composite(plan, j).T
            assert np.allclose(b[j - 1], expect, rtol=1e-12, atol=1e-12)


class TestMatrixFreeKhatriRao:
    """The streamed khatri_rao sketch against the row-loop oracle, without its composite."""

    @pytest.mark.parametrize("shape", [(7, 9), (5, 4, 3, 6)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_uneven_slabs_match_row_loop_oracle(self, shape, order) -> None:
        x = random_tensor(shape, seed=70)
        plan = make_plan(shape, "khatri_rao", 8, 3, seed=71)
        acc = SketchAccumulator(plan)
        n_last = shape[-1]
        for lo, hi in [(2, n_last), (0, 1), (1, 2)]:
            acc.update(SlabChunk(lo, hi - lo, np.asarray(x[..., lo:hi], order=order)))
        got = acc.finalize()
        for j in range(1, plan.d + 1):
            expect = unfold(x, j) @ loo_composite(plan, j).T
            assert np.allclose(got.loo[j - 1], expect, rtol=1e-12, atol=1e-12)

    # shape, and the sketches j whose widest other mode is mode 1 (ties go to
    # mode 1): they take their rows of the stacked mode-1 product.
    STACKING = [
        ((7, 4), [2]),
        ((3, 8), [2]),
        ((6, 5, 4), [2, 3]),  # mode 1 the unique widest
        ((5, 4, 5), [2, 3]),  # tied with the last mode for B_2
        ((4, 6, 5), []),  # not widest
        ((6, 9, 9, 4), []),
        ((9, 6, 9, 4), [2, 3, 4]),  # tied for B_2 and B_4
        ((5, 6, 4, 3), [2]),
        ((5, 3, 4, 3, 4), [2, 3, 4, 5]),
        ((4, 3, 5, 3, 4), [3]),  # tied with mode 5 for B_3
    ]

    @pytest.mark.parametrize("shape,stacked", STACKING, ids=[str(s) for s, _ in STACKING])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("width", [1, 2, 8])
    def test_every_path_of_the_stacking_rule_matches_the_oracle(self, shape, stacked, order, width) -> None:
        """Two shards of `width`-slice slabs, merged, against the row-loop
        oracle and the batch sketch, at d = 2..5 with the mix families."""
        x = random_tensor(shape, seed=sum(shape))
        plan = make_plan(shape, "khatri_rao", 3, 2, loo_family="mix", seed=len(shape))
        rows = plan.mode1_stack[1]
        assert [j for j in range(1, plan.d + 1) if rows[j - 1] is not None] == stacked
        n = shape[-1]
        shards = [SketchAccumulator(plan), SketchAccumulator(plan)]
        for lo in range(0, n, width):
            hi = min(n, lo + width)
            payload = np.asarray(x[..., lo:hi], order=order)
            shards[2 * lo >= n].update(SlabChunk(lo, hi - lo, payload))
        got = shards[0].merge(shards[1]).finalize()
        for j in range(1, plan.d + 1):
            expect = unfold(x, j) @ loo_composite(plan, j).T
            assert np.allclose(got.loo[j - 1], expect, rtol=1e-12, atol=1e-12)
        assert rel_gap(sketch(x, plan), got) <= 1e-12

    def test_update_never_forms_the_composite(self) -> None:
        """n = 96, m = 64: the leave-mode-3 composite alone would take
        8 m n^2 bytes; folding in a thin slab stays far below that."""
        n, m, width = 96, 64, 4
        plan = make_plan((n, n, n), "khatri_rao", m, 4, seed=72)
        acc = SketchAccumulator(plan)
        payload = np.asfortranarray(random_tensor((n, n, width), seed=73))
        composite_bytes = 8 * m * n * n
        tracemalloc.start()
        try:
            acc.update(SlabChunk(0, width, payload))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < composite_bytes / 8, (peak, composite_bytes)


class TestIdentityPlans:
    """With identity ensembles everywhere the sketches are exact copies."""

    def test_kronecker_identity_returns_unfoldings(self) -> None:
        x = random_tensor((3, 3, 3), seed=10)
        plan = make_plan(x.shape, "kronecker", 3, 3, loo_family="identity", seed=0)
        b = sketch(x, plan)
        for j in (1, 2, 3):
            assert np.array_equal(b.loo[j - 1], unfold(x, j))
        assert np.array_equal(b.core, x)

    def test_unstructured_identity_returns_unfoldings(self) -> None:
        x = random_tensor((3, 3, 3), seed=11)
        plan = make_plan(x.shape, "unstructured", 9, 3, loo_family="identity", seed=0)
        b = sketch(x, plan)
        for j in (1, 2, 3):
            assert np.array_equal(b.loo[j - 1], unfold(x, j))


def test_leave_one_out_shapes_at_full_scale() -> None:
    """n=300, d=3: kronecker m=25 gives 300x625 per mode, khatri_rao
    m=225 gives 300x225, streamed so the full tensor is never held."""
    shape = (300, 300, 300)
    kron_plan = make_plan(shape, "kronecker", 25, 10, seed=20)
    khat_plan = make_plan(shape, "khatri_rao", 225, 10, seed=21)
    accs = [SketchAccumulator(kron_plan), SketchAccumulator(khat_plan)]
    rng = np.random.default_rng(22)
    start = 0
    for width in (40,) * 7 + (20,):
        payload = rng.standard_normal((300, 300, width))
        for acc in accs:
            acc.update(SlabChunk(start, width, payload))
        start += width
    b_kron, b_khat = (acc.finalize() for acc in accs)
    assert [b.shape for b in b_kron.loo] == [(300, 625)] * 3
    assert [b.shape for b in b_khat.loo] == [(300, 225)] * 3
    assert b_kron.core.shape == (10, 10, 10)


class TestStorageAccounting:
    def test_kronecker_entry_count(self) -> None:
        plan = make_plan((40, 40, 40), "kronecker", 15, 15, seed=0)
        assert plan.loo_entry_count() == 40 * 3 * 15**2
        assert plan.core_entry_count() == 15**3
        b = sketch(random_tensor((40, 40, 40), 12), plan)
        assert b.loo_entry_count() == plan.loo_entry_count()
        assert b.core_entry_count() == plan.core_entry_count()

    def test_khatri_rao_entry_count(self) -> None:
        plan = make_plan((40, 40, 40), "khatri_rao", 60, 15, seed=0)
        assert plan.loo_entry_count() == 3 * 60 * 40
        b = sketch(random_tensor((40, 40, 40), 13), plan)
        assert b.loo_entry_count() == plan.loo_entry_count()

    def test_non_cubic_entry_count(self) -> None:
        plan = make_plan((6, 5, 4), "kronecker", 3, 2, seed=0)
        assert plan.loo_entry_count() == (6 + 5 + 4) * 3**2
        b = sketch(random_tensor((6, 5, 4), 14), plan)
        assert b.loo_entry_count() == plan.loo_entry_count()


class TestStreaming:
    @pytest.mark.parametrize("kind,m", [("kronecker", 4), ("khatri_rao", 10), ("unstructured", 10)])
    @pytest.mark.parametrize("n_slabs", [1, 2, 7])
    def test_slabbed_equals_batch(self, kind, m, n_slabs) -> None:
        x = random_tensor((9, 8, 7), seed=30)
        plan = make_plan(x.shape, kind, m, 5, seed=31)
        batch = sketch(x, plan)
        acc = SketchAccumulator(plan)
        for chunk in slab_chunks(x, n_slabs):
            acc.update(chunk)
        got = acc.finalize()
        for a, b in zip(batch.loo, got.loo):
            assert np.allclose(a, b, rtol=1e-10, atol=1e-12)
        assert np.allclose(batch.core, got.core, rtol=1e-10, atol=1e-12)

    def test_single_chunk_is_bitwise_identical_to_batch(self) -> None:
        x = random_tensor((6, 5, 8), seed=32)
        for kind, m in [("kronecker", 3), ("khatri_rao", 6), ("unstructured", 6)]:
            plan = make_plan(x.shape, kind, m, 4, seed=33)
            batch = sketch(x, plan)
            acc = SketchAccumulator(plan)
            acc.update(SlabChunk(0, 8, x))
            got = acc.finalize()
            assert all(np.array_equal(a, b) for a, b in zip(batch.loo, got.loo))
            assert np.array_equal(batch.core, got.core)

    @pytest.mark.parametrize("kind,m", [("kronecker", 3), ("khatri_rao", 6), ("unstructured", 6)])
    @pytest.mark.parametrize(
        "ranges",
        [[(0, 10)], [(6, 10), (0, 1), (1, 6)], [(0, 2), (2, 2), (7, 10)], []],
        ids=["one-slab", "uneven-out-of-order", "gap", "none"],
    )
    @pytest.mark.parametrize("as_iter", [False, True], ids=["list", "iterator"])
    def test_sketch_of_slabs_equals_an_accumulator_fed_them(self, kind, m, ranges, as_iter) -> None:
        """`sketch` takes slabs as the accumulator does, bit for bit, and
        refuses a stream with a gap, or no slabs at all, as `finalize` does."""
        x = random_tensor((5, 4, 10), seed=37)
        plan = make_plan(x.shape, kind, m, 3, seed=38)
        slabs = [SlabChunk(lo, hi - lo, x[..., lo:hi]) for lo, hi in ranges]
        acc = SketchAccumulator(plan)
        for c in slabs:
            acc.update(c)
        covered = sum(hi - lo for lo, hi in ranges)
        if covered != 10:
            for finish in (acc.finalize, lambda: sketch(iter(slabs) if as_iter else slabs, plan)):
                with pytest.raises(ShapeError, match=f"^slabs cover {covered} of the 10 indices of the last mode$"):
                    finish()
            return
        ref = acc.finalize()
        got = sketch(iter(slabs) if as_iter else slabs, plan)
        for a, b in zip(ref.loo + [ref.core], got.loo + [got.core]):
            assert np.array_equal(a, b)

    def test_out_of_order_and_uneven_slabs(self) -> None:
        x = random_tensor((5, 4, 10), seed=34)
        plan = make_plan(x.shape, "kronecker", 3, 3, seed=35)
        batch = sketch(x, plan)
        acc = SketchAccumulator(plan)
        for lo, hi in [(6, 10), (0, 1), (1, 6)]:
            acc.update(SlabChunk(lo, hi - lo, x[..., lo:hi]))
        got = acc.finalize()
        for a, b in zip(batch.loo + [batch.core], got.loo + [got.core]):
            assert np.allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_empty_chunk_is_a_no_op(self) -> None:
        x = random_tensor((5, 4, 6), seed=36)
        plan = make_plan(x.shape, "khatri_rao", 4, 3, seed=37)
        acc = SketchAccumulator(plan)
        acc.update(SlabChunk(2, 0, x[..., 2:2]))
        acc.update(SlabChunk(0, 6, x))
        b = acc.finalize()
        ref = sketch(x, plan)
        assert np.allclose(b.loo[0], ref.loo[0], rtol=1e-12, atol=1e-14)

    def test_overlapping_chunks_rejected(self) -> None:
        x = random_tensor((4, 4, 8), seed=38)
        plan = make_plan(x.shape, "kronecker", 2, 2, seed=39)
        acc = SketchAccumulator(plan)
        acc.update(SlabChunk(0, 5, x[..., :5]))
        with pytest.raises(ConfigError):
            acc.update(SlabChunk(4, 4, x[..., 4:]))

    def test_adjacent_out_of_order_slabs(self) -> None:
        """Slabs that touch without overlapping are accepted in any order; the
        kept-sorted coverage then names the slab a later overlap hits."""
        x = random_tensor((4, 4, 8), seed=48)
        plan = make_plan(x.shape, "kronecker", 2, 2, seed=49)
        acc = SketchAccumulator(plan)
        for lo, hi in [(4, 8), (0, 2), (2, 4)]:
            acc.update(SlabChunk(lo, hi - lo, x[..., lo:hi]))
        assert acc._kron.covered == [(0, 2), (2, 2), (4, 4)]
        with pytest.raises(ConfigError, match=r"overlaps \[2, 4\)"):
            acc.update(SlabChunk(3, 1, x[..., 3:4]))
        got, ref = acc.finalize(), sketch(x, plan)
        for a, b in zip(ref.loo + [ref.core], got.loo + [got.core]):
            assert np.allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_chunk_validation(self) -> None:
        x = random_tensor((4, 4, 8), seed=40)
        plan = make_plan(x.shape, "kronecker", 2, 2, seed=41)
        acc = SketchAccumulator(plan)
        with pytest.raises(ShapeError):
            acc.update(SlabChunk(6, 4, x[..., :4]))  # runs past the end
        with pytest.raises(ShapeError):
            acc.update(SlabChunk(0, 4, x[..., :3]))  # count/payload mismatch

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_slab_rejected(self, bad) -> None:
        x = random_tensor((4, 4, 8), seed=46)
        plan = make_plan(x.shape, "kronecker", 2, 2, seed=47)
        acc = SketchAccumulator(plan)
        slab = np.array(x[..., 3:6])
        slab[1, 2, 0] = bad
        with pytest.raises(ConfigError, match=r"\[3, 6\)"):
            acc.update(SlabChunk(3, 3, slab))
        assert not acc._kron.covered

    def test_finalize_refuses_a_gap(self) -> None:
        """A bundle sketches the whole tensor: slabs that leave a gap are a
        `ShapeError`, and the accumulator still takes the missing slabs."""
        x = random_tensor((4, 4, 8), seed=42)
        plan = make_plan(x.shape, "kronecker", 2, 2, seed=43)
        acc = SketchAccumulator(plan)
        acc.update(SlabChunk(0, 3, x[..., :3]))
        assert not acc.coverage_complete()
        with pytest.raises(ShapeError, match=r"^slabs cover 3 of the 8 indices of the last mode$"):
            acc.finalize()
        acc.update(SlabChunk(3, 5, x[..., 3:]))
        assert acc.coverage_complete()
        assert rel_gap(sketch(x, plan), acc.finalize()) <= 1e-12

    @pytest.mark.parametrize("kind,m", [("kronecker", 3), ("khatri_rao", 4), ("unstructured", 4)])
    @pytest.mark.parametrize("scale", [1e307, 1.7e308], ids=["squares-overflow", "sums-overflow"])
    def test_sums_that_overflow_are_refused(self, kind, m, scale) -> None:
        """Entries near the top of float64 pass the slab rule, being finite,
        but the sketch's sums, or its squared norm, overflow: `finalize`
        refuses it, after a merge too, naming the sketch, without a warning;
        and the two-pass core likewise. Such a bundle once reached LAPACK."""
        x = scale * np.sign(random_tensor((5, 4, 6), seed=83))
        plan = make_plan(x.shape, kind, m, 3, seed=84)
        shards = [SketchAccumulator(plan), SketchAccumulator(plan)]
        for lo in range(6):
            shards[lo >= 2].update(SlabChunk(lo, 1, x[..., lo : lo + 1]))
        for finish in (lambda: sketch(x, plan), lambda: shards[0].merge(shards[1]).finalize()):
            with pytest.raises(ConfigError, match=r"^mode-1 sketch is not finite in float64"):
                finish()
        qs = [np.linalg.qr(random_tensor((n, 2), seed=n))[0] for n in x.shape]
        with pytest.raises(ConfigError, match=r"^core sketch is not finite in float64"):
            compute_core_twopass(x, qs)

    @pytest.mark.parametrize("kind,m", [("kronecker", 3), ("khatri_rao", 4), ("unstructured", 4)])
    def test_finalized_bundle_is_not_changed_by_later_slabs(self, kind, m) -> None:
        """A finalized stream covers the last mode, so every later non-empty
        slab is refused as an overlap, and an empty one changes nothing."""
        x = random_tensor((5, 6), seed=58)
        plan = make_plan(x.shape, kind, m, 3, seed=59)
        acc = SketchAccumulator(plan)
        acc.update(SlabChunk(0, 6, x))
        b = acc.finalize()
        frozen = [a.copy() for a in b.loo + [b.core]]
        with pytest.raises(ConfigError, match=r"^slab \[3, 6\) overlaps \[0, 6\)$"):
            acc.update(SlabChunk(3, 3, x[:, 3:]))
        acc.update(SlabChunk(6, 0, x[:, 6:]))
        assert all(np.array_equal(a, f) for a, f in zip(b.loo + [b.core], frozen))

    @pytest.mark.parametrize("kind,m", [("kronecker", 5), ("khatri_rao", 7), ("unstructured", 7)])
    def test_finalize_lends_the_sums(self, kind, m) -> None:
        """The bundle's arrays are read-only, column-major views of the
        accumulator's sums. The finished accumulator refuses every later
        non-empty slab, and merges with a shard that saw none, so every
        bundle it lends keeps its values."""
        x = random_tensor((6, 5, 30), seed=81)
        plan = make_plan(x.shape, kind, m, 6, seed=82)
        acc = SketchAccumulator(plan)
        for lo, hi in [(0, 2), (2, 3), (10, 12), (3, 10), (12, 30)]:  # thin ones park in the core's buffer
            acc.update(SlabChunk(lo, hi - lo, x[..., lo:hi]))
        lent, again = acc.finalize(), acc.finalize()
        sums = acc._kron.sums
        for a in lent.loo + [lent.core] + again.loo + [again.core]:
            assert not a.flags.writeable and a.flags.f_contiguous
            assert any(np.shares_memory(a, t) for t in sums)
        frozen = [a.copy() for a in lent.loo + [lent.core]]
        assert rel_gap(sketch(x, plan), lent) <= 1e-12
        with pytest.raises(ConfigError, match="overlaps"):
            acc.update(SlabChunk(5, 2, x[..., 5:7]))
        merged = acc.merge(SketchAccumulator(plan)).finalize()
        for bundle in (lent, again, merged, acc.finalize()):
            assert all(a.flags.f_contiguous and np.array_equal(a, f) for a, f in zip(bundle.loo + [bundle.core], frozen))

    @pytest.mark.parametrize("kind,m", [("kronecker", 3), ("khatri_rao", 4), ("unstructured", 4)])
    def test_sketches_come_out_column_major(self, kind, m) -> None:
        """The layout a bundle file stores and recovery reads, so neither copies them."""
        x = random_tensor((5, 4, 6), seed=77)
        b = sketch(x, make_plan(x.shape, kind, m, 3, seed=78))
        assert all(a.flags.f_contiguous for a in b.loo)
        assert b.core.flags.f_contiguous

    def test_accumulator_does_not_retain_chunks(self) -> None:
        """Feeding a slab, mutating the caller's buffer afterwards, and
        finalizing must give the same bundle as with an untouched buffer."""
        x = random_tensor((5, 4, 6), seed=44)
        plan = make_plan(x.shape, "kronecker", 3, 3, seed=45)
        ref = sketch(x, plan)
        acc = SketchAccumulator(plan)
        buf = np.array(x[..., :3])
        acc.update(SlabChunk(0, 3, buf))
        buf[:] = -1.0
        acc.update(SlabChunk(3, 3, x[..., 3:]))
        got = acc.finalize()
        for a, b in zip(ref.loo + [ref.core], got.loo + [got.core]):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-13)


def rel_gap(ref, got):
    """Worst relative difference over a bundle's measurements."""
    return max(
        float(np.linalg.norm(a - b) / np.linalg.norm(a))
        for a, b in zip(ref.loo + [ref.core], got.loo + [got.core])
    )


def thin_slabs(n, seed):
    """Last-mode slabs of width 1 to 3 that tile [0, n), in shuffled order."""
    rng = np.random.default_rng(seed)
    bounds = [0]
    while bounds[-1] < n:
        bounds.append(min(n, bounds[-1] + int(rng.integers(1, 4))))
    ranges = list(zip(bounds[:-1], bounds[1:]))
    return [ranges[i] for i in rng.permutation(len(ranges))]


class TestCoalescing:
    """A measurement of the slab engine (`_KronSums`) that compresses the last
    mode parks thin slabs and applies its last-mode map to a full buffer, at
    `merge` and at `finalize`; a slab at least a buffer wide skips the buffer."""

    def feed(self, acc, x, ranges):
        for lo, hi in ranges:
            acc.update(SlabChunk(lo, hi - lo, x[..., lo:hi]))

    @pytest.mark.parametrize("shape", [(7, 40), (6, 5, 40), (4, 3, 5, 30)])
    def test_shuffled_thin_slabs_match_batch(self, shape, monkeypatch) -> None:
        x = random_tensor(shape, seed=60)
        plan = make_plan(shape, "kronecker", 5, 6, seed=61)
        flushed = []
        acc = SketchAccumulator(plan)
        eng = acc._kron
        flush = eng._flush_into
        monkeypatch.setattr(eng, "_flush_into", lambda sums: flushed.append(len(eng._parked)) or flush(sums))
        self.feed(acc, x, thin_slabs(shape[-1], seed=62))
        # the buffer holds as many slices as the smallest last-mode map has rows
        assert eng._width == 5
        assert flushed and max(flushed) > 1
        assert rel_gap(sketch(x, plan), acc.finalize()) <= 1e-12

    def test_merge_applies_pending_buffers_and_leaves_the_parents_alone(self) -> None:
        x = random_tensor((6, 5, 40), seed=63)
        plan = make_plan(x.shape, "kronecker", 5, 6, seed=64)
        ranges = thin_slabs(40, seed=65)
        left = [r for r in ranges if r[0] < 20]
        right = [r for r in ranges if r[0] >= 20]
        a, b, a_ref, b_ref = (SketchAccumulator(plan) for _ in range(4))
        for acc, part in [(a, left[:-1]), (b, right), (a_ref, left[:-1]), (b_ref, right)]:
            self.feed(acc, x, part)
        assert a._kron._parked and b._kron._parked
        merged = a.merge(b)
        assert not merged._kron._parked
        self.feed(merged, x, left[-1:])
        assert merged._kron._parked
        got = merged.finalize()
        assert rel_gap(sketch(x, plan), got) <= 1e-12
        # Each parent, given the rest of the stream, finalizes as its twin that never merged.
        for parent, ref, rest in [(a, a_ref, left[-1:] + right), (b, b_ref, left)]:
            self.feed(parent, x, rest)
            self.feed(ref, x, rest)
            u, v = parent.finalize(), ref.finalize()
            assert all(np.array_equal(p, q) for p, q in zip(u.loo + [u.core], v.loo + [v.core]))

    def test_finalize_flushes_the_buffers(self) -> None:
        """A refused `finalize` leaves the parked slabs parked; one over the
        whole mode applies them and releases the buffers."""
        x = random_tensor((6, 5, 40), seed=66)
        plan = make_plan(x.shape, "kronecker", 5, 6, seed=67)
        ranges = thin_slabs(40, seed=68)
        acc = SketchAccumulator(plan)
        self.feed(acc, x, ranges[:5])
        parked = list(acc._kron._parked)
        assert parked
        with pytest.raises(ShapeError, match="slabs cover"):
            acc.finalize()
        assert acc._kron._parked == parked
        self.feed(acc, x, ranges[5:])
        assert acc._kron._parked
        got = acc.finalize()
        assert not acc._kron._parked and acc._kron._bufs is None
        assert rel_gap(sketch(x, plan), got) <= 1e-12

    def test_a_slab_a_buffer_wide_skips_the_buffer(self, monkeypatch) -> None:
        """`sketch` at the runtime check's plan, and any slab at least the
        buffer's width, apply the last-mode map at once."""

        def no_buffer(self):
            raise AssertionError("a wide slab was parked")

        monkeypatch.setattr(_KronSums, "_buffers", no_buffer)
        x = random_tensor((100, 30, 100), seed=69)
        sketch(x, make_plan(x.shape, "kronecker", 25, 50, seed=70))
        plan = make_plan((6, 5, 40), "kronecker", 5, 6, seed=71)
        acc = SketchAccumulator(plan)
        acc.update(SlabChunk(3, 5, random_tensor((6, 5, 5), seed=72)))
        assert acc._kron._width == 5 and not acc._kron._parked

    def test_a_full_buffer_reaches_the_sum_through_a_small_tile(self) -> None:
        """`finish` on a full buffer of a d = 4 core larger than a piece peaks
        below a quarter of the core's bytes: adding the buffer's product in
        one step took a temporary as large as the core."""
        plan = make_plan((24, 22, 21, 40), "kronecker", 5, 20, seed=81)
        x = random_tensor(plan.shape, seed=82)
        eng = _KronSums(plan.shape, [plan.core_maps])
        core_bytes = eng.sums[0].nbytes
        assert core_bytes > formats._PIECE_BYTES
        for lo in range(eng._width):
            eng.update(SlabChunk(lo, 1, x[..., lo : lo + 1]))
        eng.update(SlabChunk(8, 32, x[..., 8:]))  # at least a buffer wide: added at once
        assert sum(c for _, c in eng._parked) == eng._width == 8
        tracemalloc.start()
        try:
            (got,) = eng.finish()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < core_bytes / 4, (peak, core_bytes)
        want = sketch(x, plan).core
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("kind", ["khatri_rao", "unstructured"])
    def test_row_wise_plans_buffer_the_core(self, kind) -> None:
        """The core of every plan is summed by the same engine: thin slabs of
        a khatri_rao or unstructured plan park there too, and `merge` applies
        both parents' pending slabs."""
        x = random_tensor((6, 5, 40), seed=74)
        plan = make_plan(x.shape, kind, 7, 6, seed=75)
        ranges = thin_slabs(40, seed=76)
        a, b = SketchAccumulator(plan), SketchAccumulator(plan)
        self.feed(a, x, [r for r in ranges if r[0] < 20])
        self.feed(b, x, [r for r in ranges if r[0] >= 20])
        assert a._kron._parked and b._kron._parked
        got = a.merge(b).finalize()
        assert rel_gap(sketch(x, plan), got) <= 1e-12

    @pytest.mark.parametrize("kind", ["kronecker", "khatri_rao", "unstructured"])
    def test_a_slab_covering_the_mode_skips_the_buffer(self, kind, monkeypatch) -> None:
        """The buffer is no wider than the last mode, so a batch `sketch` with
        fewer slices than a buffer would hold never parks them."""

        def no_buffer(self):
            raise AssertionError("a slab covering the mode was parked")

        monkeypatch.setattr(_KronSums, "_buffers", no_buffer)
        x = random_tensor((6, 5, 4), seed=79)
        acc = SketchAccumulator(make_plan(x.shape, kind, 5, 6, seed=80))
        acc.update(SlabChunk(0, 4, x))
        assert acc._kron._width == 4

    def test_mode_one_maps_are_rows_of_one_stacked_matrix(self) -> None:
        """B_2 and B_3 apply the same A_1: they read the same rows of the
        stack, above the core's, and the stack holds A_1 once."""
        plan = make_plan((6, 5, 40), "kronecker", 3, 4, loo_family="mix", seed=73)
        acc = SketchAccumulator(plan)
        eng = acc._kron
        assert eng.maps[0][0] is None
        assert eng.maps[1][0] is eng.maps[2][0] is plan.loo_maps[0]
        assert plan.loo_maps[0].base is eng._stack
        assert eng._rows == [None, slice(0, 3), slice(0, 3), slice(3, 7)]
        assert eng._stack.shape == (3 + 4, 6)
        for rows, spec in [(slice(0, 3), plan.loo_spec(1)), (slice(3, 7), plan.core_spec(1))]:
            assert np.array_equal(eng._stack[rows], materialize(spec))


class TestMerge:
    def make_parts(self, plan, x, cuts):
        accs = []
        bounds = [0] + cuts + [x.shape[-1]]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            acc = SketchAccumulator(plan)
            acc.update(SlabChunk(lo, hi - lo, x[..., lo:hi]))
            accs.append(acc)
        return accs

    def test_merge_matches_batch(self) -> None:
        x = random_tensor((6, 5, 9), seed=50)
        plan = make_plan(x.shape, "khatri_rao", 5, 3, seed=51)
        batch = sketch(x, plan)
        a, b, c = self.make_parts(plan, x, [3, 6])
        merged = a.merge(b).merge(c)
        got = merged.finalize()
        for u, v in zip(batch.loo + [batch.core], got.loo + [got.core]):
            assert np.allclose(u, v, rtol=1e-10, atol=1e-12)

    def test_merge_is_order_insensitive(self) -> None:
        x = random_tensor((6, 5, 9), seed=52)
        plan = make_plan(x.shape, "kronecker", 3, 3, seed=53)
        a, b, c = self.make_parts(plan, x, [3, 6])
        left = a.merge(b).merge(c).finalize()
        right = c.merge(b.merge(a)).finalize()
        for u, v in zip(left.loo + [left.core], right.loo + [right.core]):
            assert np.allclose(u, v, rtol=1e-12, atol=1e-13)

    def test_merge_shares_the_materialized_maps(self, monkeypatch) -> None:
        x = random_tensor((6, 5, 9), seed=56)
        plan = make_plan(x.shape, "khatri_rao", 5, 3, seed=57)
        a, b = self.make_parts(plan, x, [4])
        calls = []
        module = importlib.import_module("tsketch.sketch")  # the package's `sketch` is the function
        monkeypatch.setattr(module, "materialize", lambda spec: calls.append(spec) or materialize(spec))
        a.merge(b)
        assert calls == []

    def test_accumulators_of_one_plan_share_its_core_maps(self, monkeypatch) -> None:
        """The core maps belong to the plan: built once for every accumulator
        of it, equal to their specs, and read-only."""
        x = random_tensor((6, 5, 9), seed=58)
        plan = make_plan(x.shape, "khatri_rao", 5, 3, loo_family="mix", seed=59)
        calls = []
        module = importlib.import_module("tsketch.sketch")
        monkeypatch.setattr(module, "materialize", lambda spec: calls.append(spec) or materialize(spec))
        self.make_parts(plan, x, [4])
        core_specs = [plan.core_spec(i) for i in (1, 2, 3)]
        assert [spec for spec in calls if spec in core_specs] == core_specs
        for phi, spec in zip(plan.core_maps, core_specs):
            assert np.array_equal(phi, materialize(spec))
            assert not phi.flags.writeable
        with pytest.raises(ValueError):
            plan.core_maps[0][0, 0] = 1.0

    @pytest.mark.parametrize("kind", ["kronecker", "khatri_rao", "unstructured"])
    def test_merge_with_a_shard_that_saw_no_slab(self, kind) -> None:
        """A shard whose slabs all went elsewhere (a stream read in one piece)
        merges on either side without changing a bit of the other's bundle."""
        x = random_tensor((6, 5, 40), seed=86)
        plan = make_plan(x.shape, kind, 5, 6, seed=87)
        a, empty = SketchAccumulator(plan), SketchAccumulator(plan)
        for lo, hi in thin_slabs(40, seed=88):
            a.update(SlabChunk(lo, hi - lo, x[..., lo:hi]))
        assert a._kron._parked  # the merge must apply them
        merged = [a.merge(empty).finalize(), empty.merge(a).finalize()]
        want = a.finalize()
        for got in merged:
            assert all(np.array_equal(u, v) for u, v in zip(got.loo + [got.core], want.loo + [want.core]))

    def test_merge_rejects_different_plans(self) -> None:
        x = random_tensor((4, 4, 4), seed=54)
        p1 = make_plan(x.shape, "kronecker", 2, 2, seed=1)
        p2 = make_plan(x.shape, "kronecker", 2, 2, seed=2)
        a, b = SketchAccumulator(p1), SketchAccumulator(p2)
        with pytest.raises(ConfigError):
            a.merge(b)

    def test_merge_rejects_overlapping_coverage(self) -> None:
        x = random_tensor((4, 4, 4), seed=55)
        plan = make_plan(x.shape, "kronecker", 2, 2, seed=3)
        a, b = SketchAccumulator(plan), SketchAccumulator(plan)
        a.update(SlabChunk(0, 3, x[..., :3]))
        b.update(SlabChunk(2, 2, x[..., 2:]))
        with pytest.raises(ConfigError):
            a.merge(b)


class TestPlanMaps:
    """The plan owns its materialized maps: every accumulator of one plan (every
    shard of a stream) shares one read-only copy, built once."""

    @pytest.mark.parametrize("kind,family", [("kronecker", "mix"), ("khatri_rao", "mix"),
                                             ("unstructured", "sparse_sign")])
    def test_accumulators_of_one_plan_share_its_loo_maps(self, kind, family, monkeypatch) -> None:
        x = random_tensor((6, 5, 9), seed=89)
        plan = make_plan(x.shape, kind, 4, 3, loo_family=family, seed=90)
        calls = []
        module = importlib.import_module("tsketch.sketch")
        monkeypatch.setattr(module, "materialize", lambda spec: calls.append(spec) or materialize(spec))
        a, b = SketchAccumulator(plan), SketchAccumulator(plan)
        for acc, (lo, hi) in [(a, (0, 4)), (b, (4, 9))]:
            acc.update(SlabChunk(lo, hi - lo, x[..., lo:hi]))
        # One map per mode, A_i, which every sketch j != i applies; for unstructured, sketch i's composite.
        maps = [(plan.loo_spec(i), plan.loo_maps[i - 1]) for i in (1, 2, 3)]
        specs = [spec for spec, _ in maps] + [plan.core_spec(i) for i in (1, 2, 3)]
        assert sorted(calls, key=specs.index) == specs  # each once, no map on a kept mode
        for spec, a_map in maps:
            assert np.array_equal(a_map, materialize(spec))
            assert not a_map.flags.writeable
        if kind == "kronecker":
            # The engines read the plan's arrays, None on the mode each sketch keeps.
            for s in range(3):
                for i in range(3):
                    assert a._kron.maps[s][i] is b._kron.maps[s][i] is (None if i == s else plan.loo_maps[i])
        else:
            assert all(a._kron.maps[s].maps is b._kron.maps[s].maps is plan.loo_maps for s in range(3))
        assert a._kron.maps[-1][1] is b._kron.maps[-1][1] is plan.core_maps[1]
        assert rel_gap(sketch(x, plan), a.merge(b).finalize()) <= 1e-12

    @pytest.mark.parametrize("kind", ["kronecker", "khatri_rao", "unstructured"])
    def test_accumulators_of_one_plan_share_its_mode_one_stack(self, kind) -> None:
        """One read-only matrix per plan: A_1, which B_2 and B_3 (their widest
        other mode is mode 1) both read, then the core; the core map alone is
        not copied."""
        family = "gaussian" if kind == "unstructured" else "mix"
        plan = make_plan((6, 5, 6), kind, 4, 3, loo_family=family, seed=91)
        a, b = SketchAccumulator(plan), SketchAccumulator(plan)
        stack, rows = plan.mode1_stack
        assert a._kron._stack is b._kron._stack is stack
        if kind == "unstructured":
            assert stack is plan.core_maps[0] and rows == [None, None, None, slice(0, 3)]
            return
        assert not stack.flags.writeable and stack.shape == (4 + 3, 6)
        assert rows == [None, slice(0, 4), slice(0, 4), slice(4, 7)]
        assert plan.loo_maps[0].base is stack
        assert np.array_equal(stack[rows[1]], plan.loo_maps[0])
        assert np.array_equal(stack[rows[3]], plan.core_maps[0])

    @pytest.mark.parametrize("kind", ["kronecker", "khatri_rao"])
    @pytest.mark.parametrize("shape", [(7, 5), (6, 5, 4), (5, 4, 3, 4), (4, 3, 3, 2, 3)],
                             ids=lambda s: f"d{len(s)}")
    def test_one_map_per_compressed_mode(self, kind, shape, monkeypatch) -> None:
        """At d = 2..5 a plan builds A_i once per mode and every sketch j != i
        applies it; every sketch that starts on mode 1 reads the same rows of
        the stack, which holds m + m_c rows. Two merged shards of one-slice
        slabs match the explicit composite and the batch sketch."""
        x = random_tensor(shape, seed=93 + len(shape))
        plan = make_plan(shape, kind, 3, 2, loo_family="mix", seed=94)
        d = plan.d
        calls = []
        module = importlib.import_module("tsketch.sketch")
        monkeypatch.setattr(module, "materialize", lambda spec: calls.append(spec) or materialize(spec))
        shards = [SketchAccumulator(plan), SketchAccumulator(plan)]
        n = shape[-1]
        for lo in range(n):
            shards[2 * lo >= n].update(SlabChunk(lo, 1, x[..., lo : lo + 1]))
        got = shards[0].merge(shards[1]).finalize()

        loo_specs = [plan.loo_spec(i) for i in range(1, d + 1)]
        core_specs = [plan.core_spec(i) for i in range(1, d + 1)]
        assert sorted(calls, key=(loo_specs + core_specs).index) == loo_specs + core_specs
        for acc in shards:  # every sketch j != i applies the plan's one A_i
            for j, meas in enumerate(acc._kron.maps[:d], start=1):
                held = meas if kind == "kronecker" else meas.maps
                assert all(held[i - 1] is plan.loo_maps[i - 1] for i in range(1, d + 1) if i != j)

        stack, rows = plan.mode1_stack
        starts = [j for j in range(2, d + 1) if rows[j - 1] is not None]
        assert starts and all(rows[j - 1] == slice(0, plan.m) for j in starts)
        assert stack.shape == (plan.m + plan.m_c, shape[0])
        assert np.array_equal(stack[: plan.m], materialize(loo_specs[0]))
        if kind == "kronecker":
            assert starts == list(range(2, d + 1))
            for acc in shards:
                for j in starts:
                    assert acc._kron.maps[j - 1][0].base is stack
                    assert acc._kron._rows[j - 1] == slice(0, plan.m)

        for j in range(1, d + 1):
            expect = unfold(x, j) @ loo_composite(plan, j).T
            assert np.allclose(got.loo[j - 1], expect, rtol=1e-12, atol=1e-12)
        assert rel_gap(sketch(x, plan), got) <= 1e-12

    @pytest.mark.parametrize("kind,shape", [
        ("kronecker", (5, 7)), ("khatri_rao", (5, 7)), ("unstructured", (5, 7)),
    ], ids=lambda v: v if isinstance(v, str) else f"d{len(v)}")
    def test_low_order_plans_hold_d_maps(self, kind, shape) -> None:
        """``loo_maps[i - 1]`` is ``loo_spec(i)`` materialized. The stack is
        [A_1; Phi_1] when a B_j starts on mode 1, and the core's map itself
        when none does. The batch sketch and two merged shards match the
        composite."""
        x = random_tensor(shape, seed=95 + len(shape))
        plan = make_plan(shape, kind, 3, 2, seed=96)
        d = plan.d
        assert len(plan.loo_maps) == d
        for i, a in enumerate(plan.loo_maps, start=1):
            assert np.array_equal(a, materialize(plan.loo_spec(i)))
            assert not a.flags.writeable
        stack, rows = plan.mode1_stack
        if kind == "unstructured":
            assert stack is plan.core_maps[0] and rows == [None, None, slice(0, 2)]
        else:
            assert rows == [None, slice(0, 3), slice(3, 5)]
            assert plan.loo_maps[0].base is stack and not stack.flags.writeable
            assert np.array_equal(stack, np.vstack([plan.loo_maps[0], plan.core_maps[0]]))
        n = shape[-1]
        shards = [SketchAccumulator(plan), SketchAccumulator(plan)]
        for lo in range(n):
            shards[2 * lo >= n].update(SlabChunk(lo, 1, x[..., lo : lo + 1]))
        phis = [(phi, i) for i, phi in enumerate(plan.core_maps, start=1)]
        for got in (sketch(x, plan), shards[0].merge(shards[1]).finalize()):
            for j in range(1, d + 1):
                expect = unfold(x, j) @ loo_composite(plan, j).T
                assert np.allclose(got.loo[j - 1], expect, rtol=1e-12, atol=1e-12)
            assert np.allclose(got.core, multi_mode_product(x, phis), rtol=1e-12, atol=1e-12)

    def test_the_two_pass_core_stacks_nothing(self) -> None:
        """A single measurement's mode-1 map is its own stack: the engine of
        the two-pass core reads Q_1^T where it lies."""
        x = random_tensor((6, 5, 9), seed=92)
        qs = [np.linalg.qr(random_tensor((n, 2), seed=n))[0] for n in x.shape]
        eng = _KronSums(x.shape, [[q.T for q in qs]])
        assert eng._stack.base is qs[0]
        eng.update(SlabChunk(0, 9, x))
        (got,) = eng.finish()
        assert np.allclose(got, compute_core_twopass(x, qs), rtol=1e-13, atol=1e-13)

    def test_memory_cap_refuses_before_any_map_is_built(self, monkeypatch) -> None:
        plan = make_plan((30, 30, 30), "unstructured", 20, 2, seed=0)
        calls = []
        module = importlib.import_module("tsketch.sketch")
        monkeypatch.setattr(module, "materialize", lambda spec: calls.append(spec) or materialize(spec))
        monkeypatch.setenv("TSKETCH_MEM_CAP_MB", "0.001")
        with pytest.raises(ConfigError, match="over the 0 MiB cap"):
            SketchAccumulator(plan)
        with pytest.raises(ConfigError, match="over the 0 MiB cap"):
            plan.loo_maps
        assert calls == []
        monkeypatch.setenv("TSKETCH_MEM_CAP_MB", "64")
        SketchAccumulator(plan)
        assert len(calls) == 2 * plan.d  # the three composites and the three core maps


class TestPlanValidation:
    def test_unknown_kind(self) -> None:
        with pytest.raises(ConfigError):
            make_plan((4, 4, 4), "sparse", 2, 2)

    def test_identity_loo_needs_square(self) -> None:
        # kronecker + identity with m != n is unsatisfiable
        with pytest.raises(ConfigError):
            make_plan((4, 4, 4), "kronecker", 3, 2, loo_family="identity")

    def test_mix_family_varies_by_mode(self) -> None:
        plan = make_plan((8, 8, 8, 8), "kronecker", 2, 2, loo_family="mix")
        fams = plan.loo_families
        assert len(fams) == 4
        assert len(set(fams[:3])) == 3
        assert fams[3] == fams[0]

    def test_unstructured_memory_cap(self, monkeypatch) -> None:
        monkeypatch.setenv("TSKETCH_MEM_CAP_MB", "0.001")
        plan = make_plan((30, 30, 30), "unstructured", 20, 2, seed=0)
        with pytest.raises(ConfigError):
            SketchAccumulator(plan)
        monkeypatch.setenv("TSKETCH_MEM_CAP_MB", "64")
        SketchAccumulator(plan)  # fits comfortably now

    @pytest.mark.parametrize("cap", ["nan", "0", "-1"])
    def test_memory_cap_must_be_positive(self, monkeypatch, cap) -> None:
        """A nan cap would let every need pass, since no comparison with nan holds."""
        monkeypatch.setenv("TSKETCH_MEM_CAP_MB", cap)
        with pytest.raises(ConfigError, match="TSKETCH_MEM_CAP_MB"):
            SketchAccumulator(make_plan((4, 4, 4), "unstructured", 2, 2, seed=0))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_must_fit_a_u64(self, seed) -> None:
        with pytest.raises(ConfigError, match="seed"):
            make_plan((4, 4, 4), "kronecker", 2, 2, seed=seed)
        assert make_plan((4, 4, 4), "kronecker", 2, 2, seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize("key,value", [("m", 2.7), ("m_c", 3.9), ("seed", 5.0), ("m", "6")])
    def test_sizes_and_seed_must_be_integers(self, key, value) -> None:
        """Refused, not truncated: a float m of 2.7 once built a plan with m = 2."""
        args = {"m": 2, "m_c": 3, "seed": 0, key: value}
        with pytest.raises(ConfigError, match=f"^{key} must be an integer"):
            make_plan((6, 6, 6), "kronecker", args["m"], args["m_c"], seed=args["seed"])
        with pytest.raises(ConfigError, match=f"^{key} must be an integer"):
            SketchPlan((6, 6, 6), "kronecker", args["m"], args["m_c"], ("gaussian",) * 3,
                       ("gaussian",) * 3, seed=args["seed"])

    @pytest.mark.parametrize("shape", [(6, 6.5, 6), (6, 6.0, 6), (6, "6", 6), 6])
    def test_shape_entries_must_be_integers(self, shape) -> None:
        with pytest.raises(ShapeError, match="not a tuple of integers"):
            SketchPlan(shape, "kronecker", 2, 3, ("gaussian",) * 3, ("gaussian",) * 3)

    def test_numpy_integers_build_the_same_plan(self) -> None:
        i64 = np.int64
        got = make_plan((i64(6), i64(5), i64(4)), "kronecker", i64(2), i64(3), seed=np.uint64(7))
        assert got == make_plan((6, 5, 4), "kronecker", 2, 3, seed=7)
        assert all(type(v) is int for v in (*got.shape, got.m, got.m_c, got.seed))

    def test_shape_must_be_a_sequence(self) -> None:
        with pytest.raises(ShapeError, match="not a tuple of integers"):
            make_plan(6, "kronecker", 2, 3)

    @pytest.mark.parametrize("key", ["loo_family", "core_family"])
    @pytest.mark.parametrize("family", [5, [["gaussian"]] * 3, [1, 2, 3]])
    def test_family_must_be_names(self, key, family) -> None:
        with pytest.raises(ConfigError, match="a family is a name or a sequence of names"):
            make_plan((4, 4, 4), "kronecker", 2, 3, **{key: family})

    G3 = ("gaussian",) * 3

    @pytest.mark.parametrize("make,category,message", [
        (lambda g: SketchPlan((4, 0, 4), "kronecker", 2, 2, g, g), "shape", "bad tensor shape (4, 0, 4)"),
        (lambda g: SketchPlan((4, 4, 4), "kronecker", 0, 2, g, g), "config",
         "sketch dimensions m and m_c must be >= 1"),
        (lambda g: SketchPlan((4, 4, 4), "kronecker", 2, 0, g, g), "config",
         "sketch dimensions m and m_c must be >= 1"),
        (lambda g: SketchPlan((4, 4, 4), "kronecker", 2, 2, g[:2], g), "config",
         "need one leave-one-out family and one core family per mode"),
        (lambda g: SketchPlan((4, 4, 4), "unstructured", 2, 2, ("gaussian", "srtt", "gaussian"), g),
         "config", "unstructured sketches use a single family for the composite map"),
        (lambda g: SketchPlan((4, 4, 4), "kronecker", 2, 2, g, ("gaussian", "bogus", "gaussian")),
         "config", "unknown ensemble family 'bogus'"),
        (lambda g: SketchAccumulator("plan"), "config", "accumulator needs a SketchPlan"),
        (lambda g: SketchAccumulator(make_plan((4, 4, 4), "kronecker", 2, 2)).merge("peer"), "config",
         "can only merge SketchAccumulators"),
    ], ids=["zero-length-mode", "m-below-1", "m_c-below-1", "family-count", "unstructured-families",
            "unknown-family", "accumulator-of-no-plan", "merge-with-no-accumulator"])
    def test_typed_errors(self, make, category, message) -> None:
        with pytest.raises(TsketchError) as e:
            make(self.G3)
        assert (e.value.category, str(e.value)) == (category, message)

    @pytest.mark.parametrize("kind", LOO_KINDS)
    def test_every_kind_needs_two_modes(self, kind) -> None:
        """A one-mode plan has nothing to compress: its B_1 would store the vector."""
        with pytest.raises(ConfigError, match=r"^sketches need at least two modes to compress, got shape \(40,\)$"):
            make_plan((40,), kind, 5, 6)

    def test_shape_mismatch_at_sketch_time(self) -> None:
        plan = make_plan((4, 4, 4), "kronecker", 2, 2)
        with pytest.raises(ShapeError):
            sketch(random_tensor((4, 4, 5), 60), plan)


class TestSlabRule:
    """Every consumer of a slab stream refuses the same slabs the same way.

    The data, the maps and the factors are small integers (identity maps), so
    every sum is exact and a valid tiling in any order must give the dense
    result bit for bit: a slab dropped or counted twice would show.
    """

    N = 5

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(70)
        n = self.N
        x = rng.integers(-3, 4, (n, n, n)).astype(np.float64)
        x0 = rng.integers(-3, 4, (n, n, n)).astype(np.float64)
        t = TuckerFactorization(
            core=rng.integers(-2, 3, (2, 2, 2)).astype(np.float64),
            factors=[rng.integers(-1, 2, (n, 2)).astype(np.float64) for _ in range(3)],
        )
        plan = make_plan(x.shape, "kronecker", n, n, loo_family="identity", seed=71)
        return x, x0, t, plan

    @staticmethod
    def consume(consumer, data, chunks):
        """Run one consumer over `chunks`; the result as a list of arrays."""
        x, x0, t, plan = data
        if consumer == "update":
            acc = SketchAccumulator(plan)
            for c in chunks:
                acc.update(c)
            b = acc.finalize()
            return [*b.loo, b.core]
        if consumer == "compute_core_twopass":
            return [compute_core_twopass(iter(chunks), t.factors)]
        if consumer == "score":
            return [np.array(list(score(t, chunks).values()))]
        # The chunk's payload is read as the clean slab over its range, next
        # to a valid observed slab over the same range: range faults fail on
        # the observed slab, payload faults on the clean one.
        observed = (SlabChunk(c.start, c.count, x0[..., max(c.start, 0) : c.start + c.count]) for c in chunks)
        clean = {(c.start, c.start + c.count): c.payload for c in chunks}
        return [np.array(list(score(t, observed, lambda lo, hi: clean[lo, hi]).values()))]

    @staticmethod
    def stream(x, ranges, bad=None):
        chunks = [SlabChunk(lo, hi - lo, np.array(x[..., max(lo, 0) : hi])) for lo, hi in ranges]
        if bad is not None:
            chunks[-1].payload[1, 2, 0] = bad
        return chunks

    CONSUMERS = ["update", "compute_core_twopass", "score", "score_clean"]

    @pytest.mark.parametrize("consumer", CONSUMERS)
    @pytest.mark.parametrize(
        "ranges,error,match",
        [
            ([(0, 3), (2, 5)], ConfigError, r"\[2, 5\) overlaps \[0, 3\)"),
            ([(3, 7)], ShapeError, r"\[3, 7\) outside mode of length 5"),
            ([(-1, 2)], ShapeError, r"\[-1, 2\) outside mode of length 5"),
        ],
        ids=["overlap", "past-the-mode", "negative-start"],
    )
    def test_bad_range(self, data, consumer, ranges, error, match) -> None:
        chunks = self.stream(data[0], ranges)
        with pytest.raises(error, match=match):
            self.consume(consumer, data, chunks)

    @pytest.mark.parametrize("consumer", ["update", "compute_core_twopass", "score"])
    @pytest.mark.parametrize("start,count", [(0.0, 5.0), (0, 5.0), (0.0, 5)])
    def test_range_that_is_not_integral(self, data, consumer, start, count) -> None:
        with pytest.raises(ShapeError, match="not a pair of integers"):
            self.consume(consumer, data, [SlabChunk(start, count, data[0])])

    @pytest.mark.parametrize("consumer", CONSUMERS)
    def test_numpy_integer_range_equals_the_dense_result(self, data, consumer) -> None:
        x = data[0]
        dense = self.consume(consumer, data, [SlabChunk(0, self.N, x)])
        got = self.consume(consumer, data, [SlabChunk(np.int64(0), np.int32(self.N), x)])
        assert all(np.array_equal(a, b) for a, b in zip(got, dense))

    def test_accumulator_takes_the_slab_after_refusing_a_float_range(self, data) -> None:
        """The refused slab is not recorded as covered, so the same range
        given as integers is neither an overlap nor a second copy."""
        x, _, _, plan = data
        acc = SketchAccumulator(plan)
        with pytest.raises(ShapeError):
            acc.update(SlabChunk(0.0, float(self.N), x))
        assert not acc.coverage_complete()
        acc.update(SlabChunk(0, self.N, x))
        bundle = acc.finalize()
        dense = self.consume("update", data, [SlabChunk(0, self.N, x)])
        assert all(np.array_equal(a, b) for a, b in zip([*bundle.loo, bundle.core], dense))

    @pytest.mark.parametrize("consumer", CONSUMERS)
    def test_payload_that_does_not_fit(self, data, consumer) -> None:
        x = data[0]
        with pytest.raises(ShapeError, match=r"\[0, 5\) of shape \(4, 5, 5\) does not fit"):
            self.consume(consumer, data, [SlabChunk(0, 5, x[:4])])

    @pytest.mark.parametrize("consumer", CONSUMERS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_slab(self, data, consumer, bad) -> None:
        x = data[0]
        chunks = self.stream(x, [(0, 2), (2, 5)], bad)
        with pytest.raises(ConfigError, match=r"slab \[2, 5\) has non-finite entries"):
            self.consume(consumer, data, chunks)

    @pytest.mark.parametrize("consumer", CONSUMERS)
    @pytest.mark.parametrize("kind", ["complex", "string", "object"])
    def test_slab_that_is_not_real(self, data, consumer, kind) -> None:
        """Refused, not converted: a complex slab once lost its imaginary
        part with a warning, and numeric text or objects were read as floats."""
        chunks = self.stream(data[0], [(0, 2), (2, 5)])
        payload = chunks[-1].payload
        chunks[-1] = SlabChunk(2, 3, {"complex": payload + 1j, "string": payload.astype(str),
                                      "object": payload.astype(object)}[kind])
        with pytest.raises(ConfigError, match=r"slab \[2, 5\) has entries of type .*, not real numbers"):
            self.consume(consumer, data, chunks)

    @pytest.mark.parametrize("consumer", ["sketch", "two_pass", "compute_core_twopass", "score"])
    @pytest.mark.parametrize("kind", ["complex", "string"])
    def test_dense_tensor_that_is_not_real(self, data, consumer, kind) -> None:
        """A dense tensor is the one-slab stream and takes the slab rule too:
        a complex one once lost its imaginary part with a warning, and an
        array of numeral strings was parsed as numbers."""
        x, _, t, plan = data
        bad = x + 1j if kind == "complex" else x.astype(str)
        run = {
            "sketch": lambda: sketch(bad, plan),
            "two_pass": lambda: two_pass(sketch(x, plan), bad, 2),
            "compute_core_twopass": lambda: compute_core_twopass(bad, t.factors),
            "score": lambda: score(t, bad),
        }[consumer]
        with pytest.raises(ConfigError, match=r"^slab \[0, 5\) has entries of type .*, not real numbers"):
            run()

    @pytest.mark.parametrize("consumer", CONSUMERS)
    @pytest.mark.parametrize(
        "ranges",
        [[(2, 2), (0, 5), (5, 5)], [(4, 5), (0, 1), (1, 4)]],
        ids=["empty-slabs", "uneven-out-of-order"],
    )
    def test_valid_tiling_equals_the_dense_result(self, data, consumer, ranges) -> None:
        x = data[0]
        dense = self.consume(consumer, data, [SlabChunk(0, self.N, x)])
        got = self.consume(consumer, data, self.stream(x, ranges))
        assert all(np.array_equal(a, b) for a, b in zip(got, dense))

    @pytest.mark.parametrize("consumer", ["compute_core_twopass", "score", "score_clean"])
    def test_slabs_must_cover_the_mode(self, data, consumer) -> None:
        x = data[0]
        with pytest.raises(ShapeError, match="slabs cover 3 of the 5 indices"):
            self.consume(consumer, data, self.stream(x, [(3, 5), (0, 1)]))
