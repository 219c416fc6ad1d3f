"""Tensor algebra kernels: unfoldings, mode products, structured matrix products.

The layout convention (first mode fastest, remaining modes ascending) is what
every other module leans on, so these tests pin it down with hand-computed
values and index-arithmetic oracles before anything statistical runs.
"""

from functools import reduce

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from tsketch.errors import ConfigError, ShapeError, TsketchError
from tsketch.sketch import _KronSums
from tsketch.tensor import (
    face_split,
    fold,
    inner,
    mode_product,
    multi_mode_product,
    norm,
    unfold,
    vec,
)


def seq_tensor(shape):
    """Entries 0, 1, 2, ... laid out in canonical (first-mode-fastest) order."""
    n = int(np.prod(shape))
    return np.arange(n, dtype=np.float64).reshape(shape, order="F")


shapes = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4)


class TestUnfold:
    def test_2x2x2_mode1(self) -> None:
        x = seq_tensor((2, 2, 2))
        assert unfold(x, 1).tolist() == [[0, 2, 4, 6], [1, 3, 5, 7]]

    def test_matches_index_arithmetic(self) -> None:
        """Column p of unfold(X, j) enumerates the remaining modes with the
        first remaining mode varying fastest."""
        shape = (4, 3, 2)
        x = seq_tensor(shape)
        for j in (1, 2, 3):
            u = unfold(x, j)
            rest = [k for k in range(3) if k != j - 1]
            assert u.shape == (shape[j - 1], int(np.prod([shape[k] for k in rest])))
            for idx in np.ndindex(*shape):
                col = 0
                stride = 1
                for k in rest:
                    col += idx[k] * stride
                    stride *= shape[k]
                assert u[idx[j - 1], col] == x[idx]

    def test_vec_is_mode1_column_stack(self) -> None:
        x = seq_tensor((3, 4, 2))
        assert np.array_equal(vec(x), unfold(x, 1).ravel(order="F"))
        assert vec(x).tolist() == list(range(24))

    def test_bad_mode_rejected(self) -> None:
        x = seq_tensor((2, 2))
        for j in (0, 3, -1):
            with pytest.raises(ConfigError):
                unfold(x, j)

    @given(shapes, st.data())
    @settings(max_examples=50, deadline=None)
    def test_fold_round_trip_bitwise(self, shape, data) -> None:
        j = data.draw(st.integers(min_value=1, max_value=len(shape)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.standard_normal(shape)
        assert np.array_equal(fold(unfold(x, j), shape, j), x)

    def test_fold_shape_mismatch(self) -> None:
        x = seq_tensor((2, 3, 4))
        with pytest.raises(ShapeError):
            fold(unfold(x, 2), (2, 3, 5), 2)


class TestModeProduct:
    def test_summing_rows_example(self) -> None:
        x = seq_tensor((2, 2, 2))
        a = np.array([[1.0, 1.0]])
        assert vec(mode_product(x, a, 1)).tolist() == [1.0, 5.0, 9.0, 13.0]

    def test_matches_einsum(self) -> None:
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 3, 5))
        mats = [rng.standard_normal((2, n)) for n in x.shape]
        paths = ["ia,ajk->ijk", "ja,iak->ijk", "ka,ija->ijk"]
        for j, (a, path) in enumerate(zip(mats, paths), start=1):
            assert np.allclose(mode_product(x, a, j), np.einsum(path, a, x), atol=1e-13)

    @given(shapes, st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_einsum_for_every_layout(self, shape, data) -> None:
        """C-contiguous, F-contiguous and strided-view operands, every mode,
        d = 1..4: values within 1e-13 of einsum and the expected shape."""
        j = data.draw(st.integers(min_value=1, max_value=len(shape)))
        layout = data.draw(st.sampled_from(["C", "F", "strided"]))
        rows = data.draw(st.integers(min_value=1, max_value=4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if layout == "strided":
            big = rng.standard_normal(tuple(2 * n for n in shape))
            x = big[tuple(slice(None, None, 2) for _ in shape)]
        else:
            x = np.asarray(rng.standard_normal(shape), order=layout)
        a = rng.standard_normal((rows, shape[j - 1]))
        idx = list(range(len(shape)))
        out_idx = idx[: j - 1] + [len(shape)] + idx[j:]
        expect = np.einsum(a, [len(shape), j - 1], x, idx, out_idx)
        got = mode_product(x, a, j)
        assert got.shape == tuple(shape[: j - 1]) + (rows,) + tuple(shape[j:])
        assert np.allclose(got, expect, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("a,message", [
        (np.ones(4), "mode_product needs a 2-d matrix"),
        (np.ones((2, 5)), "matrix has 5 columns but mode 1 has length 4"),
    ], ids=["map-not-2-d", "map-columns-off-the-mode"])
    def test_typed_errors(self, a, message) -> None:
        with pytest.raises(TsketchError) as e:
            mode_product(np.ones((4, 5, 6)), a, 1)
        assert (e.value.category, str(e.value)) == ("shape", message)

    def test_multi_mode_equals_sequential(self) -> None:
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 4, 5))
        a1 = rng.standard_normal((2, 3))
        a3 = rng.standard_normal((6, 5))
        expect = mode_product(mode_product(x, a1, 1), a3, 3)
        assert np.allclose(multi_mode_product(x, [(a1, 1), (a3, 3)]), expect, atol=1e-13)

    @pytest.mark.parametrize("skip", [None, 2, 3])
    def test_slab_products_sum_to_the_whole(self, skip) -> None:
        """Summed over slabs that tile the last mode, with the last map cut to
        each slab's columns, the slab products equal the whole product; a
        None map leaves its mode, the last one included, untouched."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4, 7))
        mats = [None if i == skip else rng.standard_normal((2, n)) for i, n in enumerate(x.shape, 1)]
        expect = multi_mode_product(x, [(a, i) for i, a in enumerate(mats, 1) if a is not None])
        sums = _KronSums(x.shape, [mats])
        for lo, hi in [(4, 7), (0, 1), (1, 4)]:
            sums.add(x[..., lo:hi], lo, hi)
        (got,) = sums.finish()
        assert np.allclose(got, expect, rtol=1e-13, atol=1e-13)

    def test_multi_mode_rejects_repeated_mode(self) -> None:
        x = seq_tensor((2, 2))
        a = np.eye(2)
        with pytest.raises(ConfigError):
            multi_mode_product(x, [(a, 1), (a, 1)])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_vec_of_full_modewise_product_is_kron_times_vec(self, seed) -> None:
        """Applying one matrix per mode then vectorizing equals multiplying
        vec(X) by the Kronecker product of the matrices in descending mode
        order."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 3, 2))
        mats = [rng.standard_normal((2, n)) for n in x.shape]
        y = multi_mode_product(x, [(a, j) for j, a in enumerate(mats, start=1)])
        big = reduce(np.kron, [mats[2], mats[1], mats[0]])
        assert np.allclose(vec(y), big @ vec(x), atol=1e-12)


class TestStructuredProducts:
    def test_face_split_rows(self) -> None:
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((4, 2))
        fs = face_split(a, b)
        assert fs.shape == (4, 6)
        for i in range(4):
            assert np.allclose(fs[i], np.kron(a[i], b[i]), atol=1e-14)

    def test_face_split_is_transposed_khatri_rao(self) -> None:
        rng = np.random.default_rng(8)
        a = rng.standard_normal((5, 3))
        b = rng.standard_normal((5, 2))
        assert np.array_equal(face_split(a, b), scipy.linalg.khatri_rao(a.T, b.T).T)

    def test_face_split_row_mismatch(self) -> None:
        with pytest.raises(ShapeError):
            face_split(np.ones((3, 2)), np.ones((4, 2)))


class TestNormsAndInner:
    @given(shapes, st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_norm_equals_any_unfolding_frobenius(self, shape, seed) -> None:
        x = np.random.default_rng(seed).standard_normal(shape)
        f = norm(x)
        for j in range(1, len(shape) + 1):
            assert np.isclose(f, np.linalg.norm(unfold(x, j)), rtol=1e-12)

    def test_inner_matches_vec_dot(self) -> None:
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 4, 2))
        y = rng.standard_normal((3, 4, 2))
        assert inner(x, y) == pytest.approx(vec(x) @ vec(y), rel=1e-13)

    def test_inner_shape_mismatch(self) -> None:
        with pytest.raises(ShapeError):
            inner(np.ones((2, 3)), np.ones((3, 2)))
