"""Metrics, noise injection, synthetic generators, and the error bound."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from tsketch.errors import ConfigError, ShapeError, TsketchError
from tsketch.evaluate import (
    add_noise_snr,
    bound_rhs,
    gen_lowrank,
    gen_superdiag_exp,
    gen_superdiag_poly,
    hosvd_truncate,
    max_principal_angle,
    relative_error,
    score,
    snr_db,
    tail_baseline,
    tail_energy,
)
from tsketch.recover import TuckerFactorization, reconstruct
from tsketch.sketch import SlabChunk, slab_chunks
from tsketch.tensor import inner, norm


class TestRelativeError:
    def test_zero_for_identical(self) -> None:
        x = np.ones((3, 3))
        assert relative_error(x, x) == 0.0

    def test_scales_with_reference(self) -> None:
        x = np.zeros((4,))
        y = np.full((4,), 2.0)
        assert relative_error(y, x, x0=np.full((4,), 4.0)) == pytest.approx(0.5)

    def test_rejects_zero_reference(self) -> None:
        with pytest.raises(ConfigError):
            relative_error(np.ones((2, 2)), np.zeros((2, 2)))

    def test_memory_layout_does_not_change_the_values(self) -> None:
        """norm, inner and relative_error read C-ordered, F-ordered and strided
        operands, in any pairing, by index."""
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 4, 3))
        y = rng.standard_normal((5, 4, 3))

        def layouts(t):
            big = np.zeros((10, 4, 6))
            big[::2, :, ::2] = t
            return [np.ascontiguousarray(t), np.asfortranarray(t), big[::2, :, ::2]]

        ref_norm = math.sqrt(sum(v * v for v in x.flat))
        ref_inner = sum(u * v for u, v in zip(x.flat, y.flat))
        ref_err = math.sqrt(sum((u - v) ** 2 for u, v in zip(y.flat, x.flat))) / ref_norm
        for xs in layouts(x):
            assert norm(xs) == pytest.approx(ref_norm, rel=1e-13)
            for ys in layouts(y):
                assert inner(xs, ys) == pytest.approx(ref_inner, rel=1e-12, abs=1e-12)
                assert relative_error(ys, xs) == pytest.approx(ref_err, rel=1e-12)


class TestSnr:
    def test_round_trip(self) -> None:
        x0 = np.random.default_rng(0).standard_normal((12, 11, 10))
        for target in (5.0, 10.0, 30.0, 60.0):
            x = add_noise_snr(x0, target, seed=1)
            assert snr_db(x, x0) == pytest.approx(target, abs=1e-9)

    def test_noiseless_is_infinite(self) -> None:
        x0 = np.ones((3, 3))
        assert math.isinf(snr_db(x0, x0))

    def test_matches_log_ratio_of_norms(self) -> None:
        """The ratio is observed-over-noise in amplitude: at 30 dB the noise
        amplitude is one thousandth of the observed tensor's."""
        rng = np.random.default_rng(2)
        x0 = rng.standard_normal((10, 10, 10))
        x = add_noise_snr(x0, 30.0, seed=3)
        ratio = np.linalg.norm(x) / np.linalg.norm(x - x0)
        assert snr_db(x, x0) == pytest.approx(10 * math.log10(ratio), abs=1e-12)
        assert ratio == pytest.approx(1000.0, rel=1e-9)

    def test_non_positive_targets_unreachable(self) -> None:
        """The amplitude ratio observed/noise cannot sit at or below one for
        generic noise, so the quadratic for the scale has no positive root."""
        x0 = np.random.default_rng(4).standard_normal((6, 6))
        for target in (0.0, -10.0):
            with pytest.raises(ConfigError):
                add_noise_snr(x0, target, seed=0)

    @pytest.mark.parametrize("target", [2000.0, 5000.0])
    def test_targets_past_floating_point_unreachable(self, target) -> None:
        """Past about 1540 dB the squared ratio overflows (at 2000 dB the scale
        would be NaN, at 5000 dB the ratio itself overflows)."""
        x0 = np.random.default_rng(4).standard_normal((6, 6))
        with pytest.raises(ConfigError, match="finite"):
            add_noise_snr(x0, target, seed=0)

    def test_targets_past_float64_resolution_are_refused(self) -> None:
        """From about 160 dB up the noise is a few ulps of the entries, so
        rounding sets the measured SNR (171.8 dB for 170, 215.7 for 200) and
        from about 300 dB the sum is the clean tensor. A target is met to
        0.1 dB or refused."""
        x0, _ = gen_lowrank(10, 3, 3, seed=1)
        for target in (150.0, 160.0):
            assert snr_db(add_noise_snr(x0, target, seed=2), x0) == pytest.approx(target, abs=0.1)
        for target in (170.0, 200.0, 300.0, 1000.0):
            with pytest.raises(ConfigError, match="resolution"):
                add_noise_snr(x0, target, seed=2)

    def test_noise_is_deterministic_in_seed(self) -> None:
        x0 = np.random.default_rng(3).standard_normal((6, 6, 6))
        assert np.array_equal(add_noise_snr(x0, 20, seed=7), add_noise_snr(x0, 20, seed=7))
        assert not np.array_equal(add_noise_snr(x0, 20, seed=7), add_noise_snr(x0, 20, seed=8))

    def test_zero_signal_rejected(self) -> None:
        with pytest.raises(ConfigError):
            add_noise_snr(np.zeros((4, 4)), 30.0, seed=0)

    def test_noisy_tensor_is_built_in_the_draws_memory(self) -> None:
        """x0 + s N is formed in the memory of the draw N, so the draw and the
        difference snr_db takes are the only tensors made: two, where x0 + s N
        written out made three."""
        x0 = np.random.default_rng(5).standard_normal((64, 64, 64))
        tracemalloc.start()
        try:
            add_noise_snr(x0, 30.0, seed=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * x0.nbytes, (peak, x0.nbytes)

    def test_noisy_tensor_is_the_one_tensor_made(self) -> None:
        """The closing check's snr_db sums ||x0 - x|| over bounded slices, so
        the draw, which becomes the noisy tensor, is the one tensor made:
        forming x0 - x whole made two."""
        x0 = np.random.default_rng(5).standard_normal((64, 64, 64))
        tracemalloc.start()
        try:
            add_noise_snr(x0, 30.0, seed=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * x0.nbytes, (peak, x0.nbytes)

    @pytest.mark.parametrize("measure", ["snr_db", "relative_error"])
    @pytest.mark.parametrize("layouts", ["CC", "FF", "CF", "strided"])
    def test_distances_form_no_tensor_sized_difference(self, measure, layouts) -> None:
        """||a - b|| is summed over slices of at most 1 MiB of the difference,
        and agrees with the norm of the whole difference to roundoff in any
        layout. (A strided tensor's own norm is read from a copy, so only the
        value is checked there.)"""
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal((2, 64, 64, 64))
        if layouts == "strided":
            a, b = rng.standard_normal((2, 64, 64, 128))[..., ::2]
        else:
            a = np.asfortranarray(a) if layouts[0] == "F" else a
            b = np.asfortranarray(b) if layouts[1] == "F" else b
        call = {"snr_db": lambda: snr_db(a, b), "relative_error": lambda: relative_error(a, b)}[measure]
        tracemalloc.start()
        try:
            got = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if layouts != "strided":
            assert peak < 0.75 * a.nbytes, (peak, a.nbytes)
        dist = np.linalg.norm((a - b).ravel())
        want = {"snr_db": 10 * np.log10(np.linalg.norm(a.ravel()) / dist),
                "relative_error": dist / np.linalg.norm(b.ravel())}[measure]
        assert got == pytest.approx(want, rel=1e-13)


class TestPrincipalAngle:
    def test_same_subspace_is_zero(self) -> None:
        q = np.linalg.qr(np.random.default_rng(4).standard_normal((8, 3)))[0]
        assert max_principal_angle(q, q) == pytest.approx(0.0, abs=1e-6)

    def test_orthogonal_subspaces_are_ninety(self) -> None:
        q = np.eye(6)[:, :2]
        u = np.eye(6)[:, 2:4]
        assert max_principal_angle(q, u) == pytest.approx(90.0)

    def test_known_forty_five_degrees(self) -> None:
        q = np.array([[1.0], [0.0]])
        u = np.array([[1.0], [1.0]]) / math.sqrt(2)
        assert max_principal_angle(q, u) == pytest.approx(45.0, abs=1e-9)

    def test_small_angle_keeps_its_accuracy(self) -> None:
        """cos(1e-9) rounds to 1.0, so arccos alone would read 0 here."""
        t = 1e-9
        q = np.array([[1.0], [0.0], [0.0]])
        u = np.array([[math.cos(t)], [math.sin(t)], [0.0]])
        assert max_principal_angle(q, u) == pytest.approx(math.degrees(t), rel=1e-9)

    def test_requires_orthonormal_columns(self) -> None:
        with pytest.raises(ConfigError):
            max_principal_angle(2 * np.eye(4)[:, :2], np.eye(4)[:, :2])


class TestTailEnergy:
    def test_exact_low_rank_has_vanishing_tail(self) -> None:
        x, _ = gen_lowrank(20, 3, 4, seed=5)
        for j in (1, 2, 3):
            assert tail_energy(x, 4, j) <= 1e-20

    def test_superdiag_exp_closed_form(self) -> None:
        """For the exponential super-diagonal the mode unfoldings are
        diagonal-like, so the tail energy is the sum of the squared entries
        past the plateau, including the unit entry at r+1."""
        n, r = 30, 10
        x = gen_superdiag_exp(n, 3, r)
        expect = 1.0 + sum(10.0 ** (-2 * k) for k in range(2, n - r + 1))
        for j in (1, 2, 3):
            assert tail_energy(x, r, j) == pytest.approx(expect, rel=1e-12)

    def test_matches_eckart_young_residual(self) -> None:
        """Per-mode tail energy equals the squared residual of the best
        rank-r approximation of that unfolding."""
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 7, 6))
        from tsketch.tensor import unfold

        for j, r in [(1, 3), (2, 2), (3, 4)]:
            u = unfold(x, j)
            s = np.linalg.svd(u, compute_uv=False)
            best = sum(s[r:] ** 2)
            assert tail_energy(x, r, j) == pytest.approx(best, rel=1e-10)


class TestBoundRhs:
    def test_frozen_value(self) -> None:
        assert bound_rhs(0.5, [1.0]) == pytest.approx((1 + math.e**0.5) * math.sqrt(3), rel=1e-12)

    def test_monotone_in_eps_and_deltas(self) -> None:
        assert bound_rhs(0.2, [1.0, 2.0]) < bound_rhs(0.6, [1.0, 2.0])
        assert bound_rhs(0.3, [1.0]) < bound_rhs(0.3, [1.0, 0.5])

    def test_small_eps_limit(self) -> None:
        """As eps -> 0 the prefactor tends to (1 + e^0) sqrt(1) = 2."""
        assert bound_rhs(1e-12, [4.0]) == pytest.approx(2.0 * 2.0, rel=1e-9)

    def test_domain(self) -> None:
        for eps in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                bound_rhs(eps, [1.0])
        with pytest.raises(ConfigError):
            bound_rhs(0.5, [])
        with pytest.raises(ConfigError):
            bound_rhs(0.5, [-1.0])


_X = np.random.default_rng(6).standard_normal((5, 4, 6))

# id: (the argument's name in the message, the call with the number `v` in its
# place, valid values equal to one float). Each once read its number by
# float(): "30" gave a 30 dB tensor, True a 1 dB one and eps True "eps must be
# in (0, 1), got 1.0".
REAL_CASES = {
    "add_noise_snr": ("snr target", lambda v: add_noise_snr(_X, v, seed=0),
                      (30.0, 30, np.int64(30), np.float64(30), np.float32(30))),
    "bound_rhs": ("eps", lambda v: bound_rhs(v, [1.0]), (0.5, np.float64(0.5), np.float32(0.5))),
}


@pytest.mark.parametrize("value", ["30", "0.5", "loud", None, True, False, np.True_, 30 + 0j,
                                   np.array([30.0]), math.nan, math.inf],
                         ids=["str", "str-eps", "text", "None", "True", "False", "np.True_", "complex",
                              "array", "nan", "inf"])
@pytest.mark.parametrize("case", sorted(REAL_CASES))
def test_real_numbers_outside_the_rule_are_refused(case, value) -> None:
    what, call, _ = REAL_CASES[case]
    with pytest.raises(ConfigError, match=f"^{what} must be a finite number, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("case", sorted(REAL_CASES))
def test_an_integer_past_float64_is_refused_by_its_size(case) -> None:
    """10^5000 has more digits than Python prints (4300), so the message gives its bits."""
    what, call, _ = REAL_CASES[case]
    with pytest.raises(ConfigError, match=f"^{what} must be a finite number, got an integer of 16610 bits$"):
        call(10**5000)


@pytest.mark.parametrize("case", sorted(REAL_CASES))
def test_numpy_numbers_give_what_the_float_gives(case) -> None:
    _, call, (value, *same) = REAL_CASES[case]
    for v in same:
        assert np.array_equal(call(v), call(value))


class TestGenerators:
    def test_lowrank_shape_rank_and_determinism(self) -> None:
        x, factors = gen_lowrank(12, 3, 4, seed=9)
        assert x.shape == (12, 12, 12)
        assert len(factors) == 3
        for q in factors:
            assert np.allclose(q.T @ q, np.eye(4), atol=1e-12)
        y, _ = gen_lowrank(12, 3, 4, seed=9)
        assert np.array_equal(x, y)
        z, _ = gen_lowrank(12, 3, 4, seed=10)
        assert not np.array_equal(x, z)

    def test_superdiag_values(self) -> None:
        r = 4
        xe = gen_superdiag_exp(20, 3, r)
        xp = gen_superdiag_poly(20, 3, r)
        # plateau of ones through r+1 (1-based)
        for i in range(r + 1):
            assert xe[i, i, i] == 1.0 and xp[i, i, i] == 1.0
        # first decayed entries: 1e-2 and 1/2 at position r+2
        assert xe[r + 1, r + 1, r + 1] == pytest.approx(1e-2)
        assert xp[r + 1, r + 1, r + 1] == pytest.approx(0.5)
        assert xp[r + 2, r + 2, r + 2] == pytest.approx(1.0 / 3.0)
        # off-diagonal entries vanish
        assert xe[0, 1, 0] == 0.0

    def test_superdiag_warns_when_tail_is_empty(self) -> None:
        with pytest.warns(UserWarning):
            gen_superdiag_exp(5, 3, 5)

    def test_tail_baseline(self) -> None:
        n, r = 20, 6
        x = gen_superdiag_exp(n, 3, r)
        tail_sq = 1.0 + sum(10.0 ** (-2 * k) for k in range(2, n - r + 1))
        assert tail_baseline(x, r) == pytest.approx(math.sqrt(tail_sq) / norm(x), rel=1e-12)
        assert tail_baseline(x, n) == tail_baseline(x, 10**5000) == 0.0  # no tail; numpy took no such rank


class TestHosvd:
    def test_exact_rank_is_reproduced(self) -> None:
        x, _ = gen_lowrank(10, 3, 3, seed=11)
        t = hosvd_truncate(x, 3)
        assert relative_error(reconstruct(t), x) < 1e-12

    def test_quasi_optimality(self) -> None:
        """Truncated HOSVD error is bounded by the root of the summed
        per-mode tails, and each tail is at most the best-rank-r error."""
        rng = np.random.default_rng(12)
        x = rng.standard_normal((9, 8, 7))
        r = 3
        t = hosvd_truncate(x, r)
        err_sq = norm(x - reconstruct(t)) ** 2
        deltas = [tail_energy(x, r, j) for j in (1, 2, 3)]
        assert err_sq <= sum(deltas) * (1 + 1e-10)
        for dj in deltas:
            assert dj <= err_sq * (1 + 1e-10)

    def test_rank_validation(self) -> None:
        x = np.random.default_rng(13).standard_normal((5, 5, 5))
        from tsketch.errors import RankError

        with pytest.raises(RankError):
            hosvd_truncate(x, 6)

    def test_one_mode_is_a_shape_error(self) -> None:
        """Its core is the two-pass core, which needs two modes."""
        with pytest.raises(ShapeError, match="needs at least two modes"):
            hosvd_truncate(np.arange(1.0, 41.0), 1)


class TestScore:
    """Error measures summed over last-mode slabs equal the dense metrics."""

    @pytest.fixture
    def problem(self):
        x0, _ = gen_lowrank(11, 3, 3, seed=14)
        x = add_noise_snr(x0, 20.0, seed=15)
        t = hosvd_truncate(x, 3)
        x_hat = reconstruct(t)
        dense = {
            "relative_error": relative_error(x_hat, x),
            "relative_error_clean": relative_error(x_hat, x0),
            "snr_db": snr_db(x, x0),
        }
        return x0, x, t, dense

    @staticmethod
    def close(got, dense):
        assert got.keys() == dense.keys()
        for key, value in dense.items():
            assert got[key] == pytest.approx(value, rel=1e-13, abs=0.0), key

    def test_one_slab(self, problem) -> None:
        x0, x, t, dense = problem
        self.close(score(t, x, lambda lo, hi: x0[..., lo:hi]), dense)
        self.close(score(t, x), {"relative_error": dense["relative_error"]})

    def test_uneven_out_of_order_slabs(self, problem) -> None:
        x0, x, t, dense = problem
        ranges = [(6, 11), (0, 1), (1, 6)]
        slabs = [SlabChunk(lo, hi - lo, x[..., lo:hi]) for lo, hi in ranges]
        self.close(score(t, slabs, lambda lo, hi: x0[..., lo:hi]), dense)

    def test_slabs_must_cover_the_mode(self, problem) -> None:
        x0, x, t, _ = problem
        with pytest.raises(ShapeError, match="cover 6 of the 11"):
            score(t, [SlabChunk(0, 6, x[..., :6])])
        with pytest.raises(ShapeError):
            score(t, [SlabChunk(0, 11, x[:4])])

    def test_squares_that_overflow_are_config(self, problem) -> None:
        """Finite entries whose squares overflow float64 are refused, with no
        numpy warning on the way."""
        _, x, t, _ = problem
        with pytest.raises(ConfigError, match="a squared norm overflows"):
            score(t, slab_chunks(x * 1e307, 3))

    def test_a_ratio_that_overflows_is_config(self, problem) -> None:
        """Finite squared norms can still give a relative error past float64."""
        _, x, t, _ = problem
        t = TuckerFactorization(t.core * 1e150, t.factors)
        with pytest.raises(ConfigError, match="relative error .* is not finite"):
            score(t, x * 1e-160)


def test_shape_mismatch_errors() -> None:
    with pytest.raises(ShapeError):
        relative_error(np.ones((2, 2)), np.ones((2, 3)))
    x = np.ones((5, 4, 6))
    with pytest.raises(ShapeError, match=r"shape mismatch: \(7, 7\) vs \(5, 4, 6\)"):
        relative_error(x, x, np.ones((7, 7)))  # once normalized by the 7 x 7 tensor's norm
    with pytest.raises(ShapeError):
        snr_db(np.ones((2, 2)), np.ones((2, 3)))


@pytest.mark.parametrize("call,category,message", [
    (lambda: max_principal_angle(np.eye(5)[:, :2], np.eye(5)[:, :3]), "shape",
     "subspace bases differ in shape: (5, 2) vs (5, 3)"),
    (lambda: tail_energy(np.ones((4, 5, 6)), 7, 1), "rank", "rank 7 exceeds min dimension 4 of the mode-1 unfolding"),
    (lambda: gen_lowrank(4, 3, 5, seed=0), "rank", "rank 5 exceeds mode length 4"),
    (lambda: gen_superdiag_exp(4, 3, 5), "rank", "rank 5 exceeds mode length 4"),
    (lambda: gen_superdiag_poly(4, 3, 5), "rank", "rank 5 exceeds mode length 4"),
    (lambda: gen_superdiag_exp(2**22, 3, 2), "shape",
     "bad tensor shape (4194304, 4194304, 4194304): its float64 entries take 2^63 bytes or more"),
    (lambda: gen_lowrank(2**63, 2, 1, seed=0), "shape",
     "bad tensor shape (9223372036854775808, 9223372036854775808): its float64 entries take 2^63 bytes or more"),
    (lambda: gen_lowrank(1, 65, 1, seed=0), "shape", "mode count must be at most 64, as numpy holds, got 65"),
], ids=["angle-of-bases-of-two-shapes", "tail-energy", "gen-lowrank", "gen-superdiag-exp", "gen-superdiag-poly",
        "gen-superdiag-exp-past-2^63-bytes", "gen-lowrank-past-2^63-bytes", "gen-lowrank-past-64-modes"])
def test_typed_errors(call, category, message) -> None:
    with pytest.raises(TsketchError) as e:
        call()
    assert (e.value.category, str(e.value)) == (category, message)
