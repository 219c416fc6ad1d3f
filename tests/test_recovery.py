"""Factor and core recovery from sketch bundles."""

from functools import reduce

import numpy as np
import pytest
import scipy.linalg

from tsketch.ensembles import derive_seed, materialize
from tsketch import formats, recover
from tsketch.errors import ConfigError, RankError, ShapeError, SingularError, TsketchError
from tsketch.evaluate import (
    add_noise_snr,
    gen_lowrank,
    gen_superdiag_exp,
    gen_superdiag_poly,
    hosvd_truncate,
    max_principal_angle,
    relative_error,
    score,
    tail_baseline,
    tail_energy,
)
from tsketch.recover import (
    TuckerFactorization,
    compute_core_twopass,
    one_pass,
    reconstruct,
    recover_core_onepass,
    recover_core_recycled,
    recover_factors,
    two_pass,
)
from tsketch.sketch import SketchAccumulator, SketchBundle, SlabChunk, make_plan, sketch
from tsketch.formats import TensorFile, write_chunks, write_tensor
from tsketch.tensor import fold, multi_mode_product, norm, unfold, vec


@pytest.mark.parametrize(
    "kind,m", [("kronecker", 8), ("khatri_rao", 60), ("unstructured", 60)]
)
def test_exact_rank_perfect_recovery(kind, m) -> None:
    x, _ = gen_lowrank(20, 3, 3, seed=100)
    plan = make_plan(x.shape, kind, m, 10, seed=101)
    t = one_pass(sketch(x, plan), 3)
    assert relative_error(reconstruct(t), x) < 1e-10


def test_ill_conditioned_exact_rank_recovery() -> None:
    """Exact rank 5 with unfolding singular values spanning 1e8: forming the
    Gram matrix of the sketch would square that spread, so the factor kernel
    must keep full accuracy on such inputs."""
    rng = np.random.default_rng(122)
    qs = [np.linalg.qr(rng.standard_normal((40, 5)))[0] for _ in range(3)]
    core = np.zeros((5, 5, 5))
    core[(np.arange(5),) * 3] = np.logspace(0, -8, 5)
    x = reconstruct(TuckerFactorization(core=core, factors=qs))
    plan = make_plan(x.shape, "kronecker", 15, 15, seed=123)
    t = one_pass(sketch(x, plan), 5)
    assert relative_error(reconstruct(t), x) <= 1e-12


def test_factors_are_orthonormal() -> None:
    x, _ = gen_lowrank(16, 3, 4, seed=102)
    plan = make_plan(x.shape, "kronecker", 6, 8, seed=103)
    qs = recover_factors(sketch(x, plan), 4)
    for q in qs:
        assert q.shape == (16, 4)
        assert np.allclose(q.T @ q, np.eye(4), atol=1e-10)


def test_identity_sketch_reproduces_unfolding_svd() -> None:
    """With identity ensembles B_j = unfold(X, j), so the recovered factors
    must match the leading left singular vectors up to column sign."""
    rng = np.random.default_rng(104)
    x = rng.standard_normal((6, 6, 6))
    plan = make_plan(x.shape, "kronecker", 6, 6, loo_family="identity", core_family="gaussian")
    b = sketch(x, plan)
    qs = recover_factors(b, 3)
    for j, q in enumerate(qs, start=1):
        u = scipy.linalg.svd(unfold(x, j), full_matrices=False)[0][:, :3]
        # align column signs before comparing
        flip = np.sign(np.sum(u * q, axis=0))
        assert np.allclose(q * flip, u, atol=1e-10)


def test_onepass_core_equals_pseudoinverse_oracle() -> None:
    x, _ = gen_lowrank(12, 3, 3, seed=105)
    plan = make_plan(x.shape, "kronecker", 5, 6, seed=106)
    b = sketch(x, plan)
    qs = recover_factors(b, 3)
    phis = [materialize(plan.core_spec(i)) for i in (1, 2, 3)]
    core = recover_core_onepass(b.core, phis, qs)
    pinv = np.linalg.pinv(reduce(np.kron, [phis[2] @ qs[2], phis[1] @ qs[1], phis[0] @ qs[0]]))
    oracle = (pinv @ vec(b.core)).reshape((3, 3, 3), order="F")
    assert np.allclose(core, oracle, atol=1e-10)


def test_twopass_core_is_projection() -> None:
    """The two-pass core makes the reconstruction an orthogonal projection of
    the data, so the residual and the reconstruction are Pythagorean."""
    rng = np.random.default_rng(107)
    x = rng.standard_normal((10, 9, 8))
    plan = make_plan(x.shape, "kronecker", 5, 6, seed=108)
    t = two_pass(sketch(x, plan), x, 4)
    x_hat = reconstruct(t)
    lhs = norm(x - x_hat) ** 2 + norm(x_hat) ** 2
    assert lhs == pytest.approx(norm(x) ** 2, rel=1e-10)


def test_twopass_never_worse_than_onepass_on_noise() -> None:
    x0, _ = gen_lowrank(20, 3, 4, seed=109)
    x = add_noise_snr(x0, 20.0, seed=109)
    plan = make_plan(x.shape, "kronecker", 10, 12, seed=110)
    b = sketch(x, plan)
    e1 = relative_error(reconstruct(one_pass(b, 4)), x)
    e2 = relative_error(reconstruct(two_pass(b, x, 4)), x)
    assert e2 <= e1 + 1e-12


def test_recover_factors_is_the_factor_stage_of_both_pipelines() -> None:
    """m_c = 16 leaves room to oversample (k = 8 > r = 3), so the factors go
    through the joint truncation, in recover_factors as in one_pass and two_pass."""
    x0, _ = gen_lowrank(18, 3, 3, seed=130)
    x = add_noise_snr(x0, 20.0, seed=131)
    b = sketch(x, make_plan(x.shape, "kronecker", 7, 16, seed=132))
    qs = recover_factors(b, 3)
    for t in (one_pass(b, 3), two_pass(b, x, 3)):
        for q, q2 in zip(qs, t.factors):
            assert np.array_equal(q, q2)


def test_recover_factors_break_a_tie_at_the_rank_the_same_way_in_every_mode() -> None:
    """The leading r + 1 entries of gen_superdiag_exp are equal, so every
    unfolding ties at sigma_r. The joint truncation drops the same direction
    in every mode, and projecting on the factors reaches the best rank-r error
    (the tail norm); a tie broken per mode costs up to sqrt(3) times that."""
    x = gen_superdiag_exp(20, 3, 3)
    qs = recover_factors(sketch(x, make_plan(x.shape, "kronecker", 12, 20, seed=130)), 3)
    for q in qs[1:]:
        assert max_principal_angle(qs[0], q) < 1e-3
    t = TuckerFactorization(core=compute_core_twopass(x, qs), factors=qs)
    assert relative_error(reconstruct(t), x) <= 1.001 * tail_baseline(x, 3)


class TestStreamedTwoPass:
    """The two-pass core summed over last-mode slabs equals the dense projection."""

    @pytest.fixture
    def problem(self):
        x0, _ = gen_lowrank(12, 3, 4, seed=114)
        x = add_noise_snr(x0, 25.0, seed=114)
        return x, sketch(x, make_plan(x.shape, "kronecker", 6, 9, seed=115))

    def test_dense_core_is_the_projection_bitwise(self, problem) -> None:
        x, b = problem
        t = two_pass(b, x, 4)
        expect = multi_mode_product(x, [(q.T, i) for i, q in enumerate(t.factors, start=1)])
        assert np.array_equal(t.core, expect)

    @pytest.mark.parametrize("fmt", ["tnsr", "tskc"])
    def test_streamed_file_matches_dense(self, problem, tmp_path, monkeypatch, fmt) -> None:
        x, b = problem
        monkeypatch.setattr(formats, "_PIECE_BYTES", 3 * 8 * 12 * 12)  # three last-mode slices
        p = tmp_path / f"x.{fmt}"
        if fmt == "tnsr":
            write_tensor(p, x)
        else:  # uneven records, out of order
            ranges = [(7, 12), (0, 2), (2, 7)]
            write_chunks(p, x.shape, [SlabChunk(lo, hi - lo, x[..., lo:hi]) for lo, hi in ranges])
        dense = two_pass(b, x, 4)
        with TensorFile(p) as f:
            streamed = two_pass(b, f.slabs(), 4)
        for q, q2 in zip(dense.factors, streamed.factors):
            assert np.array_equal(q, q2)
        assert norm(streamed.core - dense.core) <= 1e-13 * norm(dense.core)
        x_hat = reconstruct(dense)
        assert norm(reconstruct(streamed) - x_hat) <= 1e-13 * norm(x_hat)

    @pytest.mark.parametrize("kind,m", [("kronecker", 6), ("khatri_rao", 30)])
    def test_one_slice_pieces_match_the_dense_core(self, problem, kind, m) -> None:
        """One-slice pieces, shuffled, are parked and applied in full buffers."""
        x, _ = problem
        qs = recover_factors(sketch(x, make_plan(x.shape, kind, m, 9, seed=116)), 4)
        order = np.random.default_rng(117).permutation(x.shape[-1])
        streamed = compute_core_twopass([SlabChunk(int(i), 1, x[..., i : i + 1]) for i in order], qs)
        dense = compute_core_twopass(x, qs)
        assert norm(streamed - dense) <= 1e-13 * norm(dense)

    def test_slabs_must_fit_and_cover_the_mode(self, problem) -> None:
        x, b = problem
        qs = two_pass(b, x, 4).factors
        with pytest.raises(ShapeError, match="cover 7 of the 12"):
            compute_core_twopass([SlabChunk(0, 7, x[..., :7])], qs)
        with pytest.raises(ShapeError, match="does not fit"):
            compute_core_twopass([SlabChunk(0, 12, x[:5])], qs)
        with pytest.raises(ShapeError):
            two_pass(b, x[..., :7], 4)


def test_reconstruct_slab_is_the_slice_of_the_whole() -> None:
    rng = np.random.default_rng(116)
    core = rng.standard_normal((2, 3, 4))
    qs = [np.linalg.qr(rng.standard_normal((n, r)))[0] for n, r in ((5, 2), (6, 3), (9, 4))]
    t = TuckerFactorization(core=core, factors=qs)
    whole = reconstruct(t)
    for lo, hi in [(0, 9), (0, 1), (3, 7), (8, 9)]:
        assert np.allclose(reconstruct(t, lo, hi), whole[..., lo:hi], rtol=1e-14, atol=1e-14)
    assert np.array_equal(reconstruct(t, np.int64(3), 7), reconstruct(t, 3, 7))


@pytest.mark.parametrize("lo,hi,match", [
    (5, 100, r"slab \[5, 100\) outside mode of length 10"),
    (-3, None, r"slab \[-3, 10\) outside mode of length 10"),
    (7, 3, r"slab \[7, 3\) outside mode of length 10"),
    (4, 4, r"slab \[4, 4\) outside mode of length 10"),
    (1.0, 4, "not a pair of integers"),
    (0, "9", "not a pair of integers"),
])
def test_reconstruct_refuses_a_range_outside_the_last_mode(lo, hi, match) -> None:
    """Only integers 0 <= lo < hi <= n name slices to build: a range past
    the mode would come back shorter, and a negative one wrapped."""
    rng = np.random.default_rng(117)
    qs = [np.linalg.qr(rng.standard_normal((n, 2)))[0] for n in (4, 5, 10)]
    t = TuckerFactorization(core=rng.standard_normal((2, 2, 2)), factors=qs)
    with pytest.raises(ShapeError, match=match):
        reconstruct(t, lo, hi)


def test_reconstruct_unfolds_to_factored_form() -> None:
    rng = np.random.default_rng(111)
    core = rng.standard_normal((2, 3, 4))
    qs = [scipy.linalg.qr(rng.standard_normal((6, r)), mode="economic")[0] for r in (2, 3, 4)]
    t = TuckerFactorization(core=core, factors=qs)
    x = reconstruct(t)
    for j in (1, 2, 3):
        others = [qs[i] for i in (2, 1, 0) if i != j - 1]
        expect = qs[j - 1] @ unfold(core, j) @ reduce(np.kron, others).T
        assert np.allclose(unfold(x, j), expect, atol=1e-12)


class TestRecycledCore:
    def fold_bj(self, b, plan, j):
        shape = tuple(
            plan.shape[i - 1] if i == j else plan.m for i in range(1, plan.d + 1)
        )
        return fold(b.loo[j - 1], shape, j)

    def maps_for(self, plan, j):
        return [
            np.eye(plan.shape[j - 1]) if i == j else materialize(plan.loo_spec(i))
            for i in range(1, plan.d + 1)
        ]

    def test_identity_ensembles_give_the_projection_core(self) -> None:
        """When every map is the identity the recycled solve degenerates to
        the two-pass projection core."""
        rng = np.random.default_rng(112)
        x = rng.standard_normal((5, 5, 5))
        plan = make_plan(x.shape, "kronecker", 5, 5, loo_family="identity")
        b = sketch(x, plan)
        qs = recover_factors(b, 2)
        core = recover_core_recycled(self.fold_bj(b, plan, 1), self.maps_for(plan, 1), qs)
        assert np.allclose(core, compute_core_twopass(x, qs), atol=1e-10)

    def test_exact_rank_recovery(self) -> None:
        x, _ = gen_lowrank(15, 3, 3, seed=113)
        plan = make_plan(x.shape, "kronecker", 6, 3, seed=114)
        b = sketch(x, plan)
        qs = recover_factors(b, 3)
        for j in (1, 2, 3):
            core = recover_core_recycled(self.fold_bj(b, plan, j), self.maps_for(plan, j), qs)
            t = TuckerFactorization(core=core, factors=qs)
            assert relative_error(reconstruct(t), x) < 1e-10

    def test_noisy_error_is_comparable_to_onepass(self) -> None:
        errs_one, errs_rec = [], []
        for trial in range(20):
            x0, _ = gen_lowrank(24, 3, 4, seed=200 + trial)
            x = add_noise_snr(x0, 30.0, seed=300 + trial)
            plan = make_plan(x.shape, "kronecker", 10, 12, seed=400 + trial)
            b = sketch(x, plan)
            qs = recover_factors(b, 4)
            phis = [materialize(plan.core_spec(i)) for i in (1, 2, 3)]
            core1 = recover_core_onepass(b.core, phis, qs)
            core2 = recover_core_recycled(self.fold_bj(b, plan, 1), self.maps_for(plan, 1), qs)
            errs_one.append(relative_error(reconstruct(TuckerFactorization(core1, qs)), x0))
            errs_rec.append(relative_error(reconstruct(TuckerFactorization(core2, qs)), x0))
        assert np.median(errs_rec) <= 2.0 * np.median(errs_one)


def _no_lapack(*args, **kwargs):
    raise AssertionError("a sketch that is not finite reached LAPACK")


class TestErrorPaths:
    @pytest.mark.parametrize("solve,what", [(recover_core_onepass, "core"), (recover_core_recycled, "recycled")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "squares-overflow"])
    def test_one_pass_refuses_a_core_sketch_that_is_not_finite(self, solve, what, bad, monkeypatch) -> None:
        """The mode-peeling solve refuses a sketch that holds a NaN or an
        infinity, or whose squared norm overflows, before any SVD."""
        x = np.random.default_rng(115).standard_normal((4, 4, 6))
        plan = make_plan(x.shape, "kronecker", 2, 4, seed=116)
        b = sketch(x, plan)
        qs = recover_factors(b, 2)
        h = np.array(b.core)
        h[1, 2, 3] = bad
        monkeypatch.setattr(np.linalg, "svd", _no_lapack)
        with pytest.raises(ConfigError, match=f"^{what} sketch is not finite in float64"):
            solve(h, plan.core_maps, qs)

    @pytest.mark.parametrize("two_passes", [False, True])
    @pytest.mark.parametrize("where", ["mode-2", "core"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "squares-overflow"])
    def test_factors_refuse_a_sketch_that_is_not_finite(self, two_passes, where, bad, monkeypatch) -> None:
        """Every sketch of the bundle is checked before the first is factored:
        a bundle whose sums overflowed once reached LAPACK, which died with an
        untyped "Eigenvalues did not converge"."""
        x, _ = gen_lowrank(20, 3, 3, seed=1)
        b = sketch(x, make_plan(x.shape, "kronecker", 8, 12, seed=2))
        loo, core = [np.array(a) for a in b.loo], np.array(b.core)
        (loo[1] if where == "mode-2" else core).flat[7] = bad
        monkeypatch.setattr(recover, "_left_vectors", _no_lapack)
        bundle = SketchBundle(b.plan, loo, core)
        with pytest.raises(ConfigError, match=f"^{where} sketch is not finite in float64"):
            two_pass(bundle, x, 3) if two_passes else recover_factors(bundle, 3)

    def test_rank_bounds(self) -> None:
        x = np.random.default_rng(117).standard_normal((6, 6, 6))
        plan = make_plan(x.shape, "kronecker", 3, 4, seed=118)
        b = sketch(x, plan)
        with pytest.raises(RankError):
            recover_factors(b, 0)
        with pytest.raises(RankError):
            recover_factors(b, 7)  # above the mode length

    RANKED = {
        "recover_factors": lambda b, x, r: recover_factors(b, r),
        "one_pass": lambda b, x, r: one_pass(b, r),
        "two_pass": lambda b, x, r: two_pass(b, x, r),
        "tail_energy": lambda b, x, r: tail_energy(x, r, 1),
        "hosvd_truncate": lambda b, x, r: hosvd_truncate(x, r),
        "tail_baseline": lambda b, x, r: tail_baseline(x, r),
        "gen_lowrank": lambda b, x, r: gen_lowrank(6, 3, r, 0),
        "gen_superdiag_exp": lambda b, x, r: gen_superdiag_exp(6, 3, r),
        "gen_superdiag_poly": lambda b, x, r: gen_superdiag_poly(6, 3, r),
    }

    @pytest.mark.parametrize("call", list(RANKED))
    @pytest.mark.parametrize("r", [2.9, 2.0, "2", None], ids=["2.9", "2.0", "str", "None"])
    def test_ranks_must_be_integers(self, call, r) -> None:
        """Refused, not truncated or parsed: a rank of 2.9 once fitted rank 2,
        and "3" rank 3. A numpy integer gives what the int gives."""
        x = np.random.default_rng(122).standard_normal((6, 6, 6))
        b = sketch(x, make_plan(x.shape, "kronecker", 4, 8, seed=123))
        fn = self.RANKED[call]
        with pytest.raises(RankError, match="rank must be an integer"):
            fn(b, x, r)
        got, want = fn(b, x, np.int64(2)), fn(b, x, 2)
        if isinstance(want, tuple):  # gen_lowrank: (tensor, factors)
            got, want = got[0], want[0]
        if isinstance(want, TuckerFactorization):
            got, want = reconstruct(got), reconstruct(want)
        if isinstance(want, list):
            got, want = np.stack(got), np.stack(want)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("call", list(RANKED))
    @pytest.mark.parametrize("r", [0, -1])
    def test_ranks_below_one_are_refused(self, call, r) -> None:
        """Every rank argument is checked by one rule: -1 once sliced from the
        end (tail_energy gave rank 4's tail on a 5^3 tensor, hosvd_truncate a
        4 x 4 x 4 core) and 0 reached numpy as a shape."""
        x = np.random.default_rng(124).standard_normal((6, 6, 6))
        b = sketch(x, make_plan(x.shape, "kronecker", 4, 8, seed=125))
        with pytest.raises(RankError, match="rank must be >= 1"):
            self.RANKED[call](b, x, r)

    def test_core_rank_above_sketch_size(self) -> None:
        x = np.random.default_rng(119).standard_normal((8, 8, 8))
        plan = make_plan(x.shape, "kronecker", 6, 3, seed=120)
        b = sketch(x, plan)
        with pytest.raises(RankError):
            one_pass(b, 4)  # m_c = 3 < r = 4

    def test_singular_core_solve_names_the_mode(self) -> None:
        rng = np.random.default_rng(121)
        core_sketch = rng.standard_normal((4, 4, 4))
        phis = [rng.standard_normal((4, 6)) for _ in range(3)]
        qs = [np.ones((6, 2)) for _ in range(3)]  # rank-1 columns: Phi Q singular
        with pytest.raises(SingularError) as err:
            recover_core_onepass(core_sketch, phis, qs)
        assert "mode 1" in str(err.value)

    @pytest.mark.parametrize("solve,maps,factors,message", [
        (recover_core_onepass, 2, 3, "need 3 core maps and 3 factors, got 2 and 3"),
        (recover_core_onepass, 3, 4, "need 3 core maps and 3 factors, got 3 and 4"),
        (recover_core_recycled, 4, 3, "need 3 recycled maps and 3 factors, got 4 and 3"),
    ], ids=["too-few-core-maps", "too-many-factors", "too-many-recycled-maps"])
    def test_typed_errors(self, solve, maps, factors, message) -> None:
        rng = np.random.default_rng(122)
        with pytest.raises(TsketchError) as e:
            solve(rng.standard_normal((4, 4, 4)), [rng.standard_normal((4, 6))] * maps,
                  [np.linalg.qr(rng.standard_normal((6, 2)))[0]] * factors)
        assert (e.value.category, str(e.value)) == ("shape", message)


class TestRangeFinder:
    """The per-mode factors come from a keyed randomized range finder where a
    flop count says it is cheaper and its own spectrum shows a gap at r, and
    from the exact Gram/QR/SVD route otherwise. Each test checks which route ran."""

    @pytest.fixture
    def routes(self, monkeypatch):
        """Record each range finder call as "range" (its basis kept) or
        "fallback" (no gap), and each exact-route call as "exact"."""
        ran = []
        range_vectors, exact = recover._range_vectors, recover._exact_left_vectors

        def spy_range(*args):
            u = range_vectors(*args)
            ran.append("fallback" if u is None else "range")
            return u

        def spy_exact(*args):
            ran.append("exact")
            return exact(*args)

        monkeypatch.setattr(recover, "_range_vectors", spy_range)
        monkeypatch.setattr(recover, "_exact_left_vectors", spy_exact)
        return ran

    def test_size_rule_at_the_measured_shapes(self) -> None:
        assert recover._range_finder_pays((256, 625), 15)
        assert recover._range_finder_pays((256, 100), 15)
        assert not recover._range_finder_pays((100, 625), 15)
        assert not recover._range_finder_pays((40, 225), 7)

    @pytest.mark.parametrize("cols", [625, 100])
    def test_leading_subspace_matches_the_exact_route(self, routes, cols) -> None:
        """Rank 10 plus noise at 30 dB, at the W1 (kronecker) and W2
        (khatri_rao) sketch shapes."""
        rng = np.random.default_rng(140)
        low = rng.standard_normal((256, 10)) @ rng.standard_normal((10, cols))
        f = add_noise_snr(low, 30.0, seed=141)
        u = recover._left_vectors(f, 15, 10, (142, "range", 1))
        assert routes == ["range"]
        exact = recover._exact_left_vectors(f, 15, 10)
        assert max_principal_angle(u[:, :10], exact[:, :10]) <= 1e-6

    def test_flat_spectrum_falls_back_to_the_exact_route(self, routes) -> None:
        f = np.random.default_rng(143).standard_normal((256, 625))
        u = recover._left_vectors(f, 15, 10, (144, "range", 1))
        assert routes == ["fallback", "exact"]
        assert np.array_equal(u, recover._exact_left_vectors(f, 15, 10))

    def test_small_sketch_keeps_the_exact_route(self, routes, monkeypatch) -> None:
        """test_runtime_sketch_phase's problem: B_j is 100 x 625, where the
        range finder costs more than the Gram route, so the factors are the
        exact route's, bitwise."""
        x0, _ = gen_lowrank(100, 3, 10, derive_seed(0, "accept-gen", 11, 0, 0))
        b = sketch(x0, make_plan(x0.shape, "kronecker", 25, 50, seed=derive_seed(0, "accept", 11, 0, 0)))
        qs = recover_factors(b, 10)
        assert routes == ["exact"] * 3
        monkeypatch.setattr(recover, "_range_finder_pays", lambda shape, k: False)
        for q, q2 in zip(qs, recover_factors(b, 10)):
            assert np.array_equal(q, q2)

    def test_ill_conditioned_exact_rank_recovery_at_n_256(self, routes) -> None:
        """test_ill_conditioned_exact_rank_recovery at n = 256, where B_j
        (256 x 225) takes the range finder: the QR after every product keeps
        the directions at 1e-8 of sigma_1. Streamed slab by slab, so the
        128 MiB tensor is never held."""
        n = 256
        rng = np.random.default_rng(122)
        qs = [np.linalg.qr(rng.standard_normal((n, 5)))[0] for _ in range(3)]
        core = np.zeros((5, 5, 5))
        core[(np.arange(5),) * 3] = np.logspace(0, -8, 5)
        x = TuckerFactorization(core=core, factors=qs)
        slabs = [SlabChunk(lo, 32, reconstruct(x, lo, lo + 32)) for lo in range(0, n, 32)]
        acc = SketchAccumulator(make_plan((n,) * 3, "kronecker", 15, 15, seed=123))
        for c in slabs:
            acc.update(c)
        t = one_pass(acc.finalize(), 5)
        assert routes == ["range"] * 3
        assert score(t, slabs)["relative_error"] <= 1e-12

    def test_equal_bundles_give_bitwise_equal_factors(self, routes, tmp_path) -> None:
        x0, _ = gen_lowrank(128, 3, 5, seed=145)
        x = add_noise_snr(x0, 30.0, seed=146)
        b = sketch(x, make_plan(x.shape, "kronecker", 8, 20, seed=147))
        t = one_pass(b, 5)
        assert routes == ["range"] * 3
        formats.write_bundle(tmp_path / "b.tskb", b)
        np.random.seed(148)  # no global random state is read
        t2 = one_pass(formats.read_bundle(tmp_path / "b.tskb"), 5)
        assert routes == ["range"] * 6
        for q, q2 in zip(t.factors, t2.factors):
            assert np.array_equal(q, q2)
        assert np.array_equal(t.core, t2.core)
