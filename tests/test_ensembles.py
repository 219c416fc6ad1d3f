"""Random measurement ensembles: determinism, scaling, and norm preservation."""

from dataclasses import dataclass

import numpy as np
import pytest
import scipy.fft

from tsketch.ensembles import (
    EnsembleSpec,
    derive_seed,
    keyed_generator,
    materialize,
)
from tsketch.errors import ConfigError, ShapeError


def test_materialize_is_deterministic() -> None:
    spec = EnsembleSpec("gaussian", 7, 11, seed=42)
    assert np.array_equal(materialize(spec), materialize(spec))


def test_different_seeds_differ() -> None:
    a = materialize(EnsembleSpec("gaussian", 7, 11, seed=1))
    b = materialize(EnsembleSpec("gaussian", 7, 11, seed=2))
    assert not np.array_equal(a, b)


def test_derive_seed_separates_tags_and_indices() -> None:
    seen = {
        derive_seed(0, "loo", 1, 1),
        derive_seed(0, "loo", 1, 2),
        derive_seed(0, "loo", 2, 1),
        derive_seed(0, "core", 1, 1),
        derive_seed(1, "loo", 1, 1),
    }
    assert len(seen) == 5


def test_keyed_generator_streams_are_independent_of_call_order() -> None:
    a1 = keyed_generator(5, "x").standard_normal(4)
    _ = keyed_generator(5, "y").standard_normal(100)
    a2 = keyed_generator(5, "x").standard_normal(4)
    assert np.array_equal(a1, a2)


def test_identity_family() -> None:
    assert np.array_equal(materialize(EnsembleSpec("identity", 4, 4, seed=0)), np.eye(4))
    with pytest.raises(ConfigError):
        EnsembleSpec("identity", 3, 4, seed=0)


def test_unknown_family_rejected() -> None:
    with pytest.raises(ConfigError):
        EnsembleSpec("rademacher", 3, 4, seed=0)


def test_nonpositive_dims_rejected() -> None:
    with pytest.raises(ConfigError):
        EnsembleSpec("gaussian", 0, 4, seed=0)


class TestGaussian:
    def test_entry_scale(self) -> None:
        """Entries are i.i.d. with variance 1/m."""
        m = 50
        omega = materialize(EnsembleSpec("gaussian", m, 4000, seed=3))
        assert omega.shape == (m, 4000)
        var = omega.var()
        assert abs(var - 1.0 / m) < 0.1 / m
        assert abs(omega.mean()) < 3.0 / np.sqrt(m * 4000 * m)


class TestSparseSign:
    def test_support_and_rates(self) -> None:
        m = 48
        omega = materialize(EnsembleSpec("sparse_sign", m, 5000, seed=4))
        s = np.sqrt(3.0 / m)
        values = set(np.unique(np.round(omega / s).astype(int)))
        assert values == {-1, 0, 1}
        nonzero = np.mean(omega != 0)
        assert abs(nonzero - 1.0 / 3.0) < 0.01
        # symmetric signs
        assert abs(np.mean(omega > 0) - np.mean(omega < 0)) < 0.01
        # second moment (1/6 + 1/6) * 3/m = 1/m
        assert abs(np.mean(omega**2) - 1.0 / m) < 0.05 / m


class TestSrtt:
    def test_row_geometry(self) -> None:
        """Rows are sign-flipped sampled orthonormal rows scaled by sqrt(n/m):
        pairwise orthogonal, squared norm n/m, total Frobenius mass n."""
        n, m = 64, 16
        omega = materialize(EnsembleSpec("srtt", m, n, seed=5))
        gram = omega @ omega.T
        assert np.allclose(gram, (n / m) * np.eye(m), atol=1e-10)
        assert np.sum(omega**2) == pytest.approx(n, rel=1e-12)

    def test_transform_rows_match_scipy_dct(self) -> None:
        n = 32
        omega = materialize(EnsembleSpec("srtt", n, n, seed=6))
        # strip the sqrt(n/m)=1 scale and infer the signs from the flat top row
        c = scipy.fft.dct(np.eye(n), axis=0, type=2, norm="ortho")
        # omega rows are c[sel, :] * signs; |omega| must match |c[sel, :]|
        # for some row selection. Recover sel by matching row patterns.
        used = set()
        for i in range(n):
            hits = [
                p
                for p in range(n)
                if p not in used and np.allclose(np.abs(omega[i]), np.abs(c[p]), atol=1e-10)
            ]
            assert hits, f"row {i} is not a signed DCT row"
            used.add(hits[0])

    def test_needs_rows_at_most_cols(self) -> None:
        with pytest.raises(ConfigError):
            EnsembleSpec("srtt", 10, 5, seed=0)


@pytest.mark.parametrize("family", ["gaussian", "sparse_sign", "srtt"])
def test_expected_squared_norm_is_preserved(family) -> None:
    """E ||Omega x||^2 = ||x||^2 for a fixed x, within 4 standard errors."""
    n, m, trials = 24, 6, 3000
    x = keyed_generator(99, "probe").standard_normal(n)
    x /= np.linalg.norm(x)
    sq = np.empty(trials)
    for t in range(trials):
        omega = materialize(EnsembleSpec(family, m, n, seed=derive_seed(7, "t", t)))
        sq[t] = np.sum((omega @ x) ** 2)
    se = sq.std(ddof=1) / np.sqrt(trials)
    assert abs(sq.mean() - 1.0) < 4 * se + 1e-12


@pytest.fixture(scope="module")
def unit_points():
    rng = np.random.default_rng(2024)
    pts = rng.standard_normal((50, 1000))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


@dataclass(frozen=True)
class DistortionStats:
    """Per-trial worst-case squared-norm distortion of a set of unit vectors."""

    max_distortion: np.ndarray  # shape (trials,)
    eps: float
    failure_rate: float


def jl_distortion(spec, points, trials, eps):
    """Measure how well fresh draws of `spec` preserve unit-vector norms.

    `points` is a (k, spec.cols) array of unit 2-norm rows. For each of
    `trials` independent matrices (seeds derived from spec.seed) we record
    max_x | ||Omega x||^2 - 1 | over the points; a trial fails when that
    exceeds `eps`.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[1] != spec.cols:
        raise ShapeError(
            f"points have length {points.shape[1]} but the ensemble has {spec.cols} columns"
        )
    norms = np.linalg.norm(points, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-8):
        raise ConfigError("jl_distortion expects unit-norm points")
    if trials < 1:
        raise ConfigError("trials must be >= 1")

    worst = np.empty(trials)
    for t in range(trials):
        trial_spec = EnsembleSpec(spec.family, spec.rows, spec.cols, derive_seed(spec.seed, "jl", t))
        omega = materialize(trial_spec)
        sq = np.sum((points @ omega.T) ** 2, axis=1)
        worst[t] = np.max(np.abs(sq - 1.0))
    return DistortionStats(worst, float(eps), float(np.mean(worst > eps)))


class TestJlDistortion:
    @pytest.mark.parametrize("family", ["gaussian", "sparse_sign"])
    def test_failure_rate_at_most_one_percent(self, unit_points, family) -> None:
        spec = EnsembleSpec(family, 200, 1000, seed=314)
        stats = jl_distortion(spec, unit_points, trials=100, eps=0.5)
        assert stats.max_distortion.shape == (100,)
        assert stats.failure_rate <= 0.01

    def test_rejects_non_unit_points(self) -> None:
        spec = EnsembleSpec("gaussian", 4, 8, seed=0)
        with pytest.raises(ConfigError):
            jl_distortion(spec, 2.0 * np.eye(8)[:3], trials=2, eps=0.5)

    def test_rejects_wrong_point_length(self) -> None:
        spec = EnsembleSpec("gaussian", 4, 8, seed=0)
        with pytest.raises(ShapeError):
            jl_distortion(spec, np.eye(5), trials=2, eps=0.5)
