import numpy as np
import pytest

from nfgopt.errors import ConfigError
from nfgopt.sampling import PerturbationSampler, SEKernel, factorize, kernel_matrix
from nfgopt.trajectory import TimeGrid

BENCH_KERNEL = SEKernel(variance=0.29, length_scale=0.22)


def bench_factor(reg_scale=1e-6):
    grid = TimeGrid(1.0, 100.0)
    K = kernel_matrix(grid, BENCH_KERNEL)
    return factorize(K, reg_scale * BENCH_KERNEL.variance)


class TestSEKernel:
    @pytest.mark.parametrize("variance,length_scale", [(0.0, 0.22), (-1.0, 0.22), (0.29, 0.0), (0.29, -0.1)])
    def test_invalid_params(self, variance, length_scale):
        with pytest.raises(ConfigError):
            SEKernel(variance, length_scale)

    def test_diagonal_is_variance_exactly(self):
        K = kernel_matrix(TimeGrid(1.0, 100.0), BENCH_KERNEL)
        np.testing.assert_array_equal(np.diag(K), np.full(100, 0.29))

    def test_exact_symmetry(self):
        K = kernel_matrix(TimeGrid(1.0, 100.0), BENCH_KERNEL)
        assert np.array_equal(K, K.T)

    def test_unit_distance_value(self):
        # direct formula evaluation: exp(-1/2) at unit gap, unit scales
        K = kernel_matrix(TimeGrid(4.0, 1.0), SEKernel(1.0, 1.0))
        assert K[0, 1] == pytest.approx(0.6065306597126334, abs=1e-15)

    def test_decay_with_distance(self):
        K = kernel_matrix(TimeGrid(1.0, 100.0), BENCH_KERNEL)
        assert np.all(np.diff(K[0]) < 0.0)


class TestFactorize:
    def test_zero_matrix_identity_factor(self):
        fac = factorize(np.zeros((4, 4)), 1.0)
        np.testing.assert_array_equal(fac.factor, np.eye(4))

    def test_identity_sqrt_two(self):
        fac = factorize(np.eye(4), 1.0)
        np.testing.assert_allclose(fac.factor, np.sqrt(2.0) * np.eye(4), atol=1e-15)

    def test_benchmark_reconstruction(self):
        grid = TimeGrid(1.0, 100.0)
        K = kernel_matrix(grid, BENCH_KERNEL)
        reg = 1e-6 * BENCH_KERNEL.variance
        fac = factorize(K, reg)
        err = np.abs(fac.covariance() - (K + reg * np.eye(100))).max()
        assert err <= 1e-8 * (BENCH_KERNEL.variance + reg)

    def test_positive_diagonal(self):
        fac = bench_factor()
        assert np.all(np.diag(fac.factor) > 0.0)

    def test_lower_triangular(self):
        fac = bench_factor()
        np.testing.assert_array_equal(fac.factor, np.tril(fac.factor))

    def test_regularized_eigenvalues_bounded_below(self):
        grid = TimeGrid(10.0, 1.0)
        K = kernel_matrix(grid, BENCH_KERNEL)
        reg = 1e-4
        eigs = np.linalg.eigvalsh(K + reg * np.eye(10))
        assert eigs.min() >= reg * (1.0 - 1e-9)

    def test_asymmetric_rejected(self):
        K = np.eye(4)
        K[0, 1] = 0.5
        with pytest.raises(ConfigError, match="symmetric"):
            factorize(K, 1e-6)

    @pytest.mark.parametrize("reg", [0.0, -1.0])
    def test_nonpositive_reg_rejected(self, reg):
        with pytest.raises(ConfigError):
            factorize(np.eye(4), reg)

    def test_non_square_rejected(self):
        with pytest.raises(ConfigError, match="square"):
            factorize(np.zeros((3, 4)), 1e-6)


class TestPerturbationSampler:
    def test_same_stream_identical(self):
        sampler = PerturbationSampler(bench_factor(), seed=5, stream_id=3)
        np.testing.assert_array_equal(sampler.sample(16), sampler.sample(16))

    def test_streams_differ(self):
        sampler = PerturbationSampler(bench_factor(), seed=5)
        a = sampler.with_stream(0).sample(4)
        b = sampler.with_stream(1).sample(4)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        fac = bench_factor()
        a = PerturbationSampler(fac, seed=5).sample(4)
        b = PerturbationSampler(fac, seed=6).sample(4)
        assert not np.array_equal(a, b)

    def test_partition_concatenates_to_serial(self):
        # draw index alone fixes each sample, so prefixes always agree
        sampler = PerturbationSampler(bench_factor(), seed=11, stream_id=2)
        whole = sampler.sample(12)
        np.testing.assert_array_equal(whole[:5], sampler.sample(5))
        np.testing.assert_array_equal(whole[:9], sampler.sample(9))

    def test_sample_is_factor_times_normals(self):
        fac = bench_factor()
        sampler = PerturbationSampler(fac, seed=3, stream_id=1)
        z = sampler.normals(6, fac.size)
        np.testing.assert_array_equal(sampler.sample(6), z @ fac.factor.T)

    def test_empirical_covariance(self):
        # 50k draws at m=10: entrywise tolerance 5 g^2 / sqrt(B)
        grid = TimeGrid(0.1, 100.0)
        K = kernel_matrix(grid, BENCH_KERNEL)
        reg = 1e-6 * BENCH_KERNEL.variance
        fac = factorize(K, reg)
        draws = 50_000
        eps = PerturbationSampler(fac, seed=21).sample(draws)
        empirical = (eps.T @ eps) / draws
        target = K + reg * np.eye(10)
        tol = 5.0 * BENCH_KERNEL.variance / np.sqrt(draws)
        assert np.abs(empirical - target).max() <= tol

    def test_variance_scaling(self):
        # doubling g doubles every sample exactly when reg scales along
        grid = TimeGrid(0.1, 100.0)
        K = kernel_matrix(grid, BENCH_KERNEL)
        K4 = kernel_matrix(grid, SEKernel(4.0 * 0.29, 0.22))
        np.testing.assert_allclose(K4, 4.0 * K, rtol=1e-15)
        fac = factorize(K, 1e-6 * 0.29)
        fac4 = factorize(4.0 * K, 4.0 * 1e-6 * 0.29)
        a = PerturbationSampler(fac, seed=2).sample(10)
        b = PerturbationSampler(fac4, seed=2).sample(10)
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-12)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_bad_seed(self, seed):
        with pytest.raises(ConfigError):
            PerturbationSampler(bench_factor(), seed=seed)

    def test_count_validation(self):
        sampler = PerturbationSampler(bench_factor(), seed=0)
        with pytest.raises(ConfigError):
            sampler.sample(0)
