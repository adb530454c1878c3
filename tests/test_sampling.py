import pickle
import sys
import threading

import numpy as np
import pytest
from numpy.random import Generator, Philox

from nfgopt.errors import ConfigError
from nfgopt.sampling import PerturbationSampler, SEKernel, factorize, kernel_matrix, principal_factor
from nfgopt.trajectory import TimeGrid

BENCH_KERNEL = SEKernel(variance=0.29, length_scale=0.22)


def bench_factor(reg_scale=1e-6):
    grid = TimeGrid(1.0, 100.0)
    K = kernel_matrix(grid, BENCH_KERNEL)
    return factorize(K, reg_scale * BENCH_KERNEL.variance)


class TestSEKernel:
    # the last five leave kernel_matrix's 2 * length_scale**2 at 0 or past the float range
    @pytest.mark.parametrize(
        "variance,length_scale",
        [(0.0, 0.22), (-1.0, 0.22), (0.29, 0.0), (0.29, -0.1)]
        + [(0.29, length_scale) for length_scale in (1e-300, 1e-162, 1e154, 1e200, 10**200)],
    )
    def test_invalid_params(self, variance, length_scale):
        with pytest.raises(ConfigError):
            SEKernel(variance, length_scale)

    @pytest.mark.parametrize("length_scale", [1e-150, 1e150])
    def test_extreme_length_scale_gives_a_finite_kernel(self, length_scale):
        assert np.isfinite(kernel_matrix(TimeGrid(1.0, 100.0), SEKernel(0.29, length_scale))).all()

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
        np.testing.assert_array_equal(fac, np.eye(4))

    def test_identity_sqrt_two(self):
        fac = factorize(np.eye(4), 1.0)
        np.testing.assert_allclose(fac, np.sqrt(2.0) * np.eye(4), atol=1e-15)

    def test_benchmark_reconstruction(self):
        grid = TimeGrid(1.0, 100.0)
        K = kernel_matrix(grid, BENCH_KERNEL)
        reg = 1e-6 * BENCH_KERNEL.variance
        fac = factorize(K, reg)
        err = np.abs(fac @ fac.T - (K + reg * np.eye(100))).max()
        assert err <= 1e-8 * (BENCH_KERNEL.variance + reg)

    def test_positive_diagonal(self):
        fac = bench_factor()
        assert np.all(np.diag(fac) > 0.0)

    def test_lower_triangular(self):
        fac = bench_factor()
        np.testing.assert_array_equal(fac, np.tril(fac))

    def test_read_only(self):
        fac = bench_factor()
        with pytest.raises(ValueError, match="read-only"):
            fac[0, 0] = 1.0

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
        sampler = PerturbationSampler(bench_factor(), seed=5)
        np.testing.assert_array_equal(sampler.sample(16, 3), sampler.sample(16, 3))

    def test_streams_differ(self):
        sampler = PerturbationSampler(bench_factor(), seed=5)
        a = sampler.sample(4, 0)
        b = sampler.sample(4, 1)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        fac = bench_factor()
        a = PerturbationSampler(fac, seed=5).sample(4, 0)
        b = PerturbationSampler(fac, seed=6).sample(4, 0)
        assert not np.array_equal(a, b)

    def test_partition_concatenates_to_serial(self):
        # draw index alone fixes each sample, so prefixes always agree
        sampler = PerturbationSampler(bench_factor(), seed=11)
        whole = sampler.sample(12, 2)
        np.testing.assert_array_equal(whole[:5], sampler.sample(5, 2))
        np.testing.assert_array_equal(whole[:9], sampler.sample(9, 2))

    def test_sample_is_factor_times_normals(self):
        fac = bench_factor()
        sampler = PerturbationSampler(fac, seed=3)
        z = sampler.normals(6, fac.shape[0], 1)
        np.testing.assert_array_equal(sampler.sample(6, 1), z @ fac.T)

    def test_empirical_covariance(self):
        # 50k draws at m=10: entrywise tolerance 5 g^2 / sqrt(B)
        grid = TimeGrid(0.1, 100.0)
        K = kernel_matrix(grid, BENCH_KERNEL)
        reg = 1e-6 * BENCH_KERNEL.variance
        fac = factorize(K, reg)
        draws = 50_000
        eps = PerturbationSampler(fac, seed=21).sample(draws, 0)
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
        a = PerturbationSampler(fac, seed=2).sample(10, 0)
        b = PerturbationSampler(fac4, seed=2).sample(10, 0)
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-12)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.7, 1.0, True, np.bool_(False), "1", None])
    def test_bad_seed(self, seed):
        with pytest.raises(ConfigError):
            PerturbationSampler(bench_factor(), seed=seed)

    def test_numpy_integers_accepted(self):
        fac = bench_factor()
        expected = PerturbationSampler(fac, seed=3).normals(2, 4, 5)
        for seed, stream in [(np.int64(3), np.uint64(5)), (np.uint64(3), np.int32(5))]:
            assert np.array_equal(PerturbationSampler(fac, seed=seed).normals(2, 4, stream), expected)

    def test_count_validation(self):
        sampler = PerturbationSampler(bench_factor(), seed=0)
        with pytest.raises(ConfigError):
            sampler.sample(0, 0)
        for count in (2.5, 2.0, True, np.float64(3.0)):
            with pytest.raises(ConfigError, match="count must be an integer"):
                sampler.normals(count, 4, 0)
            with pytest.raises(ConfigError, match="count must be an integer"):
                sampler.sample(count, 0)

    @pytest.mark.parametrize("seed, stream", [(0, 0), (2**64 - 1, 2**64 - 1)])
    @pytest.mark.parametrize("width", [1, 100])
    @pytest.mark.parametrize("count", [1, 37])
    def test_rows_match_per_row_philox_reference(self, seed, stream, width, count):
        # the determinism contract: row s is row s of one standard_normal
        # draw of the batch's full shape from a fresh engine keyed on
        # (seed, stream)
        key = np.array([seed, stream], dtype=np.uint64)
        reference = Generator(Philox(key=key)).standard_normal((count, width))
        sampler = PerturbationSampler(bench_factor(), seed=seed)
        assert np.array_equal(sampler.normals(count, width, stream), reference)

    def test_literal_golden_draws(self):
        # pinned literals: a numpy change to Philox or its normal sampler
        # fails here instead of moving in step with the reference above
        expected = np.array(
            [
                [0.30515618897074359, 0.89587435195314014, 0.54225583387138099],
                [0.38753676072257714, 0.035149883273173629, 1.2570709974216296],
            ]
        )
        sampler = PerturbationSampler(bench_factor(), seed=7)
        assert np.array_equal(sampler.normals(2, 3, 5), expected)

    def test_no_state_carries_between_calls(self):
        sampler = PerturbationSampler(bench_factor(), seed=4)
        first = sampler.normals(9, 13, 1)
        sampler.normals(9, 13, 2)
        assert np.array_equal(sampler.normals(9, 13, 1), first)

    @pytest.mark.parametrize(
        "width, stream",
        [
            (0, 0), (-1, 0), (5, -1), (5, 2**64), (5, 0.9), (5, 1.0), (5, True), (5, np.float64(2.0)),
            (2.0, 0), (2.5, 0), (True, 0), (np.float64(3.0), 0),
        ],
    )
    def test_bad_width_or_stream(self, width, stream):
        sampler = PerturbationSampler(bench_factor(), seed=0)
        with pytest.raises(ConfigError):
            sampler.normals(3, width, stream)



def new_engine_normals(seed, stream, count, width):
    key = np.array([seed, stream], dtype=np.uint64)
    return Generator(Philox(key=key)).standard_normal((count, width))


class TestOneEnginePerSampler:
    # each call resets the sampler's one engine to a new engine's state

    @pytest.mark.parametrize(
        "before",
        [
            [],
            [("normals", 3, 5, 1)],  # 15 draws leave Philox's 4-word buffer partly used
            [("normals", 100, 12, 0), ("normals", 7, 100, 9)],
            [("sample", 4, 2)],
            [("normals", 1, 1, 2**64 - 1), ("sample", 3, 0), ("normals", 5, 3, 1)],
        ],
        ids=["new", "odd-count-times-width", "other-widths", "sample", "mixed"],
    )
    @pytest.mark.parametrize("count, width, stream", [(100, 12, 1), (5, 3, 1), (1, 100, 0)])
    def test_equals_a_new_engine_after_any_earlier_calls(self, before, count, width, stream):
        sampler = PerturbationSampler(bench_factor(), seed=13)
        for call, *args in before:
            getattr(sampler, call)(*args)
        expected = new_engine_normals(13, stream, count, width)
        assert sampler.normals(count, width, stream).tobytes() == expected.tobytes()

    def test_reset_leaves_the_state_a_new_engine_would(self):
        # a 32-bit draw leaves a pending half word that standard_normal
        # never reads; the reset clears it too
        sampler = PerturbationSampler(bench_factor(), seed=13)
        sampler.normals(3, 5, 1)
        sampler._engine.integers(0, 10, size=3, dtype=np.uint32)
        assert sampler._engine.bit_generator.state["has_uint32"] == 1
        sampler.normals(4, 3, 2)
        engine = Generator(Philox(key=np.array([13, 2], dtype=np.uint64)))
        engine.standard_normal((4, 3))
        assert repr(sampler._engine.bit_generator.state) == repr(engine.bit_generator.state)

    def test_threads_sharing_a_sampler_get_new_engine_draws(self):
        # four threads on two cores, interleaving streams with frequent
        # thread switches: a reset another thread makes between this
        # thread's reset and draw shows as a wrong block
        sampler = PerturbationSampler(bench_factor(), seed=17)
        streams = {thread: range(thread, 16, 4) for thread in range(4)}
        expected = {s: new_engine_normals(17, s, 100, 100) for s in range(16)}
        start = threading.Barrier(len(streams), timeout=30)
        wrong = []

        def draw(thread):
            start.wait()
            for _ in range(10):
                for stream in streams[thread]:
                    if not np.array_equal(sampler.normals(100, 100, stream), expected[stream]):
                        wrong.append((thread, stream))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=draw, args=(thread,)) for thread in streams]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert wrong == []

    def test_used_sampler_equals_a_new_one(self):
        fac = bench_factor()
        fresh, used = PerturbationSampler(fac, seed=19), PerturbationSampler(fac, seed=19)
        pickled = pickle.dumps(fresh)
        used.sample(5, 3)
        used.normals(3, 7, 1)
        assert used == fresh
        assert repr(used) == repr(fresh)
        assert pickle.dumps(used) == pickled

    def test_unpickled_sampler_draws_the_same(self):
        sampler = PerturbationSampler(bench_factor(), seed=23)
        sampler.normals(3, 5, 1)
        clone = pickle.loads(pickle.dumps(sampler))
        assert clone._engine is not sampler._engine
        assert np.array_equal(clone.normals(6, 12, 4), new_engine_normals(23, 4, 6, 12))


RATE_RANKS = [(50.0, 12), (100.0, 12), (200.0, 13), (400.0, 13)]


def principal(rate_hz=100.0, reg_scale=1e-6):
    # built the way run_benchmark builds it; 100 Hz is the packaged grid
    K = kernel_matrix(TimeGrid(1.0, rate_hz), BENCH_KERNEL)
    reg = reg_scale * BENCH_KERNEL.variance
    return K, reg, principal_factor(factorize(K, reg), reg)


class TestPrincipalFactor:
    @pytest.mark.parametrize("rate_hz, rank", RATE_RANKS)
    def test_rank(self, rate_hz, rank):
        K, _, fac = principal(rate_hz)
        assert fac.shape == (K.shape[0], rank)

    @pytest.mark.parametrize("rate_hz", [rate for rate, _ in RATE_RANKS])
    def test_reconstruction_within_twice_the_jitter(self, rate_hz):
        # every dropped eigenvalue of K + reg*I is at most 2*reg
        K, reg, fac = principal(rate_hz)
        err = np.abs(fac @ fac.T - (K + reg * np.eye(K.shape[0]))).max()
        assert err <= 2.0 * reg

    def test_largest_entry_of_each_column_positive(self):
        _, _, fac = principal()
        peaks = fac[np.abs(fac).argmax(axis=0), np.arange(fac.shape[1])]
        assert np.all(peaks > 0.0)

    def test_read_only(self):
        _, _, fac = principal()
        with pytest.raises(ValueError, match="read-only"):
            fac[0, 0] = 1.0

    def test_nothing_above_the_jitter_rejected(self):
        with pytest.raises(ConfigError, match="lower reg"):
            principal(reg_scale=1e6)

    def test_sample_draws_rank_many_normals(self):
        _, _, fac = principal()
        sampler = PerturbationSampler(fac, seed=3)
        z = sampler.normals(6, fac.shape[1], 1)
        assert np.array_equal(sampler.sample(6, 1), z @ fac.T)

    def test_empirical_covariance_matches_kernel(self):
        # the benchmark's sampler, 50k draws at m=100, against K itself;
        # tolerance 5 g^2 / sqrt(B) as in criterion 5
        K, _, fac = principal()
        draws = 50_000
        eps = PerturbationSampler(fac, seed=21).sample(draws, 0)
        empirical = (eps.T @ eps) / draws
        tol = 5.0 * BENCH_KERNEL.variance / np.sqrt(draws)
        assert np.abs(empirical - K).max() <= tol


class TestSamplerEquality:
    """Equality compares the seed and the factor's shape and entries, and
    hashing agrees with it."""

    def test_equal_copy_is_equal_and_hashes_equal(self):
        fac = bench_factor()
        a, b = PerturbationSampler(fac, seed=3), PerturbationSampler(fac.copy(), seed=3)
        assert a.factor is not b.factor
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_different_seed_is_unequal(self):
        fac = bench_factor()
        assert PerturbationSampler(fac, seed=3) != PerturbationSampler(fac.copy(), seed=4)

    def test_different_factor_is_unequal(self):
        fac = bench_factor()
        other = fac.copy()
        other[5, 2] += 1e-12
        sampler = PerturbationSampler(fac, seed=3)
        assert sampler != PerturbationSampler(other, seed=3)
        assert sampler != PerturbationSampler(fac[:, :50], seed=3)  # another shape
        assert sampler != PerturbationSampler(fac.ravel(), seed=3)  # same entries, another shape
        assert sampler != (fac, 3)

    def test_pickle_round_trip_is_equal(self):
        sampler = PerturbationSampler(bench_factor(), seed=29)
        clone = pickle.loads(pickle.dumps(sampler))
        assert clone.factor is not sampler.factor
        assert clone == sampler and hash(clone) == hash(sampler)
