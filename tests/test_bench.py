import pytest

from metavit import bench
from metavit.bench import bench_block_pair, bench_model, speedup
from metavit.errors import UsageError
from metavit.model import variant


class TestBenchBlockPair:
    def test_too_few_iterations_rejected(self):
        with pytest.raises(UsageError):
            bench_block_pair(64, 8, 16, iters=10)

    def test_non_square_token_count_rejected(self):
        with pytest.raises(UsageError):
            bench_block_pair(60, 8, 16, iters=30)

    def test_small_shape_runs_and_reports(self):
        dca, sa = bench_block_pair(16, 16, 64, iters=30, warmup=10, seed=0)
        for r in (dca, sa):
            assert r.iters == 30
            assert r.median_s > 0 and r.stddev_s >= 0
            assert r.throughput > 0
        # crossover regime: no ordering requirement at n == m
        assert speedup(sa, dca) > 0

    def test_throughput_is_iters_over_elapsed(self):
        dca, _ = bench_block_pair(16, 16, 64, iters=30, seed=0)
        # mean * iters reconstructs total time; throughput = iters / total
        reconstructed = dca.iters / (dca.mean_s * dca.iters)
        assert abs(reconstructed - dca.throughput) / dca.throughput < 0.01


class TestBlasPinning:
    def test_time_loop_runs_on_one_blas_thread_and_restores(self):
        controls = bench._openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS loaded")
        before = [get() for get, _ in controls]
        seen = []
        bench._time_loop(lambda: seen.append([get() for get, _ in controls]), 1, 2)
        assert seen == [[1] * len(controls)] * 3
        assert [get() for get, _ in controls] == before


class TestBenchModel:
    def test_model_bench_floor_tiny_at_64(self):
        result = bench_model(variant("tiny"), 64, iters=30, warmup=5)
        assert result.throughput >= 1.0  # images per second on commodity hardware
        assert result.iters == 30

    def test_iters_guard(self):
        with pytest.raises(UsageError):
            bench_model(variant("tiny-narrow", num_classes=3), 64, iters=5)


@pytest.mark.slow
class TestOrdering:
    def test_tiny_first_stage_shape_dca_faster(self):
        dca, sa = bench_block_pair(3136, 16, 64, iters=30, warmup=10, seed=0)
        assert dca.median_s < sa.median_s
        assert speedup(sa, dca) > 1.0

    def test_run_to_run_median_stability(self):
        medians = []
        for run in range(2):
            dca, _ = bench_block_pair(1024, 16, 64, iters=30, warmup=10, seed=run)
            medians.append(dca.median_s)
        spread = abs(medians[0] - medians[1]) / min(medians)
        assert spread < 0.10

    def test_smaller_variant_faster_at_equal_input(self):
        fast = bench_model(variant("tiny-narrow", num_classes=3), 64, iters=30, warmup=5)
        slow = bench_model(variant("tiny", num_classes=3), 64, iters=30, warmup=5)
        assert fast.throughput > slow.throughput
