"""Exact multi-class MVA (extension)."""

import numpy as np
import pytest

from repro.core import exact_multiclass_mva, exact_mva


class TestMultiClassMVA:
    def test_single_class_matches_exact_mva(self, two_station_net):
        res = exact_multiclass_mva(
            demands=[[0.05], [0.08]], populations=[20], think_times=[1.0]
        )
        ref = exact_mva(two_station_net, 20)
        assert res.throughput[0] == pytest.approx(ref.throughput[-1], rel=1e-10)
        assert res.response_time[0] == pytest.approx(ref.response_time[-1], rel=1e-10)

    def test_symmetric_classes_get_equal_shares(self):
        res = exact_multiclass_mva(
            demands=[[0.1, 0.1], [0.05, 0.05]],
            populations=[5, 5],
            think_times=[1.0, 1.0],
        )
        assert res.throughput[0] == pytest.approx(res.throughput[1], rel=1e-12)
        np.testing.assert_allclose(
            res.queue_lengths_by_class[:, 0], res.queue_lengths_by_class[:, 1], rtol=1e-12
        )

    def test_two_identical_classes_equal_one_merged_class(self):
        # Splitting a class in two must not change totals (BCMP insensitivity).
        merged = exact_multiclass_mva([[0.1], [0.06]], [8], [1.0])
        split = exact_multiclass_mva(
            [[0.1, 0.1], [0.06, 0.06]], [4, 4], [1.0, 1.0]
        )
        assert split.total_throughput == pytest.approx(merged.total_throughput, rel=1e-10)

    def test_littles_law_per_class(self):
        res = exact_multiclass_mva(
            demands=[[0.1, 0.2], [0.05, 0.02]],
            populations=[4, 3],
            think_times=[1.0, 0.5],
        )
        for c, n_c in enumerate(res.populations):
            reconstructed = res.throughput[c] * (res.response_time[c] + res.think_times[c])
            assert reconstructed == pytest.approx(n_c, rel=1e-10)

    def test_job_conservation(self):
        res = exact_multiclass_mva(
            demands=[[0.1, 0.2], [0.05, 0.02]],
            populations=[4, 3],
            think_times=[1.0, 0.5],
        )
        thinking = (res.throughput * np.array(res.think_times)).sum()
        assert res.queue_lengths.sum() + thinking == pytest.approx(7.0, rel=1e-10)

    def test_zero_population_class(self):
        res = exact_multiclass_mva(
            demands=[[0.1, 0.2]], populations=[5, 0], think_times=[1.0, 1.0]
        )
        assert res.throughput[1] == 0.0
        ref = exact_multiclass_mva([[0.1]], [5], [1.0])
        assert res.throughput[0] == pytest.approx(ref.throughput[0], rel=1e-12)

    def test_all_empty(self):
        res = exact_multiclass_mva([[0.1]], [0], [1.0])
        assert res.total_throughput == 0.0
        assert res.queue_lengths.sum() == 0.0

    def test_delay_station_kind(self):
        res_q = exact_multiclass_mva([[0.1]], [10], [1.0], station_kinds=["queue"])
        res_d = exact_multiclass_mva([[0.1]], [10], [1.0], station_kinds=["delay"])
        # Delay station never queues -> strictly higher throughput at load.
        assert res_d.throughput[0] > res_q.throughput[0]
        # Delay network closed form: X = N / (Z + D)
        assert res_d.throughput[0] == pytest.approx(10 / 1.1, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="matrix"):
            exact_multiclass_mva([0.1, 0.2], [1], [1.0])
        with pytest.raises(ValueError, match="populations"):
            exact_multiclass_mva([[0.1]], [-1], [1.0])
        with pytest.raises(ValueError, match="think_times"):
            exact_multiclass_mva([[0.1]], [1], [-1.0])
        with pytest.raises(ValueError, match="station names"):
            exact_multiclass_mva([[0.1]], [1], [1.0], station_names=["a", "b"])

    def test_non_finite_inputs_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            exact_multiclass_mva([[np.nan, 0.1]], [2, 1], [1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            exact_multiclass_mva([[np.inf, 0.1]], [2, 1], [1.0, 1.0])
        with pytest.raises(ValueError, match="think_times"):
            exact_multiclass_mva([[0.1, 0.1]], [2, 1], [np.inf, 1.0])
        with pytest.raises(ValueError, match="think_times"):
            exact_multiclass_mva([[0.1, 0.1]], [2, 1], [np.nan, 1.0])

    def test_utilization(self):
        res = exact_multiclass_mva(
            demands=[[0.1, 0.05]], populations=[3, 3], think_times=[1.0, 1.0]
        )
        expected = res.throughput[0] * 0.1 + res.throughput[1] * 0.05
        assert res.utilizations[0] == pytest.approx(expected, rel=1e-12)
