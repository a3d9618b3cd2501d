"""Algorithm 2 — exact multi-server MVA (convolution backend + recursion)."""

import numpy as np
import pytest

from repro.core import (
    ClosedNetwork,
    Station,
    exact_load_dependent_mva,
    exact_multiserver_mva,
    exact_mva,
)
from repro.core.multiserver import multiserver_step, update_marginals
from repro.core.mvasd import mvasd
from repro.engine.batched import _BatchedMultiServerState


class TestConvolutionBackend:
    def test_matches_load_dependent_reference_c4(self, multiserver_net):
        a2 = exact_multiserver_mva(multiserver_net, 150)
        ld = exact_load_dependent_mva(multiserver_net, 150)
        np.testing.assert_allclose(a2.throughput, ld.throughput, rtol=1e-9)

    def test_single_customer_sees_full_demand(self, multiserver_net):
        r = exact_multiserver_mva(multiserver_net, 1)
        assert r.response_time[0] == pytest.approx(0.45)

    def test_reduces_to_single_server_mva_when_c1(self, two_station_net):
        a2 = exact_multiserver_mva(two_station_net, 80)
        a1 = exact_mva(two_station_net, 80)
        np.testing.assert_allclose(a2.throughput, a1.throughput, rtol=1e-9)
        np.testing.assert_allclose(a2.queue_lengths, a1.queue_lengths, rtol=1e-7, atol=1e-12)

    def test_saturates_at_c_over_d(self, multiserver_net):
        r = exact_multiserver_mva(multiserver_net, 400)
        assert r.throughput[-1] == pytest.approx(4 / 0.4, rel=1e-3)

    def test_stable_at_16_cores_through_saturation(self, manycore_net):
        # The regime where the plain recursion blows up.
        r = exact_multiserver_mva(manycore_net, 400)
        # disk (D=0.01) is the true bottleneck: X_max = 100
        assert r.throughput[-1] == pytest.approx(100.0, rel=1e-3)
        assert np.all(np.diff(r.throughput) > -1e-6)

    def test_known_point_16_cores(self, manycore_net):
        # Independently verified by simulation and log-domain convolution:
        # X(120) = 93.94 (DES 93.91 +/- 0.03).
        r = exact_multiserver_mva(manycore_net, 120)
        assert r.throughput[-1] == pytest.approx(93.94, rel=2e-3)

    def test_littles_law(self, manycore_net):
        r = exact_multiserver_mva(manycore_net, 200)
        assert r.littles_law_residual().max() < 1e-12

    def test_job_conservation_with_detail(self, manycore_net):
        r = exact_multiserver_mva(manycore_net, 150, station_detail=True)
        # queued jobs + thinking jobs == population at every level
        thinking = r.throughput * 1.0
        total = r.queue_lengths.sum(axis=1) + thinking
        np.testing.assert_allclose(total, r.populations, rtol=1e-9)

    def test_multiserver_beats_single_server_model(self, multiserver_net):
        # Treating the 4-core CPU as one server of demand 0.4 must predict
        # strictly lower throughput at mid load.
        ms = exact_multiserver_mva(multiserver_net, 50)
        ss = exact_mva(multiserver_net, 50)
        assert ms.throughput[20] > ss.throughput[20]

    def test_normalized_single_server_overestimates(self, multiserver_net):
        # The Fig. 8 effect, other direction: demand/C as single server
        # underestimates contention at low-mid load -> higher throughput.
        ms = exact_multiserver_mva(multiserver_net, 50)
        norm = exact_mva(multiserver_net, 50, demands=[0.1, 0.05])
        assert norm.throughput[5] > ms.throughput[5]

    def test_demand_override(self, multiserver_net):
        r = exact_multiserver_mva(multiserver_net, 10, demands=[0.8, 0.05])
        assert r.response_time[0] == pytest.approx(0.85)

    def test_invalid_method(self, multiserver_net):
        with pytest.raises(ValueError, match="method"):
            exact_multiserver_mva(multiserver_net, 10, method="magic")


class TestRecursionBackend:
    def test_matches_convolution_at_small_c(self, multiserver_net):
        rec = exact_multiserver_mva(multiserver_net, 200, method="recursion")
        conv = exact_multiserver_mva(multiserver_net, 200)
        np.testing.assert_allclose(rec.throughput, conv.throughput, rtol=1e-8)

    def test_transition_bias_bounded_at_16_cores(self, manycore_net):
        # Renormalization keeps the recursion stable; bias < 2.5 % even in
        # the saturation transition where the raw recursion diverges.
        rec = exact_multiserver_mva(manycore_net, 300, method="recursion")
        conv = exact_multiserver_mva(manycore_net, 300)
        rel = np.abs(rec.throughput - conv.throughput) / conv.throughput
        assert rel.max() < 0.025

    def test_marginal_probabilities_shape(self, multiserver_net):
        rec = exact_multiserver_mva(multiserver_net, 50, method="recursion")
        probs = rec.marginal_probabilities["cpu"]
        assert probs.shape == (50, 4)

    def test_marginals_are_probabilities(self, multiserver_net):
        rec = exact_multiserver_mva(multiserver_net, 120, method="recursion")
        probs = rec.marginal_probabilities["cpu"]
        assert np.all(probs >= 0)
        assert np.all(probs.sum(axis=1) <= 1 + 1e-9)

    def test_empty_probability_decays_with_load(self, multiserver_net):
        # p(0) must fall from ~1 toward 0 as the CPU saturates (Fig. 3).
        rec = exact_multiserver_mva(multiserver_net, 150, method="recursion")
        p0 = rec.marginal_probabilities["cpu"][:, 0]
        assert p0[0] > 0.5
        assert p0[-1] < 0.05


class TestMultiServerState:
    """The batched marginal state both MVASD axes and the recursion run on."""

    def test_first_residence_is_demand(self):
        st = _BatchedMultiServerState(8, 10, np.ones((1, 1)))
        assert st.residence(1, np.array([0.8]))[0] == pytest.approx(0.8)

    def test_queue_length_from_marginals(self):
        # One customer at X=1, D=0.5: p(0)=p(1)=0.5 -> Q=0.5
        net = ClosedNetwork([Station("cpu", 0.5, servers=2)], think_time=0.5)
        for axis in ("population", "throughput"):
            r = mvasd(net, 1, demand_axis=axis)
            assert r.throughput[0] == pytest.approx(1.0)
            np.testing.assert_allclose(r.marginal_probabilities["cpu"][0], [0.5, 0.5])
            assert r.queue_lengths[0, 0] == pytest.approx(0.5)

    def test_marginals_pad_when_servers_exceed_population(self):
        # p(j) = 0 for j > N; the history must still hold C entries.
        net = ClosedNetwork([Station("pool", 0.25, servers=3)], think_time=0.0)
        for axis in ("population", "throughput"):
            probs = mvasd(net, 1, demand_axis=axis).marginal_probabilities["pool"]
            assert probs.shape == (1, 3)
            np.testing.assert_allclose(probs[0], [0.0, 1.0, 0.0])

    def test_mvasd_with_servers_exceeding_population(self):
        net = ClosedNetwork([Station("pool", 0.0, servers=3)], think_time=0.0)
        result = mvasd(net, 1, demand_functions=[lambda n: 0.25])
        assert result.throughput[0] == pytest.approx(4.0)


class TestPaperLiteralTruncatedForm:
    """The small-C truncated step/update used for Fig. 3 exposition."""

    def test_single_server_step_is_mva(self):
        assert multiserver_step(0.2, 1, 3.0, np.zeros(1)) == pytest.approx(0.8)

    def test_empty_multiserver_step_gives_demand(self):
        probs = np.zeros(4)
        probs[0] = 1.0
        assert multiserver_step(0.4, 4, 0.0, probs) == pytest.approx(0.4)

    def test_update_noop_for_single_server(self):
        probs = np.array([1.0])
        update_marginals(probs, 5.0, 0.2, 1)
        np.testing.assert_array_equal(probs, [1.0])

    def test_truncated_recursion_tracks_exact_at_c4(self, multiserver_net):
        # Hand-rolled truncated loop vs the exact solver, C=4, stable regime.
        conv = exact_multiserver_mva(multiserver_net, 60)
        d = np.array([0.4, 0.05])
        q = np.zeros(2)
        probs = np.zeros(4)
        probs[0] = 1.0
        xs = []
        for n in range(1, 61):
            r0 = multiserver_step(d[0], 4, q[0], probs)
            r1 = d[1] * (1 + q[1])
            x = n / (1.0 + r0 + r1)
            q = x * np.array([r0, r1])
            update_marginals(probs, x, d[0], 4)
            xs.append(x)
        np.testing.assert_allclose(xs, conv.throughput, rtol=5e-3)
