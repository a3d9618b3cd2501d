"""Page-level workflow simulation."""

import pytest

from repro.apps import jpetstore_application, vins_application
from repro.core import ClosedNetwork, Station
from repro.simulation import simulate_closed_network, simulate_workflow


@pytest.fixture
def net():
    return ClosedNetwork(
        [Station("cpu", 0.06, servers=2), Station("disk", 0.04)], think_time=0.5
    )


class TestSimulateWorkflow:
    def test_uniform_weights_match_aggregate_simulator(self, net):
        wf = simulate_workflow(net, 8, [1.0, 1.0, 1.0], duration=300.0, warmup=30.0, seed=4)
        agg = simulate_closed_network(net, 8, duration=300.0, warmup=30.0, seed=5)
        assert wf.aggregate.throughput == pytest.approx(agg.throughput, rel=0.05)
        assert wf.aggregate.response_time == pytest.approx(agg.response_time, rel=0.08)

    def test_page_counts_balanced_round_robin(self, net):
        wf = simulate_workflow(net, 6, [1.0, 2.0], duration=200.0, warmup=20.0, seed=1)
        counts = [p.completions for p in wf.pages]
        assert abs(counts[0] - counts[1]) <= 6  # one per in-flight user

    def test_heavier_page_has_higher_response_time(self, net):
        wf = simulate_workflow(
            net, 10, {"light": 0.5, "heavy": 2.0}, duration=300.0, warmup=30.0, seed=2
        )
        assert wf.page("heavy").mean_response_time > wf.page("light").mean_response_time

    def test_weights_normalized_to_mean_one(self, net):
        # Scaling all weights by 10 must not change the system.
        a = simulate_workflow(net, 6, [1.0, 3.0], duration=200.0, warmup=20.0, seed=3)
        b = simulate_workflow(net, 6, [10.0, 30.0], duration=200.0, warmup=20.0, seed=3)
        assert a.aggregate.throughput == pytest.approx(b.aggregate.throughput, rel=1e-9)

    def test_p95_at_least_mean(self, net):
        wf = simulate_workflow(net, 8, [1.0, 1.5], duration=200.0, warmup=20.0, seed=6)
        for p in wf.pages:
            assert p.p95_response_time >= p.mean_response_time

    def test_mapping_names_used(self, net):
        wf = simulate_workflow(net, 4, {"a": 1.0, "b": 1.0}, duration=100.0, seed=0)
        assert wf.page_names == ("a", "b")
        with pytest.raises(KeyError):
            wf.page("c")

    def test_workflow_time(self, net):
        wf = simulate_workflow(net, 4, [1.0, 1.0], duration=150.0, warmup=15.0, seed=0)
        assert wf.workflow_time == pytest.approx(2 * wf.aggregate.cycle_time)

    def test_validation(self, net):
        with pytest.raises(ValueError, match="at least one"):
            simulate_workflow(net, 4, [], duration=100.0)
        with pytest.raises(ValueError, match="positive"):
            simulate_workflow(net, 4, [1.0, -1.0], duration=100.0)
        with pytest.raises(ValueError, match="population"):
            simulate_workflow(net, 0, [1.0], duration=100.0)


class TestBundledApplications:
    def test_vins_pages_defined(self):
        app = vins_application()
        weights = app.workflow_weights()
        assert len(weights) == 7
        assert "premium-calculation" in weights

    def test_jpetstore_pages_defined(self):
        app = jpetstore_application()
        assert len(app.workflow_weights()) == 14

    def test_vins_heavy_page_dominates(self):
        app = vins_application()
        wf = simulate_workflow(
            app.network, 50, app.workflow_weights(), duration=120.0, warmup=12.0, seed=9
        )
        heavy = wf.page("premium-calculation").mean_response_time
        light = wf.page("confirmation").mean_response_time
        assert heavy > light

    def test_aggregate_close_to_flat_model(self):
        # Page weights are mean-1, so pages/second stays comparable to the
        # aggregate model MVA sees (mild skew -> small drift allowed).
        app = jpetstore_application()
        wf = simulate_workflow(
            app.network, 70, app.workflow_weights(), duration=150.0, warmup=15.0, seed=9
        )
        flat = simulate_closed_network(app.network, 70, duration=150.0, warmup=15.0, seed=9)
        assert wf.aggregate.throughput == pytest.approx(flat.throughput, rel=0.06)
