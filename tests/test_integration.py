"""Cross-module integration: the paper's claims end-to-end (scaled down)."""

import pytest

from repro.analysis import compare_models, deviation_against_sweep
from repro.core import exact_multiserver_mva, mvasd
from repro.loadtest.runner import extract_demands
from repro.workflow import predict_performance


class TestPaperShapeClaims:
    """DESIGN.md section 5: the qualitative results that must reproduce."""

    def test_claim1_mvasd_beats_all_mva_i(self, mini_sweep):
        cmp_ = compare_models(mini_sweep, mva_levels=(1, 10, 35))
        for metric in ("throughput", "cycle_time"):
            best = cmp_.deviations["MVASD"][metric]
            for lvl in (1, 10, 35):
                assert best <= cmp_.deviations[f"MVA {lvl}"][metric] + 0.5

    def test_claim3_mva_i_improves_with_higher_i(self, mini_sweep):
        # Demands measured near saturation predict the saturated region
        # better than single-user demands do (Fig. 4 ordering).
        cmp_ = compare_models(mini_sweep, mva_levels=(1, 35))
        assert (
            cmp_.deviations["MVA 35"]["throughput"]
            < cmp_.deviations["MVA 1"]["throughput"]
        )

    def test_claim6_demand_decreases_and_bottleneck_saturates(self, mini_sweep):
        samples = mini_sweep.demand_samples()
        assert samples["db.disk"][-1] < samples["db.disk"][0]
        last_run = mini_sweep.runs[-1]
        assert last_run.simulation.utilization_of("db.disk") > 0.85

    def test_prediction_tracks_measured_utilization(self, mini_sweep):
        # Fig. 9: MVASD-predicted bottleneck utilization follows measured.
        table = mini_sweep.demand_table()
        result = mvasd(
            mini_sweep.application.network, 50, demand_functions=table.functions()
        )
        report = deviation_against_sweep(
            result, mini_sweep, stations_for_utilization=["db.disk", "db.cpu"]
        )
        assert report["utilization:db.disk"] < 12.0
        assert report["utilization:db.cpu"] < 15.0


class TestChebyshevWorkflow:
    def test_chebyshev_design_matches_dense_reference(self, mini_sweep):
        # Fig. 16: a 3-point Chebyshev design already predicts well.
        rep = predict_performance(
            mini_sweep.application,
            n_design_points=3,
            max_population=50,
            concurrency_range=(1, 50),
            duration=60.0,
            seed=7,
        )
        dev = rep.validate(mini_sweep)
        assert dev["throughput"] < 12.0

    def test_more_nodes_do_not_hurt_much(self, mini_sweep):
        devs = {}
        for n in (3, 5):
            rep = predict_performance(
                mini_sweep.application,
                n_design_points=n,
                max_population=50,
                concurrency_range=(1, 50),
                duration=60.0,
                seed=7,
            )
            devs[n] = rep.validate(mini_sweep)["throughput"]
        assert devs[5] < devs[3] + 5.0


class TestMeasurementPipelineConsistency:
    def test_extracted_demands_feed_back_exactly(self, mini_sweep):
        # Forced-flow sanity: every station's simulated throughput equals
        # the page rate (visit ratio 1 in the folded-demand model).
        run = mini_sweep.runs[3]
        sim = run.simulation
        for idx, name in enumerate(sim.station_names):
            if sim.utilizations[idx] > 0:
                assert sim.station_throughputs[idx] == pytest.approx(
                    sim.throughput, rel=0.02
                )

    def test_mva_of_extracted_demands_reproduces_that_level(self, mini_sweep):
        # Solving with demands extracted at level i must reproduce the
        # measured operating point AT level i (self-consistency of the
        # service-demand law + MVA).
        app = mini_sweep.application
        lvl = 20
        run = dict(zip(mini_sweep.levels.tolist(), mini_sweep.runs))[lvl]
        demands = extract_demands(run, app)
        vector = [demands[n] for n in app.network.station_names]
        result = exact_multiserver_mva(app.network, lvl, demands=vector)
        assert result.throughput[-1] == pytest.approx(run.tps, rel=0.08)
