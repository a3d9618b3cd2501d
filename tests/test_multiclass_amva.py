"""Multi-class AMVA / multi-class MVASD, validated against multi-class DES."""

import numpy as np
import pytest

from repro.core import exact_multiclass_mva
from repro.core.multiclass_amva import bard_schweitzer, multiclass_mvasd
from repro.simulation.multiclass import ClassSpec, simulate_multiclass


class TestBardSchweitzer:
    def test_close_to_exact_small_lattice(self):
        demands = [[0.08, 0.05], [0.04, 0.09]]
        exact = exact_multiclass_mva(demands, [6, 5], [1.0, 0.5])
        x, r, q = bard_schweitzer(np.array(demands), [6, 5], [1.0, 0.5])
        # Bard-Schweitzer's typical accuracy band at small populations.
        np.testing.assert_allclose(x, exact.throughput, rtol=0.06)
        np.testing.assert_allclose(r, exact.response_time, rtol=0.12)

    def test_single_class_matches_schweitzer(self, two_station_net):
        from repro.core import schweitzer_amva

        x, r, _ = bard_schweitzer(np.array([[0.05], [0.08]]), [20], [1.0])
        ref = schweitzer_amva(two_station_net, 20)
        assert x[0] == pytest.approx(ref.throughput[-1], rel=1e-6)

    def test_empty_class_contributes_nothing(self):
        x, r, q = bard_schweitzer(np.array([[0.1, 0.2]]), [5, 0], [1.0, 1.0])
        assert x[1] == 0.0
        x_solo, _, _ = bard_schweitzer(np.array([[0.1]]), [5], [1.0])
        assert x[0] == pytest.approx(x_solo[0], rel=1e-8)

    def test_delay_station_kind(self):
        x_q, r_q, _ = bard_schweitzer(np.array([[0.1]]), [10], [1.0])
        x_d, r_d, _ = bard_schweitzer(
            np.array([[0.1]]), [10], [1.0], station_kinds=["delay"]
        )
        assert x_d[0] == pytest.approx(10 / 1.1, rel=1e-8)
        assert x_d[0] > x_q[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            bard_schweitzer(np.array([[-0.1]]), [1], [1.0])
        with pytest.raises(ValueError):
            bard_schweitzer(np.array([[0.1]]), [1, 2], [1.0])

    def test_non_finite_inputs_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            bard_schweitzer(np.array([[np.nan, 0.1]]), [2, 1], [1.0, 1.0])
        with pytest.raises(ValueError, match="think_times"):
            bard_schweitzer(np.array([[0.1, 0.1]]), [2, 1], [np.inf, 1.0])
        with pytest.raises(ValueError, match="populations"):
            bard_schweitzer(np.array([[0.1, 0.1]]), [np.nan, 1], [1.0, 1.0])


class TestMulticlassMVASD:
    STATIONS = ("cpu", "disk")

    def _demands(self):
        return {
            "writer": {"cpu": 0.03, "disk": lambda n: 0.05 + 0.02 * np.exp(-n / 20)},
            "reader": {"cpu": 0.03, "disk": 0.01},
        }

    def test_trajectory_shapes(self):
        traj = multiclass_mvasd(
            self.STATIONS,
            self._demands(),
            mix={"writer": 1, "reader": 3},
            max_total_population=40,
            think_times={"writer": 1.0, "reader": 1.0},
        )
        assert traj.throughput.shape == (40, 2)
        assert traj.populations.sum(axis=1).tolist() == list(range(1, 41))

    def test_mix_apportionment(self):
        traj = multiclass_mvasd(
            self.STATIONS,
            self._demands(),
            mix={"writer": 1, "reader": 3},
            max_total_population=40,
            think_times={"writer": 1.0, "reader": 1.0},
        )
        assert traj.populations[-1].tolist() == [10, 30]

    def test_varying_demand_consumed(self):
        # demand decay must raise the writer ceiling vs frozen-at-1 demands
        frozen = {
            "writer": {"cpu": 0.03, "disk": 0.07},
            "reader": {"cpu": 0.03, "disk": 0.01},
        }
        kw = dict(
            mix={"writer": 1, "reader": 1},
            max_total_population=60,
            think_times={"writer": 1.0, "reader": 1.0},
        )
        varying = multiclass_mvasd(self.STATIONS, self._demands(), **kw)
        static = multiclass_mvasd(self.STATIONS, frozen, **kw)
        assert varying.total_throughput[-1] > static.total_throughput[-1]

    def test_against_multiclass_des(self):
        demands = {
            "writer": {"cpu": 0.030, "disk": 0.050},
            "reader": {"cpu": 0.030, "disk": 0.010},
        }
        traj = multiclass_mvasd(
            self.STATIONS,
            demands,
            mix={"writer": 1, "reader": 1},
            max_total_population=16,
            think_times={"writer": 1.0, "reader": 1.0},
        )
        sim = simulate_multiclass(
            self.STATIONS,
            servers={"cpu": 1, "disk": 1},
            classes=[
                ClassSpec("writer", 8, 1.0, demands["writer"]),
                ClassSpec("reader", 8, 1.0, demands["reader"]),
            ],
            duration=400.0,
            warmup=40.0,
            seed=3,
        )
        np.testing.assert_allclose(traj.throughput[-1], sim.throughput, rtol=0.08)

    def test_cycle_time_accessor(self):
        traj = multiclass_mvasd(
            self.STATIONS,
            self._demands(),
            mix={"writer": 1, "reader": 1},
            max_total_population=10,
            think_times={"writer": 1.0, "reader": 0.5},
        )
        assert traj.cycle_time("reader")[0] >= 0.5
        with pytest.raises(KeyError):
            traj.cycle_time("admin")

    def test_validation(self):
        with pytest.raises(ValueError, match="cover"):
            multiclass_mvasd(
                self.STATIONS,
                self._demands(),
                mix={"writer": 1},
                max_total_population=5,
                think_times={"writer": 1.0, "reader": 1.0},
            )
        with pytest.raises(ValueError, match="missing demands"):
            multiclass_mvasd(
                self.STATIONS,
                {"writer": {"cpu": 0.1}},
                mix={"writer": 1},
                max_total_population=5,
                think_times={"writer": 1.0},
            )

    def test_non_finite_inputs_rejected(self):
        demands = self._demands()
        demands["writer"]["cpu"] = lambda n: np.nan if n > 3 else 0.1
        with pytest.raises(ValueError, match="finite"):
            multiclass_mvasd(
                self.STATIONS,
                demands,
                mix={"writer": 1, "reader": 1},
                max_total_population=5,
                think_times={"writer": 1.0, "reader": 1.0},
            )
        with pytest.raises(ValueError, match="think_times"):
            multiclass_mvasd(
                self.STATIONS,
                self._demands(),
                mix={"writer": 1, "reader": 1},
                max_total_population=5,
                think_times={"writer": np.inf, "reader": 1.0},
            )

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_non_finite_mix_weight_rejected(self, weight):
        # A NaN weight used to apportion -2**63 users to its class.
        with pytest.raises(ValueError, match="mix weights"):
            multiclass_mvasd(
                self.STATIONS,
                self._demands(),
                mix={"writer": weight, "reader": 1},
                max_total_population=5,
                think_times={"writer": 1.0, "reader": 1.0},
            )


class TestMulticlassDES:
    def test_single_class_matches_exact_theory(self, two_station_net):
        from repro.core import exact_mva

        xs = [
            simulate_multiclass(
                ("cpu", "disk"),
                servers={"cpu": 1, "disk": 1},
                classes=[ClassSpec("only", 10, 1.0, {"cpu": 0.05, "disk": 0.08})],
                duration=300.0,
                warmup=30.0,
                seed=s,
            ).total_throughput
            for s in (4, 5, 6)
        ]
        exact = exact_mva(two_station_net, 10).throughput[-1]
        assert np.mean(xs) == pytest.approx(exact, rel=0.04)

    def test_class_isolation_of_light_class(self):
        # the reader class (tiny disk demand) must see far lower response
        # times than the writer class at the same station set
        sim = simulate_multiclass(
            ("disk",),
            servers={"disk": 1},
            classes=[
                ClassSpec("writer", 6, 1.0, {"disk": 0.08}),
                ClassSpec("reader", 6, 1.0, {"disk": 0.01}),
            ],
            duration=300.0,
            warmup=30.0,
            seed=1,
        )
        w = sim.of_class("writer")
        r = sim.of_class("reader")
        assert r["response_time"] < w["response_time"]

    def test_validation(self):
        with pytest.raises(ValueError, match="total population"):
            simulate_multiclass(("a",), {"a": 1}, [ClassSpec("x", 0, 1.0, {"a": 0.1})], 10.0)
        with pytest.raises(ValueError, match="duplicate"):
            simulate_multiclass(
                ("a",),
                {"a": 1},
                [ClassSpec("x", 1, 1.0, {"a": 0.1}), ClassSpec("x", 1, 1.0, {"a": 0.1})],
                10.0,
            )
        with pytest.raises(ValueError, match="nothing to do"):
            simulate_multiclass(("a",), {"a": 1}, [ClassSpec("x", 1, 0.0, {})], 10.0)
