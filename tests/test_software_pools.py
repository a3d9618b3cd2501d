"""Connection pools (software bottlenecks) in the simulator."""

import pytest

from repro.core import ClosedNetwork, Station, exact_multiserver_mva
from repro.simulation import ConnectionPool, simulate_closed_network


@pytest.fixture
def net():
    return ClosedNetwork(
        [
            Station("app.cpu", 0.03, servers=4),
            Station("db.cpu", 0.04, servers=4),
            Station("db.disk", 0.03),
        ],
        think_time=1.0,
    )


class TestConnectionPoolSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConnectionPool("p", 0, ["db.cpu"])
        with pytest.raises(ValueError):
            ConnectionPool("p", 5, [])


class TestPoolSimulation:
    def test_generous_pool_changes_nothing(self, net):
        pool = ConnectionPool("db", capacity=1000, stations=["db.cpu", "db.disk"])
        with_pool = simulate_closed_network(
            net, 20, duration=200.0, warmup=20.0, seed=1, pools=[pool]
        )
        without = simulate_closed_network(net, 20, duration=200.0, warmup=20.0, seed=1)
        assert with_pool.throughput == pytest.approx(without.throughput, rel=1e-9)
        assert with_pool.pool("db").mean_wait == 0.0

    def test_tight_pool_caps_throughput(self, net):
        # 2 DB connections serialize the DB tier: throughput is bounded by
        # 2 / (D_dbcpu + D_dbdisk) = 2 / 0.07 ~ 28.6/s regardless of the
        # hardware's higher capacity.
        pool = ConnectionPool("db", capacity=2, stations=["db.cpu", "db.disk"])
        sim = simulate_closed_network(
            net, 60, duration=300.0, warmup=30.0, seed=1, pools=[pool]
        )
        assert sim.throughput < 2 / 0.07 * 1.05
        unconstrained = simulate_closed_network(
            net, 60, duration=300.0, warmup=30.0, seed=1
        )
        assert sim.throughput < unconstrained.throughput * 0.95

    def test_pool_wait_recorded(self, net):
        pool = ConnectionPool("db", capacity=2, stations=["db.cpu", "db.disk"])
        sim = simulate_closed_network(
            net, 60, duration=300.0, warmup=30.0, seed=1, pools=[pool]
        )
        stats = sim.pool("db")
        assert stats.mean_wait > 0.0
        assert stats.max_waiting > 0
        assert stats.utilization > 0.9  # the pool itself is the bottleneck
        assert stats.acquisitions > 0

    def test_hardware_looks_idle_under_pool_limit(self, net):
        # The mis-tuned-pool signature: users wait, hardware does not.
        pool = ConnectionPool("db", capacity=1, stations=["db.cpu", "db.disk"])
        sim = simulate_closed_network(
            net, 40, duration=300.0, warmup=30.0, seed=2, pools=[pool]
        )
        assert sim.utilization_of("db.cpu") < 0.3
        # yet response time is far above the no-pool model's prediction
        mva = exact_multiserver_mva(net, 40)
        assert sim.response_time > 2 * mva.response_time[-1]

    def test_mva_overpredicts_with_untuned_pool(self, net):
        # The paper's scoping assumption quantified: hardware-only MVA
        # overpredicts throughput when a software limit binds.
        pool = ConnectionPool("db", capacity=2, stations=["db.cpu", "db.disk"])
        sim = simulate_closed_network(
            net, 60, duration=300.0, warmup=30.0, seed=1, pools=[pool]
        )
        mva = exact_multiserver_mva(net, 60)
        assert mva.throughput[-1] > sim.throughput * 1.2

    def test_pool_on_partial_tier(self, net):
        pool = ConnectionPool("db-cpu-only", capacity=3, stations=["db.cpu"])
        sim = simulate_closed_network(
            net, 30, duration=150.0, warmup=15.0, seed=3, pools=[pool]
        )
        assert sim.pool("db-cpu-only").acquisitions > 0

    def test_non_contiguous_pool_rejected(self, net):
        pool = ConnectionPool("weird", capacity=2, stations=["app.cpu", "db.disk"])
        with pytest.raises(ValueError, match="contiguous"):
            simulate_closed_network(net, 5, duration=50.0, pools=[pool])

    def test_unknown_pool_name_lookup(self, net):
        sim = simulate_closed_network(net, 5, duration=50.0, seed=0)
        with pytest.raises(KeyError):
            sim.pool("db")

    def test_fifo_fairness(self, net):
        # All cycles complete; nobody starves behind the pool.
        pool = ConnectionPool("db", capacity=1, stations=["db.cpu", "db.disk"])
        sim = simulate_closed_network(
            net, 10, duration=200.0, warmup=20.0, seed=4, pools=[pool]
        )
        # throughput consistent with Little's law within noise
        n_est = sim.throughput * sim.cycle_time
        assert n_est == pytest.approx(10, rel=0.15)
