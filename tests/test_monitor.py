"""Utilization monitors (vmstat/iostat/netstat, eq. 7)."""

import pytest

from repro.loadtest import LoadTest, NetworkMonitorConfig, monitor_utilizations
from repro.loadtest.runner import extract_demands


class TestNetworkMonitorConfig:
    def test_packets_for_demand(self):
        cfg = NetworkMonitorConfig(bandwidth_bps=1e9, packet_bytes=1500)
        # 0.003 s at 1 GB/s = 3e6 bytes = 2000 packets
        assert cfg.packets_for_demand(0.003) == 2000

    def test_packets_round_up(self):
        cfg = NetworkMonitorConfig(bandwidth_bps=1e9, packet_bytes=1500)
        assert cfg.packets_for_demand(1e-9) == 1

    def test_eq7_recovers_xd(self):
        # packets * size / (t * bw) must reconstruct X * D.
        cfg = NetworkMonitorConfig()
        demand, x, t = 0.003, 50.0, 100.0
        pages = x * t
        packets = pages * cfg.packets_for_demand(demand)
        util = cfg.utilization_percent(packets, t)
        assert util == pytest.approx(x * demand * 100, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkMonitorConfig(bandwidth_bps=0)
        with pytest.raises(ValueError):
            NetworkMonitorConfig(packet_bytes=0)
        with pytest.raises(ValueError):
            NetworkMonitorConfig().packets_for_demand(-1.0)
        with pytest.raises(ValueError):
            NetworkMonitorConfig().utilization_percent(10, 0.0)


class TestMonitorUtilizations:
    @pytest.fixture
    def run(self, mini_app):
        return LoadTest(mini_app).fire(virtual_users=10, seed=1, duration=80.0)

    def test_reports_all_tiers(self, run, mini_app):
        demands = extract_demands(run, mini_app)
        by_tier = monitor_utilizations(run.simulation, demands)
        assert set(by_tier) == {"load", "app", "db"}

    def test_cpu_disk_match_simulation(self, run, mini_app):
        demands = extract_demands(run, mini_app)
        by_tier = monitor_utilizations(run.simulation, demands)
        assert by_tier["db"].disk == pytest.approx(
            run.simulation.utilization_of("db.disk") * 100, rel=1e-9
        )
        assert by_tier["app"].cpu == pytest.approx(
            run.simulation.utilization_of("app.cpu") * 100, rel=1e-9
        )

    def test_network_via_eq7_close_to_xd(self, run, mini_app):
        demands = extract_demands(run, mini_app)
        by_tier = monitor_utilizations(run.simulation, demands)
        expected = run.tps * demands["db.net_tx"] * 100
        # ceil quantization makes eq. 7 a slight overestimate
        assert by_tier["db"].net_tx == pytest.approx(expected, rel=0.02)
        assert by_tier["db"].net_tx >= expected * 0.999

    def test_as_tuple_order(self, run, mini_app):
        demands = extract_demands(run, mini_app)
        util = monitor_utilizations(run.simulation, demands)["db"]
        assert util.as_tuple() == (util.cpu, util.disk, util.net_tx, util.net_rx)
