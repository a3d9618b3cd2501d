"""Open-network analysis (Erlang formulas, M/M/C stations)."""

import numpy as np
import pytest

from repro.core import ClosedNetwork, Station
from repro.core.open_network import analyze_open, erlang_b, erlang_c


class TestErlangFormulas:
    def test_erlang_b_known_values(self):
        # classic telephony table: C=5, a=3 -> B ~ 0.1101
        assert erlang_b(5, 3.0) == pytest.approx(0.11005, rel=1e-3)
        # C=1: B = a / (1 + a)
        assert erlang_b(1, 2.0) == pytest.approx(2 / 3)

    def test_erlang_b_zero_load(self):
        assert erlang_b(4, 0.0) == 0.0

    def test_erlang_b_zero_servers(self):
        assert erlang_b(0, 1.5) == 1.0

    def test_erlang_c_known_values(self):
        # M/M/1: P_wait = rho
        assert erlang_c(1, 0.7) == pytest.approx(0.7)
        # M/M/2 at a=1 (rho=0.5): C(2,1) = 1/3
        assert erlang_c(2, 1.0) == pytest.approx(1 / 3)

    def test_erlang_c_saturated(self):
        assert erlang_c(2, 2.0) == 1.0
        assert erlang_c(2, 5.0) == 1.0

    def test_monotone_in_load(self):
        loads = np.linspace(0.1, 3.9, 20)
        vals = [erlang_c(4, a) for a in loads]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            erlang_b(-1, 1.0)
        with pytest.raises(ValueError):
            erlang_c(0, 1.0)
        with pytest.raises(ValueError):
            erlang_c(1, -0.5)


class TestAnalyzeOpen:
    @pytest.fixture
    def net(self):
        return ClosedNetwork(
            [Station("cpu", 0.02, servers=4), Station("disk", 0.05)], think_time=1.0
        )

    def test_mm1_closed_form(self):
        # Single M/M/1 station: R = D / (1 - rho).
        net = ClosedNetwork([Station("disk", 0.1)])
        res = analyze_open(net, 5.0)  # rho = 0.5
        assert res.response_time == pytest.approx(0.1 / 0.5)
        assert res.population == pytest.approx(5.0 * 0.2)

    def test_mmc_less_waiting_than_mm1(self, net):
        res = analyze_open(net, 10.0)
        # 4-server CPU at the same offered load queues less than the
        # equivalent M/M/1 of demand D: residence close to D.
        assert res.residence_of("cpu") < 0.02 / (1 - 10.0 * 0.02)
        assert res.residence_of("cpu") >= 0.02

    def test_utilizations(self, net):
        res = analyze_open(net, 10.0)
        assert res.utilizations[0] == pytest.approx(10 * 0.02 / 4)
        assert res.utilizations[1] == pytest.approx(0.5)
        assert res.bottleneck == "disk"

    def test_saturation_rejected(self, net):
        with pytest.raises(ValueError, match="saturated"):
            analyze_open(net, 21.0)  # disk: 21*0.05 = 1.05 >= 1

    def test_zero_arrivals(self, net):
        res = analyze_open(net, 0.0)
        assert res.population == 0.0
        assert res.response_time == pytest.approx(0.07)  # bare demands

    def test_throughput_axis_demand_curves(self, net):
        # Fig. 11 semantics: demand evaluated at the arrival rate.
        fns = {"disk": lambda x: 0.05 - 0.001 * x}
        low = analyze_open(net, 5.0, demand_functions=fns)
        high = analyze_open(net, 15.0, demand_functions=fns)
        assert low.demands[1] == pytest.approx(0.045)
        assert high.demands[1] == pytest.approx(0.035)

    def test_delay_station_contributes_demand_only(self):
        net = ClosedNetwork(
            [Station("cpu", 0.1), Station("lag", 0.5, kind="delay")]
        )
        res = analyze_open(net, 2.0)
        assert res.residence_of("lag") == pytest.approx(0.5)

    def test_response_grows_with_load(self, net):
        rs = [analyze_open(net, lam).response_time for lam in (1.0, 5.0, 15.0, 19.0)]
        assert all(a < b for a, b in zip(rs, rs[1:]))

    def test_validation(self, net):
        with pytest.raises(ValueError):
            analyze_open(net, -1.0)
        with pytest.raises(KeyError):
            analyze_open(net, 1.0).residence_of("gpu")
