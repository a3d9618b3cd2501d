"""Station / ClosedNetwork model objects."""

import numpy as np
import pytest

from repro.core import ClosedNetwork, Station


class TestStation:
    def test_constant_demand(self):
        st = Station("cpu", 0.1)
        assert st.demand_at(1) == 0.1
        assert st.demand_at(500) == 0.1
        assert not st.is_load_varying

    def test_callable_demand(self):
        st = Station("cpu", lambda n: 0.2 / n)
        assert st.is_load_varying
        assert st.demand_at(4) == pytest.approx(0.05)

    def test_service_time_divides_visits(self):
        st = Station("cpu", 0.21, visits=7)
        assert st.service_time_at(1) == pytest.approx(0.03)

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError, match="demand"):
            Station("cpu", -0.1)

    def test_negative_callable_demand_rejected_at_eval(self):
        st = Station("cpu", lambda n: -1.0)
        with pytest.raises(ValueError, match="negative"):
            st.demand_at(1)

    def test_invalid_servers(self):
        with pytest.raises(ValueError, match="servers"):
            Station("cpu", 0.1, servers=0)

    def test_invalid_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Station("cpu", 0.1, kind="weird")

    @pytest.mark.parametrize("visits", [float("nan"), float("inf")])
    def test_non_finite_visits_rejected(self, visits):
        with pytest.raises(ValueError, match="visits"):
            Station("cpu", 0.1, visits=visits)

    def test_with_demand_preserves_rest(self):
        st = Station("cpu", 0.1, servers=4, visits=2, kind="queue")
        st2 = st.with_demand(0.3)
        assert st2.demand == 0.3
        assert (st2.servers, st2.visits, st2.kind) == (4, 2, "queue")


class TestClosedNetwork:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ClosedNetwork([Station("a", 0.1), Station("a", 0.2)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ClosedNetwork([])

    def test_negative_think_time_rejected(self):
        with pytest.raises(ValueError, match="think_time"):
            ClosedNetwork([Station("a", 0.1)], think_time=-1)

    @pytest.mark.parametrize("think", [float("nan"), float("inf")])
    def test_non_finite_think_time_rejected(self, think):
        with pytest.raises(ValueError, match="think_time"):
            ClosedNetwork([Station("a", 0.1)], think_time=think)

    def test_lookup_by_name_and_index(self, two_station_net):
        assert two_station_net["cpu"].name == "cpu"
        assert two_station_net[1].name == "disk"
        with pytest.raises(KeyError):
            two_station_net["nope"]

    def test_vectors(self, multiserver_net):
        np.testing.assert_array_equal(multiserver_net.servers(), [4, 1])
        np.testing.assert_allclose(multiserver_net.demands_at(1), [0.4, 0.05])

    def test_bottleneck_uses_per_server_demand(self):
        # CPU demand 0.4 over 4 servers (0.1/server) loses to disk 0.2.
        net = ClosedNetwork(
            [Station("cpu", 0.4, servers=4), Station("disk", 0.2)]
        )
        assert net.bottleneck().name == "disk"

    def test_max_throughput(self, multiserver_net):
        # min(4/0.4, 1/0.05) = min(10, 20) = 10
        assert multiserver_net.max_throughput() == pytest.approx(10.0)

    def test_varying_demand_flag(self, varying_net, two_station_net):
        assert varying_net.has_varying_demands
        assert not two_station_net.has_varying_demands

    def test_with_demands_replaces_in_order(self, two_station_net):
        net2 = two_station_net.with_demands([0.5, 0.6])
        np.testing.assert_allclose(net2.demands_at(1), [0.5, 0.6])
        # original untouched
        np.testing.assert_allclose(two_station_net.demands_at(1), [0.05, 0.08])

    def test_with_demands_wrong_length(self, two_station_net):
        with pytest.raises(ValueError, match="expected 2"):
            two_station_net.with_demands([0.5])

    def test_with_think_time(self, two_station_net):
        assert two_station_net.with_think_time(2.5).think_time == 2.5

    def test_delay_station_excluded_from_bottleneck(self):
        net = ClosedNetwork(
            [Station("cpu", 0.1), Station("lag", 5.0, kind="delay")]
        )
        assert net.bottleneck().name == "cpu"
        assert net.max_throughput() == pytest.approx(10.0)
