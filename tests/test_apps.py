"""Application models (VINS / JPetStore / three-tier builder)."""

import pytest

from repro.apps import (
    Application,
    Datapool,
    DemandProfile,
    jpetstore_application,
    three_tier_network,
    vins_application,
)


class TestThreeTierNetwork:
    def test_builds_twelve_stations(self):
        profiles = {
            f"{tier}.{res}": DemandProfile.constant(0.01)
            for tier in ("load", "app", "db")
            for res in ("cpu", "disk", "net_tx", "net_rx")
        }
        net = three_tier_network(profiles, cpu_cores=8)
        assert len(net) == 12
        assert net["load.cpu"].servers == 8
        assert net["db.disk"].servers == 1

    def test_missing_profile_rejected(self):
        with pytest.raises(ValueError, match="net_rx"):
            three_tier_network(
                {
                    f"{tier}.{res}": DemandProfile.constant(0.01)
                    for tier in ("load", "app", "db")
                    for res in ("cpu", "disk", "net_tx")
                }
            )


class TestVINS:
    def test_paper_configuration(self):
        app = vins_application()
        assert app.pages == 7
        assert app.workflow == "Renew Policy"
        assert app.network["db.cpu"].servers == 16
        assert app.max_tested_concurrency == 1500
        assert app.datapool.size_gb == pytest.approx(10.0, rel=0.01)

    def test_db_disk_is_bottleneck(self):
        app = vins_application()
        assert app.bottleneck(1) == "db.disk"
        assert app.bottleneck(1000) == "db.disk"

    def test_demands_decrease_with_concurrency(self):
        app = vins_application()
        d1 = app.true_demands_at(1)
        d1000 = app.true_demands_at(1000)
        for name in app.station_names:
            assert d1000[name] < d1[name]

    def test_db_cpu_utilization_anchor(self):
        # At saturation (X ~ 1/D_disk), DB CPU must sit near the paper's
        # ~35-40% while the disk saturates.
        app = vins_application()
        d = app.true_demands_at(1200)
        x_sat = 1.0 / d["db.disk"]
        cpu_util = x_sat * d["db.cpu"] / 16
        assert 0.30 < cpu_util < 0.45

    def test_load_disk_runs_hot(self):
        # Table 2's second underlined resource.
        app = vins_application()
        d = app.true_demands_at(1200)
        x_sat = 1.0 / d["db.disk"]
        assert x_sat * d["load.disk"] > 0.8

    def test_smaller_datapool_relaxes_disk(self):
        big = vins_application()
        small = vins_application(datapool_records=1_000_000)  # < 8 GB cache
        assert (
            small.true_demands_at(100)["db.disk"]
            < big.true_demands_at(100)["db.disk"]
        )

    def test_custom_cores(self):
        app = vins_application(cpu_cores=8)
        assert app.network["app.cpu"].servers == 8


class TestJPetStore:
    def test_paper_configuration(self):
        app = jpetstore_application()
        assert app.pages == 14
        assert app.datapool.records == 2_000_000
        assert app.network.think_time == 1.0

    def test_cpu_heavy_bottleneck(self):
        app = jpetstore_application()
        assert app.bottleneck(200) in ("db.cpu", "db.disk")
        # per-server demand of db.cpu must rival db.disk (co-saturation)
        d = app.true_demands_at(200)
        assert d["db.cpu"] / 16 == pytest.approx(d["db.disk"], rel=0.2)

    def test_saturation_near_140_users(self):
        from repro.core import asymptotic_bounds

        app = jpetstore_application()
        b = asymptotic_bounds(app.network, 10, demand_level=140)
        assert 100 < b.knee < 200

    def test_demand_bump_at_saturation_onset(self):
        # Fig. 7's 140-168 deviation: db.cpu demand locally exceeds the
        # pure-decay trend near 155 users.
        app = jpetstore_application()
        d = app.network["db.cpu"]
        trend = (d.demand_at(100) + d.demand_at(220)) / 2
        assert d.demand_at(155) > trend

    def test_application_validation(self):
        app = jpetstore_application()
        with pytest.raises(ValueError):
            Application(
                name="x",
                network=app.network,
                workflow="w",
                pages=0,
                datapool=Datapool(records=1),
                max_tested_concurrency=10,
                default_sample_levels=(1,),
            )
        with pytest.raises(ValueError, match="sample levels"):
            Application(
                name="x",
                network=app.network,
                workflow="w",
                pages=1,
                datapool=Datapool(records=1),
                max_tested_concurrency=10,
                default_sample_levels=(1, 20),
            )
