"""Trajectory plumbing: ``prefix()``, ``resume_from=``, and the
facade-level :class:`~repro.solvers.trajectory.TrajectoryStore`.

The load-bearing claim is *bit-identity*: because every MVA-family
recursion builds level ``n`` only from levels ``< n``, a prefix slice
and a resumed recursion must equal a direct solve exactly (parity 0.0),
not merely to tolerance.  The tests assert ``np.array_equal`` where the
claim is exact and fall back to the issue's ≤1e-10 bound only where a
documented tolerance exists.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.amva import schweitzer_amva
from repro.core.mva import exact_mva
from repro.core.mvasd import mvasd
from repro.solvers import Scenario, SolverCache, TrajectoryStore, solve
from repro.solvers.trajectory import resumable_method


def _varying_fns():
    return {
        "cpu": lambda n: 0.4 * np.exp(-np.asarray(n, float) / 80.0) + 0.1,
        "disk": lambda n: 0.05 + 0.0 * np.asarray(n, float),
    }


# -- MVAResult.prefix ---------------------------------------------------------


class TestPrefix:
    def test_prefix_equals_direct_solve_every_level(self, multiserver_net):
        full = exact_mva(multiserver_net, 60)
        for n in (1, 2, 30, 59):
            direct = exact_mva(multiserver_net, n)
            sliced = full.prefix(n)
            assert np.array_equal(sliced.throughput, direct.throughput)
            assert np.array_equal(sliced.queue_lengths, direct.queue_lengths)
            assert np.array_equal(sliced.utilizations, direct.utilizations)
            assert sliced.max_population == n

    def test_prefix_full_length_returns_self(self, two_station_net):
        full = exact_mva(two_station_net, 20)
        assert full.prefix(20) is full

    def test_prefix_slices_marginals_and_demands(self, multiserver_net):
        full = mvasd(multiserver_net, 40, demand_functions=_varying_fns())
        sliced = full.prefix(15)
        assert sliced.demands_used.shape == (15, 2)
        assert np.array_equal(sliced.demands_used, full.demands_used[:15])
        assert sliced.marginal_probabilities["cpu"].shape[0] == 15

    def test_prefix_drops_final_state(self, multiserver_net):
        full = mvasd(multiserver_net, 30, demand_functions=_varying_fns())
        assert full.final_state is not None
        assert full.prefix(10).final_state is None

    def test_prefix_out_of_range(self, two_station_net):
        full = exact_mva(two_station_net, 10)
        with pytest.raises(ValueError, match="prefix population"):
            full.prefix(0)
        with pytest.raises(ValueError, match="prefix population"):
            full.prefix(11)


# -- resume_from= -------------------------------------------------------------


class TestResume:
    @pytest.mark.parametrize("solver", [exact_mva, schweitzer_amva])
    def test_single_server_resume_bit_identical(self, multiserver_net, solver):
        full = solver(multiserver_net, 80)
        prev = solver(multiserver_net, 33)
        resumed = solver(multiserver_net, 80, resume_from=prev)
        assert np.array_equal(resumed.throughput, full.throughput)
        assert np.array_equal(resumed.response_time, full.response_time)
        assert np.array_equal(resumed.queue_lengths, full.queue_lengths)
        assert np.array_equal(resumed.residence_times, full.residence_times)
        assert np.array_equal(resumed.utilizations, full.utilizations)

    def test_mvasd_multiserver_resume_bit_identical(self, multiserver_net):
        fns = _varying_fns()
        full = mvasd(multiserver_net, 70, demand_functions=fns)
        prev = mvasd(multiserver_net, 25, demand_functions=fns)
        resumed = mvasd(multiserver_net, 70, demand_functions=fns, resume_from=prev)
        assert np.array_equal(resumed.throughput, full.throughput)
        assert np.array_equal(resumed.queue_lengths, full.queue_lengths)
        assert np.array_equal(resumed.demands_used, full.demands_used)
        for name in full.marginal_probabilities:
            assert np.array_equal(
                resumed.marginal_probabilities[name],
                full.marginal_probabilities[name],
            )

    def test_mvasd_single_server_resume_bit_identical(self, varying_net):
        full = mvasd(varying_net, 50, single_server=True)
        prev = mvasd(varying_net, 20, single_server=True)
        resumed = mvasd(varying_net, 50, single_server=True, resume_from=prev)
        assert np.array_equal(resumed.throughput, full.throughput)

    def test_resume_chain_is_transitive(self, multiserver_net):
        """Resume of a resume stays exact — the service's steady state."""
        fns = _varying_fns()
        full = mvasd(multiserver_net, 90, demand_functions=fns)
        r30 = mvasd(multiserver_net, 30, demand_functions=fns)
        r60 = mvasd(multiserver_net, 60, demand_functions=fns, resume_from=r30)
        r90 = mvasd(multiserver_net, 90, demand_functions=fns, resume_from=r60)
        assert np.array_equal(r90.throughput, full.throughput)
        assert np.array_equal(r90.queue_lengths, full.queue_lengths)

    def test_resume_rejects_prefix_without_final_state(self, multiserver_net):
        fns = _varying_fns()
        prev = mvasd(multiserver_net, 40, demand_functions=fns).prefix(20)
        with pytest.raises(ValueError, match="final_state"):
            mvasd(multiserver_net, 60, demand_functions=fns, resume_from=prev)

    def test_resume_rejects_mismatched_demands(self, two_station_net):
        prev = exact_mva(two_station_net, 10, demands=[0.05, 0.08])
        with pytest.raises(ValueError, match="demands differ"):
            exact_mva(two_station_net, 20, demands=[0.06, 0.08], resume_from=prev)

    def test_resume_rejects_deeper_previous(self, two_station_net):
        prev = exact_mva(two_station_net, 30)
        with pytest.raises(ValueError, match="already covers"):
            exact_mva(two_station_net, 10, resume_from=prev)

    def test_resume_rejects_station_count_mismatch(self, two_station_net, multiserver_net):
        prev = exact_mva(two_station_net, 10)
        with pytest.raises(ValueError, match="must be an MVAResult"):
            schweitzer_amva(two_station_net, 20, resume_from="nope")  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            exact_mva(multiserver_net, 20, resume_from=prev)

    def test_mvasd_throughput_axis_not_resumable(self, varying_net):
        prev = mvasd(varying_net, 20)
        with pytest.raises(ValueError, match="demand_axis"):
            mvasd(varying_net, 40, demand_axis="throughput", resume_from=prev)

    def test_mvasd_variant_mismatch_rejected(self, multiserver_net):
        fns = _varying_fns()
        prev = mvasd(multiserver_net, 20, demand_functions=fns, single_server=True)
        with pytest.raises(ValueError):
            mvasd(multiserver_net, 40, demand_functions=fns, resume_from=prev)


class TestResumeFromStoredState:
    """A ``final_state`` can come back from disk: ``mvasd`` checks it on resume."""

    @staticmethod
    def _tampered(net, **changes):
        prev = mvasd(net, 20, demand_functions=_varying_fns())
        cpu = {**prev.final_state["marginals"]["cpu"], **changes}
        marginals = {**prev.final_state["marginals"], "cpu": cpu}
        return replace(prev, final_state={**prev.final_state, "marginals": marginals})

    def _resume(self, net, prev):
        return mvasd(net, 40, demand_functions=_varying_fns(), resume_from=prev)

    def test_untampered_state_resumes(self, multiserver_net):
        resumed = self._resume(multiserver_net, self._tampered(multiserver_net))
        full = mvasd(multiserver_net, 40, demand_functions=_varying_fns())
        assert np.array_equal(resumed.throughput, full.throughput)

    @pytest.mark.parametrize("level", [19, 60])
    def test_wrong_level_rejected(self, multiserver_net, level):
        prev = self._tampered(multiserver_net, level=level)
        with pytest.raises(ValueError, match="resume level 20"):
            self._resume(multiserver_net, prev)

    def test_wrong_p_shape_rejected(self, multiserver_net):
        prev = self._tampered(multiserver_net, p=np.zeros(20))
        with pytest.raises(ValueError, match=r"p\(0\.\.20\)"):
            self._resume(multiserver_net, prev)

    def test_wrong_server_count_rejected(self, multiserver_net):
        prev = self._tampered(multiserver_net, servers=2)
        with pytest.raises(ValueError, match="4-server station 'cpu'"):
            self._resume(multiserver_net, prev)


# -- parity against the issue's explicit ≤1e-10 bound -------------------------


class TestFacadeTrajectoryParity:
    """Satellite (a): per-population trajectory on facade results."""

    @pytest.mark.parametrize("method", ["exact-mva", "schweitzer-amva", "mvasd"])
    def test_served_levels_match_direct_solves(self, varying_net, method):
        cache = SolverCache()
        # varying_net has a 4-server cpu; the single-server methods need
        # the explicit baseline acknowledgment since the capability gate.
        opts = {} if method == "mvasd" else {"single_server": True}
        deep = solve(Scenario(varying_net, 60), method=method, cache=cache, **opts)
        for n in (3, 17, 41, 60):
            served = solve(Scenario(varying_net, n), method=method, cache=cache, **opts)
            direct = solve(Scenario(varying_net, n), method=method, cache=None, **opts)
            assert np.max(np.abs(served.throughput - direct.throughput)) <= 1e-10
            assert np.max(np.abs(served.cycle_time - direct.cycle_time)) <= 1e-10
            # and in fact exactly equal
            assert np.array_equal(served.throughput, direct.throughput)
        assert deep.max_population == 60


# -- the TrajectoryStore itself ----------------------------------------------


class TestTrajectoryStore:
    def test_resumable_method_gate(self):
        assert resumable_method("exact-mva", {})
        assert resumable_method("mvasd", {})
        assert resumable_method("mvasd", {"demand_axis": "population"})
        assert not resumable_method("mvasd", {"demand_axis": "throughput"})
        assert not resumable_method("convolution", {})
        assert not resumable_method("exact-multiserver-mva", {})

    def test_prefix_and_extend_counters(self, varying_net):
        cache = SolverCache()
        solve(Scenario(varying_net, 50), method="mvasd", cache=cache)
        solve(Scenario(varying_net, 20), method="mvasd", cache=cache)  # prefix
        solve(Scenario(varying_net, 75), method="mvasd", cache=cache)  # extend
        stats = cache.stats()
        assert stats.trajectory_hits == 1
        assert stats.trajectory_extends == 1
        # served results are cached: repeats are plain memory hits
        before = cache.stats().hits
        solve(Scenario(varying_net, 20), method="mvasd", cache=cache)
        solve(Scenario(varying_net, 75), method="mvasd", cache=cache)
        assert cache.stats().hits == before + 2

    def test_different_demands_never_cross_serve(self, two_station_net):
        cache = SolverCache()
        other = two_station_net.with_demands([0.05, 0.09])
        solve(Scenario(two_station_net, 50), method="exact-mva", cache=cache)
        served = solve(Scenario(other, 30), method="exact-mva", cache=cache)
        direct = solve(Scenario(other, 30), method="exact-mva", cache=None)
        assert np.array_equal(served.throughput, direct.throughput)
        assert cache.stats().trajectory_hits == 0

    def test_shallow_offer_keeps_deeper_entry(self, varying_net):
        store = TrajectoryStore()
        deep = Scenario(varying_net, 60)
        shallow = Scenario(varying_net, 25)
        store.offer(deep, "mvasd", {}, mvasd(varying_net, 60))
        store.offer(shallow, "mvasd", {}, mvasd(varying_net, 25))
        kind, result = store.serve(Scenario(varying_net, 60), "mvasd", {})
        assert kind == "prefix" and result.max_population == 60

    def test_store_eviction_bound(self, two_station_net):
        store = TrajectoryStore(max_families=2)
        for scale in (0.8, 0.9, 1.0):
            net = two_station_net.with_demands([0.05 * scale, 0.08 * scale])
            store.offer(Scenario(net, 10), "exact-mva", {}, exact_mva(net, 10))
        assert len(store) == 2
        assert store.stats()["evictions"] == 1

    def test_store_never_raises(self, two_station_net):
        store = TrajectoryStore()
        # junk offers and serves degrade silently
        store.offer(object(), "exact-mva", {}, "not a result")
        assert store.serve(object(), "exact-mva", {}) is None
        assert store.stats()["errors"] >= 1

    def test_uncacheable_options_bypass_store(self, varying_net):
        cache = SolverCache()
        solve(Scenario(varying_net, 30), method="mvasd", cache=cache)
        # throughput axis is uncacheable and non-resumable: no serving
        solve(
            Scenario(varying_net, 20),
            method="mvasd",
            cache=cache,
            demand_axis="throughput",
        )
        assert cache.stats().trajectory_hits == 0
        assert cache.stats().uncacheable == 1
