"""Content-addressed identity and the solver result cache.

Covers the PR-4 tentpole invariants: `Scenario.fingerprint` is a stable
content hash (float-canonical, alias-proof, pickle-stable), and the
`SolverCache` behind `solve()` returns exactly what a fresh solve would
— hits on identical requests, misses on any observable difference.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.network import ClosedNetwork, Station
from repro.serve.protocol import decode_scenario
from repro.solvers import (
    USE_DEFAULT_CACHE,
    Scenario,
    SolverCache,
    WorkloadClass,
    cache_stats,
    default_cache,
    resolve_cache,
    set_default_cache,
    solve,
    solve_stack,
)
from repro.solvers.cache import canonical_options


@pytest.fixture
def net():
    return ClosedNetwork(
        [Station("web", demand=0.02), Station("db", demand=0.05)], think_time=1.0
    )


@pytest.fixture
def multiserver_net():
    return ClosedNetwork(
        [Station("web", demand=0.08, servers=4), Station("db", demand=0.05)],
        think_time=1.0,
    )


class TestFingerprint:
    def test_equal_scenarios_share_fingerprints(self, net):
        a = Scenario(net, 20)
        b = Scenario(net, 20)
        assert a.fingerprint() == b.fingerprint()

    def test_population_think_and_demands_all_split(self, net):
        base = Scenario(net, 20)
        assert base.fingerprint() != Scenario(net, 21).fingerprint()
        assert base.fingerprint() != Scenario(net, 20, think_time=2.0).fingerprint()
        assert (
            base.fingerprint()
            != Scenario(net, 20, demands=(0.02, 0.051)).fingerprint()
        )

    def test_think_override_equals_native_think(self, net):
        overridden = Scenario(net, 20, think_time=net.think_time)
        assert overridden.fingerprint() == Scenario(net, 20).fingerprint()

    def test_server_counts_split(self, net, multiserver_net):
        a = Scenario(net, 20, demands=(0.08, 0.05))
        b = Scenario(multiserver_net, 20)
        assert a.fingerprint() != b.fingerprint()

    def test_permuted_demand_matrix_misses(self, net):
        m = np.column_stack([np.full(20, 0.02), np.full(20, 0.05)])
        a = Scenario(net, 20, demand_matrix=m)
        b = Scenario(net, 20, demand_matrix=m[:, ::-1].copy())
        assert a.fingerprint() != b.fingerprint()

    def test_negative_zero_is_canonical(self, net):
        m = np.column_stack([np.full(20, 0.02), np.full(20, 0.05)])
        m_negzero = m.copy()
        m_negzero[0, 0] = 0.0
        m_poszero = m.copy()
        m_poszero[0, 0] = -0.0
        a = Scenario(net, 20, demand_matrix=m_negzero)
        b = Scenario(net, 20, demand_matrix=m_poszero)
        assert a.fingerprint() == b.fingerprint()

    def test_negative_zero_header_scalars_are_canonical(self, net):
        # Think times (scenario and class) hash through the packed header.
        assert (
            Scenario(net, 20, think_time=-0.0).fingerprint()
            == Scenario(net, 20, think_time=0.0).fingerprint()
        )
        cls = [WorkloadClass("a", 2, {"web": 0.02, "db": 0.05}, think_time=z) for z in (-0.0, 0.0)]
        a, b = (Scenario(net, 4, classes=(c,)) for c in cls)
        assert a.fingerprint() == b.fingerprint()

    def test_matrix_and_equivalent_functions_agree_or_split_safely(self, net):
        # A demand-functions scenario and the matrix of its integer-grid
        # samples are observably identical to every registered solver.
        fns = {"web": lambda n: 0.02 + 0.001 * n, "db": lambda n: 0.05}
        fn_scenario = Scenario(net, 10, demand_functions=fns)
        matrix = fn_scenario.resolved_demand_matrix()
        m_scenario = Scenario(net, 10, demand_matrix=np.array(matrix))
        assert fn_scenario.fingerprint() == m_scenario.fingerprint()

    def test_fractional_demand_level_splits_fn_and_matrix(self, net):
        # At demand_level=2.5 the callable evaluates off the integer grid
        # while the matrix scenario rounds to a sampled row — different
        # fixed_demands, so the fingerprints must differ.
        fns = {"web": lambda n: 0.02 + 0.001 * n, "db": lambda n: 0.05}
        fn_scenario = Scenario(net, 10, demand_functions=fns, demand_level=2.5)
        matrix = Scenario(net, 10, demand_functions=fns).resolved_demand_matrix()
        m_scenario = Scenario(net, 10, demand_matrix=np.array(matrix), demand_level=2.5)
        assert not np.array_equal(fn_scenario.fixed_demands(), m_scenario.fixed_demands())
        assert fn_scenario.fingerprint() != m_scenario.fingerprint()

    def test_network_name_does_not_split(self, net):
        renamed = ClosedNetwork(net.stations, think_time=net.think_time, name="other")
        assert Scenario(net, 20).fingerprint() == Scenario(renamed, 20).fingerprint()

    def test_multiclass_fingerprints(self, net):
        def cls(pop):
            return (
                WorkloadClass("browse", pop, {"web": 0.02, "db": 0.05}, 0.5),
                WorkloadClass("buy", 3, {"web": lambda n: 0.01 * n, "db": 0.02}, 0.2),
            )

        a = Scenario(net, 6, classes=cls(3))
        b = Scenario(net, 6, classes=cls(3))
        c = Scenario(net, 6, classes=cls(4))
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_pickle_round_trip(self, net):
        m = np.column_stack([np.linspace(0.02, 0.03, 20), np.full(20, 0.05)])
        sc = Scenario(net, 20, demand_matrix=m)
        fp = sc.fingerprint()
        clone = pickle.loads(pickle.dumps(sc))
        assert clone.fingerprint() == fp

    @settings(max_examples=25, deadline=None)
    @given(
        web=st.floats(min_value=0.001, max_value=5.0, allow_nan=False),
        db=st.floats(min_value=0.001, max_value=5.0, allow_nan=False),
        n=st.integers(min_value=1, max_value=60),
        think=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    def test_fingerprint_stable_across_pickle(self, web, db, n, think):
        network = ClosedNetwork(
            [Station("web", demand=web), Station("db", demand=db)], think_time=think
        )
        sc = Scenario(network, n)
        clone = pickle.loads(pickle.dumps(sc))
        assert clone.fingerprint() == sc.fingerprint()
        rebuilt = Scenario(network, n)
        assert rebuilt.fingerprint() == sc.fingerprint()


class TestFingerprintGolden:
    """Pinned digests: cache keys and the sqlite tier store these bytes.

    A change to any of them orphans every persisted cache entry, so it
    must come with a ``_FINGERPRINT_VERSION`` bump, never by accident.
    """

    @staticmethod
    def scenarios():
        net = ClosedNetwork(
            [Station("web", demand=0.02, servers=4), Station("db", demand=0.05)],
            think_time=1.0,
        )
        matrix = np.column_stack([np.linspace(0.02, 0.03, 20), np.full(20, 0.05)])
        table = decode_scenario({
            "stations": [
                {"name": "cpu", "demand": 0.005, "servers": 4},
                {"name": "disk", "demand": {"levels": [1, 100], "values": [0.004, 0.003]}},
                {"name": "net", "demand": 0.002, "kind": "delay"},
            ],
            "think_time": 1.0,
            "max_population": 80,
        })
        classes = (
            WorkloadClass("browse", 3, {"web": 0.02, "db": 0.05}, 0.5),
            WorkloadClass("buy", 3, {"web": lambda n: 0.01 * n, "db": 0.02}, 0.2),
        )
        return {
            "constant": Scenario(net, 50),
            "table": table,
            "matrix": Scenario(net, 20, demand_matrix=matrix),
            "multiclass": Scenario(net, 6, classes=classes),
            "rate_tables": Scenario(
                net, 5, rate_tables={"db": [20.0, 30.0, 35.0, 37.5, 38.0]}
            ),
        }

    GOLDEN = {
        "constant": "c87fc1c95c54dc5e16380a23a4dbcdd7e69a96e55f25119200472ab7faf95de1",
        "table": "c3491ea63ee62ee386f30bc60581d2fc95b00d2b677f5eccebfb1915e41f2c34",
        "matrix": "8751c4bc8e124e7f6e397c05fa371ce9beb083bd146fa1e7ea650050ad002a41",
        "multiclass": "b68e6262a287cc7cf8f7cdd93ef502a0301a00a1c51ed21b47f18930455f26bb",
        "rate_tables": "7817cf2bcc1e6630d106d237525191693701c6ba957a75c2e15af0f7bbeeb741",
    }

    @pytest.mark.parametrize("kind", sorted(GOLDEN))
    def test_digest_is_pinned(self, kind):
        assert self.scenarios()[kind].fingerprint() == self.GOLDEN[kind]


class TestScenarioImmutability:
    def test_mutating_callers_matrix_does_not_change_identity(self, net):
        m = np.column_stack([np.full(20, 0.02), np.full(20, 0.05)])
        sc = Scenario(net, 20, demand_matrix=m)
        fp = sc.fingerprint()
        m[:] = 99.0  # the caller's array, not the scenario's copy
        assert sc.fingerprint() == fp
        assert float(sc.demand_matrix[0, 0]) == 0.02

    def test_mutating_callers_fn_mapping_does_not_alias(self, net):
        fns = {"web": lambda n: 0.02, "db": lambda n: 0.05}
        sc = Scenario(net, 10, demand_functions=fns)
        fp = sc.fingerprint()
        fns["web"] = lambda n: 123.0
        assert np.isclose(sc.fixed_demands()[0], 0.02)
        assert sc.fingerprint() == fp

    def test_mutating_workload_class_mapping_does_not_alias(self):
        demands = {"web": 0.02, "db": 0.05}
        cls = WorkloadClass("c", 3, demands, 0.5)
        demands["web"] = 9.0
        assert cls.demands["web"] == 0.02

    def test_demand_views_are_read_only(self, net):
        sc = Scenario(net, 10)
        with pytest.raises(ValueError):
            sc.fixed_demands()[0] = 1.0
        with pytest.raises(ValueError):
            sc.resolved_demand_matrix()[0, 0] = 1.0
        matrix_sc = Scenario(net, 10, demand_matrix=np.full((10, 2), 0.03))
        with pytest.raises(ValueError):
            matrix_sc.demand_matrix[0, 0] = 1.0


class TestCanonicalOptions:
    def test_order_insensitive(self):
        assert canonical_options({"a": 1, "b": 2.0}) == canonical_options(
            {"b": 2.0, "a": 1}
        )

    def test_negative_zero_folds(self):
        assert canonical_options({"x": -0.0}) == canonical_options({"x": 0.0})

    def test_arrays_and_nested_mappings(self):
        a = canonical_options({"iv": {"lo": np.array([1.0, 2.0])}})
        b = canonical_options({"iv": {"lo": np.array([1.0, 2.0])}})
        c = canonical_options({"iv": {"lo": np.array([1.0, 2.5])}})
        assert a == b and a != c

    def test_callables_are_uncacheable(self):
        assert canonical_options({"fn": lambda x: x}) is None

    def test_spelled_out_default_folds_for_its_method(self):
        assert canonical_options({"demand_axis": "population"}, "mvasd") == ()
        assert canonical_options(
            {"single_server": False, "demand_axis": "population"}, "mvasd"
        ) == canonical_options({}, "mvasd")
        # omitted defaults key exactly as before, so stored entries keep hitting
        assert canonical_options({"single_server": True}, "mvasd") == canonical_options(
            {"single_server": True}
        )
        # same type only: 0 is not the declared False
        assert canonical_options({"single_server": 0}, "mvasd") == (("single_server", 0),)
        # no method (or an unknown one): nothing folds
        assert canonical_options({"demand_axis": "population"}) != ()
        assert canonical_options({"demand_axis": "population"}, "no-such-solver") != ()


class TestSolverCache:
    def test_lru_eviction_and_counters(self):
        cache = SolverCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes a
        cache.put("c", 3)  # evicts b (LRU)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        s = cache.stats()
        assert (s.hits, s.misses, s.evictions, s.size) == (3, 1, 1, 2)

    def test_clear_resets(self):
        cache = SolverCache()
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        s = cache.stats()
        assert (s.hits, s.misses, s.size) == (0, 0, 0)

    def test_put_freezes_result_arrays(self, net):
        cache = SolverCache()
        result = solve(Scenario(net, 10), cache=None)
        cache.put("k", result)
        with pytest.raises(ValueError):
            result.throughput[0] = 0.0

    def test_resolve_cache_spellings(self):
        cache = SolverCache()
        assert resolve_cache(cache) is cache
        assert resolve_cache(None) is None
        assert resolve_cache(USE_DEFAULT_CACHE) is default_cache()
        assert resolve_cache("default") is default_cache()
        with pytest.raises(TypeError):
            resolve_cache("nonsense")

    def test_set_default_cache_swaps_and_restores(self):
        fresh = SolverCache(maxsize=7)
        previous = set_default_cache(fresh)
        try:
            assert default_cache() is fresh
            assert cache_stats().maxsize == 7
        finally:
            set_default_cache(previous)


class TestSolveCaching:
    def test_hit_returns_same_object(self, net):
        cache = SolverCache()
        sc = Scenario(net, 20)
        first = solve(sc, cache=cache)
        second = solve(sc, cache=cache)
        assert second is first
        s = cache.stats()
        assert s.hits == 1 and s.misses == 1

    def test_equal_but_distinct_scenarios_hit(self, net):
        cache = SolverCache()
        first = solve(Scenario(net, 20), cache=cache)
        second = solve(Scenario(net, 20), cache=cache)
        assert second is first

    def test_method_and_options_split_entries(self, net):
        cache = SolverCache()
        sc = Scenario(net, 20, demand_functions={"web": lambda n: 0.02, "db": lambda n: 0.05})
        solve(sc, method="mvasd", cache=cache)
        solve(sc, method="mvasd", single_server=True, cache=cache)
        solve(sc, method="schweitzer-amva", cache=cache)
        s = cache.stats()
        assert s.hits == 0 and s.misses == 3 and s.size == 3

    def test_cache_none_bypasses(self, net):
        sc = Scenario(net, 20)
        a = solve(sc, cache=None)
        b = solve(sc, cache=None)
        assert a is not b
        np.testing.assert_array_equal(a.throughput, b.throughput)

    def test_cached_hit_matches_fresh_solve(self, net, multiserver_net):
        for network in (net, multiserver_net):
            cache = SolverCache()
            sc = Scenario(network, 25)
            warm = solve(sc, cache=cache)
            warm_again = solve(Scenario(network, 25), cache=cache)
            fresh = solve(Scenario(network, 25), cache=None)
            np.testing.assert_allclose(warm_again.throughput, fresh.throughput, atol=1e-10)
            np.testing.assert_allclose(
                warm_again.response_time, fresh.response_time, atol=1e-10
            )
            assert warm_again is warm

    def test_throughput_axis_is_uncacheable(self, net):
        cache = SolverCache()
        sc = Scenario(
            net, 10, demand_functions={"web": lambda n: 0.02, "db": lambda n: 0.05}
        )
        solve(sc, method="mvasd", demand_axis="throughput", cache=cache)
        solve(sc, method="mvasd", demand_axis="throughput", cache=cache)
        s = cache.stats()
        assert s.hits == 0 and s.size == 0 and s.uncacheable == 2

    def test_spelled_out_default_shares_every_tier(self, net, tmp_path):
        db = tmp_path / "cache.sqlite"
        sc = Scenario(
            net, 20, demand_functions={"web": lambda n: 0.02, "db": lambda n: 0.05}
        )
        cache = SolverCache(persistent=db)
        first = solve(sc, method="mvasd", cache=cache)
        again = solve(sc, method="mvasd", demand_axis="population", cache=cache)
        s = cache.stats()
        assert again is first
        assert (s.misses, s.hits, s.size) == (1, 1, 1)
        # the trajectory family: a shallower what-if is a prefix slice
        solve(
            sc.with_overrides(max_population=10),
            method="mvasd",
            demand_axis="population",
            cache=cache,
        )
        assert cache.stats().trajectory_hits == 1
        # the sqlite tier: a restarted process finds the omitted-default entry
        restarted = SolverCache(persistent=db)
        hit = solve(sc, method="mvasd", demand_axis="population", cache=restarted)
        assert restarted.stats().persistent_hits == 1
        assert np.array_equal(hit.throughput, first.throughput)

    def test_stack_caching(self, net):
        cache = SolverCache()
        scenarios = [Scenario(net, 15, demands=(0.02 * f, 0.05)) for f in (1.0, 1.5)]
        first = solve_stack(scenarios, cache=cache)
        second = solve_stack(list(scenarios), cache=cache)
        assert second is first
        assert cache.stats().hits == 1

    def test_stack_backend_splits_entries(self, net):
        cache = SolverCache()
        scenarios = [Scenario(net, 15, demands=(0.02 * f, 0.05)) for f in (1.0, 1.5)]
        a = solve_stack(scenarios, method="exact-mva", backend="batched", cache=cache)
        b = solve_stack(scenarios, method="exact-mva", backend="serial", cache=cache)
        assert a is not b
        assert cache.stats().size == 2
        np.testing.assert_allclose(a.throughput, b.throughput, atol=1e-10)


class TestWarmWhatIf:
    def test_repeated_what_if_sweep_hits_cache(self, net):
        from repro.analysis.whatif import Scenario as WhatIfScenario
        from repro.analysis.whatif import evaluate_scenarios

        fns = {"web": lambda n: 0.02 + 0.0001 * n, "db": lambda n: 0.05}
        variants = [
            WhatIfScenario("faster-db", demand_scale={"db": 0.5}),
            WhatIfScenario("slower-web", demand_scale={"web": 1.5}),
        ]
        cache = SolverCache()
        cold = evaluate_scenarios(net, fns, variants, 40, workers=1, cache=cache)
        assert cache.stats().hits == 0
        warm = evaluate_scenarios(net, fns, variants, 40, workers=1, cache=cache)
        stats = cache.stats()
        assert stats.hits >= len(cold)
        for name in cold:
            np.testing.assert_allclose(
                warm[name].result.throughput,
                cold[name].result.throughput,
                atol=1e-10,
            )


class TestCacheCLI:
    def test_cache_subcommand_demo(self, capsys):
        from repro.cli import main
        from repro.solvers import SolverCache, set_default_cache

        previous = set_default_cache(SolverCache())
        try:
            assert main(["cache", "--demo"]) == 0
        finally:
            set_default_cache(previous)
        out = capsys.readouterr().out
        assert "solver result cache" in out
        assert "hits" in out and "misses" in out
        # --demo solves the same scenario twice: one miss, one hit.
        assert any(
            line.split("|")[-1].strip() == "1"
            for line in out.splitlines()
            if line.strip().startswith("hits")
        )

    def test_cache_subcommand_clear_and_maxsize(self, capsys):
        from repro.cli import main
        from repro.solvers import default_cache, set_default_cache

        previous = default_cache()
        try:
            assert main(["cache", "--maxsize", "16", "--clear"]) == 0
            out = capsys.readouterr().out
            assert "0/16" in out
        finally:
            set_default_cache(previous)
