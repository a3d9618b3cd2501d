"""Deterministic fault injection: every recovery path earns its keep.

The acceptance bar of the resilience work: for each fault kind the
harness can arm (crashed worker, wedged/slow shard, poisoned scenario,
corrupted cache entry), the faulted run must *recover* and match the
fault-free run to ≤1e-10.  A separate group pins the harness itself —
spec parsing, attempt scoping, arming/disarming — since a fault plan
that silently never fires would make every parity test vacuous.
"""

import numpy as np
import pytest

from repro.core.network import ClosedNetwork, Station
from repro.engine import FaultPlan, InjectedFault, RetryPolicy
from repro.engine import faults
from repro.engine.faults import Fault
from repro.solvers import Scenario, SolverCache, solve_stack

ATOL = 1e-10


@pytest.fixture(autouse=True)
def _disarm():
    """No fault plan may leak across tests."""
    yield
    faults.deactivate()


@pytest.fixture
def net():
    return ClosedNetwork(
        [Station("web", demand=0.02), Station("db", demand=0.05)], think_time=1.0
    )


@pytest.fixture
def stack(net):
    return [Scenario(net, 15, think_time=0.5 + 0.1 * i) for i in range(8)]


@pytest.fixture
def baseline(stack):
    return solve_stack(stack, method="exact-mva", backend="serial", cache=None)


def assert_parity(result, baseline):
    assert not result.failures
    np.testing.assert_allclose(result.throughput, baseline.throughput, atol=ATOL)
    np.testing.assert_allclose(result.response_time, baseline.response_time, atol=ATOL)
    np.testing.assert_allclose(result.queue_lengths, baseline.queue_lengths, atol=ATOL)
    np.testing.assert_allclose(result.utilizations, baseline.utilizations, atol=ATOL)


class TestFaultPlanParsing:
    def test_parse_roundtrip(self):
        spec = "crash-worker@shard=0;delay-shard@shard=1,delay=0.2;corrupt-cache-entry"
        plan = FaultPlan.parse(spec)
        assert len(plan) == 3
        assert plan.faults[0] == Fault(kind="crash-worker", shard=0)
        assert plan.faults[1].delay == pytest.approx(0.2)
        assert plan.spec() == spec

    def test_parse_attempt_and_scenario(self):
        plan = FaultPlan.parse("raise-in-kernel@scenario=3,attempt=1")
        (fault,) = plan.faults
        assert fault.scenario == 3 and fault.attempt == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("set-cpu-on-fire")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown fault parameter"):
            FaultPlan.parse("crash-worker@core=2")

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="names no faults"):
            FaultPlan.parse(" ; ")


class TestHarness:
    def test_noop_when_disarmed(self):
        faults.maybe_inject("kernel", scenario=0)  # must not raise

    def test_fires_only_on_matching_attempt(self):
        with faults.injected(FaultPlan.parse("raise-in-kernel@scenario=0")):
            faults.set_attempt(1)
            faults.maybe_inject("kernel", scenario=0)  # attempt mismatch: no-op
            faults.set_attempt(0)
            with pytest.raises(InjectedFault):
                faults.maybe_inject("kernel", scenario=0)

    def test_fires_only_on_matching_index(self):
        with faults.injected(FaultPlan.parse("raise-in-kernel@scenario=2")):
            faults.maybe_inject("kernel", scenario=1)
            with pytest.raises(InjectedFault):
                faults.maybe_inject("kernel", scenario=2)

    def test_context_manager_disarms(self):
        with faults.injected(FaultPlan.parse("raise-in-kernel")):
            assert faults.active_plan() is not None
        assert faults.active_plan() is None
        faults.maybe_inject("kernel", scenario=0)

    def test_fired_log_records_driver_side_fires(self):
        with faults.injected(FaultPlan.parse("delay-shard@shard=1,delay=0")):
            faults.maybe_inject("shard", shard=1)
            assert faults.fired() == [("delay-shard", "shard", 1, None, 0)]

    def test_crash_worker_is_noop_in_driver(self):
        # In the arming process the crash must NOT fire (os._exit would
        # kill the test run) — that is exactly what lets in-parent
        # retries of a crashed shard succeed.
        with faults.injected(FaultPlan.parse("crash-worker@shard=0")):
            faults.maybe_inject("shard", shard=0)

    def test_one_shot_fires_once_under_contention(self):
        # a remote host's pumps race for a one-shot fault on their own
        # threads; however they interleave, exactly one may take it
        import sys
        import threading

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(100):
                with faults.injected(FaultPlan.parse("reject-admission")):
                    start = threading.Barrier(16)
                    taken = []

                    def race():
                        start.wait(timeout=10.0)
                        taken.append(faults.take_one_shot("admission", shard=0))

                    threads = [threading.Thread(target=race) for _ in range(16)]
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join(timeout=10.0)
                    assert not any(t.is_alive() for t in threads)
                    assert sum(f is not None for f in taken) == 1, taken
                    assert len(faults.fired()) == 1
        finally:
            sys.setswitchinterval(interval)


class TestRecoveryParity:
    """Each injected fault recovers with ≤1e-10 deviation from fault-free."""

    def test_crashed_shard_process_sharded(self, stack, baseline):
        with faults.injected(FaultPlan.parse("crash-worker@shard=0")):
            result = solve_stack(
                stack, method="exact-mva", backend="process-sharded",
                workers=2, cache=None,
            )
        assert_parity(result, baseline)

    def test_crashed_shard_resilient(self, stack, baseline):
        with faults.injected(FaultPlan.parse("crash-worker@shard=1")):
            result = solve_stack(
                stack, method="exact-mva", backend="resilient",
                workers=2, cache=None,
                retry_policy=RetryPolicy(backoff_base=0.01, shard_timeout=30),
            )
        assert_parity(result, baseline)

    def test_slow_shard_times_out_and_recovers(self, stack, baseline):
        with faults.injected(FaultPlan.parse("delay-shard@shard=0,delay=5")):
            result = solve_stack(
                stack, method="exact-mva", backend="resilient",
                workers=2, cache=None,
                retry_policy=RetryPolicy(backoff_base=0.01, shard_timeout=0.4),
            )
        assert_parity(result, baseline)

    def test_poisoned_scenario_resilient_retry(self, stack, baseline):
        # The fault is armed for attempt 0 only: the sharded attempt
        # fails, the retry escapes it — no degradation needed.
        with faults.injected(FaultPlan.parse("raise-in-kernel@scenario=5")):
            result = solve_stack(
                stack, method="exact-mva", backend="resilient",
                workers=2, cache=None,
                retry_policy=RetryPolicy(backoff_base=0.01, shard_timeout=30),
            )
        assert_parity(result, baseline)

    def test_corrupted_cache_entry_degrades_to_miss(self, stack, baseline):
        store = SolverCache()
        with faults.injected(FaultPlan.parse("corrupt-cache-entry")):
            result = solve_stack(
                stack, method="exact-mva", backend="batched", cache=store
            )
        assert_parity(result, baseline)
        assert store.stats().errors > 0

    def test_multiple_simultaneous_faults(self, stack, baseline):
        spec = "crash-worker@shard=0;raise-in-kernel@scenario=7"
        with faults.injected(FaultPlan.parse(spec)):
            result = solve_stack(
                stack, method="exact-mva", backend="resilient",
                workers=2, cache=None,
                retry_policy=RetryPolicy(backoff_base=0.01, shard_timeout=30),
            )
        assert_parity(result, baseline)

    def test_persistent_fault_degrades_through_chain(self, stack, baseline):
        # Armed for attempts 0..2 the poisoned scenario survives the
        # sharded retries; the batched in-process attempt fails too, and
        # the serial loop (a later attempt) finally clears it.
        spec = ";".join(f"raise-in-kernel@scenario=3,attempt={a}" for a in range(3))
        with faults.injected(FaultPlan.parse(spec)):
            result = solve_stack(
                stack, method="exact-mva", backend="resilient",
                workers=2, cache=None,
                retry_policy=RetryPolicy(
                    max_retries=1, backoff_base=0.01, shard_timeout=30
                ),
            )
        assert_parity(result, baseline)

    def test_mvasd_stack_recovers_too(self, baseline):
        # Varying-demand scenarios shard with fork-inherited callables;
        # the crash/retry path must preserve that property.
        net = ClosedNetwork(
            [Station("cpu", demand=lambda n: 0.02 + 0.001 * n), Station("db", demand=0.05)],
            think_time=1.0,
        )
        stack = [Scenario(net, 12, think_time=0.5 + 0.2 * i) for i in range(6)]
        clean = solve_stack(stack, method="mvasd", backend="serial", cache=None)
        with faults.injected(FaultPlan.parse("crash-worker@shard=1")):
            result = solve_stack(
                stack, method="mvasd", backend="resilient",
                workers=2, cache=None,
                retry_policy=RetryPolicy(backoff_base=0.01, shard_timeout=30),
            )
        assert_parity(result, clean)
