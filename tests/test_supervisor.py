"""Fleet supervision: managed lifecycle, heartbeats, quarantine, chaos drill.

The robustness acceptance claims live here: a supervised fleet relaunches
SIGKILLed workers mid-sweep and the sweep still reassembles bit-identical
results; an unresponsive worker is quarantined behind its circuit breaker
and re-admitted through the half-open probe once it recovers; a draining
fleet finishes every in-flight request and exits 0; and the `repro fleet`
CLI drives the whole lifecycle from a state file.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.network import ClosedNetwork, Station
from repro.engine import (
    CircuitBreaker,
    FaultPlan,
    FleetSupervisor,
    RetryPolicy,
    faults,
)
from repro.engine.fabric import RemoteBackend
from repro.engine.supervisor import load_fleet_state, save_fleet_state
from repro.solvers import Scenario, solve_stack
from repro.solvers.registry import get_solver

ATOL = 1e-10


@pytest.fixture(autouse=True)
def _disarm():
    yield
    faults.deactivate()


@pytest.fixture
def net():
    return ClosedNetwork(
        [Station("web", demand=0.02), Station("db", demand=0.05)], think_time=1.0
    )


@pytest.fixture
def stack(net):
    return [Scenario(net, 12, think_time=0.5 + 0.05 * i) for i in range(16)]


@pytest.fixture
def baseline(stack):
    return solve_stack(stack, method="exact-mva", backend="serial", cache=None)


def _fast_supervisor(workers=2, **kw):
    """A supervisor tuned for test latency, not production stability."""
    kw.setdefault("heartbeat_interval", 0.1)
    kw.setdefault("ping_timeout", 2.0)
    kw.setdefault(
        "relaunch_policy", RetryPolicy(max_retries=5, backoff_base=0.05, backoff_max=0.2)
    )
    kw.setdefault("breaker_threshold", 2)
    kw.setdefault("breaker_cooldown", 0.3)
    return FleetSupervisor(workers=workers, **kw)


def _wait_for(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _pid_gone(pid):
    try:
        # Reap first: an exited child of this test process is a zombie
        # that would still answer os.kill(pid, 0).
        if os.waitpid(pid, os.WNOHANG)[0] == pid:
            return True
    except (ChildProcessError, OSError):
        pass
    try:
        os.kill(pid, 0)
    except (OSError, ProcessLookupError):
        return True
    return False


# -- circuit breaker (pure units) ----------------------------------------------


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        b = CircuitBreaker(threshold=3, cooldown=2.0)
        assert b.record_failure(now=10.0) is False
        assert b.record_failure(now=11.0) is False
        assert b.state == "closed"
        assert b.record_failure(now=12.0) is True
        assert b.state == "open"
        assert not b.allows_probe(13.0)

    def test_success_resets_the_count(self):
        b = CircuitBreaker(threshold=2)
        b.record_failure(now=0.0)
        b.record_success()
        assert b.failures == 0
        b.record_failure(now=1.0)
        assert b.state == "closed"  # the streak restarted

    def test_half_open_probe_after_cooldown_then_close(self):
        b = CircuitBreaker(threshold=1, cooldown=2.0)
        assert b.record_failure(now=0.0) is True
        assert not b.allows_probe(1.9)
        assert b.allows_probe(2.1)  # transitions open -> half-open
        assert b.state == "half-open"
        b.record_success()
        assert b.state == "closed"
        assert b.allows_probe(2.2)

    def test_half_open_failure_reopens_with_doubled_cooldown(self):
        b = CircuitBreaker(threshold=1, cooldown=2.0, max_cooldown=5.0)
        b.record_failure(now=0.0)
        assert b.allows_probe(2.5)
        assert b.record_failure(now=2.5) is True  # re-opened
        assert b._current_cooldown == 4.0
        assert not b.allows_probe(6.0)
        assert b.allows_probe(6.6)
        b.record_failure(now=6.6)
        assert b._current_cooldown == 5.0  # capped at max_cooldown


# -- supervised lifecycle (real subprocesses) ----------------------------------


class TestFleetSupervisor:
    def test_launch_status_stop(self):
        with _fast_supervisor(2) as sup:
            assert len(sup.hosts()) == 2
            rows = sup.status()
            assert all(r["healthy"] and r["breaker"] == "closed" for r in rows)
            assert len({(r["host"], r["port"]) for r in rows}) == 2
            pids = [r["pid"] for r in rows]
        assert _wait_for(lambda: all(_pid_gone(p) for p in pids))

    def test_state_file_round_trip(self, tmp_path):
        path = str(tmp_path / "fleet.json")
        with _fast_supervisor(2) as sup:
            save_fleet_state(path, sup, cache_path="/tmp/cache.sqlite")
            state = load_fleet_state(path)
            assert state["cache_path"] == "/tmp/cache.sqlite"
            endpoints = {(w["host"], w["port"]) for w in state["workers"]}
            assert endpoints == set(sup.hosts())
        with pytest.raises(ValueError, match="fleet state"):
            (tmp_path / "junk.json").write_text("{}")
            load_fleet_state(str(tmp_path / "junk.json"))

    def test_chaos_kill_relaunches_and_sweep_stays_bit_identical(
        self, stack, baseline
    ):
        sup = _fast_supervisor(2).start()
        try:
            # slow-worker keeps shards in flight long enough for the
            # heartbeat's chaos kill to land mid-sweep
            plan = FaultPlan.parse(
                "kill-worker-process@shard=1;slow-worker@delay=0.1"
            )
            with faults.injected(plan):
                result = solve_stack(stack, method="exact-mva", cache=None, fleet=sup)
                assert _wait_for(lambda: sup.relaunches >= 1)
            kinds = [kind for kind, *_ in sup.events]
            assert "chaos-kill" in kinds
            assert "relaunch" in kinds
            np.testing.assert_allclose(result.throughput, baseline.throughput, atol=ATOL)
            np.testing.assert_allclose(
                result.queue_lengths, baseline.queue_lengths, atol=ATOL
            )
            # the relaunched worker is live again on a fresh endpoint
            assert _wait_for(lambda: len(sup.hosts()) == 2)
        finally:
            sup.stop(graceful=False)

    def test_unresponsive_worker_quarantined_then_readmitted(self):
        sup = _fast_supervisor(1, ping_timeout=0.3).start()
        try:
            assert len(sup.hosts()) == 1
            pid = sup.status()[0]["pid"]
            os.kill(pid, signal.SIGSTOP)  # alive but unresponsive: no relaunch
            try:
                assert _wait_for(lambda: sup.quarantines >= 1)
                assert sup.status()[0]["healthy"] is False
                assert sup.hosts() == []  # quarantined hosts leave the membership
                assert sup.relaunches == 0
            finally:
                os.kill(pid, signal.SIGCONT)
            assert _wait_for(lambda: sup.readmissions >= 1)
            assert _wait_for(lambda: sup.status()[0]["healthy"])
            assert [kind for kind, *_ in sup.events].count("quarantine") >= 1
            assert sup.status()[0]["pid"] == pid  # same process all along
        finally:
            sup.stop(graceful=False)

    def test_drain_exits_all_workers_cleanly(self):
        sup = _fast_supervisor(2).start()
        pids = [r["pid"] for r in sup.status()]
        assert sup.drain(timeout=60.0) is True
        assert all(_pid_gone(p) for p in pids)
        sup.stop(graceful=False)  # idempotent after drain


# -- the chaos drill -----------------------------------------------------------


class TestChaosDrill:
    def test_drill(self, net):
        """The acceptance drill: 64-scenario sweep over a supervised fleet
        while one worker is SIGKILLed and one shard's admission is rejected;
        the sweep must still be bit-identical and the drain clean."""
        grid = [Scenario(net, 12, think_time=0.4 + 0.02 * i) for i in range(64)]
        serial = solve_stack(grid, method="exact-mva", backend="serial", cache=None)
        sup = _fast_supervisor(2).start()
        try:
            backend = RemoteBackend(membership=sup, reprobe_interval=0.1)
            plan = FaultPlan.parse(
                "kill-worker-process@shard=1;"
                "reject-admission@shard=0;"
                "slow-worker@delay=0.1"
            )
            with faults.injected(plan):
                result = backend.run(get_solver("exact-mva"), grid, {})
                assert _wait_for(lambda: sup.relaunches >= 1)
                fired = {(kind, point) for kind, point, *_ in faults.fired()}
            assert ("kill-worker-process", "fleet") in fired
            assert ("reject-admission", "admission") in fired
            assert backend.transport.overload_retries >= 1
            assert sup.relaunches >= 1
            np.testing.assert_allclose(result.throughput, serial.throughput, atol=ATOL)
            np.testing.assert_allclose(
                result.queue_lengths, serial.queue_lengths, atol=ATOL
            )
            assert not result.failures
            # graceful teardown: every worker finishes and exits 0
            assert sup.drain(timeout=60.0) is True
        finally:
            sup.stop(graceful=False)


# -- the fleet CLI -------------------------------------------------------------


class TestFleetCLI:
    def test_up_status_sweep_drain_round_trip(self, tmp_path, capsys):
        state = str(tmp_path / "fleet.json")
        assert cli_main(["fleet", "up", "--workers", "2", "--state", state]) == 0
        out = capsys.readouterr().out
        assert "2 worker(s) up" in out
        try:
            assert cli_main(["fleet", "status", "--state", state]) == 0
            assert "2/2" in capsys.readouterr().out

            rc = cli_main(
                [
                    "sweep-grid",
                    "--demands", "0.02,0.05",
                    "--population", "20",
                    "--scales", "0.8,1.0,1.2",
                    "--fleet", state,
                ]
            )
            assert rc == 0
            assert "[remote]" in capsys.readouterr().out
        finally:
            assert cli_main(["fleet", "drain", "--state", state]) == 0
            assert "cleanly" in capsys.readouterr().out
        assert not os.path.exists(state)

    def test_down_kills_unreachable_workers(self, tmp_path, capsys):
        state = str(tmp_path / "fleet.json")
        assert cli_main(["fleet", "up", "--workers", "1", "--state", state]) == 0
        capsys.readouterr()
        pid = load_fleet_state(state)["workers"][0]["pid"]
        assert cli_main(["fleet", "down", "--state", state]) == 0
        assert "stopped" in capsys.readouterr().out
        assert _wait_for(lambda: _pid_gone(pid))
        assert not os.path.exists(state)

    def test_ephemeral_fleet_sweep(self, capsys):
        rc = cli_main(
            [
                "sweep-grid",
                "--demands", "0.02,0.05",
                "--population", "20",
                "--scales", "0.9,1.0",
                "--fleet", "2",
            ]
        )
        assert rc == 0
        assert "[remote]" in capsys.readouterr().out
