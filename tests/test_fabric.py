"""The execution fabric: work plans, dispatcher, transports, remote workers.

Tentpole coverage for the plan → dispatch → transport split:
:class:`WorkPlan` partitioning, :class:`Dispatcher` parity with the
pre-refactor resilient backend over a local transport, host parsing,
the remote capability gate, the ``solve_shard`` wire op against real
``repro worker`` processes (bit-identical to serial solves), transport
fault injection (``drop-connection`` / ``slow-worker``), dead-fleet
degradation, and checkpoint resume across transports.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.network import ClosedNetwork, Station
from repro.engine import (
    Dispatcher,
    FaultPlan,
    LocalProcessTransport,
    RemoteTransport,
    RetryPolicy,
    WorkPlan,
    WorkerConnectionLost,
    faults,
)
from repro.engine.fabric import RemoteBackend, _check_remote_capability
from repro.engine.supervisor import StaticMembership
from repro.engine.transport import parse_host, parse_hosts
from repro.serve.client import ServeClient
from repro.serve.protocol import encode_scenario
from repro.solvers import (
    Scenario,
    SolverInputError,
    WorkloadClass,
    solve,
    solve_stack,
)
from repro.solvers.facade import SolverCapabilityError
from repro.solvers.registry import get_solver

ATOL = 1e-10
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
    return [Scenario(net, 12, think_time=0.5 + 0.1 * i) for i in range(8)]


@pytest.fixture
def baseline(stack):
    return solve_stack(stack, method="exact-mva", backend="serial", cache=None)


def _start_worker(cache_path=None, timeout=None, extra=()):
    """Launch ``repro worker --port 0`` and scrape the bound port."""
    cmd = [sys.executable, "-m", "repro", "worker", "--port", "0"]
    if cache_path is not None:
        cmd += ["--cache-path", cache_path]
    if timeout is not None:
        cmd += ["--timeout", str(timeout)]
    cmd += list(extra)
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        cwd=REPO_ROOT,
    )
    deadline = time.monotonic() + 30.0
    while True:
        line = proc.stdout.readline()
        if "listening on" in line:
            assert line.startswith("repro-worker"), line
            return proc, int(line.rsplit(":", 1)[1])
        if not line and proc.poll() is not None:
            raise RuntimeError(f"worker died before binding (rc={proc.returncode})")
        if time.monotonic() > deadline:
            proc.kill()
            raise RuntimeError("worker never announced its port")


def _stop_worker(proc, port):
    try:
        with ServeClient(port=port, timeout=10.0) as client:
            client.shutdown()
    except Exception:
        proc.terminate()
    try:
        proc.wait(timeout=60.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10.0)


@pytest.fixture
def worker_fleet():
    """Two live ``repro worker`` processes; yields ``(procs, hosts_str)``."""
    workers = [_start_worker() for _ in range(2)]
    hosts = ",".join(f"127.0.0.1:{port}" for _, port in workers)
    try:
        yield workers, hosts
    finally:
        for proc, port in workers:
            if proc.poll() is None:
                _stop_worker(proc, port)


# -- planning ------------------------------------------------------------------


class TestWorkPlan:
    def test_shards_cover_the_stack_contiguously(self, stack):
        spec = get_solver("exact-mva")
        plan = WorkPlan.build(spec, stack, {}, n_shards=3)
        assert plan.method == "exact-mva"
        assert plan.n_scenarios == len(stack)
        assert [s.index for s in plan.shards] == [0, 1, 2]
        assert plan.shards[0].start == 0 and plan.shards[-1].stop == len(stack)
        for prev, nxt in zip(plan.shards, plan.shards[1:]):
            assert prev.stop == nxt.start
        assert sum(s.n_scenarios for s in plan.shards) == len(stack)
        assert plan.shards[0].bounds == (0, 0, plan.shards[0].stop)

    def test_no_checkpoint_means_no_keys(self, stack):
        plan = WorkPlan.build(get_solver("exact-mva"), stack, {}, n_shards=2)
        assert all(s.key is None for s in plan.shards)

    def test_checkpoint_stamps_content_addressed_keys(self, tmp_path, stack):
        from repro.engine import SweepCheckpoint

        ck = SweepCheckpoint(tmp_path / "j.ckpt")
        plan = WorkPlan.build(get_solver("exact-mva"), stack, {}, 2, checkpoint=ck)
        keys = [s.key for s in plan.shards]
        assert all(isinstance(k, str) and len(k) == 64 for k in keys)
        assert len(set(keys)) == len(keys)  # distinct sub-stacks, distinct keys
        again = WorkPlan.build(get_solver("exact-mva"), stack, {}, 2, checkpoint=ck)
        assert [s.key for s in again.shards] == keys  # stable across builds

    def test_child_backend_tracks_kernel_availability(self, stack):
        assert WorkPlan.build(get_solver("exact-mva"), stack, {}, 1).child_backend == "batched"
        assert (
            WorkPlan.build(get_solver("convolution"), stack[:1], {}, 1).child_backend
            == "serial"
        )


# -- host parsing --------------------------------------------------------------


class TestHostParsing:
    def test_parse_host_forms(self):
        assert parse_host("10.0.0.5:9000") == ("10.0.0.5", 9000)
        assert parse_host("localhost") == ("localhost", 7173)
        assert parse_host(("h", 81)) == ("h", 81)
        assert parse_host("bare", default_port=99) == ("bare", 99)

    def test_parse_hosts_list(self):
        assert parse_hosts("a:1, b:2 ,c") == [("a", 1), ("b", 2), ("c", 7173)]
        with pytest.raises(ValueError, match="names no hosts"):
            parse_hosts(" , ")


# -- dispatcher over the local transport ---------------------------------------


class TestDispatcherLocal:
    def test_parity_with_serial_and_resilient(self, stack, baseline):
        spec = get_solver("exact-mva")
        dispatcher = Dispatcher(LocalProcessTransport(2))
        result = dispatcher.run(spec, stack, {})
        np.testing.assert_allclose(result.throughput, baseline.throughput, atol=ATOL)
        resilient = solve_stack(stack, method="exact-mva", backend="resilient",
                                workers=2, cache=None)
        assert np.array_equal(result.throughput, resilient.throughput)
        assert np.array_equal(result.utilizations, resilient.utilizations)

    def test_dispatcher_name_defaults_to_transport(self):
        d = Dispatcher(LocalProcessTransport(2))
        assert d.name == "local-processes"
        assert Dispatcher(LocalProcessTransport(2), name="resilient").name == "resilient"

    def test_rejects_bad_errors_mode(self):
        with pytest.raises(ValueError, match="errors must be"):
            Dispatcher(LocalProcessTransport(1), errors="panic")

    def test_local_fan_out_gate(self):
        assert not LocalProcessTransport(1).fan_out(4)
        assert not LocalProcessTransport(4).fan_out(1)
        assert LocalProcessTransport(4).fan_out(4)

    def test_attempt_counter_reset_after_run(self, stack):
        Dispatcher(LocalProcessTransport(2)).run(get_solver("exact-mva"), stack, {})
        assert faults.current_attempt() == 0


# -- the remote capability gate ------------------------------------------------


class TestRemoteCapability:
    def test_multiclass_accepted(self, net):
        mc = Scenario(
            net,
            5,
            classes=(WorkloadClass("a", 3, {"web": 0.02, "db": 0.05}, think_time=1.0),),
        )
        _check_remote_capability(get_solver("exact-multiclass"), [mc], {})
        from repro.serve.protocol import decode_scenario

        assert decode_scenario(encode_scenario(mc)).fingerprint() == mc.fingerprint()

    def test_multiclass_offgrid_level_rejected(self, net):
        mc = Scenario(
            net,
            5,
            demand_level=2.5,
            classes=(
                WorkloadClass(
                    "a", 3, {"web": lambda n: 0.02 + 0.001 * n, "db": 0.05}
                ),
            ),
        )
        with pytest.raises(SolverCapabilityError, match="demand_level"):
            _check_remote_capability(get_solver("exact-multiclass"), [mc], {})

    def test_throughput_axis_rejected(self, stack):
        with pytest.raises(SolverCapabilityError, match="demand_axis"):
            _check_remote_capability(
                get_solver("mvasd"), stack, {"demand_axis": "throughput"}
            )

    def test_unserializable_options_rejected(self, stack):
        with pytest.raises(SolverCapabilityError, match="JSON-serializable"):
            _check_remote_capability(
                get_solver("ld-mva"), stack, {"rates": lambda j: j}
            )

    def test_facade_validation(self, net, stack):
        with pytest.raises(SolverInputError, match="needs hosts"):
            solve_stack(stack, backend="remote", cache=None)
        with pytest.raises(SolverInputError, match="only appl"):
            solve_stack(stack, backend="serial", hosts="127.0.0.1:1", cache=None)
        with pytest.raises(SolverInputError, match="scenario\\s+stacks"):
            solve(Scenario(net, 10), hosts="127.0.0.1:1")

    def test_facade_fleet_validation(self, stack):
        with pytest.raises(SolverInputError, match="mutually exclusive"):
            solve_stack(stack, hosts="127.0.0.1:1", fleet=2, cache=None)
        with pytest.raises(SolverInputError, match="only appl"):
            solve_stack(stack, backend="serial", fleet=2, cache=None)
        with pytest.raises(SolverInputError, match="worker count"):
            solve_stack(stack, fleet=0, cache=None)
        with pytest.raises(SolverInputError, match="FleetSupervisor"):
            solve_stack(stack, fleet=3.5, cache=None)
        with pytest.raises(SolverInputError, match="state file"):
            solve_stack(stack, fleet="/nonexistent/fleet.json", cache=None)


# -- remote transport unit behaviour -------------------------------------------


class TestRemoteTransportUnits:
    def test_preferred_shards_oversubscribes_hosts(self):
        t = RemoteTransport([("h1", 1), ("h2", 2)], shards_per_host=4)
        assert t.preferred_shards(1000) == 8
        assert t.preferred_shards(3) == 3  # never more shards than scenarios
        assert t.fan_out(1)  # even one shard is worth the worker's warm cache

    def test_unreachable_fleet_fails_every_shard(self, stack):
        # nothing listens on these ports; connect must fail fast, and every
        # shard must come back as WorkerConnectionLost, not hang
        t = RemoteTransport([("127.0.0.1", 1), ("127.0.0.1", 2)], connect_timeout=0.5)
        payload = ("exact-mva", "batched", list(stack), {})
        outs = t.run_shards([(0, 0, 4), (1, 4, 8)], payload, timeout=5.0)
        assert all(isinstance(o, WorkerConnectionLost) for o in outs)
        t.close()

    def test_dead_fleet_degrades_to_local_solve(self, stack, baseline):
        result = solve_stack(
            stack, method="exact-mva", cache=None,
            hosts="127.0.0.1:1",
            retry_policy=RetryPolicy(max_retries=0, backoff_base=0.0),
        )
        assert result.backend == "remote"
        np.testing.assert_allclose(result.throughput, baseline.throughput, atol=ATOL)


# -- against real workers ------------------------------------------------------


class TestRemoteEndToEnd:
    def test_remote_sweep_bit_identical_to_serial(self, worker_fleet, stack, baseline):
        _, hosts = worker_fleet
        result = solve_stack(stack, method="exact-mva", cache=None, hosts=hosts)
        assert result.backend == "remote"
        for attr in ("throughput", "response_time", "queue_lengths", "utilizations"):
            assert np.array_equal(getattr(result, attr), getattr(baseline, attr)), attr

    def test_varying_demands_cross_the_wire_exactly(self, worker_fleet, net):
        _, hosts = worker_fleet
        sc = [
            Scenario(
                net,
                15,
                demand_functions={
                    "web": lambda n, s=s: 0.02 * s * (1.0 + 0.01 * np.asarray(n)),
                    "db": lambda n: 0.05,
                },
            )
            for s in (0.9, 1.0, 1.1, 1.2)
        ]
        ref = solve_stack(sc, method="mvasd", backend="serial", cache=None)
        remote = solve_stack(sc, method="mvasd", cache=None, hosts=hosts)
        assert np.array_equal(remote.throughput, ref.throughput)
        assert np.array_equal(remote.queue_lengths, ref.queue_lengths)

    def test_multiclass_stack_crosses_the_wire_exactly(self, worker_fleet, net):
        _, hosts = worker_fleet
        sc = [
            Scenario(
                net,
                6,
                classes=(
                    WorkloadClass(
                        "browse", 4, {"web": 0.02 * s, "db": 0.05}, think_time=1.0
                    ),
                    WorkloadClass(
                        "buy",
                        2,
                        {
                            "web": lambda n, s=s: 0.03 * s
                            + 0.001 * np.asarray(n, dtype=float),
                            "db": 0.04,
                        },
                        think_time=0.5,
                    ),
                ),
            )
            for s in (0.9, 1.0, 1.1, 1.2, 1.3, 1.4)
        ]
        # snapshot kind (multiclass-stack)
        ref = solve_stack(sc, method="exact-multiclass", backend="serial", cache=None)
        remote = solve_stack(sc, method="exact-multiclass", cache=None, hosts=hosts)
        assert remote.backend == "remote"
        assert remote.class_names == ref.class_names
        assert np.array_equal(remote.throughput, ref.throughput)
        assert np.array_equal(remote.queue_lengths_by_class, ref.queue_lengths_by_class)
        assert np.array_equal(remote.utilizations, ref.utilizations)
        # trajectory kind (multiclass-trajectory-stack), via method="auto"
        ref_t = solve_stack(sc, backend="serial", cache=None)
        remote_t = solve_stack(sc, cache=None, hosts=hosts)
        assert np.array_equal(remote_t.throughput, ref_t.throughput)
        assert np.array_equal(remote_t.utilizations, ref_t.utilizations)

    def test_worker_killed_mid_fleet_still_finishes(self, worker_fleet, stack, baseline):
        workers, hosts = worker_fleet
        workers[1][0].kill()
        workers[1][0].wait()
        result = solve_stack(stack, method="exact-mva", cache=None, hosts=hosts)
        np.testing.assert_allclose(result.throughput, baseline.throughput, atol=ATOL)

    def test_drop_connection_fault_recovers_with_parity(
        self, worker_fleet, stack, baseline
    ):
        _, hosts = worker_fleet
        # every shard's first attempt loses its connection; retry succeeds
        with faults.injected(FaultPlan.parse("drop-connection@attempt=0")):
            result = solve_stack(
                stack, method="exact-mva", cache=None, hosts=hosts,
                retry_policy=RetryPolicy(max_retries=2, backoff_base=0.0),
            )
        assert ("drop-connection", "transport") in {
            (kind, point) for kind, point, *_ in faults.fired()
        }
        np.testing.assert_allclose(result.throughput, baseline.throughput, atol=ATOL)

    def test_slow_worker_fault_just_delays(self, worker_fleet, stack, baseline):
        _, hosts = worker_fleet
        with faults.injected(FaultPlan.parse("slow-worker@shard=0,delay=0.2")):
            result = solve_stack(stack, method="exact-mva", cache=None, hosts=hosts)
        np.testing.assert_allclose(result.throughput, baseline.throughput, atol=ATOL)

    def test_checkpoint_resume_after_fleet_death(self, worker_fleet, stack, baseline):
        """Shards journaled by remote solves resume bit-identically locally."""
        workers, hosts = worker_fleet
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "remote.ckpt")
            full = solve_stack(
                stack, method="exact-mva", cache=None, hosts=hosts, checkpoint=path
            )
            with open(path) as fh:
                lines = fh.read().splitlines()
            assert len(lines) >= 2
            # crash lost the tail; the whole fleet dies with it
            with open(path, "w") as fh:
                fh.write(lines[0] + "\n")
            for proc, port in workers:
                proc.kill()
                proc.wait()
            resumed = solve_stack(
                stack, method="exact-mva", cache=None, hosts=hosts, checkpoint=path,
                retry_policy=RetryPolicy(max_retries=0, backoff_base=0.0),
            )
            assert np.array_equal(resumed.throughput, full.throughput)
            assert np.array_equal(resumed.utilizations, full.utilizations)
            np.testing.assert_allclose(full.throughput, baseline.throughput, atol=ATOL)

    def test_worker_warm_cache_across_sweeps(self, worker_fleet, stack):
        _, hosts = worker_fleet
        solve_stack(stack, method="exact-mva", cache=None, hosts=hosts)
        before = [
            ServeClient(port=port).cache_stats() for _, port in worker_fleet[0]
        ]
        solve_stack(stack, method="exact-mva", cache=None, hosts=hosts)
        after = [
            ServeClient(port=port).cache_stats() for _, port in worker_fleet[0]
        ]
        gained = sum(a["hits"] - b["hits"] for a, b in zip(after, before))
        assert gained >= 1  # repeated shards hit the workers' memory tier

    def test_fingerprint_mismatch_is_a_structured_error(self, worker_fleet, stack):
        _, hosts = worker_fleet
        host, port = parse_hosts(hosts)[0]
        with ServeClient(host, port, timeout=30.0) as client:
            envelope = client.request(
                {
                    "op": "solve_shard",
                    "method": "exact-mva",
                    "backend": "batched",
                    "start": 0,
                    "scenarios": [encode_scenario(sc) for sc in stack[:2]],
                    "fingerprints": ["0" * 64, "1" * 64],
                    "options": {},
                }
            )
        assert envelope["ok"] is False
        assert "fingerprint mismatch" in envelope["error"]["error"]

    def test_solve_shard_rejects_disallowed_backend(self, worker_fleet, stack):
        _, hosts = worker_fleet
        host, port = parse_hosts(hosts)[0]
        with ServeClient(host, port, timeout=30.0) as client:
            envelope = client.request(
                {
                    "op": "solve_shard",
                    "method": "exact-mva",
                    "backend": "process-sharded",
                    "scenarios": [encode_scenario(stack[0])],
                    "options": {},
                }
            )
        assert envelope["ok"] is False
        assert "auto/serial/batched" in envelope["error"]["error"]


# -- overload shedding and elastic membership ----------------------------------


class TestElasticAndOverload:
    def test_driver_side_admission_shed_retries(self, worker_fleet, stack, baseline):
        """A shed shard is requeued (retry-later), not treated as host death."""
        _, hosts = worker_fleet
        backend = RemoteBackend(hosts=parse_hosts(hosts))
        with faults.injected(FaultPlan.parse("reject-admission@shard=0")):
            result = backend.run(get_solver("exact-mva"), stack, {})
        assert backend.last_transport.overload_retries >= 1
        assert ("reject-admission", "admission") in {
            (kind, point) for kind, point, *_ in faults.fired()
        }
        np.testing.assert_allclose(result.throughput, baseline.throughput, atol=ATOL)

    def test_server_side_overload_envelope_retries(self, stack, baseline):
        """A worker shedding load answers Overloaded; the transport retries."""
        proc, port = _start_worker(extra=("--inject-faults", "reject-admission"))
        try:
            backend = RemoteBackend(hosts=[("127.0.0.1", port)])
            result = backend.run(get_solver("exact-mva"), stack, {})
            assert backend.last_transport.overload_retries >= 1
            np.testing.assert_allclose(
                result.throughput, baseline.throughput, atol=ATOL
            )
        finally:
            _stop_worker(proc, port)

    def test_mid_sweep_join_drains_queued_shards(self, worker_fleet, stack, baseline):
        """A host added to the membership mid-sweep picks up queued shards."""
        workers, _ = worker_fleet
        (_, port1), (_, port2) = workers
        membership = StaticMembership([("127.0.0.1", port1)])
        backend = RemoteBackend(membership=membership, reprobe_interval=0.05)
        box: dict = {}
        armed = threading.Event()

        def run():
            # ~0.15s per shard keeps the lone starting host busy long
            # enough for the join to matter
            with faults.injected(FaultPlan.parse("slow-worker@delay=0.15")):
                armed.set()
                box["result"] = backend.run(get_solver("exact-mva"), stack, {})

        thread = threading.Thread(target=run)
        thread.start()
        # Join once the sweep is under way: the first shard's slow-worker
        # fault fires as the lone host starts sending it.
        assert armed.wait(timeout=60.0)
        deadline = time.monotonic() + 60.0
        while not faults.fired():
            assert thread.is_alive() and time.monotonic() < deadline, box
            time.sleep(0.01)
        membership.add("127.0.0.1", port2)
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert backend.last_transport.readmissions >= 1
        np.testing.assert_allclose(
            box["result"].throughput, baseline.throughput, atol=ATOL
        )


# -- CLI surface ---------------------------------------------------------------


class TestFabricCLI:
    def test_sweep_grid_hosts_implies_remote(self, worker_fleet, capsys):
        from repro.cli import main as cli_main

        _, hosts = worker_fleet
        rc = cli_main(
            [
                "sweep-grid",
                "--demands", "0.02,0.05",
                "--population", "12",
                "--scales", "0.9,1.0,1.1",
                "--hosts", hosts,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "[remote]" in out
