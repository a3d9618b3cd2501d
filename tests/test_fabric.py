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
import signal
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
    WorkerOverloaded,
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

    def test_pump_counters_survive_contention(self):
        """Sixteen pumps shed and retry 64 shards: no count is lost."""
        import sys

        class Shedding(RemoteTransport):
            def _connect(self, key, timeout):
                return key

            def _solve_remote(self, client, bounds, payload):
                with seen_lock:
                    first = bounds[0] not in seen
                    seen.add(bounds[0])
                if first:
                    raise WorkerOverloaded(f"shard {bounds[0]}")
                return bounds[0]

        seen: set = set()
        seen_lock = threading.Lock()
        hosts = [("127.0.0.1", port) for port in range(1, 9)]
        t = Shedding(hosts, reprobe_interval=0.001)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outs = t.run_shards([(k, k, k + 1) for k in range(64)], None, timeout=5.0)
        finally:
            sys.setswitchinterval(interval)
        assert outs == list(range(64))
        assert t.overload_retries == 64
        assert t.readmissions == 0


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
        # Both sweeps go to one worker.  With two hosts, the repeat sweep
        # could place every shard on the worker that cached none of them.
        _, port = worker_fleet[0][0]
        host = f"127.0.0.1:{port}"
        solve_stack(stack, method="exact-mva", cache=None, hosts=host)
        before = ServeClient(port=port).cache_stats()
        solve_stack(stack, method="exact-mva", cache=None, hosts=host)
        after = ServeClient(port=port).cache_stats()
        gained = after["hits"] - before["hits"]
        assert gained >= 1  # repeated shards hit the worker's memory tier

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


# -- framed replies --------------------------------------------------------------


def _assert_same_arrays(got, want):
    """Every array ``want`` holds is in ``got`` too, bit for bit."""
    got_arrays, _ = got.to_arrays()
    want_arrays, _ = want.to_arrays()
    assert list(got_arrays) == list(want_arrays)
    for name, arr in want_arrays.items():
        if arr is not None:
            assert np.array_equal(got_arrays[name], arr, equal_nan=True), name


class _TruncatingWorker:
    """A fake worker host: every reply announces a frame, then hangs up mid-frame."""

    def __init__(self):
        import socket

        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self.requests: list[dict] = []
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        import json

        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # closed
            with conn, conn.makefile("rwb") as f:
                line = f.readline()
                if not line:
                    continue
                request = json.loads(line)
                self.requests.append(request)
                header = {"id": request["id"], "ok": True, "result": {}, "frame": 4096}
                f.write(json.dumps(header).encode() + b"\n" + b"\0" * 100)
                f.flush()

    def close(self):
        self._sock.close()
        self._thread.join(timeout=5.0)


class TestFramedReplies:
    @pytest.fixture
    def frames_read(self, monkeypatch):
        """Sizes of every frame the driver's clients read."""
        sizes: list[int] = []
        read = ServeClient._read_frame

        def spy(self, nbytes):
            frame = read(self, nbytes)
            if frame is not None:
                sizes.append(len(frame))
            return frame

        monkeypatch.setattr(ServeClient, "_read_frame", spy)
        return sizes

    def test_every_container_bit_identical_to_serial(self, worker_fleet, frames_read):
        _, hosts = worker_fleet
        net = ClosedNetwork(
            [Station("web", 0.02, servers=2), Station("db", 0.05)], think_time=1.0
        )
        varying = [
            Scenario(
                net,
                15,
                demand_functions={
                    "web": lambda n, s=s: 0.02 * s * (1.0 + 0.01 * np.asarray(n)),
                    "db": lambda n, s=s: 0.05 + 0.001 * s * np.asarray(n, dtype=float),
                },
            )
            for s in (0.9, 1.0, 1.1, 1.2)
        ]
        single = ClosedNetwork([Station("web", 0.02), Station("db", 0.05)], think_time=1.0)
        mixes = [
            Scenario(
                single,
                6,
                classes=(
                    WorkloadClass("browse", 4, {"web": 0.02 * s, "db": 0.05}, think_time=1.0),
                    WorkloadClass(
                        "buy",
                        2,
                        {"web": lambda n, s=s: 0.03 * s + 0.001 * np.asarray(n, dtype=float),
                         "db": 0.04},
                        think_time=0.5,
                    ),
                ),
            )
            for s in (0.9, 1.0, 1.1, 1.2)
        ]
        for scenarios, method in (
            (varying, "mvasd"),  # batched-stack, demands_used on the wire
            (mixes, "exact-multiclass"),  # multiclass-stack
            (mixes, "multiclass-mvasd"),  # multiclass-trajectory-stack
        ):
            before = len(frames_read)
            remote = solve_stack(scenarios, method=method, cache=None, hosts=hosts)
            assert remote.backend == "remote"
            assert len(frames_read) > before and min(frames_read) > 0, method
            assert remote.demands_used is not None, method
            for backend in ("serial", "batched"):
                local = solve_stack(scenarios, method=method, backend=backend, cache=None)
                _assert_same_arrays(remote, local)

    def test_worker_that_predates_frames_answers_in_base64(
        self, monkeypatch, gated_worker, frames_read, stack
    ):
        from repro.serve.server import SolverServer

        port, release = gated_worker
        release.set()
        solve_shard = SolverServer._op_solve_shard

        def old_worker(self, request):  # never heard of the field
            return solve_shard(self, {k: v for k, v in request.items() if k != "frames"})

        monkeypatch.setattr(SolverServer, "_op_solve_shard", old_worker)
        t = RemoteTransport([("127.0.0.1", port)])
        try:
            shards = [(0, 0, 4), (1, 4, 8)]
            outs = t.run_shards(shards, ("exact-mva", "batched", list(stack), {}), timeout=30.0)
        finally:
            t.close()
        assert frames_read == []
        for (_, start, stop), out in zip(shards, outs):
            local = solve_stack(stack[start:stop], method="exact-mva", backend="serial", cache=None)
            _assert_same_arrays(out, local)

    def test_worker_closing_mid_frame_is_a_lost_connection(self, stack, baseline):
        fake = _TruncatingWorker()
        t = RemoteTransport([("127.0.0.1", fake.port)])
        try:
            payload = ("exact-mva", "batched", list(stack), {})
            outs = t.run_shards([(0, 0, 4), (1, 4, 8)], payload, timeout=5.0)
            assert all(isinstance(o, WorkerConnectionLost) for o in outs), outs
            assert all("mid-frame (100 of 4096 bytes)" in str(o) for o in outs), outs
            assert fake.requests and all(r["frames"] == 1 for r in fake.requests)
            # the dispatcher solves the lost shards again: the sweep completes
            result = solve_stack(
                stack, method="exact-mva", cache=None, hosts=f"127.0.0.1:{fake.port}",
                retry_policy=RetryPolicy(max_retries=1, backoff_base=0.0),
            )
            assert result.backend == "remote"
            _assert_same_arrays(result, baseline)
        finally:
            t.close()
            fake.close()


# -- overload shedding and elastic membership ----------------------------------


class TestElasticAndOverload:
    def test_driver_side_admission_shed_retries(self, worker_fleet, stack, baseline):
        """A shed shard is requeued (retry-later), not treated as host death."""
        _, hosts = worker_fleet
        backend = RemoteBackend(hosts=parse_hosts(hosts))
        with faults.injected(FaultPlan.parse("reject-admission@shard=0")):
            result = backend.run(get_solver("exact-mva"), stack, {})
        assert backend.transport.overload_retries >= 1
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
            assert backend.transport.overload_retries >= 1
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
        assert backend.transport.readmissions >= 1
        np.testing.assert_allclose(
            box["result"].throughput, baseline.throughput, atol=ATOL
        )


# -- two shards in flight per host ----------------------------------------------


class _HeldShards:
    """Records every shard the transport sends, and to which worker port.

    Shards bound for a port that ``hold(port)`` selects wait at the
    transport, before they are encoded, until :attr:`release` is set —
    how a test pins which connections hold which shards without
    ordering anything by ``sleep``.
    """

    def __init__(self, monkeypatch, hold=lambda port: True):
        self.sent: list[tuple[int, int]] = []
        self.release = threading.Event()
        self._cond = threading.Condition()
        original = RemoteTransport._solve_remote
        gate = self

        def held(transport, client, bounds, payload):
            with gate._cond:
                gate.sent.append((client.port, bounds[0]))
                gate._cond.notify_all()
            if hold(client.port):
                assert gate.release.wait(60.0), "shards never released"
            return original(transport, client, bounds, payload)

        monkeypatch.setattr(RemoteTransport, "_solve_remote", held)

    def wait_for(self, port: int, count: int) -> list[int]:
        """Block until ``count`` shards went to ``port``; return them."""

        def shards():
            return [shard for p, shard in self.sent if p == port]

        with self._cond:
            assert self._cond.wait_for(lambda: len(shards()) >= count, 60.0), self.sent
            return shards()


class _RoundLog:
    """Every ``run_shards`` round's outputs, and the dispatcher's local re-solves."""

    def __init__(self, monkeypatch):
        from repro.engine import fabric

        self.rounds: list[list] = []
        self.local_fallbacks = 0
        run_shards = RemoteTransport.run_shards
        get_backend = fabric.get_backend
        log = self

        def logged(transport, *args, **kwargs):
            outs = run_shards(transport, *args, **kwargs)
            log.rounds.append(list(outs))
            return outs

        def counted(*args, **kwargs):
            log.local_fallbacks += 1
            return get_backend(*args, **kwargs)

        monkeypatch.setattr(RemoteTransport, "run_shards", logged)
        monkeypatch.setattr(fabric, "get_backend", counted)


@pytest.fixture
def gated_worker():
    """An in-process worker whose ``solve_shard`` ops wait for ``release``.

    Yields ``(port, release)``.  The server is the one ``repro worker``
    runs, with its default admission control: one solve at a time and a
    queue of 16.
    """
    import asyncio

    from repro.serve.server import SolverServer
    from repro.solvers import SolverCache

    server = SolverServer(port=0, cache=SolverCache())
    release = threading.Event()
    execute = server._execute

    def gated(op, request):
        if op == "solve_shard":
            release.wait(30.0)
        return execute(op, request)

    server._execute = gated
    loop = asyncio.new_event_loop()
    loop.run_until_complete(server.start())
    thread = threading.Thread(
        target=loop.run_until_complete, args=(server.serve_until_shutdown(),)
    )
    thread.start()
    try:
        yield server.port, release
    finally:
        release.set()
        loop.call_soon_threadsafe(server.request_shutdown)
        thread.join(timeout=30.0)
        loop.close()


class TestTwoShardsInFlightPerHost:
    """Each host gets two connections (``CONNECTIONS_PER_HOST``), one pump each.

    Pinned choices: a lost connection retires only its own slot, so the
    host's other connection keeps draining the queue in the same round;
    ``readmissions`` counts hosts that (re)join mid-round, not
    connections.
    """

    def test_one_worker_sweep_overlaps(self, gated_worker, stack, baseline):
        """The worker admits a second shard while it solves the first."""
        port, release = gated_worker
        box: dict = {}

        def run():
            box["result"] = solve_stack(
                stack, method="exact-mva", cache=None, hosts=f"127.0.0.1:{port}"
            )

        thread = threading.Thread(target=run)
        thread.start()
        try:
            deadline = time.monotonic() + 30.0
            with ServeClient(port=port, timeout=30.0) as client:
                # the first shard's solve is held; with one connection per
                # host the second would never be sent before it finished
                while client.health()["admitted"] < 2:
                    assert thread.is_alive() and time.monotonic() < deadline, box
                    time.sleep(0.01)
                assert client.health()["admitted"] == 2
        finally:
            release.set()
            thread.join(timeout=60.0)
        assert not thread.is_alive()
        for attr in ("throughput", "response_time", "queue_lengths", "utilizations"):
            assert np.array_equal(getattr(box["result"], attr), getattr(baseline, attr))

    def test_lost_connection_retires_only_its_slot(self, worker_fleet, stack):
        (_, port), _ = worker_fleet[0]
        t = RemoteTransport([("127.0.0.1", port)])
        payload = ("exact-mva", "batched", list(stack), {})
        shards = [(k, 2 * k, 2 * k + 2) for k in range(4)]
        try:
            with faults.injected(FaultPlan.parse("drop-connection@shard=0")):
                outs = t.run_shards(shards, payload, timeout=30.0)
        finally:
            t.close()
        assert isinstance(outs[0], WorkerConnectionLost)
        # the host's other connection solved the rest in the same round,
        # and the host never left it
        assert not any(isinstance(o, BaseException) for o in outs[1:]), outs
        assert t.readmissions == 0

    def test_drop_connection_sweep_finishes_on_the_fleet(
        self, monkeypatch, worker_fleet, stack, baseline
    ):
        (_, port), _ = worker_fleet[0]
        log = _RoundLog(monkeypatch)
        with faults.injected(FaultPlan.parse("drop-connection@shard=0")):
            result = solve_stack(
                stack, method="exact-mva", cache=None, hosts=f"127.0.0.1:{port}"
            )
        assert ("drop-connection", "transport") in {
            (kind, point) for kind, point, *_ in faults.fired()
        }
        # one shard lost in the first round, solved remotely in the second
        assert [sum(isinstance(o, WorkerConnectionLost) for o in r) for r in log.rounds] == [1, 0]
        assert log.local_fallbacks == 0
        for attr in ("throughput", "response_time", "queue_lengths", "utilizations"):
            assert np.array_equal(getattr(result, attr), getattr(baseline, attr)), attr

    def test_killed_worker_fails_both_in_flight_shards(
        self, monkeypatch, worker_fleet, stack, baseline
    ):
        """SIGKILL a worker holding two shards: both fail, both are retried."""
        workers, hosts = worker_fleet
        (victim, port1), (_, port2) = workers
        # port2's shards wait until both of port1's connections hold one
        gate = _HeldShards(monkeypatch, hold=lambda port: port == port2)
        log = _RoundLog(monkeypatch)
        box: dict = {}
        os.kill(victim.pid, signal.SIGSTOP)  # accepts, never answers
        try:
            thread = threading.Thread(
                target=lambda: box.update(
                    result=solve_stack(stack, method="exact-mva", cache=None, hosts=hosts)
                )
            )
            thread.start()
            in_flight = gate.wait_for(port1, 2)
        finally:
            victim.kill()
            victim.wait()
            gate.release.set()
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        first, *retries = log.rounds
        lost = [k for k, o in enumerate(first) if isinstance(o, WorkerConnectionLost)]
        assert sorted(lost) == sorted(in_flight)
        assert len(lost) == 2
        # retried on the survivor, never solved in the driver
        assert retries and all(
            not isinstance(o, BaseException) for o in retries[0]
        ), retries
        assert len(retries[0]) == 2
        assert log.local_fallbacks == 0
        for attr in ("throughput", "response_time", "queue_lengths", "utilizations"):
            assert np.array_equal(getattr(box["result"], attr), getattr(baseline, attr))

    @pytest.mark.parametrize("spec", ["reject-admission@shard=0", "reject-admission"])
    def test_reject_admission_is_one_overload_retry(
        self, worker_fleet, stack, baseline, spec
    ):
        (_, port), _ = worker_fleet[0]
        backend = RemoteBackend(hosts=[("127.0.0.1", port)])
        with faults.injected(FaultPlan.parse(spec)):
            result = backend.run(get_solver("exact-mva"), stack, {})
        # one armed fault, one shed, however many connections raced for it
        assert backend.transport.overload_retries == 1
        assert backend.transport.readmissions == 0
        for attr in ("throughput", "response_time", "queue_lengths", "utilizations"):
            assert np.array_equal(getattr(result, attr), getattr(baseline, attr))

    def test_mid_sweep_join_gets_every_slot(self, monkeypatch, worker_fleet, stack):
        """A joining host pumps on both connections and counts one readmission."""
        workers, _ = worker_fleet
        (_, port1), (_, port2) = workers
        gate = _HeldShards(monkeypatch)  # every shard waits for the release
        membership = StaticMembership([("127.0.0.1", port1)])
        t = RemoteTransport(membership=membership, reprobe_interval=0.05)
        payload = ("exact-mva", "batched", list(stack), {})
        shards = [(k, k, k + 1) for k in range(8)]
        box: dict = {}
        thread = threading.Thread(
            target=lambda: box.update(outs=t.run_shards(shards, payload, timeout=30.0))
        )
        thread.start()
        try:
            gate.wait_for(port1, 2)  # the first host's two slots are busy
            membership.add("127.0.0.1", port2)
            gate.wait_for(port2, 2)  # ... and the joiner's two slots took work
        finally:
            gate.release.set()
            thread.join(timeout=60.0)
        t.close()
        assert not thread.is_alive()
        assert not any(isinstance(o, BaseException) for o in box["outs"]), box
        assert t.readmissions == 1


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
