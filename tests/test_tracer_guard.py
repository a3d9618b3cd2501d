"""The perfbench tracer still finds every name it patches.

``perfbench/tracing.py`` measures layers by patching names from outside
the program (``backends.ProcessShardedBackend.run``,
``fabric.Dispatcher.run``, ``fabric.get_backend``, ...).  A refactor that
moves or renames one of them breaks traced benchmark runs without
failing any solver test, so these tests install the tracer, run a small
sweep under it with the correctness-gate :class:`Watch` in place, and
check what it saw — all in a subprocess, because the patches are
process-wide.  One sweep is sharded over local processes (and the watch
must count an in-driver re-solve), the other goes to a ``repro worker``
over the wire (and the traced byte counts must equal the bytes the
client really sent and read as lines; the reply arrays arrive as frame
bytes after those lines, which the traced counts leave out).
"""

import os
import subprocess
import sys
import textwrap

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = textwrap.dedent(
    """
    import sys
    import tempfile

    sys.path.insert(0, "perfbench")
    import tracing

    from repro.core.network import ClosedNetwork, Station
    from repro.engine import FaultPlan, backends, fabric, faults
    from repro.solvers import Scenario, solve_stack

    before = {
        "sharded": backends.ProcessShardedBackend.__dict__["run"],
        "dispatch": fabric.Dispatcher.__dict__["run"],
        "plan": fabric.WorkPlan.__dict__["build"],
        "remote": fabric.RemoteBackend.__dict__["run"],
    }
    net = ClosedNetwork([Station("web", 0.02), Station("db", 0.05)], think_time=1.0)
    stack = [Scenario(net, 10, think_time=0.5 + 0.25 * i) for i in range(4)]
    watch = tracing.Watch()
    with tempfile.TemporaryDirectory() as tmp:
        rec = tracing.Recorder(tmp, "driver")
        undo = tracing.install(rec)
        result = solve_stack(stack, backend="process-sharded", workers=2, cache=None)
        undo()
    assert result.backend == "process-sharded", result.backend
    assert watch.counts()["fabric.local_fallback_shards"] == 0
    names = {span[0] for span in rec.spans}
    missing = {"backends.run", "fabric.plan", "fabric.dispatch", "sweep.parallel_map"} - names
    assert not missing, missing
    after = {
        "sharded": backends.ProcessShardedBackend.__dict__["run"],
        "dispatch": fabric.Dispatcher.__dict__["run"],
        "plan": fabric.WorkPlan.__dict__["build"],
        "remote": fabric.RemoteBackend.__dict__["run"],
    }
    assert after == before, "install's undo left a patch in place"
    # The gate's hook is live: a crashed worker's shard, solved again in
    # the driver, is counted (with the shards the broken pool took down
    # alongside it).
    with faults.injected(FaultPlan.parse("crash-worker@shard=0")):
        solve_stack(stack, backend="process-sharded", workers=2, cache=None)
    assert watch.counts()["fabric.local_fallback_shards"] >= 1, watch.counts()
    print("tracer ok")
    """
)


FLEET_SCRIPT = textwrap.dedent(
    """
    import socket
    import subprocess
    import sys
    import tempfile

    sys.path.insert(0, "perfbench")
    import tracing

    from repro.core.network import ClosedNetwork, Station
    from repro.serve.client import ServeClient
    from repro.solvers import Scenario, solve_stack

    # The wire bytes as the driver really moves them: every send on a
    # socket, every line the client reads back, and every reply frame.
    wire = {"sent": 0, "read": 0, "frame": 0}
    send, readline = socket.socket.send, ServeClient._readline_bounded
    read_frame = ServeClient._read_frame

    def counted_send(self, data, *args):
        n = send(self, data, *args)
        wire["sent"] += n
        return n

    def counted_readline(self):
        line = readline(self)
        wire["read"] += len(line)
        return line

    def counted_frame(self, nbytes):
        frame = read_frame(self, nbytes)
        wire["frame"] += 0 if frame is None else len(frame)
        return frame

    socket.socket.send = counted_send
    ServeClient._readline_bounded = counted_readline
    ServeClient._read_frame = counted_frame

    watch = tracing.Watch()  # before the sweep, as perfbench does
    worker = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--port", "0"],
        stdout=subprocess.PIPE, text=True,
    )
    port = None
    try:
        for line in worker.stdout:
            if "listening on" in line:
                port = int(line.rsplit(":", 1)[1])
                break
        assert port is not None, "worker never announced its port"
        net = ClosedNetwork([Station("web", 0.02), Station("db", 0.05)], think_time=1.0)
        stack = [Scenario(net, 10, think_time=0.5 + 0.25 * i) for i in range(4)]
        with tempfile.TemporaryDirectory() as tmp:
            rec = tracing.Recorder(tmp, "driver")
            undo = tracing.install(rec)
            result = solve_stack(
                stack, method="exact-mva", cache=None, hosts=f"127.0.0.1:{port}"
            )
            undo()
        assert result.backend == "remote", result.backend
        names = {span[0] for span in rec.spans}
        missing = {
            "client.request",
            "transport.run_shards",
            "protocol.encode_scenario",
            "protocol.decode_stack_result",
            "fabric.dispatch",
        } - names
        assert not missing, missing
        totals = {}
        for counter, _, amount in rec.events:
            totals[counter] = totals.get(counter, 0) + amount
        assert totals.get("protocol.request_bytes") == wire["sent"], (totals, wire)
        assert totals.get("protocol.response_bytes") == wire["read"], (totals, wire)
        assert wire["sent"] > 0 and wire["read"] > 0, wire
        # the reply arrays came back as frame bytes, not base64 lines
        assert wire["frame"] > 0, wire
        assert watch.counts() == {
            "fabric.local_fallback_shards": 0,
            "transport.overload_retries": 0,
            "transport.readmissions": 0,
        }, watch.counts()
    finally:
        if port is not None:
            with ServeClient(port=port, timeout=30.0) as client:
                client.shutdown()
        worker.wait(timeout=60)
    print("tracer ok")
    """
)


def _run(script):
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "tracer ok" in proc.stdout


def test_tracer_patches_resolve():
    _run(SCRIPT)


def test_tracer_patches_resolve_on_the_fleet_path():
    _run(FLEET_SCRIPT)
