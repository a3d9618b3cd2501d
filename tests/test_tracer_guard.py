"""The perfbench tracer still finds every name it patches.

``perfbench/tracing.py`` measures layers by patching names from outside
the program (``backends.ProcessShardedBackend.run``,
``fabric.Dispatcher.run``, ``fabric.get_backend``, ...).  A refactor that
moves or renames one of them breaks traced benchmark runs without
failing any solver test, so this test installs the tracer, runs a small
sharded sweep under it with the correctness-gate :class:`Watch` in
place, puts the originals back, and checks that the watch counts an
in-driver re-solve — all in a subprocess, because the patches are
process-wide.
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


def test_tracer_patches_resolve():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "tracer ok" in proc.stdout
