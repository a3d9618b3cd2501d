"""Spans and counters recorded from outside the program.

The traced run installs wrappers around the public functions of every
layer a request crosses.  Each wrapper is patched in where its *caller*
looks the name up (``repro.serve.server.solve``, not
``repro.solvers.solve``), so the program's own control flow is unchanged.
Every call records a span ``(name, start, end, span id, parent id,
request id, thread)``; a few wrappers also bump counters (levels solved,
shards planned, bytes on the wire).

Spans stay in memory.  A server or worker process started through
``traced_server.py`` writes its spans once it exits; a process forked by
``parallel_map`` writes its spans each time its outermost span closes,
because pool workers end without running exit hooks.  :class:`Layers`
merges every file with the driver's own spans.

Self time is a span's duration minus the union of its children's
intervals.  Spans started on a helper thread (the fabric's pump threads)
take the innermost open span of the process's main thread as parent, and
the outermost spans of other processes become children of the driver
span that waited for them.  Times add up over processes and threads, so
a layer's time is the time it was busy, which can exceed wall time when
workers run side by side.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path

_COLD, _WARM, _LOCAL, _FLEET = "serve-cold", "serve-warm", "sweep-local", "sweep-fleet"
_SWEEPS = {_LOCAL: "scenarios_per_s", _FLEET: "scenarios_per_s"}

#: Per span name: the end-to-end metric its time is expected to move, on
#: each workload where it should move one.
MOVES = {
    "core.mvasd": {_COLD: "requests_per_s, latency_p50_ms", _WARM: "latency_p90_ms"},
    "core.precompute_demand": {
        _COLD: "requests_per_s, latency_p50_ms",
        _WARM: "latency_p90_ms",
        _LOCAL: "scenarios_per_s",
        _FLEET: "scenarios_per_s",
    },
    "batched.mvasd": _SWEEPS,
    "facade.solve": {_WARM: "latency_p50_ms"},
    "facade.solve_stack": _SWEEPS,
    "scenario.fingerprint": {_WARM: "latency_p50_ms", **_SWEEPS},
    "cache.fetch": {_WARM: "latency_p50_ms"},
    "cache.put": {_COLD: "requests_per_s", _WARM: "latency_p50_ms, latency_p90_ms"},
    # the server diffs cache counters around every solve to label provenance
    "cache.stats": {_COLD: "requests_per_s", _WARM: "latency_p50_ms, latency_p90_ms"},
    "trajectory.serve": {_WARM: "latency_p50_ms, latency_p90_ms"},
    "trajectory.offer": {_WARM: "latency_p90_ms"},
    "persistent.get": {_WARM: "latency_p50_ms"},
    "persistent.put": {_COLD: "requests_per_s", _WARM: "latency_p90_ms"},
    "protocol.encode_scenario": {_FLEET: "scenarios_per_s"},
    "protocol.decode_scenario": {_WARM: "latency_p50_ms", _FLEET: "scenarios_per_s"},
    "protocol.encode_result": {_COLD: "latency_p50_ms", _WARM: "latency_p50_ms"},
    "protocol.encode_stack_result": {_FLEET: "scenarios_per_s"},
    "protocol.decode_stack_result": {_FLEET: "scenarios_per_s"},
    "client.request": {_WARM: "latency_p50_ms, latency_p90_ms", _FLEET: "scenarios_per_s"},
    "sweep.parallel_map": {_LOCAL: "scenarios_per_s"},
    "backends.run": _SWEEPS,
    "fabric.plan": {_FLEET: "scenarios_per_s"},
    "fabric.dispatch": {_FLEET: "scenarios_per_s"},
    "transport.run_shards": {_FLEET: "scenarios_per_s"},
    "supervisor.start": {_FLEET: "setup_s"},
}


class Recorder:
    """In-memory spans and counter events of one process."""

    def __init__(self, out_dir: Path, role: str) -> None:
        self.out_dir = Path(out_dir)
        self.role = role
        self.spans: list[tuple] = []
        #: ``(counter, time_ns, amount)``, stamped like spans so a run
        #: can keep only what happened inside its timed windows.
        self.events: list[tuple] = []
        #: Request id of the operation in flight (set by the driver per
        #: operation, by the server per admitted solver request).
        self.request_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list | None = None
        self._forked = False
        self._flushes = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self.events = []
        self.role = "forked"
        self._forked = True
        self._flushes = 0
        self._local = threading.local()
        self._main_stack = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def _parent(self, stack: list):
        if stack:
            return stack[-1]
        main = self._main_stack
        if main is None or main is stack:
            return None
        try:
            return main[-1]
        except IndexError:
            return None

    def wrap(self, name: str, fn, counts=None):
        """``fn`` recording a span named ``name`` around every call.

        ``counts(args, kwargs, result)`` yields ``(counter, amount)``
        pairs; it runs after the span closes, so its own cost is not
        charged to the layer.
        """
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.current_thread().name == "fleet-heartbeat":
                # Supervisor pings run on a timer, not per operation; they
                # would make per-run counts depend on wall time.
                return fn(*args, **kwargs)
            stack = rec._stack()
            parent = rec._parent(stack)
            sid = next(rec._ids)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                rec.spans.append(
                    (name, start, end, sid, parent, rec.request_id, threading.get_ident())
                )
            if counts is not None:
                for counter, amount in counts(args, kwargs, out):
                    rec.events.append((counter, start, amount))
            if rec._forked and not stack:
                rec.flush()
            return out

        return traced

    def payload(self) -> dict:
        return {
            "pid": os.getpid(),
            "role": self.role,
            "spans": list(self.spans),
            "events": list(self.events),
        }

    def flush(self) -> None:
        """Write this process's spans to its own file and start afresh."""
        self._flushes += 1
        path = self.out_dir / f"spans-{self.role}-{os.getpid()}-{self._flushes}.json"
        path.write_text(json.dumps(self.payload()))
        self.spans = []
        self.events = []


def _patch(obj, attr: str, make):
    """Replace ``obj.attr`` by ``make(original)``, keeping method kinds.

    Returns the original, for :func:`install`'s undo.
    """
    raw = obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)
    if isinstance(raw, classmethod):
        setattr(obj, attr, classmethod(make(raw.__func__)))
    else:
        setattr(obj, attr, make(raw))
    return raw


def _levels(args, kwargs, out):
    resumed = kwargs.get("resume_from")
    start = resumed.max_population if resumed is not None else 0
    yield "core.levels", out.max_population - start


def _scenario_levels(args, kwargs, out):
    yield "batched.scenario_levels", len(args[2]) * int(args[1])


def _tasks(args, kwargs, out):
    yield "sweep.tasks", len(args[1])


def _shards(args, kwargs, out):
    yield "fabric.shards", len(out.shards)


def _wire_bytes(args, kwargs, out):
    client, payload = args[0], args[1]
    body = dict(payload)
    if "id" not in body:
        body["id"] = client._next_id
    # Both ends write ``json.dumps(obj) + "\n"``; floats round-trip
    # through repr, so re-encoding the parsed reply gives its wire bytes.
    yield "protocol.request_bytes", len(json.dumps(body).encode()) + 1
    yield "protocol.response_bytes", len(json.dumps(out).encode()) + 1


class Watch:
    """Hooks every run keeps for its correctness gate.

    Counts shards the dispatcher solves in-process after the transport
    gave up on them (its stage-2 ``get_backend`` calls) and remembers
    each :class:`RemoteTransport` so its public retry counters can be
    read after a sweep.  Neither hook sits on the per-shard path, so
    untraced runs keep them too.
    """

    def __init__(self) -> None:
        from repro.engine import fabric, transport

        self.local_fallback_shards = 0
        self.transports: list = []
        watch = self

        def fallback(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                watch.local_fallback_shards += 1
                return fn(*args, **kwargs)

            return counted

        def remember(fn):
            @functools.wraps(fn)
            def run_shards(self, *args, **kwargs):
                watch.transports.append(self)
                return fn(self, *args, **kwargs)

            return run_shards

        _patch(fabric, "get_backend", fallback)
        _patch(transport.RemoteTransport, "run_shards", remember)

    def counts(self) -> dict:
        unique = list({id(t): t for t in self.transports}.values())
        return {
            "fabric.local_fallback_shards": self.local_fallback_shards,
            "transport.overload_retries": sum(t.overload_retries for t in unique),
            "transport.readmissions": sum(t.readmissions for t in unique),
        }


def install(rec: Recorder):
    """Patch every traced layer, where its callers look it up.

    Returns a function that puts the originals back.
    """
    import importlib

    import repro
    from repro.serve.client import ServeClient
    from repro.solvers.cache import SolverCache
    from repro.solvers.persistent import PersistentCache
    from repro.solvers.scenario import Scenario
    from repro.solvers.trajectory import TrajectoryStore

    # Packages re-export functions under their submodules' names
    # (``repro.core.mvasd`` is a function), so fetch the modules by name.
    def module(name):
        return importlib.import_module(f"repro.{name}")

    core_mvasd = module("core.mvasd")
    protocol = module("serve.protocol")
    server = module("serve.server")
    builtin = module("solvers.builtin")
    facade = module("solvers.facade")
    backends = module("engine.backends")
    fabric = module("engine.fabric")
    supervisor = module("engine.supervisor")
    transport = module("engine.transport")

    def span(name, counts=None):
        return lambda fn: rec.wrap(name, fn, counts)

    targets = [
        (core_mvasd, "mvasd", span("core.mvasd", _levels)),
        (builtin, "mvasd", span("core.mvasd", _levels)),
        (core_mvasd, "precompute_demand_matrix", span("core.precompute_demand")),
        (backends, "batched_mvasd", span("batched.mvasd", _scenario_levels)),
        (server, "solve", span("facade.solve")),
        (server, "solve_stack", span("facade.solve_stack")),
        (facade, "solve_stack", span("facade.solve_stack")),
        (repro, "solve_stack", span("facade.solve_stack")),
        (Scenario, "fingerprint", span("scenario.fingerprint")),
        (SolverCache, "fetch", span("cache.fetch")),
        (SolverCache, "put", span("cache.put")),
        (SolverCache, "stats", span("cache.stats")),
        (TrajectoryStore, "serve", span("trajectory.serve")),
        (TrajectoryStore, "offer", span("trajectory.offer")),
        (PersistentCache, "get", span("persistent.get")),
        (PersistentCache, "put", span("persistent.put")),
        (server, "decode_scenario", span("protocol.decode_scenario")),
        (server, "encode_result", span("protocol.encode_result")),
        (server, "encode_stack_result", span("protocol.encode_stack_result")),
        (protocol, "encode_scenario", span("protocol.encode_scenario")),
        (protocol, "decode_scenario", span("protocol.decode_scenario")),
        (protocol, "decode_stack_result", span("protocol.decode_stack_result")),
        (ServeClient, "request", span("client.request", _wire_bytes)),
        (transport, "parallel_map", span("sweep.parallel_map", _tasks)),
        (backends.SerialBackend, "run", span("backends.run")),
        (backends.BatchedBackend, "run", span("backends.run")),
        (backends.ProcessShardedBackend, "run", span("backends.run")),
        (fabric.RemoteBackend, "run", span("backends.run")),
        (fabric.WorkPlan, "build", span("fabric.plan", _shards)),
        (fabric.Dispatcher, "run", span("fabric.dispatch")),
        (transport.RemoteTransport, "run_shards", span("transport.run_shards")),
        (supervisor.FleetSupervisor, "start", span("supervisor.start")),
    ]
    originals = [(obj, attr, _patch(obj, attr, make)) for obj, attr, make in targets]

    def tag_request(fn):
        # The server decodes each request line on its event loop and
        # then solves it on a worker thread; with one solve at a time the
        # id of the last admitted solver request names the solve running.
        @functools.wraps(fn)
        def decode(line):
            request = fn(line)
            if request.get("op") not in ("ping", "health", "cache_stats"):
                rec.request_id = request.get("id")
            return request

        return decode

    originals.append((server, "decode_request", _patch(server, "decode_request", tag_request)))

    def uninstall() -> None:
        for obj, attr, raw in reversed(originals):
            setattr(obj, attr, raw)

    return uninstall


def load(out_dir: Path) -> list[dict]:
    """Every span file written under ``out_dir``."""
    return [json.loads(p.read_text()) for p in sorted(Path(out_dir).glob("spans-*.json"))]


#: Driver spans that wait on another process; a server, worker or forked
#: span that starts and ends inside one of them counts as its child.
_WAITING = ("client.request", "sweep.parallel_map")


class Layers:
    """Per-name totals over the spans of every process.

    Only spans and counter events that start inside one of ``windows``
    (``(start_ns, end_ns)`` pairs of the timed measurement) count, so
    warm-up, untimed seeding and the correctness gate stay out.

    ``total`` counts each span once, at the outermost span of its name in
    its own process (the facade re-enters itself, and one function can
    be wrapped at several call sites).  ``self`` subtracts children, and
    the outermost spans of servers, workers and forked processes are
    children of the driver span that waited for them, so a client
    request's self time is what it spent on the wire.
    """

    def __init__(self, payloads: list[dict], windows: list[tuple[int, int]]) -> None:
        self.windows = sorted(windows)
        self.calls: collections.Counter = collections.Counter()
        self.total_ns: collections.Counter = collections.Counter()
        self.self_ns: collections.Counter = collections.Counter()
        #: Outermost-span time per (role, name), e.g. server-side facade.
        self.by_role: collections.Counter = collections.Counter()
        self.counters: collections.Counter = collections.Counter()
        self.n_spans = 0
        runs = []
        for payload in payloads:
            for counter, t, amount in payload["events"]:
                if self._timed(t):
                    self.counters[counter] += amount
            spans = [s for s in payload["spans"] if self._timed(s[1])]
            self.n_spans += len(spans)
            runs.append((payload["role"], payload["pid"], spans))
        children = collections.defaultdict(list)
        for _role, pid, spans in runs:
            for s in spans:
                if s[4] is not None:
                    children[pid, s[4]].append(s)
        waiting = sorted(
            (s[1], s[2], pid, s[3])
            for role, pid, spans in runs
            if role == "driver"
            for s in spans
            if s[0] in _WAITING
        )
        starts = [w[0] for w in waiting]
        for role, _pid, spans in runs:
            if role == "driver":
                continue
            for s in spans:
                if s[4] is not None:
                    continue
                i = bisect.bisect_right(starts, s[1]) - 1
                if i >= 0 and waiting[i][1] >= s[2]:
                    children[waiting[i][2], waiting[i][3]].append(s)
        for role, pid, spans in runs:
            by_id = {s[3]: s for s in spans}
            for name, start, end, sid, parent, _req, _tid in spans:
                self.calls[name] += 1
                self.self_ns[name] += (end - start) - _covered(
                    start, end, children[pid, sid]
                )
                outer = True
                up = by_id.get(parent)
                while up is not None:
                    if up[0] == name:
                        outer = False
                        break
                    up = by_id.get(up[4])
                if outer:
                    self.total_ns[name] += end - start
                    self.by_role[role, name] += end - start

    def _timed(self, t: int) -> bool:
        return any(lo <= t < hi for lo, hi in self.windows)

    def seconds(self, name: str) -> float:
        return self.total_ns[name] / 1e9

    def self_seconds(self, *names: str) -> float:
        return sum(self.self_ns[n] for n in names) / 1e9

    def role_seconds(self, role: str, *names: str) -> float:
        return sum(self.by_role[role, n] for n in names) / 1e9

    def table(self, title: str, workload: str) -> str:
        """Layers ordered by self time, each beside the metric it moves."""
        total_self = sum(self.self_ns.values()) or 1
        rows = sorted(self.self_ns, key=lambda n: -self.self_ns[n])
        width = max([len(n) for n in rows] + [5])
        lines = [
            title,
            f"  {'layer':<{width}} {'calls':>8} {'total s':>9} {'self s':>9} "
            f"{'self %':>6}  moves",
        ]
        for name in rows:
            lines.append(
                f"  {name:<{width}} {self.calls[name]:>8d} "
                f"{self.total_ns[name] / 1e9:>9.4f} {self.self_ns[name] / 1e9:>9.4f} "
                f"{100 * self.self_ns[name] / total_self:>6.1f}  "
                f"{MOVES.get(name, {}).get(workload, 'none expected')}"
            )
        return "\n".join(lines)


def _covered(start: int, end: int, kids: list) -> int:
    """Length of the union of the children's intervals inside [start, end]."""
    covered = 0
    cursor = start
    for _name, k_start, k_end, *_ in sorted(kids, key=lambda s: s[1]):
        lo, hi = max(k_start, cursor), min(k_end, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered
