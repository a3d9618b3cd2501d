"""The workloads, their correctness gates and their metrics.

Every workload is closed-loop from this one driver process and keeps
within ``nproc`` = 2 processes or connections:

``serve-cold``
    One connection to a fresh ``repro serve`` with an empty sqlite tier.
    Each round is one ``solve`` (``method="mvasd"``, ``at=5000``) of a
    scenario no earlier request used, so every answer is ``cold``: the
    scalar kernel path.  Not in ``BENCHMARK.json``: one pure-Python
    solve per request follows the host's speed too closely for its
    bounds.  It stays runnable by name.
``serve-warm``
    One connection to a fresh ``repro serve``.  Each round seeds four
    demand families with an untimed cold solve at N=400, then sends a
    seeded mix of 200 requests over them: 100 prefix ``whatif`` reads
    (4 populations each, answered ``trajectory-prefix``), 60 repeats of
    the family's deepest ``solve`` (``memory``) and 40 solves 40 levels
    deeper (``trajectory-extend``, each resuming the recursion and
    writing to sqlite).
``sweep-local``
    In-process ``solve_stack`` of 2048 scenarios x N=300, ``mvasd``,
    ``backend="auto"`` (``process-sharded`` over 2 forked workers), with
    a fresh ``SolverCache`` per sweep.
``sweep-fleet``
    ``solve_stack(fleet=sup)`` of 1024 scenarios x N=300 with ``sup`` a
    one-worker ``FleetSupervisor``; every sweep uses demand scales no
    earlier sweep used, so the worker's cache never hits.

A run repeats *rounds* of identical shape until the timed total reaches
``--seconds`` (and for at least ``rss_rounds`` rounds); inputs for round
``r`` come from ``(seed, workload, r)``, and everything between rounds
(building inputs, seeding families, reading counters) is untimed.

Each round yields two sets of counts.  *Traffic* counts describe the
generated inputs (requests, scheduled provenance, S x N, request bytes
and a digest) and depend only on the seed and this benchmark's code.
*Program* counts are what the program did with them (cache hits, sqlite
puts, shards, bytes it sent back) and depend on the program as well.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import inputs
import procs
import tracing

import repro
from repro.engine.supervisor import CommandLauncher, FleetSupervisor, LocalLauncher
from repro.serve import ServeClient, decode_scenario
from repro.solvers.cache import SolverCache
from repro.solvers.facade import AUTO_SHARD_THRESHOLD

HERE = Path(__file__).resolve().parent

#: Numbers the servers of a run, so no two share a sqlite file.
_LAUNCHES = itertools.count()

#: Largest difference allowed between a served or swept answer and the
#: in-process reference.
TOLERANCE = 1e-10

#: Counts that legitimately differ between rounds of one run (a request's
#: or reply's length depends on the digits of its floats); they must
#: still repeat between runs with the same seed.
ROUND_VARIANT = (
    "traffic.request_bytes",
    "traffic.digest",
    "protocol.request_bytes",
    "protocol.response_bytes",
)


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def _snapshot_diff(served: dict, ref: dict) -> float:
    if served["population"] != ref["population"]:
        return float("inf")
    diff = max(abs(served[f] - ref[f]) for f in ("throughput", "response_time", "cycle_time"))
    for field in ("queue_lengths", "utilizations"):
        for station, value in ref[field].items():
            diff = max(diff, abs(served[field][station] - value))
    return diff


def _stats_counts(stats: dict) -> dict:
    """Public cache counters from a ``cache_stats`` reply."""
    persistent = stats.get("persistent") or {}
    return {
        "cache.hits": stats["hits"],
        "cache.misses": stats["misses"],
        "trajectory.prefix_hits": stats["trajectory_hits"],
        "trajectory.extends": stats["trajectory_extends"],
        "persistent.puts": persistent.get("writes", 0),
    }


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


def _request_bytes(bodies) -> dict:
    """Size and digest of generated request bodies, one JSON line each."""
    blob = "".join(json.dumps(body, sort_keys=True) + "\n" for body in bodies).encode()
    return {
        "traffic.request_bytes": len(blob),
        "traffic.digest": hashlib.sha256(blob).hexdigest()[:16],
    }


def source_digest(*dirs: Path) -> str:
    """Digest of every ``.py`` file under ``dirs``: which code made a count."""
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            h.update(str(path.relative_to(d)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Workload:
    """One workload: set-up, rounds, correctness gate and teardown."""

    name = ""
    #: Set-ups per measured phase; ``setup_s`` is their median.
    setup_trials = 5
    #: Peak memory is read after this many rounds, and every run completes
    #: at least this many.  The servers keep what they solve (trajectory
    #: families, cache entries), so memory read at the end of a fixed-time
    #: run would grow with how many rounds a fast program fits in it.
    rss_rounds = 3

    def __init__(self, seed: int, work: Path, watch: tracing.Watch, rec=None) -> None:
        self.seed = seed
        self.work = work
        self.watch = watch
        self.rec = rec
        self.latencies: list[float] = []
        self.ops = 0
        self.scenarios = 0
        self.failed = 0
        self.problems: list[str] = []
        self.round_traffic: list[dict] = []
        self.round_counts: list[dict] = []
        self.setups: list[float] = []
        self.listens: list[float] = []
        self.supervisor_start_s = 0.0

    # -- hooks ----------------------------------------------------------------

    def setup_trial(self, index: int, keep: bool) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def prepare(self, r: int):
        raise NotImplementedError

    def run_round(self, r: int, prepared) -> None:
        raise NotImplementedError

    def traffic(self, r: int, prepared) -> dict:
        """Round ``r``'s traffic counts, from its generated inputs alone."""
        raise NotImplementedError

    def counts(self, r: int, prepared) -> dict:
        """Round ``r``'s program counts, read after the round."""
        raise NotImplementedError

    def launched_peak_mb(self) -> float:
        return 0.0

    def gate(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    # -- shared helpers ---------------------------------------------------------

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def op(self, request_id) -> None:
        if self.rec is not None:
            self.rec.request_id = request_id

    def server_argv(self, command: list[str]) -> list[str]:
        if self.rec is None:
            return [sys.executable, "-m", "repro", *command]
        return [
            sys.executable,
            str(HERE / "traced_server.py"),
            "--spans-out",
            str(self.work),
            "--",
            *command,
        ]


class _Serve(Workload):
    """A fresh ``repro serve`` per set-up, one client connection."""

    server: procs.Server | None = None
    client: ServeClient | None = None

    def launch(self) -> procs.Server:
        # every set-up of every phase gets its own, empty sqlite tier
        stem = self.work / f"{self.name}-{next(_LAUNCHES)}"
        server = procs.launch(
            self.server_argv(["serve", "--port", "0", "--cache-path", f"{stem}.sqlite"]),
            Path(f"{stem}.log"),
        )
        self.listens.append(server.listen_s)
        return server

    def first_inputs(self):
        """Round 0's inputs, built as part of every set-up."""
        raise NotImplementedError

    def setup_trial(self, index, keep):
        start = time.perf_counter()
        self.first = self.first_inputs()
        built = time.perf_counter() - start
        server = self.launch()
        self.setups.append(built + server.listen_s)
        if keep:
            self.server = server
            self.client = ServeClient(server.host, server.port, timeout=120.0)
        elif not procs.stop(server):
            self.problem(f"set-up server pid {server.pid} did not exit cleanly")

    def request(self, body: dict) -> dict:
        self.op(body["id"])
        start = time.perf_counter()
        envelope = self.client.request(body)
        self.latencies.append(time.perf_counter() - start)
        self.ops += 1
        return envelope

    def stats_delta(self) -> dict:
        after = _stats_counts(self.client.cache_stats())
        delta = _delta(after, self.stats)
        self.stats = after
        return delta

    def launched_peak_mb(self) -> float:
        return procs.vm_hwm_mb(self.server.pid) if self.server is not None else 0.0

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.server is not None and not procs.stop(self.server):
            self.problem(f"server pid {self.server.pid} did not exit cleanly")
        self.server = self.client = None


class ServeCold(_Serve):
    name = "serve-cold"
    N = 5000
    rss_rounds = 16

    def payload(self, stream: str, r: int) -> dict:
        scale = inputs.scales(inputs.rng(self.seed, stream, r), r, 1)[0]
        return inputs.scenario_payload(scale, self.N)

    def body(self, payload: dict, request_id: int) -> dict:
        return {
            "op": "solve",
            "method": "mvasd",
            "at": self.N,
            "scenario": payload,
            "id": request_id,
        }

    def first_inputs(self):
        self.answers: list[tuple[dict, dict]] = []
        return self.payload(self.name, 0)

    def warmup(self):
        envelope = self.client.request(self.body(self.payload("warmup", 0), -1))
        if not envelope.get("ok"):
            raise RuntimeError(f"warm-up request failed: {envelope.get('error')}")
        self.stats = _stats_counts(self.client.cache_stats())

    def prepare(self, r):
        return self.first if r == 0 else self.payload(self.name, r)

    def run_round(self, r, payload):
        envelope = self.request(self.body(payload, r))
        self.scenarios += 1
        if not envelope.get("ok") or envelope.get("provenance") != "cold":
            self.failed += 1
            self.problem(f"request {r}: expected a cold answer, got {envelope!r:.200}")
        self.answers.append((payload, envelope))

    def traffic(self, r, payload):
        return {"traffic.requests": 1, **_request_bytes([self.body(payload, r)])}

    def counts(self, r, payload):
        cold = self.answers[-1][1].get("provenance") == "cold"
        return {**self.stats_delta(), "provenance.cold": int(cold)}

    def gate(self):
        picks = sorted({0, len(self.answers) // 2, len(self.answers) - 1})
        for i in picks:
            payload, envelope = self.answers[i]
            if not envelope.get("ok"):
                continue  # already counted as failed
            ref = repro.solve(decode_scenario(payload), method="mvasd", cache=None)
            diff = _snapshot_diff(envelope["result"], ref.at(self.N))
            if not diff <= TOLERANCE:
                self.problem(f"request {i}: served snapshot differs from reference by {diff:.3g}")


class ServeWarm(_Serve):
    name = "serve-warm"
    rss_rounds = 8
    FAMILIES = 4
    BASE_DEPTH = 400
    STEP = 40
    WHATIF_POINTS = 4
    #: Memory hits are the fastest answers, prefix reads next, extensions
    #: slowest; with 30 / 50 / 20 % the median falls inside the prefix
    #: reads and the 90th percentile inside the extensions, not on the
    #: edge between two kinds, where it would jump with small shifts.
    MIX = (("whatif", 100), ("memory", 60), ("extend", 40))
    EXPECT = {"memory": "memory", "extend": "trajectory-extend"}

    def plan(self, stream: str, r: int) -> dict:
        """Round ``r``: family scales and the seeded request schedule.

        Tracks, per family, the deepest population solved and every
        population answered so far, so the provenance of each request is
        known before it is sent: a repeat of the deepest solve is a
        memory hit, a population below it never asked before is a prefix
        slice, and a deeper one resumes the recursion.
        """
        gen = inputs.rng(self.seed, stream, r)
        scales = inputs.scales(gen, r, self.FAMILIES)
        kinds = gen.permutation([k for k, count in self.MIX for _ in range(count)])
        families = gen.integers(self.FAMILIES, size=len(kinds))
        depth = [self.BASE_DEPTH] * self.FAMILIES
        seen = [{self.BASE_DEPTH} for _ in range(self.FAMILIES)]
        requests = []
        for kind, f in zip(kinds, families):
            f = int(f)
            if kind == "extend":
                depth[f] += self.STEP
            n = depth[f]
            payload = inputs.scenario_payload(scales[f], n)
            if kind == "whatif":
                free = sorted(set(range(1, n)) - seen[f])
                pops = [int(p) for p in gen.choice(free, self.WHATIF_POINTS, replace=False)]
                seen[f].update(pops)
                body = {"op": "whatif", "method": "mvasd", "scenario": payload,
                        "populations": pops}
            else:
                seen[f].add(n)
                body = {"op": "solve", "method": "mvasd", "scenario": payload, "at": n}
            requests.append((str(kind), f, body))
        return {"scales": scales, "requests": requests, "depth": depth}

    def seed_bodies(self, plan: dict) -> list[dict]:
        return [
            {"op": "solve", "method": "mvasd", "at": self.BASE_DEPTH, "id": -1,
             "scenario": inputs.scenario_payload(scale, self.BASE_DEPTH)}
            for scale in plan["scales"]
        ]

    def seed_families(self, plan: dict) -> None:
        for f, body in enumerate(self.seed_bodies(plan)):
            envelope = self.client.request(body)
            if not envelope.get("ok") or envelope.get("provenance") != "cold":
                raise RuntimeError(f"seeding family {f} failed: {envelope!r:.200}")

    def first_inputs(self):
        self.answers: dict[int, list] = {}
        self.plans: dict[int, dict] = {}
        return self.plan(self.name, 0)

    def warmup(self):
        plan = self.plan("warmup", 0)
        self.seed_families(plan)
        kind, _f, body = next(req for req in plan["requests"] if req[0] == "whatif")
        envelope = self.client.request({**body, "id": -1})
        if not envelope.get("ok"):
            raise RuntimeError(f"warm-up request failed: {envelope.get('error')}")
        self.stats = _stats_counts(self.client.cache_stats())

    def prepare(self, r):
        plan = self.first if r == 0 else self.plan(self.name, r)
        self.seed_families(plan)
        return plan

    def run_round(self, r, plan):
        answers = []
        tally = collections.Counter()
        for i, (kind, f, body) in enumerate(plan["requests"]):
            envelope = self.request({**body, "id": r * 1000 + i})
            prov = envelope.get("provenance")
            if kind == "whatif":
                n = len(body["populations"])
                self.scenarios += n
                labels = prov if isinstance(prov, dict) else {}
                tally.update({label: k for label, k in labels.items() if k})
                ok = labels.get("trajectory-prefix") == n and sum(labels.values()) == n
            else:
                self.scenarios += 1
                tally[prov] += 1
                ok = prov == self.EXPECT[kind]
            if not (envelope.get("ok") and ok):
                self.failed += 1
                self.problem(f"round {r} request {i} ({kind}): unexpected {prov!r}")
            answers.append((kind, f, body, envelope))
        self.tally = tally
        # the gate checks round 0 and the latest round
        self.answers = {k: v for k, v in self.answers.items() if k == 0}
        self.plans = {k: v for k, v in self.plans.items() if k == 0}
        self.answers[r] = answers
        self.plans[r] = plan

    def traffic(self, r, plan):
        expect = collections.Counter()
        for kind, _f, body in plan["requests"]:
            if kind == "whatif":
                expect["trajectory-prefix"] += len(body["populations"])
            else:
                expect[self.EXPECT[kind]] += 1
        bodies = self.seed_bodies(plan) + [body for _k, _f, body in plan["requests"]]
        return {
            "traffic.requests": len(plan["requests"]),
            "traffic.seed_solves": len(plan["scales"]),
            **{f"traffic.expect.{label}": n for label, n in sorted(expect.items())},
            **_request_bytes(bodies),
        }

    def counts(self, r, plan):
        counts = self.stats_delta()
        for label in ("memory", "trajectory-prefix", "trajectory-extend", "cold"):
            counts[f"provenance.{label}"] = self.tally.get(label, 0)
        return counts

    def gate(self):
        for r, answers in self.answers.items():
            plan = self.plans[r]
            for f in range(2):
                depth = plan["depth"][f]
                scenario = decode_scenario(inputs.scenario_payload(plan["scales"][f], depth))
                ref = repro.solve(scenario, method="mvasd", cache=None)
                for kind, fam, body, envelope in answers:
                    if fam != f or not envelope.get("ok"):
                        continue
                    result = envelope["result"]
                    snaps = result["snapshots"] if kind == "whatif" else [result]
                    for snap in snaps:
                        diff = _snapshot_diff(snap, ref.at(snap["population"]))
                        if not diff <= TOLERANCE:
                            self.problem(
                                f"round {r} family {f}: snapshot at "
                                f"{snap['population']} differs by {diff:.3g}"
                            )


class _Sweep(Workload):
    """Rounds of one ``solve_stack`` call each over fresh scenarios."""

    S = 0
    N = 300
    #: Scenarios per checked round compared against the serial reference.
    SAMPLES = 8
    EXPECT_BACKEND = ""

    def payloads(self, stream: str, r: int, count: int) -> list[dict]:
        scales = inputs.scales(inputs.rng(self.seed, stream, r), r, count)
        return [inputs.scenario_payload(s, self.N) for s in scales]

    def build(self, stream: str, r: int, count: int) -> list:
        return [decode_scenario(p) for p in self.payloads(stream, r, count)]

    def build_first(self) -> float:
        start = time.perf_counter()
        self.first = self.build(self.name, 0, self.S)
        return time.perf_counter() - start

    def prepare(self, r):
        return self.first if r == 0 else self.build(self.name, r, self.S)

    def sweep(self, scenarios: list, cache: SolverCache):
        raise NotImplementedError

    def run_round(self, r, scenarios):
        self.op(r)
        cache = SolverCache()
        start = time.perf_counter()
        result = self.sweep(scenarios, cache)
        self.latencies.append(time.perf_counter() - start)
        self.ops += 1
        self.scenarios += len(scenarios)
        self.cache = cache
        self.shape = result.throughput.shape
        if result.backend != self.EXPECT_BACKEND or result.failures:
            self.failed += 1
            self.problem(
                f"sweep {r}: backend {result.backend!r} (expected "
                f"{self.EXPECT_BACKEND!r}), {len(result.failures)} failures"
            )
        picks = inputs.rng(self.seed, "sample", r).choice(
            len(scenarios), self.SAMPLES, replace=False
        )
        sample = (
            [scenarios[i] for i in picks],
            {f: getattr(result, f)[picks].copy()
             for f in ("throughput", "response_time", "queue_lengths", "utilizations")},
        )
        if r == 0:
            self.samples = {0: sample}
        else:
            self.samples = {0: self.samples[0], r: sample}

    def traffic(self, r, scenarios):
        return {
            "traffic.scenarios": self.S,
            "traffic.scenario_levels": self.S * self.N,
            **_request_bytes(self.payloads(self.name, r, self.S)),
        }

    def counts(self, r, scenarios):
        stats = self.cache.stats()
        self.cache = None  # it holds the sweep's result; free it before the next
        return {
            "cache.hits": stats.hits,
            "cache.misses": stats.misses,
            "sweep.scenario_levels": int(self.shape[0] * self.shape[1]),
        }

    def gate(self):
        hits = sum(c["cache.hits"] for c in self.round_counts)
        if hits:
            self.problem(f"{hits} cache hits over the timed sweeps, expected none")
        for r, (scenarios, served) in self.samples.items():
            ref = repro.solve_stack(scenarios, method="mvasd", backend="serial", cache=None)
            for field, values in served.items():
                diff = float(abs(getattr(ref, field) - values).max())
                if not diff <= TOLERANCE:
                    self.problem(f"sweep {r}: {field} differs from serial by {diff:.3g}")


class SweepLocal(_Sweep):
    name = "sweep-local"
    S = 2048
    EXPECT_BACKEND = "process-sharded"

    def setup_trial(self, index, keep):
        self.setups.append(self.build_first())

    def prepare(self, r):
        if r == 0:
            return self.first
        # The set-up is building the inputs, which every later round
        # repeats: each build is one more set-up sample, spread over the run.
        start = time.perf_counter()
        scenarios = self.build(self.name, r, self.S)
        self.setups.append(time.perf_counter() - start)
        return scenarios

    def warmup(self):
        # the smallest stack that backend="auto" still shards
        self.sweep(self.build("warmup", 0, AUTO_SHARD_THRESHOLD), SolverCache())

    def sweep(self, scenarios, cache):
        return repro.solve_stack(scenarios, method="mvasd", cache=cache)

    def teardown(self):
        pass


class SweepFleet(_Sweep):
    name = "sweep-fleet"
    S = 1024
    #: Warm-up sweep size: enough for every shard to cross the wire.
    WARMUP_S = 256
    EXPECT_BACKEND = "remote"
    sup: FleetSupervisor | None = None

    def launcher(self):
        if self.rec is None:
            return LocalLauncher()
        return CommandLauncher(self.server_argv(["worker", "--port", "0"]))

    def setup_trial(self, index, keep):
        built = self.build_first()
        sup = FleetSupervisor(workers=1, launcher=self.launcher())
        start = time.perf_counter()
        try:
            sup.start()
            listen = time.perf_counter() - start
            if len(sup.hosts()) != 1:
                raise RuntimeError(f"fleet worker did not start: {sup.events}")
        except BaseException:
            self.drain(sup)
            raise
        if keep:
            self.sup = sup
        else:
            self.drain(sup)
        self.listens.append(listen)
        self.supervisor_start_s = listen
        self.setups.append(built + listen)

    def drain(self, sup: FleetSupervisor) -> None:
        if not sup.drain(timeout=30.0):
            sup.stop(graceful=False)
            self.problem("fleet did not drain cleanly")

    def worker_counts(self) -> dict:
        host, port = self.sup.hosts()[0]
        with ServeClient(host, port, timeout=30.0) as client:
            stats = client.cache_stats()
        return {"worker.hits": stats["hits"], "worker.misses": stats["misses"]}

    def watch_counts(self) -> dict:
        return {
            **self.watch.counts(),
            "supervisor.relaunches": self.sup.relaunches,
            "supervisor.quarantines": self.sup.quarantines,
        }

    def warmup(self):
        self.sweep(self.build("warmup", 0, self.WARMUP_S), SolverCache())
        self.before = {**self.worker_counts(), **self.watch_counts()}

    def sweep(self, scenarios, cache):
        return repro.solve_stack(scenarios, method="mvasd", fleet=self.sup, cache=cache)

    def counts(self, r, scenarios):
        after = {**self.worker_counts(), **self.watch_counts()}
        delta = _delta(after, self.before)
        self.before = after
        counts = super().counts(r, scenarios)
        counts["cache.hits"] += delta.pop("worker.hits")
        counts["cache.misses"] += delta.pop("worker.misses")
        return {**counts, **delta}

    def launched_peak_mb(self) -> float:
        pids = [row["pid"] for row in self.sup.status() if row["pid"]]
        return max((procs.vm_hwm_mb(pid) for pid in pids), default=0.0)

    def gate(self):
        super().gate()
        for name, value in self.watch_counts().items():
            if value:
                self.problem(f"{name} = {value}, expected 0")

    def teardown(self):
        if self.sup is not None:
            self.drain(self.sup)
        self.sup = None


WORKLOADS = {w.name: w for w in (ServeCold, ServeWarm, SweepLocal, SweepFleet)}

class Phase:
    """What one measured phase of a workload produced."""

    def __init__(self, workload: Workload, windows: list, peak_rss_mb: float) -> None:
        self.w = workload
        #: ``(start_ns, end_ns)`` of each timed round.
        self.windows = windows
        self.peak_rss_mb = peak_rss_mb

    @property
    def active_s(self) -> float:
        return sum(end - start for start, end in self.windows) / 1e9

    @property
    def ops_per_s(self) -> float:
        return self.w.ops / self.active_s

    def metrics(self) -> dict:
        # Throughputs are totals over the timed seconds.  On the tuning
        # host single requests fall into a fast and a slow cluster whose
        # shares change from run to run; a total moves smoothly with the
        # shares where a median of per-round rates jumps between clusters.
        lat = self.w.latencies
        return {
            "setup_s": statistics.median(self.w.setups),
            "requests_per_s": self.ops_per_s,
            "scenarios_per_s": self.w.scenarios / self.active_s,
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p90_ms": _quantile(lat, 9) * 1e3,
            "peak_rss_mb": self.peak_rss_mb,
        }


def measure(w: Workload, seconds: float, trials: int, min_rounds: int | None = None) -> Phase:
    """Set up ``trials`` times, warm up, then run rounds for ``seconds``.

    Runs at least ``min_rounds`` rounds (``w.rss_rounds`` by default) and
    reads peak memory after that many.
    """
    min_rounds = w.rss_rounds if min_rounds is None else min_rounds
    try:
        for i in range(trials):
            w.setup_trial(i, keep=i == trials - 1)
        w.warmup()
        windows = []
        active = 0.0
        r = 0
        while active < seconds or r < min_rounds:
            prepared = w.prepare(r)
            start = time.perf_counter_ns()
            w.run_round(r, prepared)
            end = time.perf_counter_ns()
            windows.append((start, end))
            active += (end - start) / 1e9
            w.round_traffic.append(w.traffic(r, prepared))
            w.round_counts.append(w.counts(r, prepared))
            r += 1
            if r == min_rounds:
                peaks = (procs.vm_hwm_mb(), w.launched_peak_mb(), procs.children_peak_mb())
        print(f"  peak RSS after {min_rounds} rounds (MiB): driver {peaks[0]:.1f}, "
              f"launched {peaks[1]:.1f}, forked children {peaks[2]:.1f}")
        w.gate()
    finally:
        w.teardown()
    leaked = procs.leftovers()
    if leaked:
        w.problem(f"processes left running after the run: {leaked}")
    return Phase(w, windows, max(peaks))


def import_seconds(trials: int = 3) -> float:
    """Median wall time of ``import repro`` in a fresh interpreter."""
    times = []
    for _ in range(trials):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro"], env=procs.child_env(),
                       check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_metrics(before: Phase, traced: Phase, after: Phase, layers: tracing.Layers,
                  import_s: float) -> dict:
    """Every per-layer metric of BENCHMARK.json from one traced phase.

    The traced phase sits between two untraced ones, so a host whose
    speed drifts during the run moves both sides of the overhead alike;
    ``trace.untraced_drift_pct`` shows how far the untraced rate itself
    moved from before to after.
    """
    untraced_ops_per_s = (before.w.ops + after.w.ops) / (before.active_s + after.active_s)
    c = collections.Counter()
    for counts in traced.w.round_counts:
        c.update(counts)
    lc = layers.counters
    hits, misses = c["cache.hits"], c["cache.misses"]
    server_solve = layers.role_seconds("server", "facade.solve", "facade.solve_stack")
    values = {
        "setup.import_s": import_s,
        "setup.listen_s": statistics.median(before.w.listens) if before.w.listens else 0.0,
        "core.mvasd_s": layers.seconds("core.mvasd"),
        "core.mvasd_calls": layers.calls["core.mvasd"],
        "core.levels": lc["core.levels"],
        "core.precompute_demand_s": layers.seconds("core.precompute_demand"),
        "batched.mvasd_s": layers.seconds("batched.mvasd"),
        "batched.scenario_levels": lc["batched.scenario_levels"],
        "facade.solve_s": layers.seconds("facade.solve"),
        "facade.solve_stack_s": layers.seconds("facade.solve_stack"),
        "facade.self_s": layers.self_seconds("facade.solve", "facade.solve_stack"),
        "scenario.fingerprint_s": layers.seconds("scenario.fingerprint"),
        "scenario.fingerprint_calls": layers.calls["scenario.fingerprint"],
        "cache.fetch_s": layers.seconds("cache.fetch"),
        "cache.put_s": layers.seconds("cache.put"),
        "cache.stats_s": layers.seconds("cache.stats"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "trajectory.serve_s": layers.seconds("trajectory.serve"),
        "trajectory.offer_s": layers.seconds("trajectory.offer"),
        "trajectory.prefix_hits": c["trajectory.prefix_hits"],
        "trajectory.extends": c["trajectory.extends"],
        "persistent.get_s": layers.seconds("persistent.get"),
        "persistent.put_s": layers.seconds("persistent.put"),
        "persistent.puts": c["persistent.puts"],
        "protocol.encode_scenario_s": layers.seconds("protocol.encode_scenario"),
        "protocol.decode_scenario_s": layers.seconds("protocol.decode_scenario"),
        "protocol.encode_result_s": layers.seconds("protocol.encode_result"),
        "protocol.encode_stack_result_s": layers.seconds("protocol.encode_stack_result"),
        "protocol.decode_stack_result_s": layers.seconds("protocol.decode_stack_result"),
        "protocol.request_bytes": lc["protocol.request_bytes"],
        "protocol.response_bytes": lc["protocol.response_bytes"],
        "client.request_s": layers.seconds("client.request"),
        "client.requests": layers.calls["client.request"],
        "server.solve_s": server_solve,
        # the client's wait not covered by any server-side span: socket,
        # JSON and event-loop time
        "server.wire_wait_s": layers.self_seconds("client.request"),
        "sweep.parallel_map_s": layers.seconds("sweep.parallel_map"),
        "sweep.tasks": lc["sweep.tasks"],
        "backends.run_s": layers.seconds("backends.run"),
        "fabric.plan_s": layers.seconds("fabric.plan"),
        "fabric.dispatch_s": layers.seconds("fabric.dispatch"),
        "fabric.shards": lc["fabric.shards"],
        "fabric.local_fallback_shards": c["fabric.local_fallback_shards"],
        "transport.run_shards_s": layers.seconds("transport.run_shards"),
        "transport.overload_retries": c["transport.overload_retries"],
        "transport.readmissions": c["transport.readmissions"],
        "supervisor.start_s": before.w.supervisor_start_s,
        "supervisor.relaunches": c["supervisor.relaunches"],
        "supervisor.quarantines": c["supervisor.quarantines"],
        "trace.untraced_ops_per_s": untraced_ops_per_s,
        "trace.traced_ops_per_s": traced.ops_per_s,
        "trace.overhead_pct": 100.0 * (untraced_ops_per_s / traced.ops_per_s - 1.0),
        "trace.untraced_drift_pct": 100.0 * (after.ops_per_s / before.ops_per_s - 1.0),
        "trace.spans": layers.n_spans,
    }
    return values


def check_counts(phase: Phase, label: str, counts_dir: Path, seed: int,
                 digests: dict, extra: list[dict] | None = None) -> list[str]:
    """Counts that must repeat; returns the drift found.

    Every round must repeat round 0's traffic and program counts (sizes
    and digests in :data:`ROUND_VARIANT` aside).  Round 0 must repeat the
    first run with the same seed: its traffic counts, digest included,
    for the same benchmark code; its program counts, bytes included, for
    the same benchmark *and* program code, because a program that
    answers differently (a smaller reply, fewer shards) is a different
    program, not drifting traffic.  ``extra`` adds span-derived program
    counts per round (traced phases).
    """
    name = phase.w.name
    program = [dict(c) for c in phase.w.round_counts]
    for r, more in enumerate(extra or []):
        program[r].update(more)
    drift = []
    stored = (
        ("traffic", phase.w.round_traffic, f"{name}-seed{seed}-traffic-{digests['bench']}"),
        ("program", program, f"{name}-seed{seed}-{label}-{digests['program']}"),
    )
    for kind, rounds, stem in stored:
        same = [{k: v for k, v in c.items() if k not in ROUND_VARIANT} for c in rounds]
        for r, c in enumerate(same):
            if c != same[0]:
                drift.append(f"round {r} {kind} counts {c} differ from round 0 {same[0]}")
        print(f"  {kind} counts ({label}, round 0 of {len(rounds)}): "
              f"{json.dumps(rounds[0], sort_keys=True)}")
        path = counts_dir / f"{stem}.json"
        if path.exists():
            first = json.loads(path.read_text())
            if first != rounds[0]:
                drift.append(f"round 0 {kind} counts differ from the first run of seed "
                             f"{seed}: {first} vs {rounds[0]}")
            else:
                print(f"  round 0 {kind} counts repeat those of the first run of seed {seed}")
        elif not (drift or phase.w.problems or phase.w.failed):
            # only a run that passed its gate may become the reference
            counts_dir.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(rounds[0], sort_keys=True))
    for line in drift:
        print(f"  DRIFT: {line}")
    return drift


def run(name: str, seed: int, seconds: float, trace: bool, runs_dir: Path) -> dict:
    """One benchmark run: the contract's result object."""
    work = runs_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    counts_dir = runs_dir / "counts"
    digests = {"bench": source_digest(HERE)}
    digests["program"] = digests["bench"] + source_digest(procs.SRC)
    cls = WORKLOADS[name]
    watch = tracing.Watch()
    print(f"perfbench {name}: seed {seed}, {seconds:g} s, trace {int(trace)}, "
          f"nproc {os.cpu_count()}")
    phases: list[Phase] = []
    problems: list[str] = []

    def phase(label: str, budget: float, trials: int, rec=None, **kw) -> Phase:
        done = measure(cls(seed, work, watch, rec), budget, trials, **kw)
        phases.append(done)
        extra = None
        if rec is not None:
            extra = [tracing.Layers([rec.payload(), *tracing.load(work)], [w]).counters
                     for w in done.windows]
        problems.extend(check_counts(done, label, counts_dir, seed, digests, extra))
        return done

    try:
        if not trace:
            plain = phase("untraced", seconds, cls.setup_trials)
            metrics = plain.metrics()
            print(f"  set-up trials (s): {' '.join(f'{s:.4f}' for s in plain.w.setups)}")
        else:
            # untraced quarter, traced half, untraced quarter
            import_s = import_seconds()
            before = phase("untraced", seconds / 4, 1, min_rounds=1)
            rec = tracing.Recorder(work, role="driver")
            uninstall = tracing.install(rec)
            try:
                traced = phase("traced", seconds / 2, 1, rec, min_rounds=1)
            finally:
                uninstall()
            after = phase("untraced", seconds / 4, 1, min_rounds=1)
            payloads = [rec.payload(), *tracing.load(work)]
            layers = tracing.Layers(payloads, traced.windows)
            metrics = layer_metrics(before, traced, after, layers, import_s)
            (runs_dir / f"trace-{name}.json").write_text(json.dumps(payloads))
            print(layers.table(f"per-layer time, traced phase of {name} "
                               f"(busy time summed over processes)", name))
            print(f"  tracing overhead: {metrics['trace.untraced_ops_per_s']:.4f} ops/s "
                  f"untraced vs {traced.ops_per_s:.4f} traced "
                  f"({metrics['trace.overhead_pct']:+.1f} %); the untraced rate moved "
                  f"{metrics['trace.untraced_drift_pct']:+.1f} % from before to after")
    except Exception:
        problems.append(traceback.format_exc())
        metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for done in phases:
        problems += done.w.problems
    attempted = sum(p.w.ops for p in phases)
    failed = sum(p.w.failed for p in phases)
    correct = not problems and attempted > 0 and failed == 0
    for line in problems:
        print(f"  FAILED: {line}")
    if not correct:
        failed = max(attempted, 1)
        metrics = {}
    for done in phases:
        print(f"  phase: {len(done.windows)} rounds, {done.w.ops} ops, "
              f"{done.active_s:.3f} s timed")
    return {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
