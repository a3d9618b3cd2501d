"""Transports: where a shard of scenarios physically gets solved.

The execution fabric (:mod:`repro.engine.fabric`) separates *planning*
(shard partitioning, checkpoint keys), *dispatch* (retry/backoff,
degradation, journaling) and *transport* (moving a shard to compute and
its result back).  This module holds the transport layer: everything a
:class:`~repro.engine.fabric.Dispatcher` needs to know about worker
processes or worker hosts is behind the small :class:`Transport`
protocol, so local process pools and remote socket workers are
interchangeable underneath the same retry/checkpoint machinery.

:class:`LocalProcessTransport`
    Shards fan out over :func:`repro.engine.sweep.parallel_map` fork
    workers — the scenario list rides as the fork-inherited payload, so
    nothing but shard bounds and result arrays crosses the process
    boundary.  This is the transport under the local fan-out,
    :class:`~repro.engine.backends.ProcessShardedBackend`, which runs as
    both ``process-sharded`` and ``resilient``.
:class:`RemoteTransport`
    Shards are serialized over the ``repro serve`` JSON-lines protocol
    to a fleet of ``repro worker`` processes: :data:`CONNECTIONS_PER_HOST`
    persistent sockets per host, each with its own pump thread, all
    draining one shared shard queue, so a host has two shards in flight.
    Replies come back framed: the trajectory arrays follow the JSON
    envelope as raw bytes (:mod:`repro.serve.protocol`).
    Scenario sub-stacks ship fingerprint-verified — a worker refuses a
    shard whose decoded scenarios do not hash to the fingerprints the
    driver computed, so codec drift degrades to a local re-solve
    instead of a silently different answer.  Remote solves run through
    each worker's facade → cache stack, so they ride the worker's LRU
    tier and (when the fleet shares a ``--cache-path``) the common
    sqlite :class:`~repro.solvers.persistent.PersistentCache`.

Failure model of the remote transport: a connection-level failure
(refused, reset, timeout, or an injected ``drop-connection`` fault)
retires that *connection* for the round — its pump thread exits, the
host's other connection and the surviving hosts drain the rest of the
queue, and the failed shard surfaces as an exception for the
dispatcher to retry.  A dead host fails both its connections, each on
its own shard.  Retirement is no longer final even within a round:
while at least one pump is still draining the queue, a monitor thread
re-probes retired connections (and every connection of a host newly
published by an elastic *membership* source, e.g. a
:class:`~repro.engine.supervisor.FleetSupervisor` that relaunched a
crashed worker on a fresh port) and starts a new pump the moment a
probe connects — a rejoining host immediately picks up queued shards.
A *structured* worker error (the solver itself failed) keeps the host
alive; only the shard fails.  An ``Overloaded`` error envelope is
retry-later, not host death: the shard goes back on the queue (once per
round) and the host keeps pumping.  If every host is gone, remaining
shards fail with :class:`WorkerConnectionLost` and the dispatcher's
in-process degradation chain takes over — a dead fleet never wedges or
aborts a sweep that the driver alone could finish.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Protocol, Sequence

from . import faults
from .backends import _solve_shard
from .sweep import parallel_map, resolve_workers

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serve.client import ServeClient

__all__ = [
    "DEFAULT_SHARDS_PER_HOST",
    "LocalProcessTransport",
    "RemoteTransport",
    "Transport",
    "WorkerConnectionLost",
    "WorkerOverloaded",
    "parse_host",
    "parse_hosts",
]

#: Default oversubscription of the remote shard queue: more shards than
#: hosts keeps fast workers busy while slow ones finish, and bounds how
#: much work one dead host can take down with it.
DEFAULT_SHARDS_PER_HOST = 4

#: Shards in flight per remote host, one connection and pump thread
#: each.  A worker solves one shard at a time, so while it solves one,
#: the second waits in its admission queue and the driver encodes the
#: next request or decodes the last reply.  A third would only queue
#: behind the same solve slot and hold one more reply in memory.
CONNECTIONS_PER_HOST = 2

_UNSET = object()


class WorkerConnectionLost(ConnectionError):
    """A worker host vanished (refused/reset/timed out) mid-shard."""


class WorkerOverloaded(RuntimeError):
    """A worker shed the shard with a structured ``Overloaded`` envelope.

    Retry-later, not host death: the transport re-queues the shard for
    another (or the same, later) worker and keeps the connection.
    """


class Transport(Protocol):
    """Moves shards of a scenario stack to compute and results back.

    ``shards`` are the ``(shard_index, start, stop)`` bounds of
    :func:`repro.engine.backends.shard_bounds`; ``payload`` is the
    ``(method, child_backend, scenarios, options)`` tuple every shard
    shares.  ``run_shards`` returns one entry per shard *in order* —
    either the shard's batched result or (``return_exceptions=True``)
    the exception that sank it.
    """

    name: str

    def preferred_shards(self, n_scenarios: int) -> int:
        """How many shards this transport wants a stack cut into."""
        ...  # pragma: no cover - protocol

    def fan_out(self, n_shards: int) -> bool:
        """Whether fanning ``n_shards`` out is worth this transport's setup."""
        ...  # pragma: no cover - protocol

    def run_shards(
        self,
        shards: Sequence[tuple[int, int, int]],
        payload: tuple,
        timeout: float | None = None,
        return_exceptions: bool = True,
    ) -> list:
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        ...  # pragma: no cover - protocol


class LocalProcessTransport:
    """Shards solved by forked :func:`parallel_map` worker processes."""

    name = "local-processes"

    def __init__(self, workers: int | None = None) -> None:
        self.workers = workers

    def preferred_shards(self, n_scenarios: int) -> int:
        return resolve_workers(self.workers)

    def fan_out(self, n_shards: int) -> bool:
        # With one worker (or one shard) there is no pool whose failures
        # a sharded stage would be covering — solve in-process instead.
        return resolve_workers(self.workers) > 1 and n_shards > 1

    def run_shards(self, shards, payload, timeout=None, return_exceptions=True):
        return parallel_map(
            _solve_shard,
            list(shards),
            workers=len(shards),
            payload=payload,
            timeout=timeout,
            return_exceptions=return_exceptions,
        )

    def close(self) -> None:  # nothing persistent: pools are per-call
        pass


def parse_host(spec: str | tuple, default_port: int = 7173) -> tuple[str, int]:
    """``"host:port"`` (or a ``(host, port)`` pair) → ``(host, port)``."""
    if isinstance(spec, tuple):
        host, port = spec
        return str(host), int(port)
    text = str(spec).strip()
    host, sep, port = text.rpartition(":")
    if not sep:
        return text, int(default_port)
    return host, int(port)


def parse_hosts(text: str, default_port: int = 7173) -> list[tuple[str, int]]:
    """Comma-separated ``host:port`` list → ``[(host, port), ...]``."""
    hosts = [
        parse_host(part, default_port)
        for part in (p.strip() for p in text.split(","))
        if part
    ]
    if not hosts:
        raise ValueError(f"host list {text!r} names no hosts")
    return hosts


class RemoteTransport:
    """Shards solved by ``repro worker`` processes over JSON lines.

    :data:`CONNECTIONS_PER_HOST` persistent
    :class:`~repro.serve.client.ServeClient` connections per
    ``(host, port)`` endpoint, one pump thread each, reused across
    dispatcher rounds; connections and pumps are keyed by
    ``(endpoint, slot)``.  A lost connection retires only its slot.
    Membership is **elastic**: pass ``membership=`` (any object with a
    ``hosts()`` method returning the current ``[(host, port), ...]`` —
    a :class:`~repro.engine.supervisor.FleetSupervisor` qualifies) and
    each ``run_shards`` round tracks it live — hosts that join mid-round
    start draining the shared shard queue immediately on every slot,
    retired slots are re-probed every ``reprobe_interval`` seconds while
    the round is still in progress, and hosts the membership dropped
    (quarantined) stop being probed.  Without ``membership`` the initial
    host list is the membership, and in-round re-probe still applies to
    retired slots.
    """

    name = "remote-sockets"

    def __init__(
        self,
        hosts: Sequence[str | tuple] = (),
        connect_timeout: float = 10.0,
        shards_per_host: int = DEFAULT_SHARDS_PER_HOST,
        membership=None,
        reprobe_interval: float = 0.5,
    ) -> None:
        self._static_hosts = tuple(parse_host(h) for h in hosts)
        self.membership = membership
        if not self._static_hosts and membership is None:
            raise ValueError("RemoteTransport needs worker hosts or a membership")
        self.connect_timeout = float(connect_timeout)
        self.shards_per_host = max(1, int(shards_per_host))
        self.reprobe_interval = float(reprobe_interval)
        self._clients: dict[tuple[tuple[str, int], int], "ServeClient"] = {}
        self._clients_lock = threading.Lock()
        #: Shards re-queued after an ``Overloaded`` answer (all rounds).
        self.overload_retries = 0
        #: Hosts (not connections) that joined mid-round: not reachable or
        #: not a member when the round began, or back after losing every
        #: connection.
        self.readmissions = 0

    @property
    def hosts(self) -> tuple[tuple[str, int], ...]:
        """The current membership (live when a membership source is set)."""
        if self.membership is not None:
            current = tuple(parse_host(h) for h in self.membership.hosts())
            if current:
                return current
        return self._static_hosts

    def preferred_shards(self, n_scenarios: int) -> int:
        n_hosts = max(1, len(self.hosts))
        return max(1, min(int(n_scenarios), n_hosts * self.shards_per_host))

    def fan_out(self, n_shards: int) -> bool:
        # Even a single remote shard is worth shipping: the worker holds
        # the warm cache tiers the driver process does not.
        return True

    # -- connection management ------------------------------------------------

    def _connect(self, key: tuple[tuple[str, int], int], timeout: float | None):
        with self._clients_lock:
            client = self._clients.get(key)
        if client is not None:
            try:
                client.set_timeout(timeout)
                return client
            except OSError:
                self._drop(key)
        from ..serve.client import ServeClient

        host, port = key[0]
        try:
            client = ServeClient(
                host, port, timeout=timeout, connect_timeout=self.connect_timeout
            )
        except OSError:
            return None
        with self._clients_lock:
            self._clients[key] = client
        return client

    def _drop(self, key: tuple[tuple[str, int], int]) -> None:
        with self._clients_lock:
            client = self._clients.pop(key, None)
        if client is not None:
            try:
                client.close()
            except Exception:
                pass

    def close(self) -> None:
        with self._clients_lock:
            clients = list(self._clients.values())
            self._clients.clear()
        for client in clients:
            try:
                client.close()
            except Exception:
                pass

    # -- shard execution ------------------------------------------------------

    def _slots(self) -> list[tuple[tuple[str, int], int]]:
        """Every ``(endpoint, slot)`` connection the membership asks for."""
        return [
            (endpoint, slot)
            for endpoint in dict.fromkeys(self.hosts)
            for slot in range(CONNECTIONS_PER_HOST)
        ]

    def run_shards(self, shards, payload, timeout=None, return_exceptions=True):
        shards = list(shards)
        results: list[Any] = [_UNSET] * len(shards)
        queue = list(range(len(shards)))
        lock = threading.Lock()
        #: Shards already granted their one in-round overload retry.
        overload_retried: set[int] = set()
        #: ``(endpoint, slot)`` pairs with a live pump (under ``lock``).
        pumping: set[tuple[tuple[str, int], int]] = set()
        #: Connected slots per joined endpoint (under ``lock``).  A host
        #: joins with its first connection and leaves when its last one
        #: is lost — a slot that finds the queue empty does not make it
        #: leave.  Joining again mid-round is one re-admission, however
        #: many of its slots reconnect.
        serving: dict[tuple[str, int], set[int]] = {}
        #: Last probe time per slot — bounds how hard the monitor
        #: hammers a dead host (one connect per slot per reprobe_interval).
        last_probe: dict[tuple[tuple[str, int], int], float] = {}

        def pump(key: tuple[tuple[str, int], int], rejoin: bool = False) -> None:
            endpoint, slot = key
            try:
                client = self._connect(key, timeout)
                if client is None:
                    return  # unreachable host consumes no shards this round
                with lock:
                    if rejoin and endpoint not in serving:
                        self.readmissions += 1
                    serving.setdefault(endpoint, set()).add(slot)
                while True:
                    with lock:
                        if not queue:
                            return
                        i = queue.pop(0)
                    try:
                        results[i] = self._solve_remote(client, shards[i], payload)
                    except WorkerOverloaded as exc:
                        with lock:
                            if i in overload_retried:
                                # second shed of the same shard: surface it,
                                # the dispatcher's round retry takes over
                                results[i] = exc
                                continue
                            overload_retried.add(i)
                            queue.append(i)  # back of the queue: retry later
                            self.overload_retries += 1
                        time.sleep(min(0.05, self.reprobe_interval))
                    except WorkerConnectionLost as exc:
                        results[i] = exc
                        self._drop(key)
                        with lock:
                            # only this slot retires; the host leaves
                            # with its last connection
                            serving[endpoint].discard(slot)
                            if not serving[endpoint]:
                                del serving[endpoint]
                        return  # the monitor may re-admit the slot later
                    except Exception as exc:
                        results[i] = exc  # structured worker error: host stays
            finally:
                with lock:
                    pumping.discard(key)
                    serving.get(endpoint, set()).discard(slot)

        def start_pump(key, rejoin: bool = False) -> threading.Thread:
            with lock:
                pumping.add(key)
            last_probe[key] = time.monotonic()
            t = threading.Thread(target=pump, args=(key, rejoin), daemon=True)
            t.start()
            return t

        threads = [start_pump(key) for key in self._slots()]

        # Elastic monitor: while at least one pump is draining the queue,
        # watch membership for joins and re-probe retired slots.  With no
        # pump left alive the round is decided (the queue's remainder
        # fails fast below) — a fully dead fleet must not hang here.
        while True:
            with lock:
                work_left = bool(queue) or any(r is _UNSET for r in results)
                if not work_left or not pumping:
                    break
                now = time.monotonic()
                missing = [
                    key
                    for key in self._slots()
                    if key not in pumping
                    and now - last_probe.get(key, float("-inf")) >= self.reprobe_interval
                    and queue
                ]
            for key in missing:
                threads.append(start_pump(key, rejoin=True))
            time.sleep(min(0.02, self.reprobe_interval))

        for t in threads:
            t.join()
        for i, bounds in enumerate(shards):
            if results[i] is _UNSET:
                results[i] = WorkerConnectionLost(
                    f"shard {bounds[0]}: no reachable worker host "
                    f"(tried {max(1, len(self.hosts))})"
                )
        if not return_exceptions:
            for out in results:
                if isinstance(out, BaseException):
                    raise out
        return results

    def _solve_remote(self, client, bounds, payload):
        from ..serve.client import ServeError
        from ..serve.protocol import decode_stack_result, encode_scenario

        method, child_backend, scenarios, options = payload
        shard, start, stop = bounds
        try:
            faults.maybe_inject("transport", shard=shard)
        except faults.InjectedFault as exc:
            raise WorkerConnectionLost(str(exc)) from exc
        # Driver-side chaos: a `reject-admission` fault armed in this
        # process sheds the matching shard exactly as an overloaded
        # worker would (fires once — the retry must succeed).
        if faults.take_one_shot("admission", shard=shard) is not None:
            raise WorkerOverloaded(
                f"injected reject-admission for shard {shard} "
                f"at {client.host}:{client.port}"
            )
        sub = scenarios[start:stop]
        request = {
            "op": "solve_shard",
            "method": method,
            "backend": child_backend,
            "start": start,
            "scenarios": [encode_scenario(sc) for sc in sub],
            "fingerprints": [sc.fingerprint() for sc in sub],
            "options": dict(options),
            # reply arrays as raw bytes after the envelope line; a worker
            # that predates frames ignores this and answers in base64
            "frames": 1,
        }
        try:
            envelope = client.request(request)
        except (OSError, EOFError, ValueError) as exc:
            # socket timeouts, resets and a reply (or its frame) cut
            # short are OSErrors; a torn response stream surfaces as a
            # JSON decode error (ValueError).
            raise WorkerConnectionLost(
                f"worker {client.host}:{client.port} lost mid-shard: {exc}"
            ) from exc
        if not envelope.get("ok"):
            error = envelope.get("error") or {}
            if error.get("type") == "Overloaded":
                raise WorkerOverloaded(
                    f"worker {client.host}:{client.port} shed shard {shard}: "
                    f"{error.get('error', 'overloaded')}"
                )
            raise ServeError(envelope)
        frame = getattr(envelope, "frame", None)  # None: an inline (base64) reply
        return decode_stack_result(envelope["result"], frame=frame)
