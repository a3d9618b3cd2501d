"""Deterministic fault injection for the execution layer.

Recovery code that is never exercised is broken code: the graceful
degradation chain in :mod:`repro.engine.resilience`, the serial-retry
path of :func:`repro.engine.sweep.parallel_map` and the degrade-to-miss
guard of :class:`repro.solvers.cache.SolverCache` all exist for failure
modes (OOM-killed workers, wedged shards, corrupted cache state) that a
healthy test machine never produces on its own.  This module makes those
failures *reproducible inputs*: a :class:`FaultPlan` names exactly which
shard crashes, which scenario poisons its kernel, and which cache access
is corrupted, so every recovery path can be pinned by a parity test —
the faulted run must match the fault-free run to ≤1e-10.

Design constraints:

* **Deterministic.**  A fault fires when its target (shard index,
  scenario index, injection point) matches *and* the current attempt
  number equals the fault's ``attempt`` — so "crash on the first try,
  succeed on the retry" is expressible without clocks or randomness.
* **Fork-transparent.**  The armed plan and the attempt counter live in
  module globals; pool workers are forked after arming, so they inherit
  the plan through the process image.  ``crash-worker`` additionally
  only fires in a *forked child* (never the driver), which is what lets
  the parent's serial retry of the same shard succeed.
* **Leaf module.**  Imports nothing from the rest of the package, so
  even :mod:`repro.solvers.cache` (which the engine depends on) can call
  :func:`maybe_inject` without an import cycle.

Fault kinds
-----------

``crash-worker``
    ``os._exit(1)`` in a forked worker running the matching shard — the
    ProcessPoolExecutor observes ``BrokenProcessPool``.
``delay-shard``
    Sleep ``delay`` seconds before solving the matching shard (the slow
    / wedged-worker model; pair with a per-shard timeout).
``raise-in-kernel``
    Raise :class:`InjectedFault` while solving the matching scenario
    (the poisoned-scenario model).
``corrupt-cache-entry``
    Raise :class:`InjectedFault` inside ``SolverCache.get``/``put`` —
    the cache must degrade to a counted miss, never propagate.
``drop-connection``
    Raise :class:`InjectedFault` in the remote transport just before the
    matching shard is sent to a worker — the transport must treat it
    like a vanished worker host (retire the connection, let the
    dispatcher retry the shard elsewhere).
``slow-worker``
    Sleep ``delay`` seconds in the remote transport before sending the
    matching shard (the remote twin of ``delay-shard``; pair with a
    per-shard timeout to exercise timeout-driven host retirement).
``kill-worker-process``
    SIGKILL a supervised fleet worker (``shard`` selects the worker
    slot).  Fired by the :class:`~repro.engine.supervisor.FleetSupervisor`
    heartbeat via :func:`take_one_shot` — lifecycle faults live on
    wall-clock threads, not retry attempts, so each armed fault fires
    exactly once per plan instead of matching an attempt counter.
``reject-admission``
    The worker answers the matching shard with a structured
    ``Overloaded`` envelope instead of solving it.  Fires in the remote
    transport just before the shard is sent (driver-side, mirroring
    ``drop-connection``), and in a worker's admission gate when the
    worker process itself armed a plan (``repro worker
    --inject-faults``).  The transport must treat it as retry-later —
    re-queue the shard, keep the host.

CLI spec syntax (``repro sweep-grid --inject-faults``): faults separated
by ``;``, parameters by ``,`` — e.g.
``"crash-worker@shard=0;delay-shard@shard=1,delay=0.2;corrupt-cache-entry"``.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "activate",
    "active_plan",
    "current_attempt",
    "deactivate",
    "fired",
    "injected",
    "maybe_inject",
    "set_attempt",
    "take_one_shot",
]

#: Every recognised fault kind, mapped to the injection point it hooks.
FAULT_KINDS = {
    "crash-worker": "shard",
    "delay-shard": "shard",
    "raise-in-kernel": "kernel",
    "corrupt-cache-entry": "cache",
    "corrupt-persistent-entry": "persistent",
    "drop-connection": "transport",
    "slow-worker": "transport",
    "kill-worker-process": "fleet",
    "reject-admission": "admission",
}


class InjectedFault(RuntimeError):
    """An error raised by the fault-injection harness (never by real code)."""


@dataclass(frozen=True)
class Fault:
    """One deterministic fault: what to break, where, and on which attempt.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    shard:
        Shard index to hit (``None`` = every shard) for the shard-point
        kinds.
    scenario:
        Global scenario index to hit for ``raise-in-kernel`` (``None`` =
        every scenario).
    attempt:
        The fault fires only when the execution layer's attempt counter
        equals this value (0 = the first try), so retries deterministically
        escape it.
    delay:
        Sleep duration in seconds for ``delay-shard``.
    """

    kind: str
    shard: int | None = None
    scenario: int | None = None
    attempt: int = 0
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {sorted(FAULT_KINDS)}"
            )
        if self.attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {self.attempt}")
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")

    @property
    def point(self) -> str:
        return FAULT_KINDS[self.kind]

    def matches(self, point: str, shard: int | None, scenario: int | None) -> bool:
        """Does this fault fire at ``point`` for the given target indices?"""
        if self.point != point or self.attempt != current_attempt():
            return False
        if self.shard is not None and shard != self.shard:
            return False
        if self.scenario is not None and scenario != self.scenario:
            return False
        return True

    def spec(self) -> str:
        """The compact CLI spelling of this fault (inverse of parsing)."""
        params = []
        if self.shard is not None:
            params.append(f"shard={self.shard}")
        if self.scenario is not None:
            params.append(f"scenario={self.scenario}")
        if self.attempt:
            params.append(f"attempt={self.attempt}")
        if self.delay:
            params.append(f"delay={self.delay:g}")
        return self.kind + ("@" + ",".join(params) if params else "")


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of deterministic faults to arm together."""

    faults: tuple[Fault, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the CLI spec syntax (see module docstring) into a plan."""
        faults = []
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            kind, _, params = part.partition("@")
            kwargs: dict = {"kind": kind.strip()}
            for item in filter(None, (p.strip() for p in params.split(","))):
                key, sep, value = item.partition("=")
                if not sep:
                    raise ValueError(
                        f"fault parameter {item!r} must look like key=value"
                    )
                key = key.strip()
                if key in ("shard", "scenario", "attempt"):
                    kwargs[key] = int(value)
                elif key == "delay":
                    kwargs[key] = float(value)
                else:
                    raise ValueError(
                        f"unknown fault parameter {key!r}; "
                        f"known: shard, scenario, attempt, delay"
                    )
            faults.append(Fault(**kwargs))
        if not faults:
            raise ValueError(f"fault spec {text!r} names no faults")
        return cls(faults=tuple(faults))

    def spec(self) -> str:
        return ";".join(f.spec() for f in self.faults)

    def __len__(self) -> int:
        return len(self.faults)


# -- armed state --------------------------------------------------------------
#
# Module globals, deliberately: pool workers fork after ``activate`` /
# ``set_attempt`` run in the driver, so they see the same plan and
# attempt number through the inherited process image.

_plan: FaultPlan | None = None
_attempt: int = 0
#: PID of the process that armed the plan — ``crash-worker`` only fires
#: in *other* (forked) processes, so driver-side retries survive.
_armed_pid: int | None = None
#: In-process record of fired faults, for assertions in tests.  Faults
#: fired inside forked workers are recorded in the worker and die with
#: it — tests assert on driver-side fires or on recovery parity instead.
_fired: list[tuple[str, str, int | None, int | None, int]] = []


def activate(plan: FaultPlan) -> None:
    """Arm ``plan`` process-wide (replacing any armed plan)."""
    global _plan, _armed_pid
    if not isinstance(plan, FaultPlan):
        raise TypeError(f"expected a FaultPlan, got {type(plan).__name__}")
    _plan = plan
    _armed_pid = os.getpid()
    _fired.clear()
    _consumed.clear()


def deactivate() -> None:
    """Disarm fault injection and reset the attempt counter."""
    global _plan, _attempt, _armed_pid
    _plan = None
    _attempt = 0
    _armed_pid = None


def active_plan() -> FaultPlan | None:
    return _plan


@contextmanager
def injected(plan: FaultPlan):
    """Context manager: arm ``plan`` for the block, disarm on exit."""
    activate(plan)
    try:
        yield plan
    finally:
        deactivate()


def set_attempt(attempt: int) -> None:
    """Publish the execution layer's current attempt number (0-based)."""
    global _attempt
    _attempt = int(attempt)


def current_attempt() -> int:
    return _attempt


def fired() -> list[tuple[str, str, int | None, int | None, int]]:
    """Faults fired *in this process* since the plan was armed."""
    return list(_fired)


#: Faults already consumed by :func:`take_one_shot` — identity-keyed so
#: re-arming the same plan object does not resurrect them (``activate``
#: clears this alongside ``_fired``).
_consumed: set[int] = set()
#: Makes consuming a fault atomic: a remote host's pumps race for it.
_consume_lock = threading.Lock()


def take_one_shot(point: str, shard: int | None = None) -> Fault | None:
    """Consume and return an armed fault at ``point``, ignoring attempts.

    Lifecycle consumers (the fleet supervisor's heartbeat thread) live on
    wall-clock time, not the dispatcher's retry-attempt clock: a
    ``kill-worker-process`` fault matched via :meth:`Fault.matches` would
    re-fire on every heartbeat once the dispatcher resets the attempt
    counter.  This helper instead fires each armed fault *exactly once*:
    the first call matching ``point`` (and ``shard``, when the fault pins
    one) returns the fault, records it in :func:`fired`, and marks it
    consumed; later calls skip it.  Returns ``None`` when nothing is
    armed or everything matching is already consumed.
    """
    plan = _plan
    if plan is None:
        return None
    with _consume_lock:
        for fault in plan.faults:
            if fault.point != point or id(fault) in _consumed:
                continue
            if fault.shard is not None and shard is not None and shard != fault.shard:
                continue
            _consumed.add(id(fault))
            _fired.append((fault.kind, point, fault.shard, None, _attempt))
            return fault
    return None


def maybe_inject(
    point: str,
    shard: int | None = None,
    scenario: int | None = None,
) -> None:
    """Fire any armed fault matching ``point`` and the target indices.

    Called from the injection points the harness instruments (shard
    entry, per-scenario kernel solve, cache access).  A no-op — one
    ``is None`` check — when no plan is armed, so the hooks cost nothing
    in production runs.
    """
    if _plan is None:
        return
    for fault in _plan.faults:
        if not fault.matches(point, shard, scenario):
            continue
        _fired.append((fault.kind, point, shard, scenario, _attempt))
        if fault.kind in ("delay-shard", "slow-worker"):
            time.sleep(fault.delay)
        elif fault.kind == "crash-worker":
            if _armed_pid is not None and os.getpid() != _armed_pid:
                os._exit(1)  # simulate an OOM-killed / SIGKILLed worker
            # In the arming (driver) process a hard exit would kill the
            # whole run; the crash is only meaningful for forked workers.
        else:  # raise-in-kernel, corrupt-*-entry, drop-connection
            raise InjectedFault(
                f"injected {fault.kind} at {point} "
                f"(shard={shard}, scenario={scenario}, attempt={_attempt})"
            )
