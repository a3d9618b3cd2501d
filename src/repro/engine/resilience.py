"""Fault-tolerant execution: retries, degradation, isolation, checkpointing.

A million-scenario sweep dies three ways in practice: a worker process
is OOM-killed mid-shard (the pool breaks), one pathological scenario
poisons a whole vectorized kernel, or the driver itself is killed at
scenario 999,999 and everything is lost.  This module closes all three
holes behind the same :class:`~repro.engine.backends.ExecutionBackend`
protocol the healthy backends implement:

:class:`RetryPolicy`
    Bounded retries with exponential backoff and a per-shard timeout —
    the knobs of every recovery decision in one frozen value object.
:func:`ResilientBackend`
    Builds the ``resilient`` backend: the local fan-out
    (:class:`~repro.engine.backends.ProcessShardedBackend`) with the
    graceful-degradation chain *sharded → batched → serial*: shards
    are fanned out with a per-shard timeout; shards that crash or time
    out are retried (new pool, backoff) up to the policy bound; shards
    that still fail are re-solved in-process with the method's batched
    kernel, then the serial loop; scenarios that *still* fail are either
    raised (``errors="raise"``) or isolated into structured
    :class:`~repro.engine.batched.ScenarioFailure` records
    (``errors="isolate"``).  Only failed work is ever redone.
:class:`SweepCheckpoint`
    An append-only journal of completed shards, content-addressed on
    ``Scenario.fingerprint()`` + method + canonical options (the PR 4
    cache keys).  Killing the driver and re-running with the same
    checkpoint resumes exactly where it died — journaled shards are
    byte-exact array round-trips, so the resumed result is bit-identical
    to an uninterrupted run.
:func:`solve_isolated`
    The per-scenario last resort shared with the facade's
    ``solve_stack(errors="isolate")`` path: every scenario is solved
    alone, failures become records, failed rows are NaN.

Every recovery path here is exercised by the deterministic
fault-injection harness (:mod:`repro.engine.faults`) in
``tests/test_faults.py`` — the faulted run must match the fault-free
run to ≤1e-10.
"""

from __future__ import annotations

import base64
import hashlib
import io
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from . import faults
from .backends import (
    ProcessShardedBackend,
    _failure_record,
    _kernel_input,
    _kernel_input_shape,
    _run_kernel,
    _scenario_offset,
    solve_each,
)
from .batched import ScenarioFailure, ScenarioStack

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..solvers.registry import SolverSpec
    from ..solvers.scenario import Scenario

__all__ = [
    "ResilientBackend",
    "RetryPolicy",
    "SweepCheckpoint",
    "solve_isolated",
    "solve_isolated_batched",
]

#: Journal-format version; bumped whenever the record layout changes so
#: stale checkpoints are recomputed instead of misread.
_CHECKPOINT_VERSION = "repro-checkpoint-v1"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry and backoff knobs for the resilient execution path.

    Attributes
    ----------
    max_retries:
        Sharded-stage retries after the first attempt (so the stack is
        tried at most ``max_retries + 1`` times before degrading).
    backoff_base:
        Sleep before the first retry, in seconds.
    backoff_multiplier:
        Exponential growth factor of successive backoffs.
    backoff_max:
        Upper bound on any single backoff sleep.
    shard_timeout:
        Per-shard wall-clock budget in seconds; a shard exceeding it is
        treated like a crashed worker (``None`` disables the timeout).
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_max: float = 2.0
    shard_timeout: float | None = 60.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff bounds must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError(
                f"shard_timeout must be positive or None, got {self.shard_timeout}"
            )

    def backoff(self, retry_number: int) -> float:
        """Sleep before retry ``retry_number`` (1-based), capped."""
        if retry_number < 1:
            return 0.0
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_multiplier ** (retry_number - 1),
        )


#: The local fan-out's retry policy under each of its backend names.
#: ``process-sharded`` makes one attempt with no shard timeout: a long
#: shard is never abandoned, and a failed one goes straight to the
#: in-driver re-solve.  ``resilient`` retries with backoff.
FAN_OUT_POLICIES = {
    "process-sharded": RetryPolicy(max_retries=0, shard_timeout=None),
    "resilient": RetryPolicy(),
}


def solve_isolated(
    spec: "SolverSpec",
    scenarios: Sequence["Scenario"],
    options: Mapping[str, Any],
    retries: int = 0,
) -> ScenarioStack:
    """Solve each scenario alone, isolating failures instead of aborting.

    The per-scenario last resort behind ``solve_stack(errors="isolate")``
    and the final stage of the dispatcher's chain: successful
    scenarios get exactly the rows the ``serial`` backend would produce
    (it is the same :func:`~repro.engine.backends.solve_each` loop);
    failed scenarios contribute NaN rows plus a :class:`ScenarioFailure`
    record.  ``retries`` stamps the records with how many recovery
    attempts preceded isolation.
    """
    return solve_each(spec, scenarios, options, isolate=True, retries=retries)


def solve_isolated_batched(
    spec: "SolverSpec",
    scenarios: Sequence["Scenario"],
    options: Mapping[str, Any],
    retries: int = 0,
):
    """Masked-kernel isolation: failed rows NaN, healthy rows stay batched.

    Probes every scenario's kernel input independently (the injection
    point and the place bad demand models blow up); scenarios whose
    probe fails are masked out of the single vectorized kernel call
    with a placeholder row.  Surviving scenarios keep batched speed —
    previously one poisoned scenario demoted the whole shard to the
    serial loop.  Falls back to :func:`solve_isolated` if the masked
    kernel call itself still fails.
    """
    scenarios = list(scenarios)
    offset = _scenario_offset()
    rows: list[np.ndarray] = []
    mask = np.ones(len(scenarios), dtype=bool)
    failures: list[ScenarioFailure] = []
    for i, sc in enumerate(scenarios):
        try:
            faults.maybe_inject("kernel", scenario=offset + i)
            row = _kernel_input(spec, sc, options)
            if isinstance(row, np.ndarray):
                row = np.asarray(row, dtype=float)
                if not np.isfinite(row).all():
                    raise ValueError("non-finite demands")
            rows.append(row)
        except Exception as exc:
            mask[i] = False
            rows.append(np.ones(_kernel_input_shape(spec, sc)))
            failures.append(_failure_record(sc, i, spec.name, exc, retries))
    try:
        result = _run_kernel(
            spec, scenarios, rows, options, mask=None if mask.all() else mask
        )
    except Exception:
        # The kernel failed on the surviving rows too (or the probe
        # missed a poison the full recursion hits) — degrade all the way.
        return solve_isolated(spec, scenarios, options, retries=retries)
    return replace(result, backend="batched", failures=tuple(failures))


class SweepCheckpoint:
    """Append-only journal of completed shards for crash-safe sweeps.

    Each record is one line of JSON holding a content-addressed shard
    key (:meth:`shard_key` — scenario fingerprints + method + canonical
    options, the same identity the solver cache uses), a SHA-256 of the
    payload, and the shard's result arrays (the
    :meth:`~repro.engine.batched.ScenarioStack.to_arrays` view of any of
    the three stack containers, tagged by a ``container`` meta field) as
    a base64 ``.npz`` blob.  The array round-trip is lossless, so a
    resumed sweep reassembles *bit-identical* results from journaled
    shards.  Loading tolerates a torn tail (the line a killed driver was
    writing) and corrupted records by skipping anything that fails JSON
    parsing or the checksum — those shards are simply re-solved.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)

    @staticmethod
    def shard_key(
        method: str,
        options: Mapping[str, Any],
        fingerprints: Sequence[str],
    ) -> str | None:
        """Content hash identifying one shard's solve request.

        ``None`` when :func:`~repro.solvers.cache.canonical_options`
        cannot key the options (callables, the throughput axis) — such
        shards are solved but not journaled, exactly mirroring the
        result cache's uncacheable rule.
        """
        from ..solvers.cache import canonical_options

        opts = canonical_options(options, method)
        if opts is None:
            return None
        h = hashlib.sha256()
        h.update(_CHECKPOINT_VERSION.encode("ascii"))
        h.update(method.encode("utf-8"))
        h.update(repr(opts).encode("utf-8"))
        for fp in fingerprints:
            h.update(fp.encode("ascii"))
            h.update(b"\x00")
        return h.hexdigest()

    def load(self) -> dict[str, Any]:
        """All valid journaled shards, keyed by shard key (latest wins)."""
        completed: dict[str, Any] = {}
        try:
            lines = self.path.read_text().splitlines()
        except (FileNotFoundError, OSError):
            return completed
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if record.get("version") != _CHECKPOINT_VERSION:
                    continue
                raw = base64.b64decode(record["payload"].encode("ascii"))
                if hashlib.sha256(raw).hexdigest() != record["sha256"]:
                    continue
                with np.load(io.BytesIO(raw), allow_pickle=False) as arrays:
                    part = ScenarioStack.from_arrays(arrays, record["meta"])
                completed[record["key"]] = part
            except Exception:
                continue  # torn tail or corrupted record: re-solve that shard
        return completed

    def record(self, key: str | None, part) -> None:
        """Append one completed shard (no-op for unkeyed/failed parts).

        All three stack containers journal through
        :meth:`~repro.engine.batched.ScenarioStack.to_arrays`: the named
        arrays become the npz, the meta (with its ``container`` tag)
        rides beside it.  Parts carrying failures are never journaled: a
        resume after fixing the inputs must recompute them.
        """
        if key is None or part.failures or not isinstance(part, ScenarioStack):
            return
        arrays, meta = part.to_arrays()
        buf = io.BytesIO()
        np.savez_compressed(
            buf, **{name: arr for name, arr in arrays.items() if arr is not None}
        )
        raw = buf.getvalue()
        record = {
            "version": _CHECKPOINT_VERSION,
            "key": key,
            "sha256": hashlib.sha256(raw).hexdigest(),
            "meta": meta,
            "payload": base64.b64encode(raw).decode("ascii"),
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="ascii") as fh:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
            fh.flush()
            try:
                os.fsync(fh.fileno())
            except OSError:  # pragma: no cover - fsync-less filesystems
                pass


def ResilientBackend(workers: int | None = None, **dispatch):
    """The ``resilient`` backend: the local fan-out with bounded retries.

    A constructor, not a class: it builds the
    :class:`~repro.engine.backends.ProcessShardedBackend` under the name
    ``resilient``, whose policy defaults to :class:`RetryPolicy` instead
    of the one-attempt preset.  Its
    :class:`~repro.engine.fabric.Dispatcher` retries failed shards with
    backoff and per-shard timeouts, re-solves the ones that exhaust
    their retries in the driver (batched kernel, then serial loop), and
    raises or isolates the scenarios that still fail; only failed work
    is ever redone.  ``dispatch`` (``policy``, ``checkpoint``,
    ``errors``, ``sleep``) is checked by the dispatcher when the backend
    is built.
    """
    return ProcessShardedBackend(workers, name="resilient", **dispatch)
