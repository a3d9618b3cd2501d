"""Stack-container compatibility fixtures: builder, comparator and writer.

``build_stacks`` makes one small container of each kind (S=3 scenarios,
scenario 1 all-NaN) from a fixed seed.  Run as a script from the
repository root, this module writes what the code it imports makes of
them:

    PYTHONPATH=src:. python tests/fixtures/stack_compat.py

* ``stack_compat_journal.jsonl`` — one :class:`SweepCheckpoint` record per
  container kind, plus one single-class record with its ``container``
  tag removed (the untagged v1 layout);
* ``stack_compat_wire.json`` — one ``encode_stack_result`` payload per
  kind, each carrying a failure record.

The committed files were written by commit 9b8219a, the last one whose
backends, journal and wire codec spelled out every container field by
hand; ``tests/test_stack_compat.py`` holds today's code to them.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from repro.engine import (
    BatchedMultiClassResult,
    BatchedMultiClassTrajectory,
    BatchedMVAResult,
    ScenarioFailure,
    SweepCheckpoint,
)
from repro.serve.protocol import encode_stack_result

HERE = Path(__file__).resolve().parent
JOURNAL = HERE / "stack_compat_journal.jsonl"
WIRE = HERE / "stack_compat_wire.json"
#: Journal key of the record written without a ``container`` tag.
UNTAGGED = "mva-v1-untagged"
FAILURES = (
    ScenarioFailure(
        index=1, fingerprint="f" * 64, solver="mvasd", error="ValueError: boom", retries=2
    ),
)


def _rows(rng, *shape):
    arr = rng.random(shape)
    arr[1] = np.nan
    return arr


def build_stacks(failures=()) -> dict:
    """One container of each kind, by journal key."""
    rng = np.random.default_rng(15)
    s, n, k, c = 3, 4, 2, 2
    stations, classes = ("web", "db"), ("browse", "buy")

    def mva(**labels):
        return BatchedMVAResult(
            populations=np.arange(1, n + 1),
            throughput=_rows(rng, s, n),
            response_time=_rows(rng, s, n),
            queue_lengths=_rows(rng, s, n, k),
            residence_times=_rows(rng, s, n, k),
            utilizations=_rows(rng, s, n, k),
            station_names=stations,
            think_times=np.array([0.5, 1.0, 1.5]),
            failures=failures,
            **labels,
        )

    return {
        "mva": mva(
            solver="stacked-mvasd", demands_used=_rows(rng, s, n, k), backend="serial"
        ),
        "multiclass": BatchedMultiClassResult(
            populations=(3, 2),
            class_names=classes,
            throughput=_rows(rng, s, c),
            response_time=_rows(rng, s, c),
            queue_lengths=_rows(rng, s, k),
            queue_lengths_by_class=_rows(rng, s, k, c),
            utilizations=_rows(rng, s, k),
            station_names=stations,
            think_times=np.array([1.0, 0.25]),
            solver="batched-exact-multiclass",
            backend="batched",
            failures=failures,
        ),
        "multiclass-trajectory": BatchedMultiClassTrajectory(
            class_names=classes,
            station_names=stations,
            totals=np.arange(1, n + 1),
            populations=np.array([[1, 0], [1, 1], [2, 1], [2, 2]]),
            throughput=_rows(rng, s, n, c),
            response_time=_rows(rng, s, n, c),
            utilizations=_rows(rng, s, n, k),
            think_times=np.array([2.0, 0.5]),
            solver="batched-multiclass-mvasd",
            demands_used=_rows(rng, s, n, k, c),
            backend="process-sharded",
            failures=failures,
        ),
        UNTAGGED: mva(solver="batched-exact-mva", backend="batched"),
    }


def assert_same_stack(got, want) -> None:
    """Bit-identical: same type, dtypes, NaN-aware values, labels, failures."""
    assert type(got) is type(want)
    for field in fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), field.name
            assert a.dtype == b.dtype, (field.name, a.dtype, b.dtype)
            assert np.array_equal(a, b, equal_nan=True), field.name
        else:
            assert a == b, (field.name, a, b)


def write_fixtures() -> None:
    JOURNAL.unlink(missing_ok=True)
    checkpoint = SweepCheckpoint(JOURNAL)
    for key, part in build_stacks().items():
        checkpoint.record(key, part)
    lines = []
    for line in JOURNAL.read_text().splitlines():
        record = json.loads(line)
        if record["key"] == UNTAGGED:
            del record["meta"]["container"]
            line = json.dumps(record, separators=(",", ":"))
        lines.append(line)
    JOURNAL.write_text("\n".join(lines) + "\n")
    payloads = {
        key: encode_stack_result(part)
        for key, part in build_stacks(FAILURES).items()
        if key != UNTAGGED
    }
    WIRE.write_text(json.dumps(payloads, indent=1) + "\n")


if __name__ == "__main__":
    write_fixtures()
