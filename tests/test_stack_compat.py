"""Journals and wire payloads written before the stack containers owned
their layout still decode bit-identically, and today's writers still
produce them.

The fixtures (``tests/fixtures/stack_compat_*``) were written by commit
9b8219a — see ``tests/fixtures/stack_compat.py``, which also rebuilds the
containers they hold.  A failure here means an old checkpoint would no
longer resume, or a mixed-version coordinator/worker pair would no
longer understand each other.
"""

import base64
import io
import json

import numpy as np
import pytest

from repro.engine import SweepCheckpoint
from repro.serve.protocol import decode_stack_result, encode_stack_result
from tests.fixtures.stack_compat import (
    FAILURES,
    JOURNAL,
    UNTAGGED,
    WIRE,
    assert_same_stack,
    build_stacks,
)

KINDS = ("mva", "multiclass", "multiclass-trajectory")


def _records(path):
    return {r["key"]: r for r in map(json.loads, path.read_text().splitlines())}


def _npz(record):
    raw = base64.b64decode(record["payload"])
    with np.load(io.BytesIO(raw), allow_pickle=False) as data:
        return {name: data[name] for name in data.files}


class TestJournal:
    def test_old_journal_resumes_every_container(self):
        loaded = SweepCheckpoint(JOURNAL).load()
        want = build_stacks()
        assert sorted(loaded) == sorted(want)
        for key, part in want.items():
            assert_same_stack(loaded[key], part)

    def test_untagged_record_defaults_to_single_class(self):
        assert "container" not in _records(JOURNAL)[UNTAGGED]["meta"]
        part = SweepCheckpoint(JOURNAL).load()[UNTAGGED]
        assert part.demands_used is None
        assert_same_stack(part, build_stacks()[UNTAGGED])

    def test_record_writes_the_old_layout(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        checkpoint = SweepCheckpoint(path)
        for key, part in build_stacks().items():
            checkpoint.record(key, part)
        old, new = _records(JOURNAL), _records(path)
        assert list(new) == list(old)
        for key in KINDS:
            assert new[key]["meta"] == old[key]["meta"]
            new_arrays, old_arrays = _npz(new[key]), _npz(old[key])
            assert list(new_arrays) == list(old_arrays)
            for name, arr in old_arrays.items():
                assert new_arrays[name].dtype == arr.dtype, name
                assert np.array_equal(new_arrays[name], arr, equal_nan=True), name


class TestWire:
    @pytest.mark.parametrize("key", KINDS)
    def test_old_payload_decodes(self, key):
        payload = json.loads(WIRE.read_text())[key]
        assert_same_stack(decode_stack_result(payload), build_stacks(FAILURES)[key])

    @pytest.mark.parametrize("key", KINDS)
    def test_encoder_writes_the_old_payload(self, key):
        old = json.loads(WIRE.read_text())[key]
        new = json.loads(json.dumps(encode_stack_result(build_stacks(FAILURES)[key])))
        assert new == old

    def test_trajectory_arrays_decode_as_float(self):
        # Per-scenario fields decode as float even when a peer packs one
        # as integers, as every released decoder has done.
        payload = json.loads(WIRE.read_text())["mva"]
        payload["throughput"] = {
            "__nd__": [3, 4],
            "dtype": "int64",
            "b64": base64.b64encode(np.arange(12).tobytes()).decode("ascii"),
        }
        throughput = decode_stack_result(payload).throughput
        assert throughput.dtype == np.float64
        assert np.array_equal(throughput, np.arange(12.0).reshape(3, 4))
