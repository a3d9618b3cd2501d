"""Wire format of the capacity-planning service.

One request or response per line, UTF-8 JSON (``\\n``-terminated).  A
request names an ``op`` and carries its inputs; a response echoes the
request ``id`` and either ``{"ok": true, "result": ...}`` or
``{"ok": false, "error": {...}}`` — the error envelope reuses the
field vocabulary of :class:`~repro.engine.batched.ScenarioFailure`
(``fingerprint``/``solver``/``error``) so service clients and batch
callers read failures the same way.

Floats ride as JSON numbers, which Python serializes via ``repr`` —
shortest round-trip representation — so a served trajectory compares
**bit-identical** (parity 0.0) to a direct in-process solve; the PERF-04
bench and the CI smoke job assert exactly that.  The bulk arrays of the
execution-fabric ops (``solve_shard`` trajectories, resolved demand
matrices) instead ride as packed buffers of the raw C-order IEEE-754
bytes, which is bit-exact by construction; decoders accept plain nested
lists in the same positions.  A packed buffer takes one of two forms:

* **inline** — ``{"__nd__": shape, "dtype": ..., "b64": ...}``, the
  bytes base64-encoded inside the JSON line;
* **framed** — ``{"__nd__": shape, "dtype": ..., "at": offset}``, the
  bytes at ``offset`` of a binary *frame* that follows the line.

Framed replies
--------------

A ``solve_shard`` request carrying ``"frames": 1`` asks for a framed
reply.  The worker then packs every reply array as a frame reference
and its envelope announces the frame length as ``"frame": nbytes``;
exactly ``nbytes`` raw bytes follow the envelope's ``\n``.  Arrays sit
in the frame in C order, each at an 8-byte aligned offset (zero
padding between them), so the client takes them straight out of the
frame: no base64 and no JSON parse over megabytes on either side.

Compatibility:

* a request without ``frames`` gets the inline (base64) reply, byte for
  byte as before frames existed — an old driver keeps working against a
  new worker;
* an old worker ignores the field and answers inline, which the new
  driver decodes as it always has;
* a reference that points outside the frame (or a frame reference in a
  reply that announced no frame) is a :class:`ProtocolError`.

Requests stay one line: a worker that predates frames could not read a
framed request, so sending one would first need a capability check.

Scenario codec
--------------

.. code-block:: json

    {
      "stations": [
        {"name": "cpu",  "demand": 0.005, "servers": 4},
        {"name": "disk", "demand": {"levels": [1, 100], "values": [0.004, 0.003]}},
        {"name": "net",  "demand": 0.002, "kind": "delay"}
      ],
      "think_time": 1.0,
      "max_population": 280,
      "demand_level": 1.0
    }

Station ``demand`` is a number (constant demand) or a
``{"levels": [...], "values": [...]}`` table — linearly interpolated
against population, the service-side equivalent of the paper's measured
demand curves (fit splines client-side and sample them onto a table to
ship them).

An optional top-level ``"rate_tables": {"station": [mu1, mu2, ...]}``
attaches tabulated load-dependent service-rate laws (flow-equivalent
stations, :mod:`repro.solvers.fes`) — each list must cover populations
``1..max_population``.  The ``compose`` op builds such scenarios
server-side from ``{"stations": [...], "name": ...}`` aggregate groups.

An optional top-level ``"demand_matrix"`` (one ``K``-demand row per
population ``1..max_population``, as nested lists or a packed buffer)
ships a *resolved* varying-demand law exactly — this is how the remote sweep
fabric serializes spline/measured demand curves without shipping the
callables: :func:`encode_scenario` resolves the curve onto the integer
population grid, and the decoded scenario hashes to the **same
fingerprint** as the original, which the ``solve_shard`` op verifies
before solving.

Multi-class scenarios replace the single-class demand fields with a
top-level ``"classes"`` list.  A class with constant demands ships them
as a ``{"station": seconds}`` mapping; a class whose demands vary with
the total population ships a packed ``(max_population, K)``
``"demand_matrix"`` — its demand curves sampled at every total
``1..max_population``, in station order — which decodes back into
interpolated curves.  Because :meth:`WorkloadClass.fingerprint` samples
varying demands at exactly those integer totals (and ``np.interp`` is
exact at its own nodes), the decoded class hashes identically to the
original; station-level ``demand`` entries are ignored by multi-class
solvers and fingerprints, so they ride as ``0.0``.
"""

from __future__ import annotations

import base64
import json
import math
from typing import Any, Mapping

import numpy as np

from ..core.network import ClosedNetwork, Station
from ..core.results import MVAResult
from ..engine.batched import ScenarioFailure, ScenarioStack
from ..solvers.scenario import Scenario, WorkloadClass
from ..solvers.validation import SolverInputError

__all__ = [
    "FrameSink",
    "Framed",
    "ProtocolError",
    "decode_request",
    "decode_scenario",
    "decode_stack_result",
    "encode_result",
    "encode_scenario",
    "encode_stack_result",
    "error_envelope",
    "ok_envelope",
]

#: Hard cap on one request line.  Interactive requests are a few KB, but
#: a ``solve_shard`` of a varying-demand sub-stack legitimately runs to
#: tens of MB (S scenarios × an N×K resolved demand matrix each) — the
#: cap only exists to bound what a malformed or hostile client can make
#: the server buffer.
MAX_LINE_BYTES = 64 * 1024 * 1024

KNOWN_OPS = (
    "ping",
    "solve",
    "solve_stack",
    "solve_shard",
    "whatif",
    "bottlenecks",
    "compose",
    "cache_stats",
    "health",
    "drain",
    "shutdown",
)


class ProtocolError(ValueError):
    """A request the server cannot even begin to execute."""


#: Dtypes a packed array may declare — closed set, so a hostile peer
#: cannot smuggle object arrays through ``np.dtype(...)``.
_PACKED_DTYPES = ("float64", "int64", "int32")

#: Alignment of every array inside a frame (the widest packed itemsize).
_FRAME_ALIGN = 8


class FrameSink:
    """The binary frame of one reply, collected while its arrays are packed.

    ``chunks`` are zero-copy byte views of the packed arrays, with zero
    padding that keeps every offset 8-byte aligned; the server writes
    them after the envelope line, in order.
    """

    __slots__ = ("chunks", "nbytes")

    def __init__(self) -> None:
        self.chunks: list = []
        self.nbytes = 0

    def add(self, arr: np.ndarray) -> int:
        """Append a C-contiguous array; return its offset in the frame."""
        at = self.nbytes
        if arr.nbytes:
            self.chunks.append(memoryview(arr).cast("B"))
        pad = -arr.nbytes % _FRAME_ALIGN
        if pad:
            self.chunks.append(bytes(pad))
        self.nbytes = at + arr.nbytes + pad
        return at


class Framed(dict):
    """A JSON object plus the binary frame its packed arrays point into.

    The dict itself stays plain JSON (``json.dumps`` of it is the
    envelope line); ``frame`` is the :class:`FrameSink` a worker writes
    after that line, or the bytes a client read after it.
    """

    def __init__(self, *args, frame=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.frame = frame


def _pack_array(arr: np.ndarray, frame: FrameSink | None = None) -> dict:
    """Binary wire form of an ndarray: its raw C-order buffer.

    Bit-exact by construction (it *is* the IEEE-754 buffer) and ~50x
    cheaper to encode/decode than nested JSON float lists.  Without a
    ``frame`` the buffer rides inline as base64; with one it is appended
    to the frame and the entry records its offset.
    """
    arr = np.ascontiguousarray(arr)
    if str(arr.dtype) not in _PACKED_DTYPES:
        arr = np.ascontiguousarray(arr, dtype=float)
    packed: dict[str, Any] = {"__nd__": list(arr.shape), "dtype": str(arr.dtype)}
    if frame is None:
        packed["b64"] = base64.b64encode(arr.tobytes()).decode("ascii")
    else:
        packed["at"] = frame.add(arr)
    return packed


def _unpack_array(raw, dtype=None, frame=None) -> np.ndarray:
    """Inverse of :func:`_pack_array`; plain nested lists still decode.

    A framed entry becomes a view into ``frame`` (no copy); one that
    points outside it raises :class:`ProtocolError`.
    """
    if isinstance(raw, Mapping) and "__nd__" in raw:
        declared = str(raw["dtype"])
        if declared not in _PACKED_DTYPES:
            raise ProtocolError(f"packed array dtype {declared!r} not allowed")
        shape = [int(d) for d in raw["__nd__"]]
        if "at" in raw:
            arr = _frame_view(frame, raw["at"], shape, np.dtype(declared))
        else:
            flat = np.frombuffer(base64.b64decode(raw["b64"]), dtype=np.dtype(declared))
            arr = flat.reshape(shape).copy()
        return arr if dtype is None else np.ascontiguousarray(arr, dtype=dtype)
    return np.asarray(raw) if dtype is None else np.asarray(raw, dtype=dtype)


def _frame_view(frame, at, shape: list[int], dtype: np.dtype) -> np.ndarray:
    if frame is None:
        raise ProtocolError("packed array refers to a frame, but none was sent")
    if isinstance(at, bool) or not isinstance(at, int) or min(shape, default=0) < 0:
        raise ProtocolError(f"malformed frame reference at={at!r} shape={shape!r}")
    count = math.prod(shape)
    if at < 0 or at + count * dtype.itemsize > len(frame):
        raise ProtocolError(
            f"packed array [{at}, {at + count * dtype.itemsize}) falls outside "
            f"the {len(frame)}-byte frame"
        )
    return np.frombuffer(frame, dtype=dtype, count=count, offset=at).reshape(shape)


class _InterpTable:
    """Picklable linear-interpolation demand curve from a wire table."""

    __slots__ = ("levels", "values")

    def __init__(self, levels, values) -> None:
        self.levels = np.asarray(levels, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.levels.ndim != 1 or self.levels.shape != self.values.shape:
            raise ProtocolError("demand table: levels/values must be equal-length lists")
        if len(self.levels) < 2:
            raise ProtocolError("demand table needs at least two points")
        if not np.all(np.diff(self.levels) > 0):
            raise ProtocolError("demand table levels must be strictly increasing")

    def __call__(self, n):
        return np.interp(np.asarray(n, dtype=float), self.levels, self.values)


def _decode_demand(raw) -> float | _InterpTable:
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return float(raw)
    if isinstance(raw, Mapping) and "levels" in raw and "values" in raw:
        return _InterpTable(raw["levels"], raw["values"])
    raise ProtocolError(
        f"station demand must be a number or {{levels, values}} table, got {raw!r}"
    )


def _encode_class(cls: WorkloadClass, scenario: Scenario) -> dict:
    """Wire form of one :class:`WorkloadClass` (see module docstring)."""
    entry: dict[str, Any] = {
        "name": cls.name,
        "population": int(cls.population),
        "think_time": float(cls.think_time),
    }
    names = scenario.station_names
    if cls.has_varying_demands:
        sampled = np.stack(
            [
                cls.demand_vector(names, float(level))
                for level in range(1, scenario.max_population + 1)
            ]
        )
        entry["demand_matrix"] = _pack_array(sampled)
    else:
        entry["demands"] = {
            name: float(v) for name, v in zip(names, cls.demand_vector(names, 1.0))
        }
    return entry


def _decode_class(
    raw: Mapping[str, Any], station_names: tuple[str, ...], max_population: int
) -> WorkloadClass:
    """Inverse of :func:`_encode_class`."""
    if not isinstance(raw, Mapping) or "name" not in raw or "population" not in raw:
        raise ProtocolError("each class needs at least name and population")
    if "demands" in raw:
        demands_raw = raw["demands"]
        if not isinstance(demands_raw, Mapping):
            raise ProtocolError("class demands must map station names to numbers")
        demands: dict[str, float | _InterpTable] = {
            str(name): float(v) for name, v in demands_raw.items()
        }
    elif "demand_matrix" in raw:
        try:
            matrix = _unpack_array(raw["demand_matrix"], dtype=float)
        except ProtocolError:
            raise
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"class demand_matrix is not numeric: {exc}") from None
        if matrix.shape != (max_population, len(station_names)):
            raise ProtocolError(
                f"class demand_matrix must have shape "
                f"({max_population}, {len(station_names)}), got {matrix.shape}"
            )
        if max_population == 1:
            # One sampled total: the "curve" is a point, so it decodes as
            # a constant (``fingerprint`` then samples at level 1.0 —
            # the same value the matrix row holds).
            demands = {name: float(matrix[0, k]) for k, name in enumerate(station_names)}
        else:
            levels = np.arange(1, max_population + 1, dtype=float)
            demands = {
                name: _InterpTable(levels, matrix[:, k])
                for k, name in enumerate(station_names)
            }
    else:
        raise ProtocolError(
            f"class {raw.get('name')!r} needs demands or a demand_matrix"
        )
    try:
        return WorkloadClass(
            name=str(raw["name"]),
            population=int(raw["population"]),
            demands=demands,
            think_time=float(raw.get("think_time", 0.0)),
        )
    except (SolverInputError, ValueError) as exc:
        raise ProtocolError(f"class rejected: {exc}") from None


def decode_scenario(payload: Mapping[str, Any]) -> Scenario:
    """Build a validated :class:`Scenario` from its wire representation."""
    if not isinstance(payload, Mapping):
        raise ProtocolError(f"scenario must be an object, got {type(payload).__name__}")
    try:
        raw_stations = payload["stations"]
        max_population = payload["max_population"]
    except KeyError as exc:
        raise ProtocolError(f"scenario is missing required key {exc.args[0]!r}") from None
    if not isinstance(raw_stations, list) or not raw_stations:
        raise ProtocolError("scenario.stations must be a non-empty list")
    stations = []
    for idx, st in enumerate(raw_stations):
        if not isinstance(st, Mapping) or "name" not in st or "demand" not in st:
            raise ProtocolError(f"station #{idx} needs at least name and demand")
        stations.append(
            Station(
                str(st["name"]),
                _decode_demand(st["demand"]),
                servers=int(st.get("servers", 1)),
                visits=float(st.get("visits", 1.0)),
                kind=str(st.get("kind", "queue")),
            )
        )
    network = ClosedNetwork(
        stations,
        think_time=float(payload.get("think_time", 0.0)),
        name=str(payload.get("name", "served")),
    )
    rate_tables = payload.get("rate_tables")
    if rate_tables is not None and not isinstance(rate_tables, Mapping):
        raise ProtocolError("scenario.rate_tables must map station names to lists")
    demand_matrix = payload.get("demand_matrix")
    if demand_matrix is not None:
        try:
            demand_matrix = _unpack_array(demand_matrix, dtype=float)
        except ProtocolError:
            raise
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"scenario.demand_matrix is not numeric: {exc}") from None
        if demand_matrix.ndim != 2:
            raise ProtocolError(
                "scenario.demand_matrix must be an (N, K) list of demand rows"
            )
    classes = None
    raw_classes = payload.get("classes")
    if raw_classes is not None:
        if not isinstance(raw_classes, list) or not raw_classes:
            raise ProtocolError("scenario.classes must be a non-empty list")
        if demand_matrix is not None:
            raise ProtocolError(
                "scenario: classes and demand_matrix are mutually exclusive"
            )
        names = tuple(str(st["name"]) for st in raw_stations)
        classes = tuple(
            _decode_class(raw, names, int(max_population)) for raw in raw_classes
        )
    try:
        return Scenario(
            network,
            max_population=int(max_population),
            demand_matrix=demand_matrix,
            demand_level=float(payload.get("demand_level", 1.0)),
            classes=classes,
            rate_tables=rate_tables,
        )
    except ValueError as exc:
        raise ProtocolError(f"scenario rejected: {exc}") from None


def encode_scenario(scenario: Scenario) -> dict:
    """Wire representation of a :class:`Scenario` — inverse of
    :func:`decode_scenario`.

    Varying demand models (splines, measured curves, demand matrices)
    are *resolved* onto the integer population grid and shipped as the
    top-level ``"demand_matrix"``; constant demands ride as plain
    station numbers.  Because :meth:`Scenario.fingerprint` hashes the
    resolved matrix — not the callables — the decoded scenario hashes
    identically whenever ``demand_level`` sits on the population grid,
    which the remote capability probe checks up front and the
    ``solve_shard`` op re-verifies per scenario.

    Multi-class scenarios ship a top-level ``"classes"`` list instead
    of per-station demands (see module docstring): constant class
    demands as mappings, varying ones sampled onto the integer
    total-population grid — fingerprint-identical on decode, because
    class fingerprints hash exactly those samples.
    """
    if scenario.is_multiclass:
        demands = np.zeros(len(scenario.network))
    else:
        demands = scenario.fixed_demands()
    stations = []
    for st, demand in zip(scenario.network.stations, demands):
        entry: dict[str, Any] = {"name": st.name, "demand": float(demand)}
        if st.servers != 1:
            entry["servers"] = int(st.servers)
        if st.visits != 1.0:
            entry["visits"] = float(st.visits)
        if st.kind != "queue":
            entry["kind"] = st.kind
        stations.append(entry)
    payload: dict[str, Any] = {
        "stations": stations,
        "think_time": float(scenario.think),
        "max_population": int(scenario.max_population),
        "demand_level": float(scenario.demand_level),
        "name": scenario.network.name,
    }
    if scenario.is_multiclass:
        payload["classes"] = [_encode_class(c, scenario) for c in scenario.classes]
    elif scenario.has_varying_demands:
        payload["demand_matrix"] = _pack_array(
            np.asarray(scenario.resolved_demand_matrix(), dtype=float)
        )
    if scenario.rate_tables:
        payload["rate_tables"] = {
            name: [float(v) for v in table]
            for name, table in scenario.rate_tables.items()
        }
    return payload


def _encode_failures(result) -> list[dict]:
    return [
        {
            "index": f.index,
            "fingerprint": f.fingerprint,
            "solver": f.solver,
            "error": f.error,
            "retries": f.retries,
        }
        for f in result.failures
    ]


def _decode_failures(payload) -> tuple[ScenarioFailure, ...]:
    return tuple(
        ScenarioFailure(
            index=int(f["index"]),
            fingerprint=str(f["fingerprint"]),
            solver=str(f["solver"]),
            error=str(f["error"]),
            retries=int(f.get("retries", 0)),
        )
        for f in payload["failures"]
    )


#: Wire ``kind`` of each stack container, by its journal ``container`` tag.
_STACK_KINDS = {
    "mva": "batched-stack",
    "multiclass": "multiclass-stack",
    "multiclass-trajectory": "multiclass-trajectory-stack",
}
_STACK_TAGS = {kind: tag for tag, kind in _STACK_KINDS.items()}


def encode_stack_result(result, frame: FrameSink | None = None) -> dict:
    """JSON-ready form of a batched sub-stack (the ``solve_shard`` body).

    The container's :meth:`~repro.engine.batched.ScenarioStack.to_arrays`
    view, with every array packed via :func:`_pack_array` (the raw
    IEEE-754 buffer, so round-trips are bit-exact and cost memcpy, not
    float parsing) — inline, or into ``frame`` when one is given — plus
    the isolated-failure records so a remote shard degrades exactly like
    a local one.  The ``kind`` names the container: ``batched-stack``
    (single-class), ``multiclass-stack`` (full-population multi-class,
    whose ``populations`` rides as a plain list) or
    ``multiclass-trajectory-stack`` (mix sweeps).
    """
    if not isinstance(result, ScenarioStack):
        raise ProtocolError(
            f"only batched stacks cross the wire, got {type(result).__name__}"
        )
    arrays, meta = result.to_arrays()
    payload = {"kind": _STACK_KINDS[meta.pop("container")], **meta}
    for name, value in arrays.items():
        if value is None:
            payload[name] = None
        elif isinstance(value, np.ndarray):
            payload[name] = _pack_array(value, frame)
        else:
            payload[name] = list(value)
    payload["failures"] = _encode_failures(result)
    return payload


def decode_stack_result(payload: Mapping[str, Any], frame=None):
    """Rebuild the batched result a worker shipped back.

    ``frame`` is the reply's binary frame when it announced one (see the
    module docstring); its arrays become views into it.
    """
    try:
        kind = payload.get("kind")
        tag = _STACK_TAGS.get(kind)
        if tag is None:
            raise ValueError(f"unknown stack-result kind {kind!r}")
        arrays = {
            name: _unpack_array(payload[name], frame=frame)
            for name in ScenarioStack.containers[tag].LAYOUT
            if payload.get(name) is not None
        }
        return ScenarioStack.from_arrays(
            arrays, {**payload, "container": tag}, _decode_failures(payload)
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed stack result: {exc}") from None


def decode_request(line: bytes) -> dict:
    """Parse one request line; raises :class:`ProtocolError` on junk."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"request exceeds {MAX_LINE_BYTES} bytes")
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    if not isinstance(request, dict):
        raise ProtocolError("request must be a JSON object")
    op = request.get("op")
    if op not in KNOWN_OPS:
        raise ProtocolError(f"unknown op {op!r}; known: {', '.join(KNOWN_OPS)}")
    return request


def encode_result(result) -> dict:
    """JSON-ready representation of a facade result.

    :class:`MVAResult` trajectories serialize as parallel lists (floats
    round-trip exactly); other result kinds fall back to their summary
    line so every op can at least report what it computed.
    """
    if isinstance(result, MVAResult):
        return {
            "kind": "mva",
            "solver": result.solver,
            "station_names": list(result.station_names),
            "think_time": result.think_time,
            "populations": result.populations.tolist(),
            "throughput": result.throughput.tolist(),
            "response_time": result.response_time.tolist(),
            "cycle_time": result.cycle_time.tolist(),
            "queue_lengths": result.queue_lengths.tolist(),
            "utilizations": result.utilizations.tolist(),
        }
    if hasattr(result, "summary"):
        return {"kind": type(result).__name__, "summary": result.summary()}
    return {"kind": type(result).__name__, "repr": repr(result)}


def ok_envelope(request_id, result, provenance=None) -> dict:
    """Success envelope; a :class:`Framed` result announces its frame."""
    envelope = {"id": request_id, "ok": True, "result": result}
    if provenance is not None:
        envelope["provenance"] = provenance
    frame = getattr(result, "frame", None)
    if frame is not None:
        envelope = Framed(envelope, frame=frame)
        envelope["frame"] = frame.nbytes
    return envelope


def error_envelope(
    request_id,
    exc: BaseException,
    *,
    fingerprint: str | None = None,
    solver: str | None = None,
) -> dict:
    """Structured failure mirroring ``ScenarioFailure`` field names."""
    return {
        "id": request_id,
        "ok": False,
        "error": {
            "type": type(exc).__name__,
            "error": str(exc),
            "fingerprint": fingerprint,
            "solver": solver,
        },
    }
