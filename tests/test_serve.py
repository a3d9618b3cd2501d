"""The ``repro serve`` service: protocol, provenance, restarts, timeouts.

The tentpole acceptance claims live here: a long-lived process answers
solve / what-if / bottleneck queries over JSON lines, served results are
*exactly* equal to direct solves (floats round-trip through JSON), and
a restarted server is warm because the sqlite tier survives it.
"""

from __future__ import annotations

import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.cli import main as cli_main
from repro.serve import ServeClient, ServeError, decode_scenario, encode_result
from repro.serve.protocol import (
    FrameSink,
    Framed,
    ProtocolError,
    decode_request,
    decode_stack_result,
    encode_stack_result,
    error_envelope,
    ok_envelope,
)
from repro.serve.server import SolverServer, _provenance_counts, _provenance_label
from repro.solvers import Scenario, solve
from tests.fixtures.stack_compat import WIRE, FAILURES, assert_same_stack, build_stacks

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _scenario_payload(cpu=0.05, disk=0.08, n=40):
    # Single-server stations: the requests below force method="exact-mva",
    # which the facade now rejects for servers>1 scenarios.
    return {
        "stations": [
            {"name": "cpu", "demand": cpu},
            {"name": "disk", "demand": disk},
        ],
        "think_time": 1.0,
        "max_population": n,
    }


def _start_server(cache_path=None, timeout=None, extra=()):
    """Launch ``repro serve --port 0`` and scrape the bound port."""
    cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
    if cache_path is not None:
        cmd += ["--cache-path", cache_path]
    if timeout is not None:
        cmd += ["--timeout", str(timeout)]
    cmd += list(extra)
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        cwd=REPO_ROOT,
    )
    deadline = time.monotonic() + 30.0
    while True:
        line = proc.stdout.readline()
        if "listening on" in line:
            port = int(line.rsplit(":", 1)[1])
            return proc, port
        if not line and proc.poll() is not None:
            raise RuntimeError(f"serve died before binding (rc={proc.returncode})")
        if time.monotonic() > deadline:
            proc.kill()
            raise RuntimeError("serve never announced its port")


def _stop_server(proc, port):
    try:
        with ServeClient(port=port, timeout=10.0) as client:
            client.shutdown()
    except Exception:
        proc.terminate()
    try:
        proc.wait(timeout=60.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10.0)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One shared server (sqlite-backed) for the read-only protocol tests."""
    db = str(tmp_path_factory.mktemp("serve") / "cache.sqlite")
    proc, port = _start_server(cache_path=db)
    yield {"port": port, "db": db}
    _stop_server(proc, port)


# -- protocol units (no sockets) ---------------------------------------------


class TestProtocol:
    def test_decode_scenario_round_trip(self):
        payload = _scenario_payload()
        payload["stations"][0]["servers"] = 2
        sc = decode_scenario(payload)
        assert sc.max_population == 40
        net = sc.resolved_network()
        assert [st.name for st in net.stations] == ["cpu", "disk"]
        assert net.stations[0].servers == 2
        assert net.think_time == 1.0

    def test_decode_scenario_demand_table(self):
        payload = _scenario_payload()
        payload["stations"][0]["demand"] = {"levels": [1, 100], "values": [0.4, 0.1]}
        sc = decode_scenario(payload)
        fn = sc.resolved_network().stations[0].demand
        assert float(fn(1)) == 0.4
        assert float(fn(100)) == pytest.approx(0.1)
        assert 0.1 < float(fn(50)) < 0.4

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda p: p.pop("max_population"), "missing required key"),
            (lambda p: p.update(stations=[]), "non-empty list"),
            (lambda p: p["stations"][0].pop("demand"), "name and demand"),
            (
                lambda p: p["stations"][0].update(demand={"levels": [1], "values": [2]}),
                "two points",
            ),
            (
                lambda p: p["stations"][0].update(
                    demand={"levels": [5, 1], "values": [1, 2]}
                ),
                "strictly increasing",
            ),
        ],
    )
    def test_decode_scenario_rejects_junk(self, mutate, message):
        payload = _scenario_payload()
        mutate(payload)
        with pytest.raises(ProtocolError, match=message):
            decode_scenario(payload)

    def test_decode_request_rejects_junk(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_request(b"{nope")
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_request(b"[1, 2]")
        with pytest.raises(ProtocolError, match="unknown op"):
            decode_request(b'{"op": "explode"}')

    def test_non_finite_think_time_rejected_on_decode(self):
        # json.loads accepts the NaN literal, so the wire can carry one.
        scenario = json.dumps(_scenario_payload()).replace('"think_time": 1.0', '"think_time": NaN')
        request = decode_request(f'{{"op": "solve", "scenario": {scenario}}}'.encode())
        assert np.isnan(request["scenario"]["think_time"])
        with pytest.raises(ValueError, match="think_time"):
            repro.solve(decode_scenario(request["scenario"]), method="mvasd", cache=None)

    def test_encode_result_floats_round_trip_exactly(self, two_station_net):
        result = solve(Scenario(two_station_net, 30), method="exact-mva", cache=None)
        wire = json.loads(json.dumps(encode_result(result)))
        assert wire["kind"] == "mva"
        assert np.array_equal(np.array(wire["throughput"]), result.throughput)
        assert np.array_equal(np.array(wire["queue_lengths"]), result.queue_lengths)

    def test_solve_at_builds_only_the_snapshot(self, monkeypatch):
        from repro.serve import server as server_mod
        from repro.solvers import SolverCache

        calls = []

        def counting(result):
            calls.append(result)
            return encode_result(result)

        monkeypatch.setattr(server_mod, "encode_result", counting)
        srv = server_mod.SolverServer(port=0, cache=SolverCache(maxsize=4))
        request = {"scenario": _scenario_payload(n=25), "method": "exact-mva"}
        snapshot, _ = srv._op_solve({**request, "at": 25})
        assert snapshot["kind"] == "at" and calls == []
        full, _ = srv._op_solve(request)
        assert full["kind"] == "mva" and len(calls) == 1

    def test_error_envelope_mirrors_scenario_failure(self):
        env = error_envelope(7, ValueError("boom"), fingerprint="fp", solver="mvasd")
        assert env["ok"] is False and env["id"] == 7
        assert env["error"] == {
            "type": "ValueError",
            "error": "boom",
            "fingerprint": "fp",
            "solver": "mvasd",
        }

    def test_provenance_label_priority(self):
        class Snap:
            def __init__(self, **kw):
                fields = (
                    "hits persistent_hits trajectory_hits trajectory_extends "
                    "misses uncacheable"
                ).split()
                for f in fields:
                    setattr(self, f, kw.get(f, 0))

        counts = _provenance_counts(Snap(), Snap(misses=1))
        assert counts["cold"] == 1
        assert _provenance_label(counts) == "cold"
        counts = _provenance_counts(Snap(), Snap(misses=1, trajectory_hits=1))
        assert counts["cold"] == 0
        assert _provenance_label(counts) == "trajectory-prefix"
        assert _provenance_label(_provenance_counts(Snap(), Snap(hits=1))) == "memory"
        assert _provenance_label(_provenance_counts(Snap(), Snap())) == "uncached"


# -- the live server ----------------------------------------------------------


class TestServe:
    def test_ping(self, server):
        with ServeClient(port=server["port"]) as client:
            pong = client.ping()
        assert pong["pong"] is True and pong["pid"] > 0

    def test_solve_parity_and_provenance(self, server):
        payload = _scenario_payload(n=40)
        with ServeClient(port=server["port"]) as client:
            first = client.request(
                {"op": "solve", "scenario": payload, "method": "exact-mva"}
            )
            second = client.request(
                {"op": "solve", "scenario": payload, "method": "exact-mva"}
            )
        assert first["ok"] and first["provenance"] == "cold"
        assert second["ok"] and second["provenance"] == "memory"
        direct = solve(decode_scenario(payload), method="exact-mva", cache=None)
        served = np.array(first["result"]["throughput"])
        assert np.array_equal(served, direct.throughput)  # parity 0.0
        assert np.array_equal(np.array(second["result"]["throughput"]), direct.throughput)

    def test_solve_at_snapshot(self, server):
        payload = _scenario_payload(cpu=0.06, n=30)
        with ServeClient(port=server["port"]) as client:
            result = client.solve(payload, method="exact-mva", at=30)
        assert result["kind"] == "at"
        direct = solve(decode_scenario(payload), method="exact-mva", cache=None)
        assert result["throughput"] == direct.at(30)["throughput"]

    def test_whatif_rides_the_trajectory(self, server):
        payload = _scenario_payload(cpu=0.07, n=50)
        with ServeClient(port=server["port"]) as client:
            deep = client.request(
                {"op": "solve", "scenario": payload, "method": "exact-mva"}
            )
            envelope = client.request(
                {
                    "op": "whatif",
                    "scenario": payload,
                    "populations": [10, 25, 40],
                    "method": "exact-mva",
                }
            )
        assert deep["ok"] and envelope["ok"]
        assert envelope["provenance"] == {
            "memory": 0,
            "persistent": 0,
            "trajectory-prefix": 3,
            "trajectory-extend": 0,
            "cold": 0,
            "uncacheable": 0,
        }
        snapshots = envelope["result"]["snapshots"]
        assert [s["population"] for s in snapshots] == [10, 25, 40]
        for snap in snapshots:
            direct = solve(
                decode_scenario({**payload, "max_population": snap["population"]}),
                method="exact-mva",
                cache=None,
            )
            assert snap["throughput"] == direct.at(snap["population"])["throughput"]

    def test_solve_stack(self, server):
        scenarios = [_scenario_payload(cpu=c, n=20) for c in (0.04, 0.05, 0.09)]
        with ServeClient(port=server["port"]) as client:
            result = client.call("solve_stack", scenarios=scenarios, method="exact-mva")
        assert result["kind"] == "batched"
        assert result["count"] == 3 and result["failures"] == []
        assert len(result["peak_throughput"]) == 3
        # heavier demand -> lower peak throughput
        assert result["peak_throughput"][0] > result["peak_throughput"][2]

    def test_solve_stack_isolated_failure_wire_bytes(self):
        # The summary reply carries failure records in the same encoding
        # as the full stack codec; pin the bytes a client reads.
        proc, port = _start_server(extra=("--inject-faults", "raise-in-kernel@scenario=1"))
        scenarios = [_scenario_payload(cpu=c, n=20) for c in (0.04, 0.05, 0.09)]
        request = {"id": 7, "op": "solve_stack", "scenarios": scenarios, "method": "exact-mva"}
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
                sock.sendall(json.dumps(request).encode() + b"\n")
                reply = sock.makefile("rb").readline()
        finally:
            _stop_server(proc, port)
        fingerprint = decode_scenario(scenarios[1]).fingerprint()
        failures = (
            '"failures": [{"index": 1, "fingerprint": "' + fingerprint + '", '
            '"solver": "exact-mva", "error": "InjectedFault: injected '
            'raise-in-kernel at kernel (shard=None, scenario=1, attempt=0)", '
            '"retries": 0}]'
        )
        assert failures.encode() in reply
        result = json.loads(reply)["result"]
        assert result["count"] == 3
        assert np.isnan(result["peak_throughput"][1])

    def test_bottlenecks(self, server):
        payload = _scenario_payload(cpu=0.03, disk=0.11, n=25)
        with ServeClient(port=server["port"]) as client:
            result = client.call("bottlenecks", scenario=payload)
        assert result["kind"] == "bottlenecks"
        assert result["stations"][0] == "disk"  # largest demand dominates
        assert result["population"] == 25

    def test_compose_hierarchy_with_flat_check(self, server):
        payload = {
            "stations": [
                {"name": "gw", "demand": 0.012, "servers": 2},
                {"name": "srv", "demand": 0.02, "servers": 4},
                {"name": "disk1", "demand": 0.03},
                {"name": "disk2", "demand": 0.025},
            ],
            "think_time": 1.0,
            "max_population": 40,
        }
        groups = [
            {"stations": ["disk1", "disk2"], "name": "disks"},
            {"stations": ["srv", "disks"], "name": "server"},
        ]
        with ServeClient(port=server["port"]) as client:
            first = client.request(
                {
                    "op": "compose",
                    "scenario": payload,
                    "aggregates": groups,
                    "flat_check": True,
                }
            )
            second = client.request(
                {
                    "op": "compose",
                    "scenario": payload,
                    "aggregates": groups,
                    "flat_check": True,
                }
            )
        assert first["ok"] and second["ok"]
        result = first["result"]
        assert result["composition"]["stations"] == ["gw", "server"]
        names = [a["name"] for a in result["composition"]["aggregates"]]
        assert names == ["disks", "server"]
        for agg in result["composition"]["aggregates"]:
            assert agg["max_population"] == 40
            assert len(agg["source_fingerprint"]) == 64
        assert result["flat_parity"] <= 1e-8
        assert len(result["throughput"]) == 40
        # every subsystem solve of the repeat is a memory hit
        assert second["provenance"] == "memory"
        assert second["result"]["throughput"] == result["throughput"]

    def test_compose_options_go_to_the_named_method(self):
        # station_detail is exact-multiserver-mva's option; the composed
        # scenario's ld-mva solve must not be handed it
        request = {
            "scenario": {
                "stations": [
                    {"name": "a", "demand": 0.02, "servers": 2},
                    {"name": "b", "demand": 0.03},
                    {"name": "c", "demand": 0.01},
                ],
                "think_time": 1.0,
                "max_population": 20,
            },
            "method": "exact-multiserver-mva",
            "options": {"station_detail": False},
            "aggregates": [{"stations": ["b", "c"], "name": "bc"}],
            "flat_check": True,
        }
        payload, _ = SolverServer(port=0)._op_compose(request)
        assert payload["composition"]["aggregates"][0]["solver"] == "exact-multiserver-mva"
        assert payload["flat_parity"] <= 1e-8

    def test_compose_rejects_empty_aggregates(self, server):
        payload = _scenario_payload(n=10)
        with ServeClient(port=server["port"]) as client:
            with pytest.raises(ServeError) as excinfo:
                client.call("compose", scenario=payload, aggregates=[])
        assert "non-empty aggregates list" in excinfo.value.envelope["error"]["error"]

    def test_rate_tables_scenario_over_the_wire(self, server):
        n = 12
        payload = {
            "stations": [
                {"name": "cpu", "demand": 0.05},
                {"name": "disk", "demand": 0.08},
            ],
            "think_time": 1.0,
            "max_population": n,
            "rate_tables": {"cpu": [min(j, 3) / 0.05 for j in range(1, n + 1)]},
        }
        with ServeClient(port=server["port"]) as client:
            result = client.solve(payload)
        assert result["solver"] == "exact-load-dependent-mva"
        direct = solve(decode_scenario(payload), cache=None)
        assert np.array_equal(np.array(result["throughput"]), direct.throughput)

    def test_error_envelope_for_bad_scenario(self, server):
        with ServeClient(port=server["port"]) as client:
            with pytest.raises(ServeError) as excinfo:
                client.solve({"stations": [], "max_population": 10})
        error = excinfo.value.envelope["error"]
        assert error["type"] == "ProtocolError"
        assert "non-empty list" in error["error"]

    def test_error_envelope_for_non_finite_think_time(self, server):
        payload = _scenario_payload()
        payload["think_time"] = float("nan")
        with ServeClient(port=server["port"]) as client:
            with pytest.raises(ServeError) as excinfo:
                client.solve(payload, method="mvasd")
        assert "think_time" in excinfo.value.envelope["error"]["error"]

    def test_error_envelope_for_an_option_the_method_ignores(self, server):
        with ServeClient(port=server["port"]) as client:
            envelope = client.request(
                {
                    "op": "solve",
                    "method": "exact-mva",
                    "scenario": _scenario_payload(),
                    "options": {"demand_axis": "throughput"},
                }
            )
        assert envelope["ok"] is False
        assert envelope["error"]["type"] == "SolverInputError"
        assert "accepted: single_server" in envelope["error"]["error"]

    def test_error_envelope_for_unknown_op(self, server):
        with ServeClient(port=server["port"]) as client:
            envelope = client.request({"op": "explode"})
        assert envelope["ok"] is False
        assert "unknown op" in envelope["error"]["error"]

    def test_junk_line_answers_instead_of_killing_connection(self, server):
        with ServeClient(port=server["port"]) as client:
            client._file.write(b"{not json\n")
            client._file.flush()
            envelope = json.loads(client._readline_bounded())
            assert envelope["ok"] is False
            assert client.ping()["pong"] is True  # connection still alive

    def test_cache_stats_op(self, server):
        with ServeClient(port=server["port"]) as client:
            stats = client.cache_stats()
        assert stats["requests_handled"] > 0
        assert stats["persistent"]["path"] == server["db"]
        assert "trajectory" in stats

    def test_query_cli(self, server, capsys):
        rc = cli_main(
            ["query", '{"op": "ping"}', "--port", str(server["port"])]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert json.loads(out)["result"]["pong"] is True

    def test_query_cli_error_exit_code(self, server, capsys):
        rc = cli_main(
            [
                "query",
                '{"op": "solve", "scenario": {"stations": [], "max_population": 3}}',
                "--port",
                str(server["port"]),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert json.loads(out)["ok"] is False


# -- lifecycle: restarts and timeouts (dedicated servers) ---------------------


class TestServeLifecycle:
    def test_restart_is_warm_from_persistent_tier(self, tmp_path):
        """The tentpole claim: the sqlite tier outlives the process."""
        db = str(tmp_path / "cache.sqlite")
        payload = _scenario_payload(n=35)
        request = {"op": "solve", "scenario": payload, "method": "exact-mva"}

        proc, port = _start_server(cache_path=db)
        try:
            with ServeClient(port=port) as client:
                cold = client.request(request)
        finally:
            _stop_server(proc, port)
        assert cold["provenance"] == "cold"
        assert proc.returncode == 0

        proc, port = _start_server(cache_path=db)
        try:
            with ServeClient(port=port) as client:
                warm = client.request(request)
                # the persistent hit re-seeds the trajectory store
                prefix = client.request(
                    {
                        "op": "solve",
                        "scenario": {**payload, "max_population": 12},
                        "method": "exact-mva",
                    }
                )
        finally:
            _stop_server(proc, port)
        assert warm["provenance"] == "persistent"
        assert warm["result"]["throughput"] == cold["result"]["throughput"]
        assert prefix["provenance"] == "trajectory-prefix"

    def test_request_timeout_answers_with_envelope(self):
        proc, port = _start_server(timeout=0.1)
        try:
            with ServeClient(port=port, timeout=30.0) as client:
                envelope = client.request(
                    {
                        "op": "solve",
                        "scenario": _scenario_payload(n=200_000),
                        "method": "exact-mva",
                    }
                )
                assert envelope["ok"] is False
                assert envelope["error"]["type"] == "TimeoutError"
                assert "0.1s request timeout" in envelope["error"]["error"]
        finally:
            _stop_server(proc, port)


# -- client response correlation (scripted fake server) ------------------------


class _ScriptedServer:
    """A raw TCP stub standing in for repro-serve in client-protocol tests."""

    def __init__(self, handler):
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(1)
        self.port = self._sock.getsockname()[1]
        self._handler = handler
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        conn, _ = self._sock.accept()
        try:
            self._handler(conn.makefile("rwb"))
        except (OSError, ValueError):
            pass
        finally:
            conn.close()

    def close(self):
        self._sock.close()
        self._thread.join(timeout=5.0)


def _reply(f, request_id, **extra):
    f.write(json.dumps({"ok": True, "id": request_id, "result": extra}).encode() + b"\n")


class TestClientCorrelation:
    def test_mismatched_response_id_desynchronizes(self):
        def handler(f):
            f.readline()
            _reply(f, 999_999)  # an id the client never sent
            f.flush()

        srv = _ScriptedServer(handler)
        try:
            with ServeClient(port=srv.port, timeout=5.0) as client:
                with pytest.raises(ConnectionError, match="desynchronized"):
                    client.request({"op": "ping"})
        finally:
            srv.close()

    def test_late_reply_after_timeout_is_skipped(self):
        """The delayed-response regression: a stale answer must not be
        mis-delivered to the *next* request on the same connection."""
        ids = []

        def handler(f):
            ids.append(json.loads(f.readline())["id"])
            time.sleep(0.5)  # past the client's read timeout
            ids.append(json.loads(f.readline())["id"])
            for request_id in ids:  # stale answer first, then the real one
                _reply(f, request_id, seq=request_id)
            f.flush()

        srv = _ScriptedServer(handler)
        try:
            with ServeClient(port=srv.port, timeout=0.2) as client:
                with pytest.raises(OSError):
                    client.request({"op": "ping"})
                client._sock.settimeout(10.0)  # only the first read times out
                envelope = client.request({"op": "ping"})
            assert len(ids) == 2 and ids[0] != ids[1]
            assert envelope["id"] == ids[1]
            assert envelope["result"]["seq"] == ids[1]
        finally:
            srv.close()

    def test_oversized_response_line_rejected(self, monkeypatch):
        import repro.serve.client as client_mod

        monkeypatch.setattr(client_mod, "MAX_LINE_BYTES", 1024)

        def handler(f):
            f.readline()
            f.write(b"x" * 5000 + b"\n")
            f.flush()

        srv = _ScriptedServer(handler)
        try:
            with ServeClient(port=srv.port, timeout=5.0) as client:
                with pytest.raises(ConnectionError, match="exceeds 1024 bytes"):
                    client.request({"op": "ping"})
        finally:
            srv.close()

    def test_eof_mid_line_raises_connection_error(self):
        """A reply cut short by the peer closing must not reach json.loads."""

        def handler(f):
            request_id = json.loads(f.readline())["id"]
            line = json.dumps({"ok": True, "id": request_id, "result": {}}).encode()
            f.write(line[: len(line) // 2])  # half a line, then close
            f.flush()

        srv = _ScriptedServer(handler)
        try:
            with ServeClient(port=srv.port, timeout=5.0) as client:
                with pytest.raises(ConnectionError, match="mid-reply"):
                    client.request({"op": "ping"})
        finally:
            srv.close()


# -- the bounded line reader (scripted socket, no network) ---------------------


class _ChunkedSocket:
    """A socket whose ``recv`` hands out scripted chunks, one per call.

    A chunk that is an exception instance is raised instead (a socket
    timeout); an exhausted script reads as EOF.  Before every ``recv``
    it records how much of the client's buffer was already searched, so
    a test can check that no received byte is searched twice.
    """

    def __init__(self, chunks):
        self.chunks = list(chunks)
        self.client = None
        self.unsearched = []

    def recv(self, size):
        if self.client is not None:
            scanned = getattr(self.client, "_scanned", 0)
            self.unsearched.append(len(self.client._rbuf) - scanned)
        if not self.chunks:
            return b""
        chunk = self.chunks.pop(0)
        if isinstance(chunk, BaseException):
            raise chunk
        return chunk

    def recv_into(self, buf):
        data = self.recv(len(buf))
        n = min(len(buf), len(data))
        buf[:n] = data[:n]
        if n < len(data):
            self.chunks.insert(0, data[n:])
        return n

    def settimeout(self, timeout):
        pass

    def makefile(self, mode):
        return io.BytesIO()

    def close(self):
        pass


@pytest.fixture
def chunked_client(monkeypatch):
    """``ServeClient`` over a :class:`_ChunkedSocket` scripted with ``chunks``."""

    def make(chunks):
        sock = _ChunkedSocket(chunks)
        monkeypatch.setattr(socket, "create_connection", lambda *a, **kw: sock)
        client = ServeClient(port=1, timeout=5.0)
        sock.client = client
        return client, sock

    return make


class TestLineReader:
    def test_line_split_over_many_chunks(self, chunked_client):
        line = json.dumps({"ok": True, "id": 1, "result": {"x": "y" * 5000}}).encode()
        chunks = [line[i : i + 97] for i in range(0, len(line), 97)] + [b"\n"]
        client, sock = chunked_client(chunks)
        assert client.request({"op": "ping"})["result"]["x"] == "y" * 5000
        assert len(sock.unsearched) == len(chunks)
        # every byte buffered before a recv was already searched once
        assert sock.unsearched == [0] * len(chunks)

    def test_several_lines_in_one_chunk(self, chunked_client):
        client, sock = chunked_client([b'{"a": 1}\n{"b": 2}\n{"c"', b": 3}\n"])
        assert client._readline_bounded() == b'{"a": 1}\n'
        assert client._readline_bounded() == b'{"b": 2}\n'
        assert len(sock.unsearched) == 1  # both came out of the first chunk
        assert client._readline_bounded() == b'{"c": 3}\n'
        assert client._readline_bounded() == b""  # EOF between lines
        assert client._rbuf == bytearray() and client._scanned == 0

    def test_newline_as_first_byte_of_a_chunk(self, chunked_client):
        client, _ = chunked_client([b'{"a": 1}', b'\n{"b":', b" 2}", b"\n"])
        assert client._readline_bounded() == b'{"a": 1}\n'
        assert client._readline_bounded() == b'{"b": 2}\n'

    def test_partial_line_survives_a_timeout(self, chunked_client):
        chunks = [b'{"ok": true, "id": 1, ', socket.timeout("timed out"), b'"result": {}}\n']
        client, _ = chunked_client(chunks)
        with pytest.raises(OSError):
            client.request({"op": "ping"})
        assert bytes(client._rbuf) == b'{"ok": true, "id": 1, '
        assert client._readline_bounded() == b'{"ok": true, "id": 1, "result": {}}\n'

    @pytest.mark.parametrize("size, refused", [(1023, False), (1024, True), (1025, True)])
    def test_over_limit_line_refused_at_the_same_length(
        self, chunked_client, monkeypatch, size, refused
    ):
        # ``size`` bytes before the newline, delivered in small chunks: a
        # newline at index MAX_LINE_BYTES or later is refused, as before
        import repro.serve.client as client_mod

        monkeypatch.setattr(client_mod, "MAX_LINE_BYTES", 1024)
        line = b"x" * size + b"\n"
        client, _ = chunked_client([line[i : i + 100] for i in range(0, len(line), 100)])
        if refused:
            with pytest.raises(ConnectionError, match="exceeds 1024 bytes"):
                client._readline_bounded()
        else:
            assert client._readline_bounded() == line

    def test_unterminated_over_limit_refused_before_eof(self, chunked_client, monkeypatch):
        import repro.serve.client as client_mod

        monkeypatch.setattr(client_mod, "MAX_LINE_BYTES", 1024)
        # 1025 bytes without a newline: refused as soon as they are
        # buffered, not read on to EOF ("mid-reply")
        client, sock = chunked_client([b"x" * 1000, b"x" * 25, b"x" * 10])
        with pytest.raises(ConnectionError, match="exceeds 1024 bytes"):
            client._readline_bounded()
        assert sock.chunks == [b"x" * 10]

    def test_eof_mid_line_clears_the_buffer(self, chunked_client):
        client, _ = chunked_client([b'{"ok": tr', b"ue"])
        with pytest.raises(ConnectionError, match="mid-reply .11 bytes"):
            client._readline_bounded()
        assert client._rbuf == bytearray() and client._scanned == 0


# -- framed solve_shard replies -------------------------------------------------

STACK_KINDS = ("mva", "multiclass", "multiclass-trajectory")


def _framed(stack):
    """``(payload, frame bytes)`` of a stack packed into a frame."""
    sink = FrameSink()
    payload = encode_stack_result(stack, frame=sink)
    frame = b"".join(bytes(chunk) for chunk in sink.chunks)
    assert len(frame) == sink.nbytes
    return payload, frame


def _framed_line(request_id, payload, frame_len):
    envelope = {"id": request_id, "ok": True, "result": payload, "frame": frame_len}
    return json.dumps(envelope).encode() + b"\n"


class TestFramedProtocol:
    @pytest.mark.parametrize("key", STACK_KINDS)
    def test_frame_round_trip_is_bit_exact(self, key):
        stack = build_stacks(FAILURES)[key]
        payload, frame = _framed(stack)
        line = json.dumps(payload)
        assert "b64" not in line
        packed = [v for v in payload.values() if isinstance(v, dict) and "__nd__" in v]
        assert packed and all(v["at"] % 8 == 0 for v in packed)
        assert_same_stack(decode_stack_result(json.loads(line), frame=bytearray(frame)), stack)

    def test_reference_outside_the_frame_refused(self):
        payload, frame = _framed(build_stacks()["mva"])
        with pytest.raises(ProtocolError, match="falls outside the"):
            decode_stack_result(payload, frame=bytearray(frame[:-8]))
        with pytest.raises(ProtocolError, match="refers to a frame, but none was sent"):
            decode_stack_result(payload)
        payload["throughput"] = {**payload["throughput"], "at": -8}
        with pytest.raises(ProtocolError, match="falls outside the"):
            decode_stack_result(payload, frame=bytearray(frame))

    @pytest.fixture
    def shard_op(self, monkeypatch):
        """``solve_shard`` on an in-process server whose solve returns a fixture stack."""
        import repro.serve.server as server_mod

        server = SolverServer(port=0)

        def run(key, **fields):
            stack = build_stacks(FAILURES)[key]
            monkeypatch.setattr(server_mod, "solve_stack", lambda *a, **kw: stack)
            request = {
                "op": "solve_shard",
                "scenarios": [_scenario_payload()],
                "method": "exact-mva",
                **fields,
            }
            envelope = ok_envelope(3, *server._op_solve_shard(request))
            return stack, envelope, json.dumps(envelope).encode() + b"\n"

        return run

    @pytest.mark.parametrize("key", STACK_KINDS)
    def test_request_without_frames_gets_the_base64_payload(self, shard_op, key):
        _, envelope, line = shard_op(key)
        assert not isinstance(envelope, Framed) and "frame" not in envelope
        result = json.loads(line)["result"]
        assert result.pop("start") == 0
        assert result == json.loads(WIRE.read_text())[key]

    @pytest.mark.parametrize("key", STACK_KINDS)
    def test_request_with_frames_gets_a_frame(self, shard_op, key):
        stack, envelope, line = shard_op(key, frames=1)
        assert isinstance(envelope, Framed)
        frame = b"".join(bytes(chunk) for chunk in envelope.frame.chunks)
        assert envelope["frame"] == len(frame) > 0
        assert b"b64" not in line and len(line) < 4096
        wire = json.loads(line)
        assert wire["frame"] == len(frame)
        assert_same_stack(decode_stack_result(wire["result"], frame=bytearray(frame)), stack)


class TestFramedClient:
    def test_late_framed_reply_is_discarded_with_its_frame(self):
        stack = build_stacks(FAILURES)["mva"]
        payload, frame = _framed(stack)
        ids = []

        def handler(f):
            ids.append(json.loads(f.readline())["id"])
            time.sleep(0.5)  # past the client's read timeout
            ids.append(json.loads(f.readline())["id"])
            # the stale reply's frame is all newlines: read as lines, it
            # would desynchronize the stream
            f.write(_framed_line(ids[0], payload, len(frame)) + b"\n" * len(frame))
            f.write(_framed_line(ids[1], payload, len(frame)) + frame)
            f.flush()

        srv = _ScriptedServer(handler)
        try:
            with ServeClient(port=srv.port, timeout=0.2) as client:
                with pytest.raises(OSError):
                    client.request({"op": "solve_shard"})
                client._sock.settimeout(10.0)
                envelope = client.request({"op": "solve_shard"})
            assert envelope["id"] == ids[1]
            assert isinstance(envelope, Framed)
            json.dumps(envelope)  # still plain JSON for tracers and loggers
            assert_same_stack(decode_stack_result(envelope["result"], frame=envelope.frame), stack)
        finally:
            srv.close()

    def test_timeout_mid_frame_skips_the_rest(self, chunked_client):
        payload, frame = _framed(build_stacks()["mva"])
        chunks = [
            _framed_line(1, payload, len(frame)) + frame[:10],
            socket.timeout("timed out"),
            frame[10:] + _framed_line(2, payload, len(frame)) + frame,
        ]
        client, _ = chunked_client(chunks)
        with pytest.raises(OSError):
            client.request({"op": "solve_shard"})
        assert client._skip == len(frame) - 10
        envelope = client.request({"op": "solve_shard"})
        assert envelope["id"] == 2 and bytes(envelope.frame) == frame
        assert client._skip == 0 and client._rbuf == bytearray()

    def test_eof_mid_frame_raises_connection_error(self):
        def handler(f):
            request_id = json.loads(f.readline())["id"]
            f.write(_framed_line(request_id, {}, 100) + b"\0" * 10)
            f.flush()

        srv = _ScriptedServer(handler)
        try:
            with ServeClient(port=srv.port, timeout=5.0) as client:
                with pytest.raises(ConnectionError, match=r"mid-frame \(10 of 100 bytes\)"):
                    client.request({"op": "solve_shard"})
        finally:
            srv.close()

    def test_oversized_frame_refused_before_reading_it(self, chunked_client, monkeypatch):
        import repro.serve.client as client_mod

        monkeypatch.setattr(client_mod, "MAX_LINE_BYTES", 1024)
        client, sock = chunked_client([_framed_line(1, {}, 1025), b"x" * 1025])
        with pytest.raises(ConnectionError, match="frame of 1025 bytes exceeds 1024"):
            client.request({"op": "solve_shard"})
        assert sock.chunks == [b"x" * 1025]

    @pytest.mark.parametrize("length", [-1, "8", 2.0, True])
    def test_malformed_frame_length_refused(self, chunked_client, length):
        client, _ = chunked_client([_framed_line(1, {}, length)])
        with pytest.raises(ConnectionError, match="malformed frame length"):
            client.request({"op": "solve_shard"})


# -- admission control and graceful drain --------------------------------------


def _slow_solve_request(n=300_000):
    return {"op": "solve", "scenario": _scenario_payload(n=n), "method": "exact-mva"}


def _start_slow_solve(port, box):
    """Send a slow solve from a thread; return once the server reports it.

    The server counts a request in flight and admits it in one step, so
    from then on the solve holds a slot and the next request meets a
    server that is busy (or the request already failed, which the
    caller's assertions then report).
    """

    def run_slow():
        with ServeClient(port=port, timeout=120.0) as client:
            box["slow"] = client.request(_slow_solve_request())

    thread = threading.Thread(target=run_slow)
    thread.start()
    deadline = time.monotonic() + 60.0
    with ServeClient(port=port, timeout=30.0) as client:
        while client.health()["in_flight"] < 1:
            assert thread.is_alive() and time.monotonic() < deadline, box
            time.sleep(0.01)
    return thread


class TestAdmissionControl:
    def test_health_op(self, server):
        with ServeClient(port=server["port"]) as client:
            h = client.health()
        assert h["pid"] > 0
        assert h["uptime"] >= 0.0
        assert h["draining"] is False
        assert h["in_flight"] == 0
        assert h["max_concurrent"] == 1
        assert set(h["cache"]) == {"hits", "misses", "size"}

    def test_injected_admission_rejection_sheds_exactly_once(self):
        proc, port = _start_server(extra=("--inject-faults", "reject-admission"))
        try:
            request = {
                "op": "solve",
                "scenario": _scenario_payload(n=10),
                "method": "exact-mva",
            }
            with ServeClient(port=port) as client:
                shed = client.request(request)
                assert shed["ok"] is False
                assert shed["error"]["type"] == "Overloaded"
                retried = client.request(request)
                assert retried["ok"] is True
                assert client.health()["overload_rejections"] == 1
        finally:
            _stop_server(proc, port)

    def test_queue_full_sheds_with_overloaded_envelope(self):
        proc, port = _start_server(
            extra=("--max-concurrent", "1", "--admission-queue", "0")
        )
        try:
            box = {}
            thread = _start_slow_solve(port, box)
            with ServeClient(port=port, timeout=30.0) as client:
                shed = client.request(
                    {
                        "op": "solve",
                        "scenario": _scenario_payload(n=10),
                        "method": "exact-mva",
                    }
                )
                assert shed["ok"] is False
                assert shed["error"]["type"] == "Overloaded"
                assert "retry later" in shed["error"]["error"]
                # control ops bypass the admission gate
                assert client.request({"op": "ping"})["ok"] is True
            thread.join(timeout=120.0)
            assert not thread.is_alive()
            assert box["slow"]["ok"] is True
        finally:
            _stop_server(proc, port)


class TestGracefulDrain:
    def test_drain_op_finishes_inflight_and_exits_zero(self):
        proc, port = _start_server()
        box = {}
        try:
            thread = _start_slow_solve(port, box)
            with ServeClient(port=port, timeout=30.0) as client:
                d = client.drain()
            assert d["draining"] is True
            thread.join(timeout=120.0)
            assert not thread.is_alive()
            assert box["slow"]["ok"] is True
            assert proc.wait(timeout=60.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)

    def test_drain_delivers_a_reply_still_in_the_write_buffer(self):
        """A drain that lands while a ~31 MB reply sits unread in the
        server's write buffer must still deliver the whole line."""
        proc, port = _start_server()
        try:
            with ServeClient(port=port, timeout=120.0) as reader:
                # Send the solve but read nothing yet, so its reply backs up.
                reader._file.write(json.dumps({**_slow_solve_request(), "id": 1}).encode() + b"\n")
                reader._file.flush()
                deadline = time.monotonic() + 120.0
                with ServeClient(port=port, timeout=30.0) as control:
                    # Solved (nothing admitted) yet still in flight: the
                    # reply is being written.
                    while True:
                        h = control.health()
                        if h["admitted"] == 0 and h["in_flight"] >= 1:
                            break
                        assert time.monotonic() < deadline, h
                        time.sleep(0.01)
                    assert control.drain()["draining"] is True
                envelope = json.loads(reader._readline_bounded())
            assert envelope["ok"] is True and envelope["id"] == 1
            assert len(envelope["result"]["throughput"]) == 300_000
            assert proc.wait(timeout=60.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)

    def test_sigterm_drains_without_dropping_inflight(self):
        proc, port = _start_server()
        box = {}
        try:
            thread = _start_slow_solve(port, box)
            proc.send_signal(signal.SIGTERM)
            thread.join(timeout=120.0)
            assert not thread.is_alive()
            assert box["slow"]["ok"] is True
            assert proc.wait(timeout=60.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
