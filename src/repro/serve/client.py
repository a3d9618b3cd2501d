"""Blocking JSON-lines client for the capacity-planning service.

Used by ``repro query``, the PERF-04 bench and the CI smoke job.  The
client is deliberately dependency-free (one socket, one file object):
anything that can write a line of JSON can talk to the server, and this
module is the reference for what those lines look like.  A reply whose
envelope announces a binary frame (``"frame": nbytes``, see
:mod:`repro.serve.protocol`) comes back as a
:class:`~repro.serve.protocol.Framed` envelope carrying those bytes.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Mapping

from .protocol import MAX_LINE_BYTES, Framed

__all__ = ["ServeClient", "query"]

DEFAULT_CONNECT_TIMEOUT = 10.0


class ServeError(RuntimeError):
    """Raised by :meth:`ServeClient.call` when the server answers ``ok: false``."""

    def __init__(self, envelope: Mapping[str, Any]) -> None:
        error = envelope.get("error") or {}
        super().__init__(
            f"{error.get('type', 'Error')}: {error.get('error', 'unknown failure')}"
        )
        self.envelope = dict(envelope)


class ServeClient:
    """One persistent connection to a :class:`~repro.serve.server.SolverServer`.

    Usable as a context manager.  :meth:`request` returns the raw
    response envelope; :meth:`call` unwraps ``result`` and raises
    :class:`ServeError` on a structured failure.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7173,
        timeout: float | None = 60.0,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ) -> None:
        self.host = host
        self.port = int(port)
        self._sock = socket.create_connection((host, self.port), timeout=connect_timeout)
        self._sock.settimeout(timeout)
        self._file = self._sock.makefile("wb")
        #: Bytes received but not yet consumed as a full line.  Reads go
        #: through :meth:`_readline_bounded` over the raw socket rather
        #: than ``makefile("rb")``: CPython's ``SocketIO`` permanently
        #: refuses reads after one timeout, which would make recovering a
        #: timed-out request's connection (the late-reply resync below)
        #: impossible.
        self._rbuf = bytearray()
        #: How much of ``_rbuf`` is known to hold no newline, so each
        #: received byte is searched once, however many chunks a long
        #: line arrives in.
        self._scanned = 0
        self._next_id = 0
        #: Request ids sent but never answered (a timed-out request's
        #: reply is still in flight) — how :meth:`request` recognises a
        #: late reply and discards it instead of mis-delivering it.
        self._outstanding: set = set()
        #: Bytes of a frame whose read timed out, still to be skipped
        #: before the next envelope line.
        self._skip = 0

    def set_timeout(self, timeout: float | None) -> None:
        """Adjust the per-request socket timeout on the live connection.

        The fabric reuses its connections to each worker host across
        rounds whose :class:`~repro.engine.resilience.RetryPolicy` shard
        timeouts may differ.
        """
        self._sock.settimeout(timeout)

    # -- the wire -------------------------------------------------------------

    def request(self, payload: Mapping[str, Any]) -> dict:
        """Send one request object, return the *matching* response envelope.

        Responses are correlated by ``id``: a reply to an *earlier*
        request of this connection (one that timed out client-side while
        the server kept solving) is discarded and the read resumes, so a
        late reply can never be mis-delivered as the answer to the
        current request.  A reply with an id this client never sent
        means the peer is not speaking our protocol — that kills the
        connection.  Reads are bounded by the server's own
        ``MAX_LINE_BYTES`` so a misbehaving peer cannot make the client
        buffer an unbounded line (or frame).  A reply that announces a
        frame has it read, discarded replies included, so the stream
        stays in sync; the matching one is returned as a
        :class:`~repro.serve.protocol.Framed` envelope.
        """
        body = dict(payload)
        if "id" not in body:
            self._next_id += 1
            body["id"] = self._next_id
        request_id = body["id"]
        self._outstanding.add(request_id)
        self._file.write(json.dumps(body).encode() + b"\n")
        self._file.flush()
        self._skip_frame_rest()
        while True:
            line = self._readline_bounded()
            if not line:
                raise ConnectionError("server closed the connection")
            envelope = json.loads(line)
            response_id = envelope.get("id") if isinstance(envelope, dict) else None
            if response_id == request_id or response_id in self._outstanding:
                # Either the answer, or a late reply to a request we gave
                # up on — which is dropped, frame and all; the stream is
                # back in sync once the current request's reply arrives.
                self._outstanding.discard(response_id)
                frame = self._read_frame(
                    envelope.get("frame") if isinstance(envelope, dict) else None
                )
                if response_id != request_id:
                    continue
                return envelope if frame is None else Framed(envelope, frame=frame)
            raise ConnectionError(
                f"response id {response_id!r} matches no outstanding request "
                f"(expected {request_id!r}); desynchronized stream"
            )

    def _readline_bounded(self) -> bytes:
        """One ``\\n``-terminated line, at most ``MAX_LINE_BYTES`` long.

        A socket timeout leaves any partial line in ``_rbuf``, so a later
        read resumes exactly where the stream stopped — no bytes lost, no
        desynchronization.  EOF between lines returns ``b""``; EOF inside a
        line raises :class:`ConnectionError` (a truncated reply is never
        handed to the JSON decoder).
        """
        while True:
            newline = self._rbuf.find(b"\n", self._scanned)
            if newline >= MAX_LINE_BYTES or (newline < 0 and len(self._rbuf) > MAX_LINE_BYTES):
                raise ConnectionError(
                    f"server response exceeds {MAX_LINE_BYTES} bytes; "
                    f"dropping connection"
                )
            if newline >= 0:
                with memoryview(self._rbuf) as view:
                    line = bytes(view[: newline + 1])
                del self._rbuf[: newline + 1]
                self._scanned = 0
                return line
            self._scanned = len(self._rbuf)
            chunk = self._sock.recv(65536)
            if not chunk:
                if self._rbuf:
                    partial = len(self._rbuf)
                    self._rbuf.clear()
                    self._scanned = 0
                    raise ConnectionError(
                        f"server closed the connection mid-reply "
                        f"({partial} bytes of an unterminated line)"
                    )
                return b""
            self._rbuf.extend(chunk)

    def _read_frame(self, nbytes) -> bytearray | None:
        """The ``nbytes`` frame after an envelope line (``None``: no frame).

        Read straight into a buffer of the announced size, after the
        bytes the line reader already holds.  A frame over
        ``MAX_LINE_BYTES`` is refused before anything is allocated; EOF
        inside it raises :class:`ConnectionError`.  A socket timeout
        leaves the rest to be skipped before the next line.
        """
        if nbytes is None:
            return None
        if isinstance(nbytes, bool) or not isinstance(nbytes, int) or nbytes < 0:
            raise ConnectionError(f"malformed frame length {nbytes!r}; dropping connection")
        if nbytes > MAX_LINE_BYTES:
            raise ConnectionError(
                f"server frame of {nbytes} bytes exceeds {MAX_LINE_BYTES} bytes; "
                f"dropping connection"
            )
        frame = bytearray(nbytes)
        got = min(nbytes, len(self._rbuf))
        frame[:got] = self._rbuf[:got]
        del self._rbuf[:got]
        with memoryview(frame) as view:
            while got < nbytes:
                try:
                    n = self._sock.recv_into(view[got:])
                except OSError:
                    self._skip = nbytes - got
                    raise
                if not n:
                    raise ConnectionError(
                        f"server closed the connection mid-frame "
                        f"({got} of {nbytes} bytes)"
                    )
                got += n
        return frame

    def _skip_frame_rest(self) -> None:
        """Discard what is left of a frame whose read timed out."""
        while self._skip:
            if not self._rbuf:
                chunk = self._sock.recv(min(self._skip, 65536))
                if not chunk:
                    raise ConnectionError("server closed the connection mid-frame")
                self._rbuf.extend(chunk)
            n = min(self._skip, len(self._rbuf))
            del self._rbuf[:n]
            self._skip -= n

    def call(self, op: str, **payload: Any):
        """Request ``op`` and return its ``result`` (raises on failure)."""
        envelope = self.request({"op": op, **payload})
        if not envelope.get("ok"):
            raise ServeError(envelope)
        return envelope["result"]

    # -- convenience wrappers -------------------------------------------------

    def ping(self) -> dict:
        return self.call("ping")

    def solve(self, scenario: Mapping[str, Any], **payload: Any) -> dict:
        return self.call("solve", scenario=scenario, **payload)

    def whatif(
        self, scenario: Mapping[str, Any], populations, **payload: Any
    ) -> dict:
        return self.call(
            "whatif", scenario=scenario, populations=list(populations), **payload
        )

    def cache_stats(self) -> dict:
        return self.call("cache_stats")

    def health(self) -> dict:
        return self.call("health")

    def drain(self) -> dict:
        return self.call("drain")

    def shutdown(self) -> dict:
        return self.call("shutdown")

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def query(
    payload: Mapping[str, Any],
    host: str = "127.0.0.1",
    port: int = 7173,
    timeout: float | None = 60.0,
) -> dict:
    """One-shot request: connect, send, return the response envelope."""
    with ServeClient(host, port, timeout=timeout) as client:
        return client.request(payload)
