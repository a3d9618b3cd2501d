"""Launching, measuring and stopping the processes a run starts.

Every server is launched from the checkout with ``src`` on
``PYTHONPATH``, timed from spawn to its ``listening on host:port`` line,
and stopped in a ``finally`` by its owner.  Peak memory is read from
``/proc/<pid>/status`` (``VmHWM``) while the process is still alive.
After a run, :func:`leftovers` looks for any descendant still running.
"""

from __future__ import annotations

import os
import resource
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: How long a server may take to print its listening line.
LAUNCH_TIMEOUT = 60.0


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


@dataclass
class Server:
    """One launched server and how long it took to start listening."""

    proc: subprocess.Popen
    host: str
    port: int
    listen_s: float

    @property
    def pid(self) -> int:
        return self.proc.pid


def launch(argv: list[str], log_path: Path) -> Server:
    """Spawn ``argv`` and wait for its ``listening on host:port`` line."""
    start = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=log, env=child_env(), cwd=str(ROOT)
        )
    try:
        deadline = time.monotonic() + LAUNCH_TIMEOUT
        while True:
            line = proc.stdout.readline().decode(errors="replace")
            if "listening on" in line:
                listen_s = time.perf_counter() - start
                address = line.rsplit("listening on", 1)[1].strip()
                host, _, port = address.rpartition(":")
                return Server(proc, host, int(port), listen_s)
            if not line or time.monotonic() > deadline:
                raise RuntimeError(
                    f"{argv[1:]} exited or stalled before listening; see {log_path}"
                )
    except BaseException:
        kill(proc)
        raise


def kill(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=30)
    if proc.stdout is not None:
        proc.stdout.close()


def stop(server: Server) -> bool:
    """Ask the server to shut down; kill it if it does not.  True if clean."""
    from repro.serve import ServeClient

    try:
        with ServeClient(server.host, server.port, timeout=30.0) as client:
            client.shutdown()
        code = server.proc.wait(timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        kill(server.proc)
        return False
    server.proc.stdout.close()
    return code == 0


def vm_hwm_mb(pid: int | None = None) -> float:
    """Peak resident set of a live process (this one by default), MiB."""
    status = Path(f"/proc/{pid or os.getpid()}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def children_peak_mb() -> float:
    """Largest peak resident set of any waited-for child (forked pool workers)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _descendants() -> list[tuple[int, str, str]]:
    """``(pid, state, cmdline)`` of every live descendant of this process."""
    parents: dict[int, int] = {}
    info: dict[int, tuple[str, str]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            cmd = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        # the command name in parentheses may itself contain spaces
        fields = stat[stat.rindex(")") + 2 :].split()
        pid = int(entry.name)
        parents[pid] = int(fields[1])
        info[pid] = (fields[0], cmd.strip())
    me = os.getpid()
    found = []
    for pid in parents:
        up = parents.get(pid)
        while up is not None and up != me and up > 1:
            up = parents.get(up)
        if up == me and info[pid][0] != "Z":
            found.append((pid, *info[pid]))
    return found


def leftovers(timeout: float = 30.0) -> list[str]:
    """Wait for every descendant to end; kill and name the ones that do not.

    Forked pool workers end on their own shortly after a sweep; a server
    or worker still running here was leaked by the run.
    """
    deadline = time.monotonic() + timeout
    while True:
        alive = _descendants()
        if not alive or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    leaked = []
    for pid, _state, cmd in alive:
        leaked.append(f"pid {pid}: {cmd}")
        try:
            os.kill(pid, 9)
        except ProcessLookupError:
            pass
    return leaked
