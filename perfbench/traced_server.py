"""Traced twin of ``repro serve`` / ``repro worker``.

Installs the benchmark's span wrappers, then runs the same command line
the timed runs launch (``repro.cli.main``, which calls
``repro.serve.server.run_server``), and writes its spans to the
directory given by ``--spans-out`` once the server exits::

    python3 perfbench/traced_server.py --spans-out DIR -- serve --port 0
    python3 perfbench/traced_server.py --spans-out DIR -- worker --port 0
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402  (after the path setup above)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True, type=Path)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    rec = tracing.Recorder(args.spans_out, role="server")
    tracing.install(rec)
    from repro.cli import main as repro_main

    try:
        return repro_main(command)
    finally:
        rec.flush()


if __name__ == "__main__":
    sys.exit(main())
