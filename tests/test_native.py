"""The lazy loader of the compiled MVASD kernel (``repro.engine.native``).

The loader must never make a solve fail: a missing cffi or compiler
falls back to the NumPy recursion with one log line.  Processes racing
the first build must all succeed, and importing ``repro`` must not pull
in cffi or start a build.
"""

import logging
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import ClosedNetwork, Station
from repro.engine import batched_mvasd, native
from repro.engine.batched import _batched_mvasd_numpy

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")
FIELDS = ("throughput", "response_time", "queue_lengths", "residence_times", "utilizations")


def _stack(n=40, s=3):
    net = ClosedNetwork(
        [Station("web", 0.01, servers=4), Station("app", 0.01, servers=2), Station("db", 0.01)],
        think_time=1.0,
    )
    rng = np.random.default_rng(5)
    return net, n, rng.uniform(0.002, 0.03, size=(s, n, 3))


def _run(code: str, env: dict, *args: str) -> subprocess.Popen:
    """``python -c code *args`` with ``src`` on the path and ``env`` added."""
    return subprocess.Popen(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": REPO_SRC, **env},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """A loader that has not loaded yet, with empty cache directories."""
    monkeypatch.setattr(native, "_kernel", native._UNLOADED)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    return tmp_path


def _no_compiler(name, source, directory):
    raise OSError("simulated: no C compiler")


@pytest.mark.parametrize("failure", ["no-cffi", "no-compiler"])
def test_failed_build_falls_back_to_numpy_and_logs_once(
    failure, fresh_loader, monkeypatch, caplog
):
    if failure == "no-cffi":
        monkeypatch.setitem(sys.modules, "cffi", None)  # `import cffi` raises
    else:
        monkeypatch.setattr(native, "_compile", _no_compiler)
    net, n, matrices = _stack()
    with caplog.at_level(logging.WARNING, logger=native.__name__):
        first = batched_mvasd(net, n, matrices)
        second = batched_mvasd(net, n, matrices, single_server=True)
    assert native.mvasd_kernel() is None
    records = [r for r in caplog.records if r.name == native.__name__]
    assert len(records) == 1
    assert "NumPy" in records[0].getMessage()
    for result, single in ((first, False), (second, True)):
        ref = _batched_mvasd_numpy(net, n, matrices, single_server=single)
        for field in FIELDS:
            assert np.array_equal(getattr(result, field), getattr(ref, field)), field


RACER = """
import pathlib, sys, time
from repro.engine import native
go = pathlib.Path(sys.argv[1])
pathlib.Path(sys.argv[2]).touch()
while not go.exists():
    time.sleep(0.005)
kernel = native.mvasd_kernel()
assert kernel is not None, "native kernel did not load"
print(kernel.__file__)
"""


def test_processes_racing_the_first_build_share_one_module(tmp_path):
    if native.mvasd_kernel() is None:
        pytest.skip("the native MVASD kernel cannot be built on this host")
    cache = tmp_path / "cache"
    go = tmp_path / "go"
    ready = [tmp_path / f"ready-{i}" for i in range(2)]
    env = {"XDG_CACHE_HOME": str(cache)}
    procs = [_run(RACER, env, str(go), str(r)) for r in ready]
    try:
        while not all(r.exists() for r in ready):
            assert all(p.poll() is None for p in procs), [p.communicate() for p in procs]
            time.sleep(0.01)
        go.touch()  # release both into the build at once
        outputs = [p.communicate(timeout=120) for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
    assert [p.returncode for p in procs] == [0, 0], outputs
    paths = {out.strip() for out, _ in outputs}
    assert len(paths) == 1
    built = sorted((cache / "repro").iterdir())
    assert [p.name for p in built] == [Path(paths.pop()).name]  # no temp leftovers
    check = _run(
        "from repro.engine import native; assert native.mvasd_kernel() is not None",
        env,
    )
    out, err = check.communicate(timeout=60)
    assert check.returncode == 0, err


def test_import_repro_neither_imports_cffi_nor_builds(tmp_path):
    code = (
        "import sys, repro\n"
        "from repro.engine import native\n"
        "assert 'cffi' not in sys.modules, 'import repro imported cffi'\n"
        "assert native._kernel is native._UNLOADED, 'import repro loaded the kernel'\n"
    )
    proc = _run(code, {"XDG_CACHE_HOME": str(tmp_path / "cache")})
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert not (tmp_path / "cache").exists()
