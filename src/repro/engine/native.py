"""Lazy loader for the compiled MVASD recursion (``_mvasd.c``).

:func:`repro.engine.batched.batched_mvasd` runs its population recursion
through one C routine when this module can provide it.  The routine is
built with cffi and the local C compiler on first use, cached per user,
and loaded once per process:

* The cache directory is ``$XDG_CACHE_HOME/repro`` (default
  ``~/.cache/repro``), or a per-user directory under the system temp dir
  when that is not writable.  The compiled module's name carries a
  sha256 of the C source, the cffi version, the Python ABI tag and the
  compiler flags, so a changed source or interpreter never loads a stale
  build.
* A build runs in a private temp directory and the finished module is
  moved into place with ``os.replace``, so processes racing the first
  compile (the forked workers of a sharded sweep) all end up loading one
  complete module.
* Any failure — no cffi, no compiler, an unwritable cache — is logged
  once and :func:`mvasd_kernel` returns ``None``; the caller then runs
  the NumPy recursion, which computes the same bits.

Importing this module is cheap: cffi is imported, and the compiler run,
only when a build is actually needed.

The routine's scenario loop is outermost and its rows are independent,
and cffi releases the GIL for the length of a call, so the caller can
cut a large stack into contiguous row chunks and run one call per chunk
on its own thread (:func:`repro.engine.batched._mvasd_levels_native`)
with every output bit unchanged.  :func:`kernel_threads` says how many:

* one per usable CPU (``os.sched_getaffinity`` where it exists,
  ``os.cpu_count()`` elsewhere), but no more than one per
  :data:`MIN_LEVELS_PER_THREAD` scenario-levels (rows times levels) and
  never more than the rows, so small stacks and every ``S = 1`` solve
  stay on the calling thread;
* exactly one inside a :func:`repro.engine.sweep.parallel_map` worker
  process, which marks itself with :func:`mark_fan_out_child`: the
  fan-out already puts one process on each core.

A fleet worker cannot see sibling workers on its host, so the rule
assumes one ``repro worker`` per host; two local workers on two CPUs
oversubscribe the cores, which measured no slower than the one-thread
kernel (DESIGN.md §17, "Row split over threads").

The threads are started per call and joined before it returns; no pool
outlives a call, so the local fan-out still forks a single-threaded
process.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import logging
import os
import tempfile
from pathlib import Path

__all__ = ["kernel_threads", "mark_fan_out_child", "mvasd_kernel", "usable_cpus"]

_log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_mvasd.c")

CDEF = """
void mvasd_recursion(int64_t s, int64_t n_levels, int64_t k,
                     const double *demands, const double *think,
                     const double *servers, const int8_t *is_queue,
                     int single_server, const double *weights,
                     int64_t start, const double *init_p, const double *init_q,
                     double *marginals, double *r_k, double *q,
                     double *xs, double *rs, double *qs, double *rks,
                     double *utils, int64_t c_max, double *hist, double *final_p);
"""

#: Bit identity with the NumPy loop needs plain IEEE arithmetic in source
#: order: no fused multiply-add (and no -ffast-math or -march=native).
CFLAGS = ("-O3", "-ffp-contract=off")

#: Least work, in scenario-levels (rows times population levels), worth a
#: kernel thread of its own: 64 rows at N = 300, the measured break-even
#: of a two-thread split against one call on a 2-vCPU host.
MIN_LEVELS_PER_THREAD = 64 * 300

_UNLOADED = object()
_kernel = _UNLOADED
#: Set in a fan-out worker process; its kernel calls keep one thread.
_fan_out_child = False


def _cache_dir() -> Path:
    """Where compiled kernels are kept: ``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro"


def _private_dir(path: Path) -> bool:
    """Create ``path`` if needed; whether this user owns it and may write to it."""
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        return path.stat().st_uid == os.getuid() and os.access(path, os.W_OK | os.X_OK)
    except OSError:
        return False


def _module_name(source: bytes) -> str:
    """Module name keyed by source, cffi version, Python ABI tag and flags."""
    import _cffi_backend  # the runtime half of cffi; does not import `cffi`

    key = hashlib.sha256()
    for part in (
        source,
        _cffi_backend.__version__.encode(),
        importlib.machinery.EXTENSION_SUFFIXES[0].encode(),
        " ".join(CFLAGS).encode(),
    ):
        key.update(part)
        key.update(b"\0")
    return f"_repro_mvasd_{key.hexdigest()[:20]}"


def _compile(name: str, source: str, directory: Path) -> Path:
    """Build module ``name`` into ``directory``; return the module's path."""
    import cffi

    ffi = cffi.FFI()
    ffi.cdef(CDEF)
    ffi.set_source(name, source, extra_compile_args=list(CFLAGS))
    with tempfile.TemporaryDirectory(prefix=f".{name}-", dir=directory) as tmp:
        built = Path(ffi.compile(tmpdir=tmp, verbose=False))
        target = directory / built.name
        os.replace(built, target)
    return target


def _import(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load():
    """The compiled module, building it into the cache if needed."""
    source = SOURCE.read_bytes()
    name = _module_name(source)
    filename = name + importlib.machinery.EXTENSION_SUFFIXES[0]
    candidates = [_cache_dir(), Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"]
    for directory in candidates:
        if _private_dir(directory):
            path = directory / filename
            if not path.is_file():
                path = _compile(name, source.decode(), directory)
            return _import(name, path)
    raise OSError(f"no writable cache directory among {[str(c) for c in candidates]}")


def mvasd_kernel():
    """The compiled kernel module (``.ffi``, ``.lib``), or ``None`` if it cannot load.

    Built and loaded on the first call in a process; later calls (and
    forked children) reuse the result.  A failure is logged once and the
    ``None`` is remembered, so the caller's NumPy fallback costs nothing
    extra.
    """
    global _kernel
    if _kernel is _UNLOADED:
        try:
            _kernel = _load()
        except Exception as exc:  # no cffi, no compiler, no cache: fall back
            _log.warning(
                "native MVASD kernel unavailable (%s: %s); using the NumPy recursion",
                type(exc).__name__, exc,
            )
            _kernel = None
    return _kernel


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def mark_fan_out_child() -> None:
    """Keep this process's kernel calls on one thread.

    Called by each :func:`repro.engine.sweep.parallel_map` worker: its
    sibling workers already occupy the other cores, so splitting its
    rows would only make the processes contend.
    """
    global _fan_out_child
    _fan_out_child = True


def kernel_threads(rows: int, levels: int) -> int:
    """How many threads one kernel call over ``rows`` scenarios of ``levels`` should use.

    ``min(usable CPUs, rows, rows * levels // MIN_LEVELS_PER_THREAD)``, at
    least 1; always 1 in a fan-out worker process.
    """
    if _fan_out_child:
        return 1
    return max(1, min(usable_cpus(), rows, rows * levels // MIN_LEVELS_PER_THREAD))
