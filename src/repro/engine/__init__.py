"""High-throughput execution layer for solver and simulation sweeps.

Two complementary strategies for the repo's ubiquitous
grid-of-scenarios pattern:

``repro.engine.batched``
    Vectorized NumPy kernels that advance S scenarios through one MVA /
    AMVA / MVASD population recursion at once — demand stacks of shape
    ``(S, K)`` or ``(S, N, K)``, per-level work amortized over the whole
    grid.  Each scalar solver is its kernel run at ``S = 1``, so results
    match bit for bit.
``repro.engine.native``
    Lazy cffi loader of ``_mvasd.c``, the compiled population recursion
    behind :func:`batched_mvasd` (bit-identical to its NumPy loop, which
    remains the fallback on hosts without a C compiler).
``repro.engine.sweep``
    Fork-join execution of independent tasks (DES replications,
    pipeline validations, what-if solves): :class:`ScenarioGrid`
    builders, an ordered :func:`parallel_map` over a process pool with a
    serial fallback, and :func:`spawn_seeds` for worker-count-invariant
    seeding.
``repro.engine.resilience`` / ``repro.engine.faults``
    Fault tolerance for long sweeps: bounded :class:`RetryPolicy`
    retries, the :func:`ResilientBackend` constructor (the local
    fan-out under the default policy), crash-safe
    :class:`SweepCheckpoint` journals keyed on scenario fingerprints,
    per-scenario :class:`ScenarioFailure` isolation, and the
    deterministic :class:`FaultPlan` injection harness that proves the
    recovery paths.
``repro.engine.fabric`` / ``repro.engine.transport``
    The execution fabric: :class:`WorkPlan` partitioning, the
    transport-agnostic :class:`Dispatcher` (the staged
    sharded → batched → serial → isolate recovery loop, and the one
    place fan-out arguments are checked), and interchangeable
    :class:`Transport` implementations — forked local process pools
    (:class:`LocalProcessTransport`, under the one local fan-out
    backend :class:`ProcessShardedBackend`, labelled
    ``process-sharded`` or ``resilient``) or a fleet of ``repro worker``
    hosts over the serve protocol (:class:`RemoteTransport`, behind
    ``backend="remote"`` / :class:`RemoteBackend`).

See ``benchmarks/bench_perf01_batch_speedup.py`` for the measured
speedups and the `repro sweep-grid` CLI subcommand for the command-line
surface.
"""

from .backends import (
    BatchedBackend,
    ExecutionBackend,
    ProcessShardedBackend,
    SerialBackend,
    backend_names,
    get_backend,
    shard_bounds,
)
from .batched import (
    BatchedMultiClassResult,
    BatchedMultiClassTrajectory,
    BatchedMVAResult,
    ScenarioFailure,
    batched_exact_multiclass,
    batched_exact_mva,
    batched_ld_mva,
    batched_multiclass_mvasd,
    batched_mvasd,
    batched_schweitzer_amva,
    demand_matrix_stack,
)
from .fabric import Dispatcher, RemoteBackend, WorkPlan, WorkShard
from .faults import Fault, FaultPlan, InjectedFault
from .resilience import (
    ResilientBackend,
    RetryPolicy,
    SweepCheckpoint,
    solve_isolated,
    solve_isolated_batched,
)
from .supervisor import (
    CircuitBreaker,
    CommandLauncher,
    FleetSupervisor,
    Launcher,
    LocalLauncher,
    StaticMembership,
    WorkerHandle,
)
from .sweep import ScenarioGrid, parallel_map, resolve_workers, spawn_seeds
from .transport import (
    LocalProcessTransport,
    RemoteTransport,
    Transport,
    WorkerConnectionLost,
    WorkerOverloaded,
    parse_hosts,
)

__all__ = [
    "BatchedBackend",
    "BatchedMVAResult",
    "BatchedMultiClassResult",
    "BatchedMultiClassTrajectory",
    "CircuitBreaker",
    "CommandLauncher",
    "Dispatcher",
    "ExecutionBackend",
    "Fault",
    "FaultPlan",
    "FleetSupervisor",
    "InjectedFault",
    "Launcher",
    "LocalLauncher",
    "LocalProcessTransport",
    "ProcessShardedBackend",
    "RemoteBackend",
    "RemoteTransport",
    "ResilientBackend",
    "RetryPolicy",
    "ScenarioFailure",
    "ScenarioGrid",
    "SerialBackend",
    "StaticMembership",
    "SweepCheckpoint",
    "Transport",
    "WorkPlan",
    "WorkShard",
    "WorkerConnectionLost",
    "WorkerHandle",
    "WorkerOverloaded",
    "backend_names",
    "batched_exact_multiclass",
    "batched_exact_mva",
    "batched_ld_mva",
    "batched_multiclass_mvasd",
    "batched_mvasd",
    "batched_schweitzer_amva",
    "demand_matrix_stack",
    "get_backend",
    "parallel_map",
    "parse_hosts",
    "resolve_workers",
    "shard_bounds",
    "solve_isolated",
    "solve_isolated_batched",
    "spawn_seeds",
]
