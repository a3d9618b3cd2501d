"""Stored-result compatibility fixture for the solvers with a batched kernel.

``build_results`` solves small networks with exact MVA (Algorithm 1),
Schweitzer AMVA, exact load-dependent MVA, exact multi-class MVA,
Bard-Schweitzer and the multi-class MVASD mix sweep, scalar and batched:
fresh solves, resume chains ``L -> M -> N`` (the scalar results carry
their ``final_state`` and ``marginal_probabilities``) and masked stacks.
Run as a script from the repository root, this module pickles what the
code it imports makes of them, exactly as the sqlite cache tier stores a
solver result:

    PYTHONPATH=src:. python tests/fixtures/solver_compat.py

The committed ``solver_compat.pkl`` was written by commit 50808c8, the
last one whose scalar solvers ran their own loops;
``tests/test_solver_compat.py`` holds today's code to it.
"""

from __future__ import annotations

import dataclasses
import pickle
from pathlib import Path

import numpy as np

from repro.apps import DemandProfile
from repro.core import (
    ClosedNetwork,
    Station,
    bard_schweitzer,
    exact_load_dependent_mva,
    exact_mva,
    exact_multiclass_mva,
    multiclass_mvasd,
    schweitzer_amva,
)
from repro.core.ld_mva import build_rate_tables
from repro.engine import (
    batched_exact_mva,
    batched_exact_multiclass,
    batched_ld_mva,
    batched_multiclass_mvasd,
    batched_schweitzer_amva,
)

HERE = Path(__file__).resolve().parent
PICKLE = HERE / "solver_compat.pkl"
#: The resume chain: a stored result at ``L`` extended to ``M``, then to ``N``.
L, M, N = 20, 40, 60
#: The resumable single-class solvers, by fixture key.
RESUMABLE = ("exact-mva", "schweitzer-amva", "ld-mva")

STATIONS = ("web", "app", "db", "lan")
KINDS = ("queue", "queue", "queue", "delay")
DEMANDS = np.array([0.012, 0.02, 0.018, 0.004])
#: A tabulated rate law for ``app`` (saturates at 3 jobs), as FES stations carry.
APP_RATES = np.minimum(np.arange(1, N + 1), 3) / 0.05
#: Class-demand matrix ``(K, C)`` of the multi-class cases.
CLASS_DEMANDS = np.array([[0.02, 0.035], [0.03, 0.01], [0.015, 0.025], [0.004, 0.006]])
CLASS_THINK = np.array([1.0, 0.5])
#: Per-scenario scales of the batched stacks.
SCALES = np.array([0.8, 1.0, 1.3])


def build_network() -> ClosedNetwork:
    return ClosedNetwork(
        [
            Station("web", DEMANDS[0], servers=3),
            Station("app", DEMANDS[1], servers=2),
            Station("db", DEMANDS[2]),
            Station("lan", DEMANDS[3], kind="delay"),
        ],
        think_time=1.0,
    )


def build_varying_network() -> ClosedNetwork:
    return ClosedNetwork(
        [
            Station("web", DemandProfile.exp_decay(0.03, 0.012, 20.0), servers=4),
            Station("db", DemandProfile.exp_decay(0.04, 0.02, 15.0)),
            Station("lan", 0.004, kind="delay"),
        ],
        think_time=0.5,
    )


def solve_ld(n: int, resume_from=None):
    """ld-MVA with the multi-server law on ``web``/``db`` and a table on ``app``."""
    return exact_load_dependent_mva(
        build_network(), n, rate_tables={"app": APP_RATES}, resume_from=resume_from
    )


def solve_resumable(key: str, n: int, resume_from=None):
    """Solve ``build_network()`` at ``n`` with the solver behind ``key``."""
    if key == "ld-mva":
        return solve_ld(n, resume_from)
    solver = {"exact-mva": exact_mva, "schweitzer-amva": schweitzer_amva}[key]
    return solver(build_network(), n, resume_from=resume_from)


def _class_demands():
    """``class -> station -> demand`` for the mix sweep: curves and constants."""
    return {
        "browse": {
            "web": DemandProfile.exp_decay(0.02, 0.012, 25.0),
            "app": 0.03,
            "db": DemandProfile.exp_decay(0.015, 0.01, 30.0),
            "lan": 0.004,
        },
        "buy": {"web": 0.035, "app": 0.01, "db": 0.025, "lan": 0.006},
    }


def _mix_tensor(t: int) -> np.ndarray:
    """The ``(T, K, C)`` demand tensor ``multiclass_mvasd`` evaluates."""
    demands = _class_demands()
    out = np.empty((t, len(STATIONS), len(demands)))
    for i in range(t):
        for ci, cls in enumerate(demands):
            for ki, st in enumerate(STATIONS):
                spec = demands[cls][st]
                out[i, ki, ci] = float(spec(float(i + 1))) if callable(spec) else spec
    return out


def build_results() -> dict:
    """Every stored-result shape, by key."""
    net = build_network()
    out = {}
    for key in RESUMABLE:
        first = solve_resumable(key, L)
        out[f"{key}-L"] = first
        out[f"{key}-N"] = solve_resumable(key, N)
        out[f"{key}-chain"] = solve_resumable(
            key, N, resume_from=solve_resumable(key, M, resume_from=first)
        )
    varying = build_varying_network()
    out["exact-mva-level"] = exact_mva(varying, 40, demand_level=7.0)
    out["exact-mva-override"] = exact_mva(net, 40, demands=DEMANDS * 1.5)
    out["schweitzer-amva-level"] = schweitzer_amva(varying, 40, demand_level=7.0)
    out["ld-mva-rates"] = exact_load_dependent_mva(
        net, 40, rates={"db": lambda j: min(j, 2) / 0.018 * (1.0 + 0.01 * j)}
    )
    out["ld-mva-idle"] = exact_load_dependent_mva(
        net, 30, demands=[0.012, 0.0, 0.018, 0.004]
    )

    for pops in ((0, 0), (5, 0), (6, 4), (9, 7)):
        out[f"exact-multiclass-{pops}"] = exact_multiclass_mva(
            CLASS_DEMANDS, pops, CLASS_THINK, STATIONS, KINDS
        )
    out["exact-multiclass-queues"] = exact_multiclass_mva(
        CLASS_DEMANDS[:3], (4, 5), CLASS_THINK
    )
    for pops in ((6, 4), (0, 12), (2.5, 3)):
        out[f"bard-schweitzer-{pops}"] = bard_schweitzer(
            CLASS_DEMANDS, pops, CLASS_THINK, KINDS
        )
    out["multiclass-mvasd"] = multiclass_mvasd(
        STATIONS, _class_demands(), {"browse": 0.7, "buy": 0.3}, 50,
        {"browse": 1.0, "buy": 0.5}, KINDS,
    )
    out["multiclass-mvasd-queues"] = multiclass_mvasd(
        STATIONS[:3],
        {"a": {"web": 0.02, "app": 0.03, "db": 0.01}, "b": {"web": 0.01, "app": 0.0, "db": 0.04}},
        {"a": 1.0, "b": 2.0}, 45, {"a": 0.0, "b": 2.0},
    )

    stack = DEMANDS * SCALES[:, None]
    think = np.array([0.5, 1.0, 2.0])
    mask = np.array([True, False, True])
    garbage = stack.copy()
    garbage[1] = np.nan
    kernels = {"exact-mva": batched_exact_mva, "schweitzer-amva": batched_schweitzer_amva}
    for name, kernel in kernels.items():
        out[f"batched-{name}"] = kernel(net, N, stack, think_times=think)
        out[f"batched-{name}-masked"] = kernel(net, N, garbage, think_times=think, mask=mask)
    mu = build_rate_tables(net, DEMANDS, N, rate_tables={"app": APP_RATES})
    inputs = np.concatenate([DEMANDS[:, None], mu], axis=1)[None] * np.ones((3, 1, 1))
    inputs[:, :, 1:] /= SCALES[:, None, None]
    inputs[:, :, 0] *= SCALES[:, None]
    out["batched-ld-mva"] = batched_ld_mva(net, N, inputs, think_times=think)
    bad = inputs.copy()
    bad[1, 1, 5] = -1.0
    out["batched-ld-mva-masked"] = batched_ld_mva(net, N, bad, think_times=think, mask=mask)
    class_stack = CLASS_DEMANDS[None] * SCALES[:, None, None]
    out["batched-exact-multiclass"] = batched_exact_multiclass(
        class_stack, (6, 4), CLASS_THINK, STATIONS, KINDS, ("browse", "buy")
    )
    out["batched-exact-multiclass-masked"] = batched_exact_multiclass(
        class_stack, (6, 4), CLASS_THINK, STATIONS, KINDS, mask=mask
    )
    tensor = _mix_tensor(50)[None] * SCALES[:, None, None, None]
    out["batched-multiclass-mvasd"] = batched_multiclass_mvasd(
        STATIONS, ("browse", "buy"), tensor, [0.7, 0.3], 50, CLASS_THINK, KINDS
    )
    out["batched-multiclass-mvasd-masked"] = batched_multiclass_mvasd(
        STATIONS, ("browse", "buy"), tensor, [0.7, 0.3], 50, CLASS_THINK, KINDS, mask=mask
    )
    return out


def assert_same(got, want, where: str = "result") -> None:
    """Bit-identical values of identical types, through dataclasses and containers."""
    assert type(got) is type(want), (where, type(got), type(want))
    if dataclasses.is_dataclass(want):
        for field in dataclasses.fields(want):
            name = field.name
            assert_same(getattr(got, name), getattr(want, name), f"{where}.{name}")
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype, (where, got.dtype, want.dtype)
        assert got.shape == want.shape, (where, got.shape, want.shape)
        assert np.array_equal(got, want, equal_nan=want.dtype.kind == "f"), where
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), (where, sorted(got), sorted(want))
        for key in want:
            assert_same(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want), (where, len(got), len(want))
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    else:
        assert got == want, (where, got, want)


def write_fixture() -> None:
    PICKLE.write_bytes(pickle.dumps(build_results(), protocol=pickle.HIGHEST_PROTOCOL))


if __name__ == "__main__":
    write_fixture()
