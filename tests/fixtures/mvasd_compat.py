"""Stored-MVASD-result compatibility fixture: builder, comparator and writer.

``build_results`` solves one small varying-demand network (a 4-core web
tier, a 2-core app tier, a 1-core database and a think-time delay) with
every multi-server MVASD recursion a stored result can come from: the
population axis and the Section-7 throughput axis.  Run as a script
from the repository root, this module pickles what the code it imports
makes of them, exactly as the sqlite cache tier stores a solver result:

    PYTHONPATH=src:. python tests/fixtures/mvasd_compat.py

* ``mvasd_compat.pkl`` — a dict of :class:`~repro.core.results.MVAResult`
  by key: ``mvasd`` at L=60 and N=120 (each with its ``final_state``),
  the ``single_server=True`` baseline at L=60 and N=120,
  ``exact_multiserver_mva(method="recursion")`` at N=120, and
  ``mvasd(demand_axis="throughput")`` at N=120 with and without
  ``single_server`` (the demand curves vary over the throughputs the
  fixed point visits, from ~1 to ~59 per second).

The population-axis entries were first written by commit cc9a844, the
last one whose scalar ``mvasd`` ran its own Python population loop.  The
committed file was rewritten, with the throughput-axis entries added, by
commit 78a2cf5, the last one whose throughput axis stepped the scalar
``MultiServerState`` loop; its population-axis entries are unchanged.
``tests/test_mvasd_compat.py`` holds today's code to it.
"""

from __future__ import annotations

import pickle
from dataclasses import fields
from pathlib import Path

import numpy as np

from repro.apps import DemandProfile
from repro.core import ClosedNetwork, Station, exact_multiserver_mva, mvasd

HERE = Path(__file__).resolve().parent
PICKLE = HERE / "mvasd_compat.pkl"
#: The resume split: a stored result at ``L`` extended to ``N``.
L, N = 60, 120


def build_network() -> ClosedNetwork:
    return ClosedNetwork(
        [
            Station("web", DemandProfile.exp_decay(0.06, 0.035, 25.0), servers=4),
            Station("app", DemandProfile.exp_decay(0.045, 0.03, 40.0), servers=2),
            Station("db", DemandProfile.exp_decay(0.02, 0.016, 30.0)),
            Station("lan", 0.004, kind="delay"),
        ],
        think_time=1.0,
    )


def build_results() -> dict:
    """Every stored-result shape, by key."""
    net = build_network()
    return {
        "mvasd-L": mvasd(net, L),
        "mvasd-N": mvasd(net, N),
        "single-server-L": mvasd(net, L, single_server=True),
        "single-server-N": mvasd(net, N, single_server=True),
        "recursion-N": exact_multiserver_mva(net, N, method="recursion"),
        "throughput-N": mvasd(net, N, demand_axis="throughput"),
        "throughput-single-server-N": mvasd(
            net, N, single_server=True, demand_axis="throughput"
        ),
    }


def _assert_same_value(got, want, where: str) -> None:
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), where
        assert got.dtype == want.dtype, (where, got.dtype, want.dtype)
        assert got.shape == want.shape, (where, got.shape, want.shape)
        assert np.array_equal(got, want), where
    elif isinstance(want, dict):
        assert isinstance(got, dict), where
        assert sorted(got) == sorted(want), (where, sorted(got), sorted(want))
        for key in want:
            _assert_same_value(got[key], want[key], f"{where}[{key!r}]")
    else:
        assert type(got) is type(want), (where, type(got), type(want))
        assert got == want, (where, got, want)


def assert_same_result(got, want) -> None:
    """Bit-identical in every field, marginal histories and final state included."""
    assert type(got) is type(want)
    for field in fields(want):
        _assert_same_value(getattr(got, field.name), getattr(want, field.name), field.name)


def write_fixture() -> None:
    PICKLE.write_bytes(pickle.dumps(build_results(), protocol=pickle.HIGHEST_PROTOCOL))


if __name__ == "__main__":
    write_fixture()
