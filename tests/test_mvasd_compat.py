"""MVASD results stored before the population recursion and the
throughput-axis fixed point moved onto the batched recursion still match
today's solves, and the population-axis ones still resume.

The fixture (``tests/fixtures/mvasd_compat.pkl``) was written by commit
78a2cf5, its population-axis entries first by commit cc9a844 — see
``tests/fixtures/mvasd_compat.py``, which also rebuilds the results it
holds.  A failure here means a result in an existing sqlite cache would
no longer equal a fresh solve, or would no longer extend to a deeper
population bit for bit.
"""

import pickle

import numpy as np
import pytest

from repro.core import mvasd
from repro.engine import native
from tests.fixtures.mvasd_compat import (
    PICKLE,
    N,
    assert_same_result,
    build_network,
    build_results,
)

STORED = pickle.loads(PICKLE.read_bytes())


@pytest.fixture(params=["native", "numpy"])
def kernel(request, monkeypatch):
    """Run each test on the compiled kernel and on the NumPy fallback."""
    if request.param == "numpy":
        monkeypatch.setattr(native, "_kernel", None)
    return request.param


def test_fixture_holds_every_stored_shape():
    assert sorted(STORED) == sorted(build_results())
    assert STORED["mvasd-N"].final_state["level"] == N
    assert sorted(STORED["recursion-N"].marginal_probabilities) == ["app", "web"]
    thr = STORED["throughput-N"]
    assert (thr.solver, thr.final_state) == ("mvasd-throughput", None)
    assert sorted(thr.marginal_probabilities) == ["app", "web"]
    # The curves vary over the throughputs the fixed point visits.
    assert len(np.unique(thr.demands_used[:, 0])) == N


@pytest.mark.parametrize("key", sorted(STORED))
def test_new_solve_equals_stored_result(kernel, key):
    assert_same_result(build_results()[key], STORED[key])


@pytest.mark.parametrize("variant", ["mvasd", "single-server"])
def test_stored_prefix_resumes_to_the_stored_deeper_result(kernel, variant):
    resumed = mvasd(
        build_network(),
        N,
        single_server=variant == "single-server",
        resume_from=STORED[f"{variant}-L"],
    )
    assert_same_result(resumed, STORED[f"{variant}-N"])
