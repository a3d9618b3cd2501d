"""Results stored before the scalar solvers moved onto their batched
kernels still match today's solves, and still resume.

The fixture (``tests/fixtures/solver_compat.pkl``) was written by commit
50808c8 — see ``tests/fixtures/solver_compat.py``, which also rebuilds
the results it holds.  A failure here means a result in an existing
sqlite cache would no longer equal a fresh solve, would no longer extend
to a deeper population bit for bit, or a kernel's output moved.
"""

import pickle

import pytest

from tests.fixtures.solver_compat import (
    PICKLE,
    RESUMABLE,
    M,
    N,
    assert_same,
    build_results,
    solve_resumable,
)

STORED = pickle.loads(PICKLE.read_bytes())


@pytest.fixture(scope="module")
def fresh():
    return build_results()


def test_fixture_holds_every_stored_shape(fresh):
    assert sorted(STORED) == sorted(fresh)
    assert STORED["ld-mva-N"].final_state["level"] == N
    assert sorted(STORED["ld-mva-N"].marginal_probabilities) == ["app", "db", "web"]


@pytest.mark.parametrize("key", sorted(STORED))
def test_new_solve_equals_stored_result(fresh, key):
    assert_same(fresh[key], STORED[key], key)


@pytest.mark.parametrize("key", RESUMABLE)
def test_stored_prefix_resumes_to_the_stored_deeper_result(key):
    assert_same(solve_resumable(key, N, resume_from=STORED[f"{key}-L"]), STORED[f"{key}-N"])
    mid = solve_resumable(key, M, resume_from=STORED[f"{key}-L"])
    assert_same(solve_resumable(key, N, resume_from=mid), STORED[f"{key}-chain"])


@pytest.mark.parametrize("key", RESUMABLE)
def test_resume_chain_equals_the_fresh_solve(key):
    assert_same(STORED[f"{key}-chain"], STORED[f"{key}-N"])
