"""Chebyshev nodes and error bounds (Section 8)."""

import numpy as np
import pytest

from repro.interpolate import (
    chebyshev_error_bound,
    chebyshev_nodes,
    chebyshev_nodes_unit,
    concurrency_test_points,
    exponential_error_bound,
)


class TestUnitNodes:
    def test_are_chebyshev_roots(self):
        # T_n vanishes at the nodes: cos(n * arccos(x)) == 0.
        for n in (1, 3, 5, 8):
            nodes = chebyshev_nodes_unit(n)
            tn = np.cos(n * np.arccos(nodes))
            np.testing.assert_allclose(tn, 0.0, atol=1e-12)

    def test_sorted_and_in_range(self):
        nodes = chebyshev_nodes_unit(7)
        assert np.all(np.diff(nodes) > 0)
        assert nodes[0] > -1 and nodes[-1] < 1

    def test_symmetric(self):
        nodes = chebyshev_nodes_unit(6)
        np.testing.assert_allclose(nodes, -nodes[::-1], atol=1e-12)

    def test_single_node_at_zero(self):
        np.testing.assert_allclose(chebyshev_nodes_unit(1), [0.0], atol=1e-15)

    def test_needs_positive_count(self):
        with pytest.raises(ValueError):
            chebyshev_nodes_unit(0)


class TestMappedNodes:
    def test_affine_map(self):
        unit = chebyshev_nodes_unit(5)
        mapped = chebyshev_nodes(5, 1.0, 300.0)
        np.testing.assert_allclose(mapped, 150.5 + 149.5 * unit, rtol=1e-12)

    def test_inside_interval(self):
        mapped = chebyshev_nodes(9, -3.0, 7.0)
        assert np.all(mapped > -3) and np.all(mapped < 7)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            chebyshev_nodes(3, 5.0, 5.0)


class TestErrorBound:
    def test_formula(self):
        # eq. 19: deriv_max / (2^(n-1) n!)
        assert chebyshev_error_bound(4, 48.0) == pytest.approx(48 / (8 * 24))

    def test_decreases_with_nodes_for_exponential(self):
        bounds = [exponential_error_bound(n, 1.0) for n in range(1, 10)]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))

    def test_paper_claim_under_0p2_percent_past_5_nodes(self):
        # Fig. 13: "for greater than 5 nodes, the error rate drops to
        # less than 0.2% for all cases" (mu up to ~1).
        for mu in (0.25, 0.5, 1.0):
            assert exponential_error_bound(6, mu) < 0.002

    def test_bound_actually_bounds_interpolation_error(self):
        # Empirical check: Chebyshev polynomial interpolation of exp(x)
        # stays below the eq. 19 bound.
        mu = 1.0
        for n in (3, 5, 7):
            nodes = chebyshev_nodes_unit(n)
            vals = np.exp(mu * nodes)
            coeffs = np.polyfit(nodes, vals, n - 1)
            xq = np.linspace(-1, 1, 501)
            err = np.abs(np.polyval(coeffs, xq) - np.exp(mu * xq)).max()
            assert err <= exponential_error_bound(n, mu) * (1 + 1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            chebyshev_error_bound(0, 1.0)
        with pytest.raises(ValueError):
            chebyshev_error_bound(3, -1.0)


class TestConcurrencyTestPoints:
    def test_paper_jpetstore_design(self):
        # Paper: Chebyshev-5 on [1, 300] ~ {9, 63, 151, 239, 293}
        # (+/- 1 from rounding conventions).
        pts = concurrency_test_points(5, 1, 300)
        expected = np.array([9, 63, 151, 239, 293])
        assert np.all(np.abs(pts - expected) <= 1)

    def test_paper_chebyshev_3_and_7(self):
        pts3 = concurrency_test_points(3, 1, 300)
        assert np.all(np.abs(pts3 - np.array([22, 151, 280])) <= 2)
        pts7 = concurrency_test_points(7, 1, 300)
        assert np.all(np.abs(pts7 - np.array([5, 34, 86, 151, 216, 268, 297])) <= 2)

    def test_integer_unique_increasing(self):
        pts = concurrency_test_points(9, 1, 50)
        assert pts.dtype.kind == "i"
        assert np.all(np.diff(pts) >= 1)

    def test_minimum_gap_enforced(self):
        pts = concurrency_test_points(10, 1, 12, minimum_gap=2)
        assert np.all(np.diff(pts) >= 2)
        assert pts[-1] <= 12

    def test_validation(self):
        with pytest.raises(ValueError):
            concurrency_test_points(3, 10, 10)
        with pytest.raises(ValueError):
            concurrency_test_points(3, 1, 10, minimum_gap=0)
