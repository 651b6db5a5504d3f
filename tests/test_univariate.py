"""Univariate basis and operator tests, including high-precision oracles."""

import math

import mpmath
import numpy as np
import pytest

from diskbern.univariate import (
    Interval,
    UNIT_INTERVAL,
    Transform1D,
    basis_argmax,
    basis_classical,
    basis_row,
    basis_rows,
    basis_shifted,
    basis_shifted_derivative,
    basis_shifted_row,
    bernstein,
    bernstein_shifted,
    c_tau,
    c_tau_shifted,
    identity_transform,
    validate_transform,
)

RNG = np.random.default_rng(20240817)


def square_transform():
    return Transform1D(lambda x: x * x, math.sqrt)


class TestBasisClassical:
    def test_small_degree_exact_fractions(self):
        # direct formula with exact binomials
        for n in (1, 2, 3, 5, 8):
            for k in range(n + 1):
                for x in (0.0, 0.125, 0.3, 0.5, 0.75, 1.0):
                    expected = math.comb(n, k) * x**k * (1 - x) ** (n - k)
                    assert basis_classical(n, k, x) == pytest.approx(expected, abs=1e-14)

    def test_known_value(self):
        assert basis_classical(5, 2, 0.3) == pytest.approx(0.3087, abs=1e-12)

    def test_endpoint_kronecker(self):
        n = 7
        for k in range(n + 1):
            assert basis_classical(n, k, 0.0) == (1.0 if k == 0 else 0.0)
            assert basis_classical(n, k, 1.0) == (1.0 if k == n else 0.0)

    def test_partition_of_unity(self):
        for n in (1, 4, 40, 200):
            for x in RNG.uniform(0, 1, 5):
                assert math.fsum(basis_classical(n, k, x) for k in range(n + 1)) == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_nonnegative(self):
        for x in RNG.uniform(0, 1, 10):
            assert basis_classical(30, 11, float(x)) >= 0.0

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            basis_classical(3, 4, 0.5)
        with pytest.raises(ValueError):
            basis_classical(3, -1, 0.5)
        with pytest.raises(ValueError):
            basis_classical(-1, 0, 0.5)
        with pytest.raises(ValueError):
            basis_classical(3, 1, 1.5)


class TestBasisRowHighDegree:
    def test_row_sums_to_one_at_high_degree(self):
        for x in (1e-6, 0.001, 0.5, 0.999, 1 - 1e-6):
            row = basis_row(400, x)
            assert math.fsum(row) == pytest.approx(1.0, abs=1e-11)
            assert np.all(row >= 0.0)

    def test_against_mpmath_oracle(self):
        # 50-digit evaluation of C(n,k) x^k (1-x)^(n-k) at an extreme point
        n, x = 200, 0.999
        row = basis_row(n, x)
        with mpmath.workdps(50):
            mx = mpmath.mpf("0.999")
            for k in (0, 150, 190, 198, 199, 200):
                exact = mpmath.binomial(n, k) * mx**k * (1 - mx) ** (n - k)
                assert row[k] == pytest.approx(float(exact), rel=1e-12, abs=1e-300)

    def test_rows_matches_row(self):
        xs = np.array([0.0, 0.1, 0.5, 0.93, 1.0])
        rows = basis_rows(37, xs)
        for i, x in enumerate(xs):
            np.testing.assert_allclose(rows[i], basis_row(37, float(x)), rtol=1e-14)


class TestShiftedBasis:
    IV = Interval(-1.0, 2.0)

    def test_affine_equivalence(self):
        for x in RNG.uniform(-1, 2, 10):
            u = (x + 1.0) / 3.0
            for k in range(6):
                assert basis_shifted(5, k, float(x), self.IV) == pytest.approx(
                    basis_classical(5, k, u), abs=1e-13
                )

    def test_partition_of_unity_on_interval(self):
        for x in RNG.uniform(-1, 2, 5):
            assert math.fsum(basis_shifted_row(20, float(x), self.IV)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_derivative_against_finite_differences(self):
        h = 1e-6
        for k in (0, 2, 5):
            for x in (-0.5, 0.3, 1.7):
                fd = (basis_shifted(5, k, x + h, self.IV) - basis_shifted(5, k, x - h, self.IV)) / (
                    2 * h
                )
                assert basis_shifted_derivative(5, k, x, self.IV) == pytest.approx(fd, abs=1e-7)

    def test_derivative_degree_zero(self):
        assert basis_shifted_derivative(0, 0, 0.5, self.IV) == 0.0

    def test_derivatives_sum_to_zero(self):
        # the partition of unity is constant, so derivatives cancel
        for x in (-0.9, 0.0, 1.5):
            total = math.fsum(basis_shifted_derivative(8, k, x, self.IV) for k in range(9))
            assert total == pytest.approx(0.0, abs=1e-10)

    def test_argmax_location_and_value(self):
        n = 9
        for k in range(n + 1):
            loc, val = basis_argmax(n, k, self.IV)
            assert loc == pytest.approx(self.IV.width * k / n + self.IV.alpha, abs=1e-14)
            # grid search oracle
            grid = np.linspace(self.IV.alpha, self.IV.beta, 4001)
            vals = [basis_shifted(n, k, float(x), self.IV) for x in grid]
            assert val == pytest.approx(max(vals), rel=1e-5)
            assert basis_shifted(n, k, loc, self.IV) == pytest.approx(val, rel=1e-12)

    def test_argmax_value_is_basis_classical_at_k_over_n(self):
        for n in range(1, 401):
            for k in range(n + 1):
                assert basis_argmax(n, k, self.IV)[1] == basis_classical(n, k, k / n)

    def test_argmax_rejects_degree_zero_and_bad_index(self):
        with pytest.raises(ValueError, match="no unique maximum"):
            basis_argmax(0, 0, self.IV)
        with pytest.raises(ValueError, match="out of range"):
            basis_argmax(4, 5, self.IV)

    def test_out_of_interval(self):
        with pytest.raises(ValueError):
            basis_shifted(3, 1, 5.0, self.IV)


class TestBernsteinOperator:
    def test_reproduces_constants_and_linears(self):
        for n in (1, 6, 33):
            for x in RNG.uniform(0, 1, 5):
                x = float(x)
                assert bernstein(lambda t: 1.0, n, x) == pytest.approx(1.0, abs=1e-12)
                assert bernstein(lambda t: t, n, x) == pytest.approx(x, abs=1e-12)

    def test_quadratic_image(self):
        for n in (2, 4, 10):
            for x in (0.2, 0.5, 0.9):
                expected = x * x + x * (1 - x) / n
                assert bernstein(lambda t: t * t, n, x) == pytest.approx(expected, abs=1e-13)

    def test_endpoint_interpolation(self):
        f = lambda t: math.sin(3 * t)
        assert bernstein(f, 12, 0.0) == pytest.approx(f(0.0), abs=1e-14)
        assert bernstein(f, 12, 1.0) == pytest.approx(f(1.0), abs=1e-14)

    def test_degree_zero_convention(self):
        assert bernstein(lambda t: 5.0 - t, 0, 0.7) == 5.0

    def test_shifted_quadratic_image(self):
        iv = Interval(-1.0, 2.0)
        for n in (3, 5, 20):
            for x in (-0.4, 0.5, 1.9):
                expected = x * x + (x - iv.alpha) * (iv.beta - x) / n
                assert bernstein_shifted(lambda t: t * t, n, x, iv) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_shifted_matches_unit_interval(self):
        f = lambda t: math.cos(t)
        for x in (0.1, 0.6):
            assert bernstein_shifted(f, 9, x, UNIT_INTERVAL) == pytest.approx(
                bernstein(f, 9, x), abs=1e-14
            )

    def test_monotone_convergence_for_convex(self):
        # for convex f the Bernstein approximants decrease monotonically in n
        f = lambda t: math.exp(2 * t)
        x = 0.37
        values = [bernstein(f, n, x) for n in (2, 4, 8, 16, 32, 64)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > f(x)


class TestTransforms:
    def test_identity_is_valid(self):
        diag = identity_transform().validate()
        assert diag.passed

    def test_square_transform_valid(self):
        assert square_transform().validate().passed

    def test_endpoint_violation_detected(self):
        bad = Transform1D(lambda x: x + 0.1, lambda x: x - 0.1)
        assert not bad.validate().passed
        with pytest.raises(ValueError):
            bad.require_valid()

    def test_nonmonotone_detected(self):
        bad = Transform1D(lambda x: x * (1 - x) * 4, lambda x: x)
        diag = bad.validate()
        assert not diag.passed
        assert diag.min_forward_difference <= 0.0

    def test_wrong_inverse_detected(self):
        bad = Transform1D(lambda x: x * x, lambda x: x)
        assert not bad.validate().passed

    def test_validate_grid_size_error(self):
        with pytest.raises(ValueError):
            validate_transform(identity_transform(), UNIT_INTERVAL, grid_size=1)


class TestCTau:
    def test_identities(self):
        tau = square_transform()
        for n in (2, 5, 17):
            for x in RNG.uniform(0, 1, 5):
                x = float(x)
                tx = x * x
                assert c_tau(lambda t: 1.0, tau, n, x) == pytest.approx(1.0, abs=1e-12)
                assert c_tau(lambda t: t * t, tau, n, x) == pytest.approx(tx, abs=1e-12)
                expected = (1 - 1 / n) * tx * tx + tx / n
                assert c_tau(lambda t: t**4, tau, n, x) == pytest.approx(expected, abs=1e-12)

    def test_identity_transform_reduces_to_bernstein(self):
        f = lambda t: math.sin(2 * t)
        for x in (0.2, 0.8):
            assert c_tau(f, identity_transform(), 11, x) == pytest.approx(
                bernstein(f, 11, x), abs=1e-13
            )

    def test_shifted_variant_on_unit_interval(self):
        tau = square_transform()
        f = lambda t: t + 1.0
        for x in (0.3, 0.9):
            assert c_tau_shifted(f, tau, 8, x, UNIT_INTERVAL) == pytest.approx(
                c_tau(f, tau, 8, x), abs=1e-13
            )

    def test_invalid_transform_rejected(self):
        bad = Transform1D(lambda x: x + 0.2, lambda x: x - 0.2)
        with pytest.raises(ValueError):
            c_tau(lambda t: t, bad, 4, 0.5)
