import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from ytensor import shape


def fd(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


class TestOmega:
    def test_values(self):
        assert shape.omega(0.0) == pytest.approx(2 / math.pi)
        assert shape.omega(1.0) == 1.0
        assert shape.omega(-3.0) == 3.0

    def test_omega_0_equals_omega(self):
        for s in np.linspace(-1.2, 1.2, 25):
            assert shape.omega_c(0.0, float(s)) == pytest.approx(shape.omega(float(s)), abs=1e-14)

    def test_continuity_at_breakpoints(self):
        for c in [0.3, 1.0, 2.5]:
            for s in shape.shape_breakpoints(c):
                left = shape.omega_c(c, s - 1e-9)
                right = shape.omega_c(c, s + 1e-9)
                assert left == pytest.approx(right, abs=1e-7)

    def test_affine_branch_above_one(self):
        c = 2.0
        s = -0.2  # inside [-1/(2c), (c-2)/2]
        assert shape.omega_c(c, s) == pytest.approx(s + 1 / c)
        assert shape.omega_c_prime(c, s) == 1.0

    def test_matches_absolute_value_outside(self):
        for c in [0.5, 2.0]:
            lo, hi = shape.shape_support(c)
            assert shape.omega_c(c, lo - 0.3) == pytest.approx(abs(lo - 0.3))
            assert shape.omega_c(c, hi + 0.3) == pytest.approx(hi + 0.3)

    def test_area_above_axis_is_half(self):
        for c in [0.0, 0.5, 1.0, 2.0]:
            lo, hi = shape.shape_support(c)
            val, _ = integrate.quad(lambda s: shape.omega_c(c, s) - abs(s), lo, hi,
                                    points=[p for p in shape.shape_breakpoints(c) + [0.0]
                                            if lo < p < hi], limit=200)
            assert val == pytest.approx(0.5, abs=1e-9)

    def test_prime_by_finite_differences(self):
        for c in [0.0, 0.5, 1.0, 2.0]:
            for s in [0.5 * c - 0.7, 0.1, 0.5 * c + 0.6]:
                assert shape.omega_c_prime(c, s) == pytest.approx(
                    fd(lambda x: shape.omega_c(c, x), s), abs=1e-6)

    def test_prime_endpoint_slopes(self):
        for c in [0.5, 1.0, 3.0]:
            assert shape.omega_c_prime(c, 0.5 * c + 1.0) == pytest.approx(1.0)
        assert shape.omega_c_prime(0.5, 0.25 - 1.0) == pytest.approx(-1.0)

    def test_second_by_finite_differences(self):
        for c in [0.5, 2.0]:
            for z in [-0.5, 0.0, 0.7]:
                got = shape.omega_c_second(c, z)
                want = fd(lambda y: shape.omega_c_prime(c, y + 0.5 * c), z, h=1e-5)
                assert got == pytest.approx(want, rel=1e-4, abs=1e-6)

    def test_second_rejects_endpoint(self):
        with pytest.raises(ValueError):
            shape.omega_c_second(1.0, 1.0)


class TestPhi:
    def test_values(self):
        assert shape.phi(0, 0.5) == 0.0
        assert shape.phi(1, 0.5) == 0.5
        assert shape.phi(2, 0.5) == pytest.approx(3 / 16)
        assert shape.phi(2, 0.0) == 0.0

    def test_chain(self):
        for x in [-0.8, 0.3, 1.7]:
            assert fd(lambda y: shape.phi(2, y), x) == pytest.approx(shape.phi(1, x), abs=1e-8)
            assert fd(lambda y: shape.phi(1, y), x) == pytest.approx(shape.phi(0, x), abs=1e-6)

    def test_phi0_singular(self):
        with pytest.raises(ValueError):
            shape.phi(0, 0.0)

    def test_vectorized_matches_scalar(self):
        xs = np.array([-1.0, 0.0, 0.25, 2.0])
        np.testing.assert_allclose(shape.phi(2, xs), [shape.phi(2, float(x)) for x in xs])


def _crossing_grid(c):
    """Points on every branch of Omega_c: outside, the support edges, the bulk
    and, for c > 1, the affine piece; s = -1/2 is the c = 1 meeting point."""
    lo, hi = shape.shape_support(c)
    pts = [lo - 0.3, lo, hi, hi + 0.3, 0.5 * c - 1.0, 0.5 * c + 1.0, -0.5, -0.2, 0.0, 0.3]
    return np.array(pts + list(np.linspace(lo, hi, 11)))


class TestArrayKernels:
    CS = [0.0, 0.5, 1.0, 2.0]

    @pytest.mark.parametrize("kernel", [shape.omega_c, shape.omega_c_prime])
    def test_array_equals_elementwise_float(self, kernel):
        for c in self.CS:
            s = _crossing_grid(c)
            got = kernel(c, s)
            assert isinstance(got, np.ndarray) and got.shape == s.shape
            want = [kernel(c, float(x)) for x in s]
            assert all(type(v) is float for v in want)
            np.testing.assert_array_equal(got, want)

    def test_affine_branch_and_meeting_point_on_grid(self):
        s = np.array([-0.25, -0.2, 0.0])  # c = 2: the affine piece [-1/4, 0]
        np.testing.assert_allclose(shape.omega_c(2.0, s), s + 0.5, atol=1e-15)
        assert shape.omega_c(1.0, -0.5) == 0.5
        assert shape.omega_c_prime(1.0, -0.5) == 0.0

    def test_phi_array_equals_elementwise_float(self):
        xs = np.array([-1.7, -0.5, -1e-12, 0.0, 1e-12, 0.25, 0.5, 2.0])
        for k in (1, 2):
            got = shape.phi(k, xs)
            np.testing.assert_array_equal(got, [shape.phi(k, float(x)) for x in xs])
        nz = xs[xs != 0.0]
        np.testing.assert_array_equal(shape.phi(0, nz), [shape.phi(0, float(x)) for x in nz])
        with pytest.raises(ValueError):
            shape.phi(0, xs)

    def test_curved_branch_accurate_near_support_ends(self):
        # the plain arcsin/arccos form lost ~1e-9 this close to the ends.
        def reference(c, s):
            with mpmath.workdps(40):
                c, s = mpmath.mpf(c), mpmath.mpf(s)
                r = mpmath.sqrt(1 + 2 * c * s)
                t1 = s * mpmath.asin((2 * s + c) / (2 * r))
                t2 = mpmath.acos((2 + 2 * s * c - c * c) / (2 * r)) / (2 * c)
                t3 = mpmath.sqrt(4 - (2 * s - c) ** 2) / 4
                return float(2 / mpmath.pi * (t1 + t2 + t3))

        for c in [0.5, 0.9, 1.0, 1.1, 2.0, 4.0]:
            for d in [1e-14, 1e-12, 1e-10, 1e-6]:
                for s in [0.5 * c - 1.0 + d, 0.5 * c + 1.0 - d]:
                    if c > 1.0 or s > 0.5 * c - 1.0:
                        assert shape.omega_c(c, s) == pytest.approx(reference(c, s), abs=2e-15)


class TestHGJ:
    def test_H_vanishes_inside_and_is_continuous(self):
        for c in [0.5, 1.0, 2.0]:
            assert shape.H_tilde(c, 0.3) == 0.0
            # the square-root factor makes the approach O(sqrt(eps))
            assert shape.H_tilde(c, 1.0 + 1e-9) == pytest.approx(0.0, abs=1e-4)
            assert shape.H_tilde(c, -1.0 - 1e-9) == pytest.approx(0.0, abs=1e-4)

    def test_H_prime_by_finite_differences(self):
        for c in [0.5, 1.0, 2.0]:
            for z in [1.4, -1.6, 2.3]:
                assert shape.H_tilde_prime(c, z) == pytest.approx(
                    fd(lambda y: shape.H_tilde(c, y), z), abs=1e-6)

    def test_H_second_by_finite_differences(self):
        for c in [0.5, 2.0]:
            for z in [1.5, -1.8, 2.4]:
                assert shape.H_tilde_second(c, z) == pytest.approx(
                    fd(lambda y: shape.H_tilde_prime(c, y), z, h=1e-5),
                    rel=1e-4, abs=1e-5)

    def test_H_prime_sign_pattern(self):
        # H' >= 0 right of the bulk; left of it the sign matches that of
        # L - Omega_c there (nonnegative for c <= 1, nonpositive on the
        # affine window (-a, -1) for c > 1), which makes the penalty >= 0.
        for c in [0.5, 1.0, 2.0]:
            assert shape.H_tilde_prime(c, 1.5) >= 0.0
        for c in [0.5, 1.0]:
            assert shape.H_tilde_prime(c, -1.5) >= 0.0
        a = (1 + 4.0) / 4.0
        for z in [-1.05, -1.2, -1.24]:
            assert -a < z < -1.0
            assert shape.H_tilde_prime(2.0, z) <= 0.0

    def test_G_prime(self):
        for c in [0.5, 2.0]:
            for s in [-0.2, 0.4, 1.1]:
                assert fd(lambda y: shape.G(c, y), s) == pytest.approx(
                    -math.log(abs(1 + 2 * c * s)), abs=1e-6)

    def test_J_prime_is_H(self):
        for c in [0.5, 1.0, 2.0]:
            for z in [1.3, -1.8, 2.5]:
                assert fd(lambda y: shape.J_tilde(c, y), z) == pytest.approx(
                    shape.H_tilde(c, z), abs=1e-6)

    def test_J_vanishes_inside(self):
        assert shape.J_tilde(0.7, 0.99) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            shape.H_tilde_prime(1.0, 0.5)
        with pytest.raises(ValueError):
            shape.G(0.0, 0.1)


class TestEmit:
    def test_support_monotone_in_c(self):
        assert shape.shape_support(0.0) == (-1.0, 1.0)
        lo, hi = shape.shape_support(2.0)
        assert lo == -0.25 and hi == 2.0

    def test_emit_shape_csv(self):
        text = shape.emit_shape_csv(1.0, [0.0, 0.5])
        lines = text.strip().split("\n")
        assert lines[0] == "s,omega_c,omega_c_prime"
        assert len(lines) == 3
        s, om, op = map(float, lines[1].split(","))
        assert om == pytest.approx(shape.omega_c(1.0, s))
