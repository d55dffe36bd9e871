import math
import os
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate

from ytensor.diagrams import Partition, Profile, profile
from ytensor import checks as C, exact, functionals as F, rsk, shape
from ytensor.quadrature import tanh_sinh
from ytensor.shape import H_tilde_prime, phi

# a sample_schur_weyl(400, 25, 44, 20) draw: at c = 0.8 its profile has a
# corner at 1.4000000000000001, one ulp from the shape's kink c/2 + 1 = 1.4
ULP_APART = Partition((56, 41, 39, 34, 29, 26, 24, 21, 19, 17, 15, 13, 13, 10, 10, 10, 8,
                       5, 4, 3, 2, 1))


def profile_as_curve(prof):
    """Wrap a lattice profile as a generic Curve (for quadrature cross-checks)."""
    cx, _ = prof.corners
    slopes = np.sign(np.diff(prof.ys)).astype(float)  # L' on each segment between corners

    def prime(s):
        s = np.asarray(s, dtype=float)
        k = np.clip(np.searchsorted(cx, s, side="right") - 1, 0, len(slopes) - 1)
        return np.where(s < cx[0], -1.0, np.where(s > cx[-1], 1.0, slopes[k]))

    return C.Curve(fn=lambda s: prof.evaluate(s), prime=prime,
                   support=(float(cx[0]), float(cx[-1])),
                   kinks=tuple(float(x) for x in cx[1:-1]))


class TestThetaProfile:
    def test_single_box_closed_form(self):
        got = F.theta_profile(profile(Partition((1,))))
        assert got == pytest.approx(4 * math.log(2) - 2, abs=1e-14)

    def test_against_direct_2d_quadrature(self):
        # lam = (1): one ascending and one descending unit segment.
        val, _ = integrate.dblquad(lambda t, s: math.log(2 * (s - t)),
                                   0.0, 0.5, -0.5, 0.0, epsabs=1e-12)
        assert F.theta_profile(profile(Partition((1,)))) == pytest.approx(
            1 + 8 * val, abs=1e-8)

    def test_representation_independence(self):
        lam = Partition((3, 1))
        prof = profile(lam)
        rebuilt = Profile(prof.n, prof.xs, prof.ys)
        assert F.theta_profile(rebuilt) == F.theta_profile(prof)

    def test_conjugation_symmetry(self):
        # the hook integral is mirror symmetric.
        for rows in [(3, 1), (4, 2, 2), (5,)]:
            lam = Partition(rows)
            conj = Partition(lam.conjugate_rows)
            assert F.theta_profile(profile(lam)) == pytest.approx(
                F.theta_profile(profile(conj)), abs=1e-12)

    def test_quadrature_route_agrees(self):
        for lam in [Partition((3, 1)), rsk.sample_schur_weyl(100, 10, 3, 1)[0]]:
            prof = profile(lam)
            got = C._theta_curve(profile_as_curve(prof))
            assert got == pytest.approx(F.theta_profile(prof), abs=1e-7)

    def test_blocked_log_energy_matches_one_matrix(self):
        x, d = F._corner_jumps(profile(Partition(tuple(range(300, 0, -1)))))
        assert x.size > F._ENERGY_ROWS
        one_matrix = float(d @ phi(2, x[None, :] - x[:, None]) @ d)
        assert F._log_energy(x, d) == pytest.approx(one_matrix, rel=1e-12, abs=0)

    def test_plancherel_trend(self):
        meds = []
        for n in [100, 400]:
            vals = [F.theta_profile(profile(l))
                    for l in rsk.sample_plancherel(n, seed=4, count=5)]
            assert min(vals) > 0
            meds.append(float(np.median(vals)))
        assert meds[1] < meds[0]


class TestThetaShape:
    def test_theta_omega_0_vanishes(self):
        assert abs(F.theta_shape(0.0)) < 1e-6

    def test_theta_equals_rho_at_minimizer(self):
        for c in [0.5, 1.0, 2.0, 0.99, 1.01]:
            gap = F.theta_shape(c) - C._rho_curve(C.shape_curve(c), c)
            assert abs(gap) < 1e-6

    def test_closed_form_matches_nested_quadrature(self):
        for c in [0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0]:
            nested = C._theta_curve(C.shape_curve(c))
            assert F.theta_shape(c) == pytest.approx(nested, abs=1e-9)

    def test_closed_form_below_one_and_at_the_branch_point(self):
        for c in [0.0, 0.1, 0.5, 0.99, 1.0]:
            assert F.theta_shape(c) == c * c / 4.0
        assert F.theta_shape(math.nextafter(1.0, 2.0)) == pytest.approx(0.25, abs=1e-11)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, -0.5])
    def test_rejects_nonfinite_and_negative_c(self, c):
        with pytest.raises(ValueError, match="c must be finite and nonnegative"):
            F.theta_shape(c)


class TestRho:
    def test_zero_c(self):
        assert F.rho(profile(Partition((2, 1))), 0.0) == 0.0

    def test_zero_for_absolute_value(self):
        curve = C.Curve(fn=abs, prime=lambda s: math.copysign(1.0, s) if s else 0.0,
                        support=(-1.0, 1.0), kinks=(0.0,))
        assert C._rho_curve(curve, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_vs_quadrature(self):
        # c_n = 1, 0.5 and 2
        for n, N in [(400, 20), (100, 20), (400, 10)]:
            c = math.sqrt(n) / N
            for lam in rsk.sample_schur_weyl(n, N, seed=6, count=10):
                prof = profile(lam)
                closed = F.rho(prof, c)
                quad = C._rho_curve(profile_as_curve(prof), c)
                assert quad == pytest.approx(closed, abs=1e-9)
        # N rows: the first corner lies exactly at -1/(2c)
        for rows, N in [((2, 1), 2), ((3, 3, 2), 3)]:
            prof = profile(Partition(rows))
            c = math.sqrt(prof.n) / N
            quad = C._rho_curve(profile_as_curve(prof), c)
            assert quad == pytest.approx(F.rho(prof, c), abs=1e-9)

    def test_rejects_a_curve(self):
        with pytest.raises(TypeError):
            F.rho(C.shape_curve(1.0), 1.0)

    def test_undefined_where_the_curve_leaves_abs_below_the_edge(self):
        # at c = 1 the log singularity sits at -1/2; this curve is 0 on [-1, 1]
        zero = C.Curve(fn=np.zeros_like, prime=np.zeros_like, support=(-1.0, 1.0), kinks=())
        with pytest.raises(ValueError, match=r"differs from \|s\| below -1/\(2c\)"):
            C._rho_integral(zero, 1.0)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, -0.5])
    def test_rejects_nonfinite_and_negative_c(self, c):
        with pytest.raises(ValueError, match="c must be finite and nonnegative"):
            F.rho(profile(Partition((2, 1))), c)

    def test_support_precondition(self):
        # profile of a tall column dips below -1/(2c) for large c.
        prof = profile(Partition((1, 1, 1, 1)))
        with pytest.raises(ValueError):
            F.rho(prof, 4.0)

    def test_rho_shape_matches_closed_reduction(self):
        for c in [0.5, 1.0, 2.0]:
            got = C._rho_curve(C.shape_curve(c), c)
            assert got == pytest.approx(-2.0 * F._lemma_A_closed(c), abs=1e-9)


class TestMSeries:
    def test_domain(self):
        for x in (0.5, math.nan):
            with pytest.raises(ValueError):
                F.m_series(x)

    def test_returns_where_one_over_x_squared_underflows(self):
        # x^2 overflows, every term is 0, and the sum used to wait for a term
        # below 1e-16 * 0; the true m(1e200) = 1.7e-401 underflows too.  In a
        # fresh interpreter with a timeout, so that a hang fails the test.
        code = ("import math\n"
                "from ytensor import functionals as F\n"
                "from ytensor.diagrams import Partition\n"
                "print(F.m_series(math.inf), F.m_series(1e200),"
                " F.rho_hat(Partition((2, 1)), 10 ** 160))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(F.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0.0", "0.0", "0.0"]

    def test_at_one(self):
        assert F.m_series(1.0) == pytest.approx(3 - 4 * math.log(2), abs=1e-14)

    def test_near_one_continuity(self):
        assert F.m_series(1.0 + 1e-9) == pytest.approx(F.m_series(1.0), abs=1e-7)

    def test_leading_coefficient(self):
        for x in [1e3, 1e5]:
            assert F.m_series(x) * x * x == pytest.approx(1 / 6, rel=1e-5)

    def test_brute_force_agreement(self):
        for x in [2.0, 7.5, 8.0, 10.0, 25.0]:
            total, p = 0.0, 1.0
            for k in range(1, 400):
                p /= x * x
                if p == 0.0:
                    break
                total += p / (k * (k + 1) * (2 * k + 1))
            assert F.m_series(x) == pytest.approx(total, abs=1e-14)

    def test_decreasing_in_x(self):
        vals = [F.m_series(x) for x in [1.0, 1.5, 2.0, 4.0, 8.0, 16.0]]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_even(self):
        assert F.m_series(-3.0) == F.m_series(3.0)


class TestHats:
    def test_single_cell(self):
        assert F.theta_hat(Partition((1,))) == pytest.approx(3 - 4 * math.log(2))

    def test_rho_hat_vanishes_at_large_N(self):
        lam = Partition((3, 2))
        assert F.rho_hat(lam, 10 ** 6) < 1e-11

    def test_rho_hat_requires_enough_rows(self):
        with pytest.raises(ValueError):
            F.rho_hat(Partition((1, 1, 1)), 2)

    def test_hat_inequality_exhaustive(self):
        for n in range(1, 11):
            for N in range(1, 7):
                for lam in exact.enumerate_diagrams(n, N):
                    assert F.theta_hat(lam) >= F.rho_hat(lam, N) - 1e-12

    def test_hats_match_per_cell_sums(self):
        for n in (64, 400, 1600):
            N = math.isqrt(n)
            for lam in rsk.sample_schur_weyl(n, N, 0, 2):
                theta = sum(F.m_series(h) for h in exact.hook_lengths(lam)) / math.sqrt(n)
                rho = sum(F.m_series(x) for x in exact.shifted_contents(lam, N))
                rho /= 2 * math.sqrt(n)
                assert F.theta_hat(lam) == pytest.approx(theta, abs=1e-12)
                assert F.rho_hat(lam, N) == pytest.approx(rho, abs=1e-12)


class TestSobolev:
    def test_zero_function(self):
        f = C.Curve(fn=lambda s: 0.0, prime=lambda s: 0.0,
                    support=(-1.0, 1.0), kinks=())
        assert C._sobolev_quotient(f) == pytest.approx(0.0, abs=1e-12)
        assert C._sobolev_logkernel_generic(f) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_rejects_other_curves(self):
        f = C.Curve(fn=lambda s: 0.0, prime=lambda s: 0.0,
                    support=(-1.0, 1.0), kinks=())
        with pytest.raises(TypeError):
            F.sobolev_half_sq(f, 1.0)

    def test_routes_agree_on_profile_difference(self, verify_all_report):
        # verify-all's sobolev_routes check holds the nested difference quotient
        # of this f as its lhs, so the test reads it instead of recomputing it.
        (rec,) = [ch for ch in verify_all_report["checks"] if ch["test"] == "sobolev_routes"]
        assert rec["params"] == {"lam": "1", "c": 1.0}
        prof = profile(Partition((1,)))
        k_fast = F.sobolev_half_sq(prof, 1.0)
        k_quot = rec["lhs"]
        k_log = C._sobolev_logkernel_generic(C.profile_minus_shape(prof, 1.0))
        assert k_quot == pytest.approx(k_fast, abs=1e-6)
        assert k_log == pytest.approx(k_fast, abs=1e-8)

    def test_nested_routes_with_breakpoints_an_ulp_apart(self):
        # both points break the integration: the shape's kink 1.4 inside, and
        # the profile's last corner, an ulp right of it, as the support's end
        f = C.profile_minus_shape(profile(ULP_APART), 0.8)
        assert 1.4 in f.kinks and f.support[1] == 1.4000000000000001
        k_fast = F.sobolev_half_sq(profile(ULP_APART), 0.8)
        assert C._sobolev_quotient(f) == pytest.approx(k_fast, abs=1e-6)
        assert C._sobolev_logkernel_generic(f) == pytest.approx(k_fast, abs=1e-6)

    @pytest.mark.parametrize("rows, c", [((3, 2, 1), 1.0), ((4, 2), 0.5), ((5, 3, 3, 1), 2.0)])
    def test_nested_routes_match_closed_form(self, rows, c):
        f = C.profile_minus_shape(profile(Partition(rows)), c)
        k_fast = F.sobolev_half_sq(profile(Partition(rows)), c)
        assert C._sobolev_quotient(f) == pytest.approx(k_fast, abs=1e-9)
        assert C._sobolev_logkernel_generic(f) == pytest.approx(k_fast, abs=1e-9)

    def test_profile_left_of_the_default_window(self):
        # a column of 4 cells at c = 4 reaches X = -1, left of default_window's
        # -0.625 and of the pole -1/8: f's support [-1, 3] is the hull, and
        # the closed form and both nested oracles agree on it (1.2e-12 measured)
        column = profile(Partition((1, 1, 1, 1)))
        f = C.profile_minus_shape(column, 4.0)
        assert f.support == (-1.0, 3.0) and f.support[0] < C.default_window(4.0)[0]
        k_fast = F.sobolev_half_sq(column, 4.0)
        assert k_fast == pytest.approx(2.0866123314, abs=1e-9)
        assert C._sobolev_quotient(f) == pytest.approx(k_fast, abs=1e-9)
        assert C._sobolev_logkernel_generic(f) == pytest.approx(k_fast, abs=1e-9)

    @pytest.mark.parametrize("rows, N", [
        # the corners inside Omega_c's support, reaching past its right end,
        # past its left end, and a diagram with N rows on each branch
        ((1,), 1), ((9,), 2), ((1, 1, 1, 1, 1), 9), ((4, 2, 1), 3), ((12, 4), 2)])
    def test_profile_minus_shape_on_its_support(self, rows, N):
        prof, c = with_c(rows, N)
        f = C.profile_minus_shape(prof, c)
        x, _ = F._corner_jumps(prof)
        lo, hi = shape.shape_support(c)
        a, b = f.support
        assert (a, b) == (min(x[0], lo), max(x[-1], hi))
        assert C.default_window(c)[0] < a and b <= max(C.default_window(c)[1], x[-1] + 0.5)
        assert all(a < k < b for k in f.kinks)
        outside = np.array([a - 0.5, a - 1e-9, b + 1e-9, b + 0.5])
        assert not np.any(f.fn(outside)) and not np.any(f.prime(outside))

    def test_quadratic_scaling(self):
        def hat(a):
            return C.Curve(fn=lambda s: a * np.maximum(0.0, 1.0 - np.abs(s)),
                           prime=lambda s: np.where(np.abs(s) < 1, -a * np.copysign(1.0, s), 0.0),
                           support=(-1.5, 1.5), kinks=(-1.0, 0.0, 1.0))
        base = C._sobolev_quotient(hat(1.0))
        scaled = C._sobolev_quotient(hat(2.0))
        assert scaled == pytest.approx(4.0 * base, abs=1e-8)


def h_term_quadrature(prof, c):
    """The penalty 2 int_{|s - c/2| > 1} H'_c(s - c/2) f(s) ds of f = L - Omega_c by
    tanh-sinh quadrature of its definition, with f as checks.profile_minus_shape:
    the reference for h_term."""
    f = C.profile_minus_shape(prof, c)
    bulk = (0.5 * c - 1.0, 0.5 * c + 1.0)

    def integrand(s):
        z = s - 0.5 * c
        out = np.abs(z) > 1.0  # H' extends continuously by 0 to |z| <= 1
        return np.where(out, H_tilde_prime(c, np.where(out, z, 2.0)) * f.fn(s), 0.0)

    return 2.0 * tanh_sinh([(integrand, *f.support, f.kinks + bulk + (-0.5 / c,))])[0]


def int_I_omega_by_reduction(c, a, b):
    """Lemma intIOmega's reduction with its remaining integral by tanh-sinh:
    1 + 2 A(c) - 2 phi_2(b - a) + 2 int_a^b (G_c - H~_c(s - c/2)) Omega_c'(s) ds,
    the reference for checks._int_I_omega_closed."""
    def integrand(s):
        return (shape.G(c, s) - shape.H_tilde(c, s - 0.5 * c)) * shape.omega_c_prime(c, s)

    rest = tanh_sinh([(integrand, a, b, (*shape.shape_breakpoints(c), 0.0, -0.5 / c))])[0]
    return 1.0 + 2.0 * F._lemma_A_closed(c) - 2.0 * phi(2, b - a) + 2.0 * rest


def with_c(rows, N):
    """The profile of a diagram in Y_N^n, with c = sqrt(n)/N."""
    lam = rows if isinstance(rows, Partition) else Partition(rows)
    return profile(lam), math.sqrt(lam.n) / N


def penalty_differences():
    """The profiles of the penalty tests, with c.

    c runs from 0.15 to 6.67, over both branches of Omega_c.  The sample
    plus 150 cells has n = 99^2, so c = 1 at N = 99 and 0.99 at N = 100.
    The last three are seed-0 samples with N rows, at c = 3.95, 3.95 and 6.67.
    """
    sample = rsk.sample_schur_weyl(9651, 99, 1, 1)[0]
    long_row = Partition((sample.rows[0] + 150,) + sample.rows[1:])
    cases = [(Partition(rows), N) for rows, N in [
        ((9,), 2), ((12, 4), 3), ((40, 30, 2), 4), ((9,), 20), ((1,) * 5, 9),
        ((2,) * 6, 7), ((60, 40), 10), ((50, 30, 20), 9)]]
    cases += [(long_row, 99), (long_row, 100)]
    cases += [(rsk.sample_schur_weyl(n, N, 0, 1)[0], N) for n, N in [(1000, 8), (4000, 16),
                                                                     (400, 3)]]
    return [with_c(lam, N) for lam, N in cases] + [(profile(ULP_APART), 0.8)]


class TestHTerm:
    @pytest.mark.parametrize("prof, c", penalty_differences() + [
        # corners off the bulk only right of it at c = 1, only left of it at
        # c = 0.5, and only on Omega_2's affine branch (-1/4, 0) and its ends
        with_c((16,), 4), with_c((5, 1, 1, 1, 1), 6), with_c((15, 1), 2)])
    def test_matches_quadrature(self, prof, c):
        assert F.h_term(prof, c) == pytest.approx(h_term_quadrature(prof, c), abs=1e-10)

    def test_penalty_cases_are_not_all_zero(self):
        assert sum(F.h_term(prof, c) > 1e-3 for prof, c in penalty_differences()) >= 8

    @pytest.mark.parametrize("rows, c, corners", [
        # corners in the bulk [-1/2, 3/2], one on its edge, and no pole term
        ((1,), 1.0, [-0.5, 0.0, 0.5]),
        # one corner off the bulk [0, 2]: the pole -1/4, where the corner's
        # point mass and Omega_2''s jump cancel
        ((4,), 2.0, [-0.25, 0.75, 1.0])])
    def test_exactly_zero(self, rows, c, corners):
        prof, c_n = with_c(rows, 1)
        assert c_n == c and F._corner_jumps(prof)[0].tolist() == corners
        assert F.h_term(prof, c) == 0.0

    def test_nonnegative_on_samples(self):
        n, N = 100, 10
        c = 1.0
        for lam in rsk.sample_schur_weyl(n, N, seed=8, count=5):
            assert F.h_term(profile(lam), c) >= -1e-9


class TestDecomposition:
    def test_trivial_case(self):
        rep = F.prop31_decompose(Partition((1,)), 1)
        assert rep.lhs == 0.0
        assert rep.residual == pytest.approx(1.0, abs=1e-13)

    def test_residual_independent_of_diagram_and_N(self):
        res = []
        for N in [3, 5]:
            for lam in exact.enumerate_diagrams(5, N):
                res.append(F.prop31_decompose(lam, N).residual)
        assert max(res) - min(res) < 1e-12

    def test_residual_closed_form(self):
        # eps_n = (ln n! - n ln n + n)/sqrt(n), as FunctionalReport states; lgamma
        # cancels digits at large n, so n stays at or below 3e4
        def eps(n):
            return (math.lgamma(n + 1) - n * math.log(n) + n) / math.sqrt(n)

        for n, N in [(64, 8), (100, 12), (2500, 50), (10**4, 100), (3 * 10**4, 173)]:
            samples = rsk.sample_schur_weyl(n, N, 0, 4)
            assert {lam.height == N for lam in samples} == {True, False}
            for lam in samples:
                assert F.prop31_decompose(lam, N).residual == pytest.approx(eps(n), abs=1e-9)
        assert F.prop31_decompose(Partition((400,)), 401).residual == pytest.approx(
            eps(400), abs=1e-9)
        assert eps(1) == 1.0 == F.prop31_decompose(Partition((1,)), 1).residual

    def test_report_invariants(self):
        c = math.sqrt(64) / 8
        for lam in rsk.sample_schur_weyl(64, 8, seed=2, count=3):
            rep = F.prop31_decompose(lam, 8)
            assert rep.theta_hat >= rep.rho_hat
            assert F.sobolev_half_sq(profile(lam), c) >= 0.0
            assert F.h_term(profile(lam), c) >= -1e-9


class TestVariationalIdentity:
    def test_small_diagrams(self):
        # (9,) and (12, 4) have c = 1.5 and 4/3, on the c > 1 branch of Omega_c;
        # the last two have c = 1 and 10/9, and a nonzero penalty
        for rows, N in [((1,), 2), ((3, 1), 4), ((4, 2, 1), 5), ((9,), 2), ((12, 4), 3),
                        ((60, 40), 10), ((50, 30, 20), 9)]:
            lhs, rhs = F.prop41_identity(Partition(rows), N)
            assert lhs == pytest.approx(rhs, abs=1e-7)
            assert lhs >= 0.0

    def test_every_diagram_with_N_rows(self):
        # Y_N^n's boundary: L leaves |X| at the pole -1/(2c); c runs from 0.35 to 4.47
        cases = [(lam, N) for n in range(1, 21) for N in range(1, 9)
                 for lam in exact.enumerate_diagrams(n, N) if lam.height == N]
        assert len(cases) == 2098
        for lam, N in cases:
            lhs, rhs = F.prop41_identity(lam, N)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_closes_to_rounding_on_small_diagrams(self):
        # every diagram of Y_N^n with n <= 12 and N <= 5, c from 0.2 to 3.46;
        # worst measured 1.8e-14, where a quadrature of lemma intIOmega's
        # reduction left 4.8e-11
        cases = [(lam, N) for n in range(1, 13) for N in range(1, 6)
                 for lam in exact.enumerate_diagrams(n, N)]
        assert len(cases) == 511
        for lam, N in cases:
            lhs, rhs = F.prop41_identity(lam, N)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_more_than_N_rows_rejected(self):
        with pytest.raises(ValueError):
            F.prop41_identity(Partition((1, 1, 1)), 2)


class TestLemmas:
    CS = [0.5, 1.0, 2.0]

    def test_lemma_A(self):
        for c in self.CS:
            q, cl = C.lemma_A(c)
            assert q == pytest.approx(cl, abs=1e-8)

    def test_lemma_A_simple_branch(self):
        assert F._lemma_A_closed(0.5) == -0.03125

    def test_lemma_A_branch_continuity(self):
        low = F._lemma_A_closed(1.0)
        high = F._lemma_A_closed(1.0 + 1e-12)
        assert low == pytest.approx(-0.125, abs=1e-12)
        assert high == pytest.approx(low, abs=1e-10)

    def test_lemma_I(self):
        # s runs over both support ends (the right one just inside), the
        # middle and a point right of the support.  Near c = 1 the breakpoints
        # at c/2 - 1 + k|1 - c| resolve Omega_c''s turn, so there the middle and
        # the point right of the support meet 1e-10 (worst measured 1.1e-12,
        # against 2.7e-9 without them).  s within 1e-3 of a bulk edge stays at
        # 1e-8: 2e-9 at s = c/2 + 0.999 for every c, and 3.5e-9 at s = c/2 - 1
        # for c = 1.01, where the pole lies 5e-5 left of s.
        for c in self.CS + [0.99, 1.01]:
            a, b = C.default_window(c)
            for s in [0.5 * c - 1.0, 0.5 * c, 0.5 * c + 0.999, 0.5 * c + 1.2]:
                q, cl = C.lemma_I(c, s, a, b)
                near_one = c in (0.99, 1.01) and s in (0.5 * c, 0.5 * c + 1.2)
                assert q == pytest.approx(cl, abs=1e-10 if near_one else 1e-8)

    @pytest.mark.parametrize("c, ds", [(0.5, 0.999), (0.99, 0.999), (1.01, 0.999),
                                       (2.0, 0.999), (1.01, -1.0), (0.5, -1.0 + 1e-3)])
    def test_lemma_I_closed_matches_mpmath_reference_near_a_bulk_edge(self, c, ds):
        # With s within 1e-3 of a bulk edge checks.lemma_I's tanh-sinh is ~2e-9
        # off, so test_lemma_I keeps 1e-8 there.  The closed form is within
        # 9e-16 of this reference, which splits at a, the bulk edges, s, 0, b
        # and, for c > 1, the pole -1/(2c).
        s = 0.5 * c + ds
        a, b = C.default_window(c)
        with mpmath.workdps(30):
            cc, ss = mpmath.mpf(c), mpmath.mpf(s)
            lo, hi, pole = cc / 2 - 1, cc / 2 + 1, -1 / (2 * cc)

            def omega_prime(t):
                if lo <= t <= hi:
                    x = (cc + 2 * t) / (2 * mpmath.sqrt(1 + 2 * cc * t))
                    return 2 / mpmath.pi * mpmath.asin(min(1, max(-1, x)))
                return 1 if cc > 1 and pole <= t else mpmath.sign(t)

            pts = {mpmath.mpf(a), lo, hi, ss, mpmath.mpf(0), mpmath.mpf(b)} | (
                {pole} if c > 1 else set())
            ref = mpmath.quad(lambda t: -mpmath.log(2 * abs(ss - t)) * omega_prime(t),
                              sorted(pts))
        assert C._lemma_I_closed(c, s, a, b) == pytest.approx(float(ref), abs=1e-13)

    @pytest.mark.parametrize("s", [-3.0, -2.0, 2.5, 4.0])
    def test_lemma_I_needs_s_inside_the_window(self, s):
        with pytest.raises(ValueError, match=r"s must lie in \(a, b\)"):
            C.lemma_I(1.0, s, -2.0, 2.5)

    def test_lemma_I_bulk_reduction(self):
        # inside the bulk H vanishes, leaving only the phi_1 and G terms.
        c, s = 0.5, 0.25
        a, b = C.default_window(c)
        _, cl = C.lemma_I(c, s, a, b)
        from ytensor.shape import G, phi
        assert cl == pytest.approx(phi(1, a - s) + phi(1, b - s) + G(c, s))

    def test_lemma_F3(self):
        # 0.99 and 1.001 put the weight's turn within ~|1 - c| of t = 0.
        for c in self.CS + [0.99, 1.001]:
            for x in [0.0, 1.0, -(1 + c * c) / (2 * c), 2.0, -0.7]:
                q, cl = C.lemma_F3(c, x)
                assert q == pytest.approx(cl, abs=1e-7)

    @pytest.mark.parametrize("c", [1.001, 1.0001, 0.9999])
    def test_lemma_F3_closed_matches_mpmath_reference_near_one(self, c):
        # At x = 2, checks.lemma_F3's tanh-sinh is off by 7.9e-9 at c = 1.001
        # while it reports convergence; the closed form is within 1.8e-15 of
        # this reference, which splits at -pi/2 + k|1 - c| up to k = 1024.
        x = 2.0
        with mpmath.workdps(30):
            cc, xx = mpmath.mpf(c), mpmath.mpf(x)

            def g(psi):
                z = mpmath.sin(psi)
                phi2 = (0.75 - mpmath.log(2 * abs(xx - z)) / 2) * (xx - z) ** 2
                return phi2 * 2 * (1 + cc * z) / (mpmath.pi * (1 + cc * cc + 2 * cc * z))

            turns = [-mpmath.pi / 2 + 4 ** k / 4 * abs(1 - cc) for k in range(7)]
            ref = mpmath.quad(g, [-mpmath.pi / 2, *(t for t in turns if t < mpmath.pi / 2),
                                  mpmath.pi / 2])
        assert F._lemma_F3_closed(c, x) == pytest.approx(float(ref), abs=1e-12)

    @pytest.mark.parametrize("c", [1.0001, 0.9999])
    def test_lemma_F3_oracle_near_one(self, c):
        # 1 + c^2 + 2c sin psi, which cancels to ~(1 - c)^2 at the turn, put
        # the oracle 3.6e-9 and 3.3e-9 off here; the sum of nonnegative terms
        # (1 - c)^2 + 4c sin^2(t/2) takes both to 1.5e-10.
        q, cl = C.lemma_F3(c, 2.0)
        assert abs(q - cl) <= 5e-10

    # c at which sobolev_half_sq's cross term is checked: both sides of 1, near
    # it and at it, and both branches of Omega_c far from it
    KERNEL_CS = [0.3, 0.99, 1.0, 1.01, 2.0, 5.0]

    @pytest.mark.parametrize("c", KERNEL_CS)
    def test_lemma_F3_where_the_sobolev_kernel_reads_it(self, c):
        # sobolev_half_sq reads F3 at every corner, on an array and outside
        # the bulk [-1, 1] too; worst measured 3.1e-11 (c = 1.01, x = 3)
        xs = np.array([-2.5, -1.2, -1.0, 1.0, 2.0, 3.0])
        quadrature = [C.lemma_F3(c, x)[0] for x in xs]
        assert F._lemma_F3_closed(c, xs) == pytest.approx(quadrature, abs=1e-10)

    @pytest.mark.parametrize("c", KERNEL_CS)
    def test_sobolev_kernel_is_an_antiderivative_of_lemma_I(self, c):
        # the kernel sobolev_half_sq's cross term reads, against lemma I
        # without its window, on a grid that holds points left of the pole
        # -1/(2c), the default window's ends and, at c = 1, the pole itself;
        # worst measured 1.2e-8 (c = 2), the difference's own error
        a, b = C.default_window(c)
        es, h = np.linspace(-2.5, 4.5, 15), 1e-5
        assert np.any(es < -0.5 / c)
        kernel = [F._sobolev_kernel(c, es + step) for step in (h, -h)]
        central = (kernel[0] - kernel[1]) / (2.0 * h)
        assert central == pytest.approx(
            [C._lemma_I_closed(c, e, a, b) - phi(1, a - e) - phi(1, b - e) for e in es], abs=1e-7)

    def test_lemma_intIOmega_and_window_invariance(self):
        for c in [0.5, 0.99, 1.01]:
            q1, r1 = C.lemma_intIOmega(c, -1.5, 2.5)
            assert q1 == pytest.approx(r1, abs=1e-6)
            q2, r2 = C.lemma_intIOmega(c, -2.2, 3.1)
            assert q2 == pytest.approx(r2, abs=1e-6)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            C.lemma_intIOmega(0.5, 0.0, 2.5)
        lo, hi = shape.shape_support(0.5)
        with pytest.raises(ValueError):
            C._int_I_omega_closed(0.5, lo + 1e-9, hi)
        with pytest.raises(ValueError):
            C._int_I_omega_closed(0.5, lo, hi - 1e-9)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_closed_reduction_on_the_shape_support(self, c):
        # sobolev_half_sq's window ends at lo and hi whenever the corners lie
        # inside; the value depends on the window, so it is checked there
        # against the reduction's quadrature (1.1e-12 measured) and the nested
        # oracle (3.1e-12 measured)
        lo, hi = shape.shape_support(c)
        closed = C._int_I_omega_closed(c, lo, hi)
        assert closed == pytest.approx(int_I_omega_by_reduction(c, lo, hi), abs=1e-11)
        assert C.lemma_intIOmega(c, lo, hi)[0] == pytest.approx(closed, abs=1e-10)

    @pytest.mark.parametrize("c", [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0, 1.01, 1.1, 1.5,
                                   2.0, 4.0, 20 / 3])
    def test_closed_reduction_matches_its_quadrature(self, c):
        # worst measured 3.6e-11 at c = 0.99 and 1.01, the quadrature's own
        # error at Omega_c''s turn; elsewhere at most 2e-11
        a, b = C.default_window(c)
        for window in [(a, b), (a, b + 0.7)]:
            assert C._int_I_omega_closed(c, *window) == pytest.approx(
                int_I_omega_by_reduction(c, *window), abs=1e-10)

    def test_lemma_intIOmega_on_the_verify_all_grid(self, verify_all_report):
        # the report's lhs is the oracle, its rhs the closed reduction; worst
        # measured 2.1e-14 (c = 0.5)
        recs = [ch for ch in verify_all_report["checks"] if ch["test"] == "lemma_intIOmega"]
        assert [ch["params"]["c"] for ch in recs] == verify_all_report["c_grid"]
        assert len(recs) == 7
        for ch in recs:
            a, b = C.default_window(ch["params"]["c"])
            assert ch["rhs"] == C._int_I_omega_closed(ch["params"]["c"], a, b)
            assert ch["lhs"] == pytest.approx(ch["rhs"], abs=1e-13)
            assert ch["tol"] == 1e-11

    @pytest.mark.parametrize("c", [0.99, 1.01])
    def test_lemma_intIOmega_near_one(self, c):
        # the nested bulk energy put the oracle 8.9e-11 and 9.9e-11 off here;
        # the series takes it to 2.6e-13 and 4.4e-13, hk's own error
        q, closed = C.lemma_intIOmega(c, *C.default_window(c))
        assert q == pytest.approx(closed, abs=1e-12)

    @staticmethod
    def bulk_curve(c):
        lo, hi = 0.5 * c - 1.0, 0.5 * c + 1.0
        return C.Curve(partial(shape.omega_c, c), partial(shape.omega_c_prime, c), (lo, hi),
                       tuple(t for t in C._bulk_turns(c) if lo < t < hi))

    @pytest.mark.parametrize("c", [0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0])
    def test_bulk_series_matches_the_nested_route(self, c):
        # the generic log-kernel route on the bulk, split at Omega_c''s turn;
        # worst measured 1.3e-11 (c = 4), the nested route's own error
        assert C._bulk_log_energy(c) == pytest.approx(
            C._sobolev_logkernel_generic(self.bulk_curve(c)), abs=2e-10)

    def test_bulk_series_at_one(self):
        # c_1 = 1/4 and c_n = -1/(n^2 - 1) past it sum to 1/4; the tail left
        # out is 2.1e-15
        assert C._bulk_log_energy(1.0) == pytest.approx(0.25, abs=1e-14)

    @pytest.mark.parametrize("c", [0.1, 0.99, 1.0, 1.01, 2.0, 20 / 3])
    def test_bulk_series_tail(self, c, monkeypatch):
        # the tail past _BULK_TERMS is ~1/terms^4: measured at most 4.0e-15
        short = C._bulk_log_energy(c)
        monkeypatch.setattr(C, "_BULK_TERMS", 100 * C._BULK_TERMS)
        assert short == pytest.approx(C._bulk_log_energy(c), abs=1e-14)

    @staticmethod
    def full_window_route(c, a, b):
        # the log-kernel energy of Omega_c' by one nested quadrature over the
        # whole window, with no split into hh, hk and kk; split, as lemma_I's
        # oracle is, at _bulk_turns, where Omega_c' turns near c = 1.  Within
        # 8.2e-11 of the closed reduction on every c and window below.
        window = replace(C.shape_curve(c), support=(a, b),
                         kinks=(*shape.shape_breakpoints(c), 0.0, -0.5 / c, *C._bulk_turns(c)))
        return C._sobolev_logkernel_generic(window)

    @staticmethod
    def windows(c):
        lo, hi = shape.shape_support(c)
        return [w for w in (C.default_window(c), (-1.5, 2.5), (-2.2, 3.1))
                if w[0] < lo and hi < w[1]]

    @pytest.mark.parametrize("c", [0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0])
    def test_split_matches_the_full_window_route(self, c):
        # worst measured: 8.1e-11 at c = 1 on (-2.2, 3.1), the full route's
        # own error: the split is within 1.9e-13 of the closed reduction
        for a, b in self.windows(c):
            lhs, _ = C.lemma_intIOmega(c, a, b)
            assert lhs == pytest.approx(self.full_window_route(c, a, b), abs=2e-10)

    @pytest.mark.parametrize("c", [0.99, 1.01])
    def test_split_matches_the_full_window_route_near_one(self, c):
        # both routes split at Omega_c''s turn near c = 1; worst measured:
        # 8.2e-11 from the full route to the closed reduction and from the
        # split to the full route, at c = 1.01 on (-2.2, 3.1)
        for a, b in self.windows(c):
            lhs, rhs = C.lemma_intIOmega(c, a, b)
            full = self.full_window_route(c, a, b)
            assert full == pytest.approx(rhs, abs=2e-10)
            assert lhs == pytest.approx(full, abs=2e-9)

    @pytest.mark.parametrize("x, values", [
        ((-1.5, -0.5, 1.5, 2.5), (-1.0, 0.0, 1.0)),
        ((-1.2, -0.25, 0.5, 2.5, 3.0), (-1.0, 1.0, 0.0, 1.0)),  # a jump of 2 at -0.25
        ((-0.7, 0.1, 0.4, 1.9), (0.5, -1.5, 0.75)),
    ])
    def test_log_energy_of_a_step_function(self, x, values):
        # g' piecewise constant on [x_0, x_K] and 0 outside it, with jumps d at x
        x, values = np.array(x), np.array(values)
        d = np.diff(np.concatenate(([0.0], values, [0.0])))
        step = C.Curve(fn=lambda s: s, prime=lambda s: values[np.searchsorted(x[1:-1], s)],
                       support=(x[0], x[-1]), kinks=tuple(x[1:-1]))
        assert C._sobolev_logkernel_generic(step) == pytest.approx(-F._log_energy(x, d), abs=1e-9)

    @pytest.mark.parametrize("c", [0.5, 1.0, 1.1, 4.0])
    def test_no_nested_quadrature(self, c, monkeypatch):
        class NestedCall(Exception):
            pass

        def refuse(*args, **kwargs):
            raise NestedCall

        monkeypatch.setattr(C, "nested_tanh_sinh", refuse)
        with pytest.raises(NestedCall):  # the patch reaches the oracles
            next(C.minimizer_gap(cs=(c,)))
        q, closed = C.lemma_intIOmega(c, *C.default_window(c))
        assert q == pytest.approx(closed, abs=1e-13)


class TestNonfiniteC:
    @pytest.mark.parametrize("fn", [
        lambda c: shape.omega_c(c, 0.1),
        lambda c: shape.omega_c_prime(c, 0.1),
        lambda c: shape.G(c, 0.1),
        lambda c: shape.H_tilde(c, 1.5),
        lambda c: shape.J_tilde(c, 1.5),
        shape.shape_support,
        C.shape_curve,
        C.default_window,
        lambda c: C.profile_minus_shape(profile(Partition((1,))), c),
        lambda c: F.sobolev_half_sq(profile(Partition((1,))), c),
        lambda c: F.h_term(profile(Partition((1,))), c),
        C.lemma_A,
        lambda c: C.lemma_I(c, 0.5, -2.0, 3.0),
        lambda c: C.lemma_F3(c, 0.3),
        lambda c: C.lemma_intIOmega(c, -2.0, 3.0),
    ], ids=["omega_c", "omega_c_prime", "G", "H_tilde", "J_tilde",
            "shape_support", "shape_curve", "default_window", "profile_minus_shape",
            "sobolev_half_sq", "h_term", "lemma_A", "lemma_I", "lemma_F3", "lemma_intIOmega"])
    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_c(self, fn, c):
        with pytest.raises(ValueError, match="c must be finite and (nonnegative|positive)"):
            fn(c)


class TestConstants:
    def test_alpha_0_closed_form(self):
        assert F.alpha_constant(0.0) == pytest.approx(2 / math.pi - 4 / math.pi ** 2,
                                                      abs=1e-10)

    def test_alpha_rejects_nonfinite_c(self):
        for c in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError):
                F.alpha_constant(c)

    def test_alpha_positive_and_below_beta(self):
        beta = F.beta_constant()
        for c in [0.1, 0.5, 1.0, 2.0, 5.0]:
            a = F.alpha_constant(c)
            assert 0.0 < a < beta

    @pytest.mark.parametrize("c", [0.5, 0.99, math.sqrt(30000) / 173, 1.01, 2.0,
                                   0.999, 1.0001, 1.0002, 1.001])
    def test_alpha_matches_mpmath_reference(self, c):
        # On |z| <= 1, s = z + c/2 lies in the bulk, where Omega_c'(s) is
        # (2/pi) arcsin((z + c)/sqrt(1 + c^2 + 2cz)); near c = 1 it turns
        # from -sign(1 - c) to about 0 within ~(1 - c)^2 of z = -1.
        with mpmath.workdps(30):
            cc = mpmath.mpf(c)

            def g(z):
                arc = mpmath.asin((z + cc) / mpmath.sqrt(1 + cc * cc + 2 * cc * z))
                return (mpmath.sign(z) - 2 / mpmath.pi * arc) ** 2

            ref = mpmath.quad(g, sorted({-1, -1 + (1 - cc) ** 2, 0, 1})) / 4
        assert F.alpha_constant(c) == pytest.approx(float(ref), abs=1e-12)

    def test_beta(self):
        assert F.beta_constant() ** 2 == pytest.approx(4 * math.pi ** 2 / 6, abs=1e-12)

    def test_power_series_identity(self):
        for z in [0.1, 0.3, 0.5]:
            lhs = (-3 + (1 + 1 / z) ** 2 * math.log(1 + z)
                   + (1 / z - 1) ** 2 * math.log(1 - z))
            rhs = -sum(z ** (2 * k) / (k * (k + 1) * (2 * k + 1)) for k in range(1, 200))
            assert lhs == pytest.approx(rhs, abs=1e-10)
