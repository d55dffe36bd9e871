import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from ytensor.diagrams import Partition, profile, profile_from_slopes
from ytensor import exact, functionals as F, rsk
from ytensor.shape import phi


def profile_as_curve(prof):
    """Wrap a lattice profile as a generic Curve (for quadrature cross-checks)."""
    cx, _ = prof.corners
    slopes = np.asarray(prof.slopes, dtype=float)

    def prime(s):
        s = np.asarray(s, dtype=float)
        k = np.clip((s / prof.scale - prof.x0).astype(int), 0, len(slopes) - 1)
        return np.where(s < cx[0], -1.0, np.where(s > cx[-1], 1.0, slopes[k]))

    return F.Curve(fn=lambda s: prof.evaluate(s), prime=prime,
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
        rebuilt = profile_from_slopes(prof.n, prof.x0, prof.slopes)
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
            got = F._theta_curve(profile_as_curve(prof))
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
        for c in [0.5, 1.0, 2.0]:
            gap = F.theta_shape(c) - F.rho(F.shape_curve(c), c)
            assert abs(gap) < 1e-6


class TestRho:
    def test_zero_c(self):
        assert F.rho(profile(Partition((2, 1))), 0.0) == 0.0

    def test_zero_for_absolute_value(self):
        curve = F.Curve(fn=abs, prime=lambda s: math.copysign(1.0, s) if s else 0.0,
                        support=(-1.0, 1.0), kinks=(0.0,))
        assert F.rho(curve, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_vs_quadrature(self):
        # c_n = 1, 0.5 and 2
        for n, N in [(400, 20), (100, 20), (400, 10)]:
            c = math.sqrt(n) / N
            for lam in rsk.sample_schur_weyl(n, N, seed=6, count=10):
                prof = profile(lam)
                closed = F.rho(prof, c)
                quad = F.rho(profile_as_curve(prof), c)
                assert quad == pytest.approx(closed, abs=1e-9)
        # N rows: the first corner lies exactly at -1/(2c)
        for rows, N in [((2, 1), 2), ((3, 3, 2), 3)]:
            prof = profile(Partition(rows))
            c = math.sqrt(prof.n) / N
            assert F.rho(profile_as_curve(prof), c) == pytest.approx(F.rho(prof, c), abs=1e-9)

    def test_support_precondition(self):
        # profile of a tall column dips below -1/(2c) for large c.
        prof = profile(Partition((1, 1, 1, 1)))
        with pytest.raises(ValueError):
            F.rho(prof, 4.0)

    def test_rho_shape_matches_closed_reduction(self):
        for c in [0.5, 1.0, 2.0]:
            got = F.rho(F.shape_curve(c), c)
            assert got == pytest.approx(-2.0 * F._lemma_A_closed(c), abs=1e-9)


class TestMSeries:
    def test_domain(self):
        with pytest.raises(ValueError):
            F.m_series(0.5)

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
        f = F.Curve(fn=lambda s: 0.0, prime=lambda s: 0.0,
                    support=(-1.0, 1.0), kinks=())
        assert F._sobolev_quotient(f) == pytest.approx(0.0, abs=1e-12)
        assert F._sobolev_logkernel_generic(f) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_rejects_other_curves(self):
        f = F.Curve(fn=lambda s: 0.0, prime=lambda s: 0.0,
                    support=(-1.0, 1.0), kinks=())
        with pytest.raises(TypeError):
            F.sobolev_half_sq(f)

    def test_routes_agree_on_profile_difference(self, verify_all_report):
        # verify-all's sobolev_routes check holds the nested difference quotient
        # of this f as its lhs, so the test reads it instead of recomputing it.
        (rec,) = [ch for ch in verify_all_report["checks"] if ch["test"] == "sobolev_routes"]
        assert rec["params"] == {"lam": "1", "c": 1.0}
        f = F.profile_minus_shape(profile(Partition((1,))), 1.0)
        k_fast = F.sobolev_half_sq(f)
        k_quot = rec["lhs"]
        k_log = F._sobolev_logkernel_generic(f)
        assert k_quot == pytest.approx(k_fast, abs=1e-6)
        assert k_log == pytest.approx(k_fast, abs=1e-8)

    def test_nested_routes_with_breakpoints_an_ulp_apart(self):
        # a sample_schur_weyl(400, 25, 44, 20) draw: its profile has a corner at
        # 1.4000000000000001, one ulp from the shape's kink c/2 + 1 = 1.4
        lam = Partition((56, 41, 39, 34, 29, 26, 24, 21, 19, 17, 15, 13, 13, 10, 10, 10, 8,
                         5, 4, 3, 2, 1))
        f = F.profile_minus_shape(profile(lam), 0.8)
        assert {1.4, 1.4000000000000001} <= set(f.kinks)
        k_fast = F.sobolev_half_sq(f)
        assert F._sobolev_quotient(f) == pytest.approx(k_fast, abs=1e-6)
        assert F._sobolev_logkernel_generic(f) == pytest.approx(k_fast, abs=1e-6)

    def test_profile_below_default_window_rejected(self):
        # a column of 4 cells at c = 4 reaches X = -2, left of the window's -0.625.
        with pytest.raises(ValueError):
            F.profile_minus_shape(profile(Partition((1, 1, 1, 1))), 4.0)

    def test_quadratic_scaling(self):
        def hat(a):
            return F.Curve(fn=lambda s: a * np.maximum(0.0, 1.0 - np.abs(s)),
                           prime=lambda s: np.where(np.abs(s) < 1, -a * np.copysign(1.0, s), 0.0),
                           support=(-1.5, 1.5), kinks=(-1.0, 0.0, 1.0))
        base = F._sobolev_quotient(hat(1.0))
        scaled = F._sobolev_quotient(hat(2.0))
        assert scaled == pytest.approx(4.0 * base, abs=1e-8)


class TestHTerm:
    def test_zero_function(self):
        f = F.Curve(fn=lambda s: 0.0, prime=lambda s: 0.0,
                    support=(-2.0, 3.0), kinks=())
        assert F.h_term(f, 1.0) == 0.0

    def test_bulk_supported_f_gives_zero(self):
        # anything supported inside |s - c/2| <= 1 never meets the integrand.
        c = 1.0
        f = F.Curve(fn=lambda s: np.maximum(0.0, 0.2 - np.abs(s - 0.5)),
                    prime=lambda s: 0.0, support=(0.3, 0.7), kinks=())
        assert F.h_term(f, c) == 0.0

    def test_nonnegative_on_samples(self):
        n, N = 100, 10
        c = 1.0
        for lam in rsk.sample_schur_weyl(n, N, seed=8, count=5):
            if lam.height >= N:
                continue
            f = F.profile_minus_shape(profile(lam), c)
            assert F.h_term(f, c) >= -1e-9


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

    def test_report_invariants(self):
        c = math.sqrt(64) / 8
        for lam in rsk.sample_schur_weyl(64, 8, seed=2, count=3):
            rep = F.prop31_decompose(lam, 8)
            assert rep.theta_hat >= rep.rho_hat
            f = F.profile_minus_shape(profile(lam), c)
            assert F.sobolev_half_sq(f) >= 0.0
            assert F.h_term(f, c) >= -1e-9


class TestVariationalIdentity:
    def test_small_diagrams(self):
        # the last two have c = 1.5 and 4/3, on the c > 1 branch of Omega_c
        for rows, N in [((1,), 2), ((3, 1), 4), ((4, 2, 1), 5), ((9,), 2), ((12, 4), 3)]:
            lhs, rhs = F.prop41_identity(Partition(rows), N)
            assert lhs == pytest.approx(rhs, abs=1e-7)
            assert lhs >= 0.0

    def test_full_height_rejected(self):
        with pytest.raises(ValueError):
            F.prop41_identity(Partition((1, 1)), 2)


class TestLemmas:
    CS = [0.5, 1.0, 2.0]

    def test_lemma_A(self):
        for c in self.CS:
            q, cl = F.lemma_A(c)
            assert q == pytest.approx(cl, abs=1e-8)

    def test_lemma_A_simple_branch(self):
        assert F._lemma_A_closed(0.5) == -0.03125

    def test_lemma_A_branch_continuity(self):
        low = F._lemma_A_closed(1.0)
        high = F._lemma_A_closed(1.0 + 1e-12)
        assert low == pytest.approx(-0.125, abs=1e-12)
        assert high == pytest.approx(low, abs=1e-10)

    def test_lemma_I(self):
        for c in self.CS:
            a, b = F.default_window(c)
            for s in [0.5 * c, 0.5 * c + 1.2]:
                q, cl = F.lemma_I(c, s, a, b)
                assert q == pytest.approx(cl, abs=1e-7)

    def test_lemma_I_bulk_reduction(self):
        # inside the bulk H vanishes, leaving only the phi_1 and G terms.
        c, s = 0.5, 0.25
        a, b = F.default_window(c)
        _, cl = F.lemma_I(c, s, a, b)
        from ytensor.shape import G, phi
        assert cl == pytest.approx(phi(1, a - s) + phi(1, b - s) + G(c, s))

    def test_lemma_F3(self):
        # 0.99 and 1.001 put the weight's turn within ~|1 - c| of psi = -pi/2.
        for c in self.CS + [0.99, 1.001]:
            for x in [0.0, 1.0, -(1 + c * c) / (2 * c), 2.0, -0.7]:
                q, cl = F.lemma_F3(c, x)
                assert q == pytest.approx(cl, abs=1e-7)

    def test_lemma_intIOmega_and_window_invariance(self):
        q1, r1 = F.lemma_intIOmega(0.5, -1.5, 2.5)
        assert q1 == pytest.approx(r1, abs=1e-6)
        q2, r2 = F.lemma_intIOmega(0.5, -2.2, 3.1)
        assert q2 == pytest.approx(r2, abs=1e-6)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            F.lemma_intIOmega(0.5, 0.0, 2.5)


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
