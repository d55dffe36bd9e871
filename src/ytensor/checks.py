"""verify-all's identity checks and the independent oracles they compare against.

Production code computes each quantity by one closed-form route (functionals,
shape, exact); this module holds the second routes and the checks that pair
the two.  No module of the production layers imports it.

The identity families are sum_rules, measure_routes, chi_square,
decomposition, variational_identity, minimizer_gap, gap_positivity, lemmas,
sobolev_routes, derivatives, constants_and_series and hat_inequality.  Each
yields one (test, params, lhs, rhs, tol, tags) tuple per check and takes its
sizes and seed as parameters; the defaults are verify-all's sizes, and the
acceptance tests run the same families at larger sizes.  run_checks turns
the tuples into report records; harness.cmd_verify_all chains every family,
plus p(100).

_schur_weyl_via_contents, the Plancherel measure times the product of
(N + c)/N over the cells' contents c, is measure_routes' second route to the
Schur-Weyl measure.

The lemma_* functions check the closed forms of the auxiliary integrals (A,
I_c, the phi_2 moment of Omega_c'' and the I-against-Omega' integral) by
independent quadrature, each returning (quadrature value, closed form).  The
nested-quadrature routes (difference quotient, generic log kernel and the
hook integral of a Curve, minimizer_gap's left side) are independent oracles;
each gives quadrature.nested_tanh_sinh its kernel and outer weight as
defined.  That integrates the triangle t < s alone: the hook integral lives
there, and the two Sobolev kernels are symmetric in (s, t).  The log kernel
phi_0(s - t) goes in as it is, with its singularity at the end t = s of the
inner panels, where tanh-sinh resolves it; so does lemma_I's single
integral, split at s.  Lemma intIOmega's left side, the log energy of
Omega_c' on the window, is an oracle built from phi_0's antiderivatives
alone: off the bulk Omega_c' is +-1, so that part's energy is -E and its
cross term with the bulk one tanh-sinh call, and only the bulk's own energy
is a nested quadrature, by the generic log-kernel route.  _rho_curve, rho of
a Curve, is lemma A's quadrature side and the oracle for rho.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import partial

import mpmath
import numpy as np

from . import exact, functionals, rsk, shape
from .diagrams import Partition, profile
from .functionals import (
    _TURN_SCALES,
    Curve,
    _int_I_omega_closed,
    _lemma_A_closed,
    _lemma_F3_closed,
    _lemma_I_closed,
    _log_energy,
)
from .quadrature import nested_tanh_sinh, tanh_sinh
from .shape import _require_c, omega_c, omega_c_prime, phi, shape_breakpoints, shape_support

__all__ = [
    "shape_curve",
    "lemma_A",
    "lemma_I",
    "lemma_F3",
    "lemma_intIOmega",
    "run_checks",
    "sum_rules",
    "measure_routes",
    "chi_square_sf",
    "chi_square",
    "decomposition",
    "minimizer_gap",
    "variational_identity",
    "gap_positivity",
    "lemmas",
    "sobolev_routes",
    "derivatives",
    "constants_and_series",
    "hat_inequality",
]


# ---------------------------------------------------------------------------
# the oracles: the content route of the measure, quadrature routes of the closed forms
# ---------------------------------------------------------------------------


def _phi0_off_diagonal(d):
    """phi_0(d) = -ln|2d| for d != 0, and 0 at d = 0, where the quadrature
    routes' nodes have weight zero; d = 0 is evaluated as phi_0(1/2) = 0."""
    return -np.log(np.abs(2.0 * np.where(d == 0.0, 0.5, d)))


def _schur_weyl_via_contents(lam: Partition, N: int) -> Fraction:
    """Alternate route: Plancherel times the product of (1 + c/N) over cells."""
    if lam.height > N:
        return Fraction(0)
    prod = Fraction(1)
    for c in exact.shifted_contents(lam, N):
        prod *= Fraction(c, N)
    return exact.plancherel(lam).value * prod


def shape_curve(c: float) -> Curve:
    """Omega_c as a Curve (support where it differs from |s|, kinks at branch points)."""
    lo, hi = shape_support(c)
    kinks = tuple(shape_breakpoints(c)) + ((0.0,) if lo < 0.0 < hi else ())
    return Curve(
        fn=partial(omega_c, c),
        prime=partial(omega_c_prime, c),
        support=(lo, hi),
        kinks=tuple(sorted(set(kinks))),
    )


def _theta_curve(L: Curve) -> float:
    """Hook integral of a curve by nested tanh-sinh quadrature of its definition
    theta(L) = 1 - 2 iint_{t<s} phi_0(s-t) (1 + L'(t)) (1 - L'(s)) ds dt, where
    1 + L' vanishes left of the support and 1 - L' right of it."""
    return 1.0 - 2.0 * nested_tanh_sinh(
        lambda s, t: _phi0_off_diagonal(s - t) * (1.0 + L.prime(t)),
        lambda s: 1.0 - L.prime(s), *L.support, L.kinks)


def _rho_curve(L: Curve, c: float) -> float:
    """rho of a Curve by tanh-sinh quadrature (log singularity possible at the left edge)."""
    lo, hi = L.support
    edge = -0.5 / c
    if lo < edge - 1e-9:
        # only allowed when L coincides with |s| below the singular edge
        probes = np.linspace(lo, edge, 7)
        if np.any(np.abs(L.fn(probes) - np.abs(probes)) > 1e-12):
            raise ValueError("L differs from |s| below -1/(2c); rho is undefined")
        lo = edge

    def integrand(s):
        g = L.fn(s) - np.abs(s)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(g != 0.0, 2.0 * np.log1p(2.0 * c * s) * g, 0.0)

    return tanh_sinh(integrand, lo, hi, L.kinks + (0.0,))


def _sobolev_quotient(f: Curve) -> float:
    """Difference-quotient route: (1/2) iint ((f(s)-f(t))/(s-t))^2 ds dt over R^2.

    The plane splits into the window square plus two tail strips where one
    argument is outside [a, b] and f vanishes there.  The kernel is symmetric,
    so half the square is its triangle t < s, and half the strips is one
    strip per side: the value is the triangle plus the tails.
    """
    a, b = f.support

    def kernel(s, t):
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(np.abs(t - s) < 1e-13, f.prime(s), (f.fn(s) - f.fn(t)) / (s - t))
        return d * d

    def tails(s):
        fs = f.fn(s)
        with np.errstate(divide="ignore", invalid="ignore"):
            return fs * fs * (1.0 / (s - a) + 1.0 / (b - s))

    return nested_tanh_sinh(kernel, np.ones_like, a, b, f.kinks) + tanh_sinh(tails, a, b, f.kinks)


def _sobolev_logkernel_generic(f: Curve) -> float:
    """Log-kernel route: - iint ln|2(s-t)| f'(s) f'(t) ds dt over f's support,
    by nested tanh-sinh quadrature: the kernel is symmetric in (s, t), so this
    is twice its triangle t < s, phi_0(s-t) f'(t) inside and 2 f'(s) outside."""
    return nested_tanh_sinh(lambda s, t: _phi0_off_diagonal(s - t) * f.prime(t),
                            lambda s: 2.0 * f.prime(s), *f.support, f.kinks)


def lemma_A(c: float) -> tuple[float, float]:
    """A(c) = int ln(1 + 2cs) (|s| - Omega_c(s)) ds, quadrature vs closed form.

    The quadrature side is -rho(Omega_c)/2 by _rho_curve; for c >= 1 the left
    support endpoint carries a log singularity, handled by tanh-sinh.
    """
    _require_c(c, positive=True)
    return -0.5 * _rho_curve(shape_curve(c), c), _lemma_A_closed(c)


def lemma_I(c: float, s: float, a: float, b: float) -> tuple[float, float]:
    """I_c(s) = int_a^b phi_0(s-t) Omega_c'(t) dt, quadrature vs closed form."""
    if not a < s < b:
        raise ValueError("s must lie in (a, b)")
    pts = tuple(shape_breakpoints(c)) + (0.0, s)
    val = tanh_sinh(lambda t: _phi0_off_diagonal(s - t) * omega_c_prime(c, t), a, b, pts)
    return val, _lemma_I_closed(c, s, a, b)


def lemma_F3(c: float, x: float) -> tuple[float, float]:
    """int_{-1}^{1} phi_2(x - z) Omega_c''(z + c/2 shift) dz vs its closed form.

    The substitution z = sin(psi) absorbs the inverse-square-root endpoint
    factor: the transformed weight 2(1 + c sin psi)/(pi (1 + c^2 + 2c sin psi))
    is smooth on [-pi/2, pi/2].  Near c = 1 it turns within ~|1 - c| of
    psi = -pi/2, so breakpoints at -pi/2 + k|1 - c| resolve the turn.
    """
    _require_c(c, positive=True)

    def g(psi):
        z = np.sin(psi)
        return phi(2, x - z) * (2.0 * (1.0 + c * z) / (math.pi * (1.0 + c * c + 2.0 * c * z)))

    pts = tuple(-0.5 * math.pi + k * abs(1.0 - c) for k in _TURN_SCALES)
    if -1.0 < x < 1.0:
        pts += (math.asin(x),)
    val = tanh_sinh(g, -0.5 * math.pi, 0.5 * math.pi, pts)
    return val, _lemma_F3_closed(c, x)


def lemma_intIOmega(c: float, a: float, b: float) -> tuple[float, float]:
    """int_a^b I_c(s) Omega_c'(s) ds from its definition vs its closed reduction.

    The left side is the log-kernel energy iint phi_0(s-t) Omega_c'(s) Omega_c'(t)
    over the window.  Split Omega_c' there into h, the constant +-1 off the
    bulk [c/2 - 1, c/2 + 1] and 0 on it, and k, Omega_c' on the bulk.  Then
    the energy is hh + 2 hk + kk:

    - hh = -E(x, d), with d the jumps of h at x = [a, breakpoints, b];
    - 2 hk = 2 int_bulk Omega_c'(t) (-sum_k d_k phi_1(x_k - t)) dt, one
      tanh-sinh call, since int phi_0(s - t) h(s) ds = -sum_k d_k phi_1(x_k - t);
    - kk, the generic log-kernel route on the bulk, the only nested quadrature.

    None of it uses G, H~, J~ or lemma I, on which the closed reduction rests.
    The value is independent of the window (a, b) as long as it strictly
    contains the shape support.
    """
    rhs = _int_I_omega_closed(c, a, b)  # first: it checks the window
    lo, hi = 0.5 * c - 1.0, 0.5 * c + 1.0
    x = np.array([a, *shape_breakpoints(c), b])
    mid = 0.5 * (x[:-1] + x[1:])
    h = np.where((lo < mid) & (mid < hi), 0.0, omega_c_prime(c, mid))
    d = np.diff(np.concatenate(([0.0], h, [0.0])))
    # Omega_c' is smooth at 0, but a split there shortens the panel whose left
    # end holds Omega_c''s turn near c = 1: without it the worst error on
    # verify-all's grid is 6.4e-9 instead of 3.3e-10.
    kinks = (0.0,) if lo < 0.0 < hi else ()
    hk = -tanh_sinh(lambda t: omega_c_prime(c, t) * (phi(1, x - t[..., None]) @ d), lo, hi, kinks)
    kk = _sobolev_logkernel_generic(Curve(partial(omega_c, c), partial(omega_c_prime, c),
                                          (lo, hi), kinks))
    return -_log_energy(x, d) + 2.0 * hk + kk, rhs


# ---------------------------------------------------------------------------
# the identity families
# ---------------------------------------------------------------------------


def run_checks(checks) -> tuple[list[dict], set[str]]:
    """The report records and coverage tags of (test, params, lhs, rhs, tol, tags) tuples."""
    records: list[dict] = []
    cov: set[str] = set()
    for test, params, lhs, rhs, tol, tags in checks:
        err = abs(lhs - rhs)
        records.append({"test": test, "params": params, "lhs": lhs, "rhs": rhs,
                        "abs_err": err, "tol": tol, "pass": bool(err <= tol)})
        cov.update(tags)
    return records, cov


def sum_rules(tensor=((3, 2), (5, 3), (6, 4)), plancherel=(4, 8)):
    """sum dim_iso = N^n over Y_N^n and sum dim_sym^2 = n!."""
    for n, N in tensor:
        total = sum(exact.dim_iso(lam, N) for lam in exact.enumerate_diagrams(n, N))
        yield ("sum_dim_iso", {"n": n, "N": N}, float(total), float(N ** n), 0.0,
               ("sum-rule-tensor",))
    for n in plancherel:
        total = sum(exact.dim_sym(lam) ** 2 for lam in exact.enumerate_diagrams(n, n))
        yield ("sum_dim_sym_sq", {"n": n}, float(total), float(math.factorial(n)), 0.0,
               ("sum-rule-plancherel",))


def measure_routes():
    """The Schur-Weyl measure by hooks and by the content product, as rationals."""
    for n, N in ((5, 3), (6, 2)):
        for lam in exact.enumerate_diagrams(n, N):
            yield ("measure_two_routes", {"lam": str(lam), "N": N},
                   float(exact.schur_weyl_measure(lam, N).value),
                   float(_schur_weyl_via_contents(lam, N)), 0.0,
                   ("measure-content-product",))


def chi_square_sf(chisq: float, dof: int) -> float:
    """P(X > chisq) for X chi-square with dof degrees of freedom: Q(dof/2, chisq/2)."""
    return float(mpmath.gammainc(dof / 2, chisq / 2, regularized=True))


def chi_square(sizes=((4, 2),), count=20000, seed=0):
    """Chi-square fit of count RSK samples per (n, N); passes when p > 1e-3."""
    for n, N in sizes:
        observed = Counter(rsk.sample_schur_weyl(n, N, seed, count))
        chisq = 0.0
        dof = -1
        for lam in exact.enumerate_diagrams(n, N):
            e = float(exact.schur_weyl_measure(lam, N).value) * count
            chisq += (observed[lam] - e) ** 2 / e
            dof += 1
        pval = chi_square_sf(chisq, dof)
        yield ("sampler_chi_square", {"n": n, "N": N, "count": count, "chisq": chisq,
                                      "dof": dof},
               pval, pval if pval > 1e-3 else -1.0, 0.0, ("rsk-sampler",))


def decomposition(n=64, N=8, count=5, seed=1):
    """eps_1 = 1, and the residual eps_n is the same on count sampled diagrams."""
    yield ("eps_1", {}, functionals.prop31_decompose(Partition((1,)), 1).residual, 1.0,
           1e-12, ("decomposition",))
    res = [functionals.prop31_decompose(lam, N).residual
           for lam in rsk.sample_schur_weyl(n, N, seed, count)]
    yield ("residual_lambda_independent", {"n": n, "N": N}, max(res), min(res), 1e-9,
           ("decomposition", "eps-independence"))


def minimizer_gap(cs=(0.5, 2.0)):
    """theta - rho vanishes at Omega_c: nested theta(Omega_c) against -2 A(c)."""
    for c in cs:
        yield ("minimizer_gap", {"c": c}, _theta_curve(shape_curve(c)),
               functionals.theta_shape(c), 1e-6,
               ("minimizer", "hook-integral-quadrature"))


def variational_identity(n=100, N=12, count=6, keep=2, seed=2):
    """The variational identity on the first keep of count samples with fewer than N rows."""
    kept = [lam for lam in rsk.sample_schur_weyl(n, N, seed, count) if lam.height < N]
    for lam in kept[:keep]:
        lhs, rhs = functionals.prop41_identity(lam, N)
        yield ("variational_identity", {"n": n, "N": N, "lam": str(lam)}, lhs, rhs, 1e-6,
               ("variational-identity",))


def gap_positivity(n=100, N=10, count=10, seed=3):
    """theta - rho >= -1e-9 on count sampled profiles."""
    c_n = math.sqrt(n) / N
    profs = [profile(lam) for lam in rsk.sample_schur_weyl(n, N, seed, count)]
    worst = min(functionals.theta_profile(p) - functionals.rho(p, c_n) for p in profs)
    yield "gap_nonnegative", {"n": n, "N": N}, min(worst, 0.0), 0.0, 1e-9, ("gap-positivity",)


def lemmas(c_grid):
    """Lemmas A, I, F3 and intIOmega: quadrature against closed form at each c."""
    for c in c_grid:
        a, b = functionals.default_window(c)
        yield "lemma_A", {"c": c}, *lemma_A(c), 1e-7, ("lemma-A",)
        yield ("lemma_I", {"c": c}, *lemma_I(c, 0.5 * c + 1.2, a, b), 1e-7,
               ("lemma-I",))
        yield "lemma_F3", {"c": c}, *lemma_F3(c, 0.3), 1e-7, ("lemma-F3",)
        yield ("lemma_intIOmega", {"c": c}, *lemma_intIOmega(c, a, b), 1e-6,
               ("lemma-intIOmega",))


def sobolev_routes():
    """The nested difference quotient against the closed-form Sobolev norm of L - Omega_1."""
    f = functionals.profile_minus_shape(profile(Partition((1,))), 1.0)
    yield ("sobolev_routes", {"lam": "1", "c": 1.0}, _sobolev_quotient(f),
           functionals.sobolev_half_sq(f), 1e-6, ("sobolev-half-norm",))


def derivatives(cs=(0.5, 2.0), zs=(1.7,), ss=(0.3,)):
    """H', H'', J' = H at each z and Omega', G' at each s against central differences."""
    h = 1e-6

    def fd(fn, c, x):
        return (fn(c, x + h) - fn(c, x - h)) / (2 * h)

    for c in cs:
        for z in zs:
            yield ("H_prime_fd", {"c": c, "z": z}, shape.H_tilde_prime(c, z),
                   fd(shape.H_tilde, c, z), 1e-6, ("H-function",))
            yield ("H_second_fd", {"c": c, "z": z}, shape.H_tilde_second(c, z),
                   fd(shape.H_tilde_prime, c, z), 1e-5, ("H-function",))
            yield ("J_prime_is_H", {"c": c, "z": z}, fd(shape.J_tilde, c, z),
                   shape.H_tilde(c, z), 1e-6, ("J-function",))
        for s in ss:
            yield ("omega_prime_fd", {"c": c, "s": s}, shape.omega_c_prime(c, s),
                   fd(shape.omega_c, c, s), 1e-6, ("limit-shape",))
            yield ("G_prime_fd", {"c": c, "s": s}, -math.log(abs(1 + 2 * c * s)),
                   fd(shape.G, c, s), 1e-6, ("G-function",))


def constants_and_series(zs=(0.3,)):
    """alpha_0, beta and m(1) in closed form, and the power-series identity at each z."""
    yield ("alpha_0_closed", {}, functionals.alpha_constant(0.0),
           2 / math.pi - 4 / math.pi ** 2, 1e-10, ("alpha-constant",))
    yield ("beta_value", {}, functionals.beta_constant(), 2 * math.pi / math.sqrt(6),
           1e-14, ("beta-constant",))
    yield ("m_at_1", {}, functionals.m_series(1.0), 3 - 4 * math.log(2), 1e-12,
           ("m-series",))
    for z in zs:
        lhs = -3 + (1 + 1 / z) ** 2 * math.log(1 + z) + (1 / z - 1) ** 2 * math.log(1 - z)
        rhs = -sum(z ** (2 * k) / (k * (k + 1) * (2 * k + 1)) for k in range(1, 100))
        yield "power_series_identity", {"z": z}, lhs, rhs, 1e-10, ("power-series-identity",)


def hat_inequality():
    """theta_hat >= rho_hat on every diagram of Y_4^8."""
    n, N = 8, 4
    bad = sum(1 for lam in exact.enumerate_diagrams(n, N)
              if functionals.theta_hat(lam) < functionals.rho_hat(lam, N) - 1e-12)
    yield "hat_inequality", {"n": n, "N": N}, float(bad), 0.0, 0.0, ("hat-inequality",)
