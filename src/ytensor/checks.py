"""verify-all's identity checks and the independent oracles they compare against.

Production code computes each quantity by one closed-form route (functionals,
shape, exact); this module holds the second routes and the checks that pair
the two.  No module of the production layers imports it.

The identity families are sum_rules, measure_routes, chi_square,
decomposition, variational_identity, minimizer_gap, gap_positivity,
penalty_nonnegative, lemmas, sobolev_routes, derivatives,
constants_and_series, hat_inequality and partition_function.  Each yields
one (test, params, lhs, rhs, tol, tags) tuple per check and takes its sizes
and seed as parameters; the defaults are verify-all's sizes, and the
acceptance tests run the same families at larger sizes.  run_checks turns
the tuples into report records; harness.cmd_verify_all chains every family.

_schur_weyl_via_contents, the Plancherel measure times the product of
(N + c)/N over the cells' contents c, is measure_routes' second route to the
Schur-Weyl measure.

The oracles read a function through a Curve: fn and prime as numpy
callables, a support and the kinks where prime may jump.  shape_curve is
Omega_c as one, and profile_minus_shape the difference L - Omega_c on its
support, built from the profile's corners and Omega_c; the production
functionals take the profile itself and never a Curve.

The lemma_* functions check the closed forms of the auxiliary integrals (A,
I_c, the phi_2 moment of Omega_c'' and the I-against-Omega' integral) by
independent routes, each returning (oracle value, closed form).  Lemma A's
and lemma F3's closed forms live in functionals, because production reads
them: theta_shape reads A, and the Sobolev kernel F3.  Only oracles read
lemma I's (_lemma_I_closed), lemma intIOmega's (_int_I_omega_closed, with
its _log_moment), the lemmas' default_window and H_tilde_second, H~_c'' for
the derivatives check; so they live here, each beside the oracle it is
compared with, and no production module holds a closed form that only an
oracle reads.  Each lemma oracle is split once into the one integral it
needs and the step that assembles its value (an _Oracle), and _evaluate runs
any number of oracles with one tanh_sinh call for all their integrals.  So
lemmas integrates its c grid's 28 integrals (A, I, F3 and intIOmega's cross
term hk) as one batch, each value bit for bit the oracle's alone, and makes
no nested call.  The nested-quadrature routes (difference quotient, generic
log kernel and the hook integral of a Curve, minimizer_gap's left side) are
independent oracles; each gives quadrature.nested_tanh_sinh its kernel and
outer weight as defined.  That integrates the triangle t < s alone: the
hook integral lives there, and the two Sobolev kernels are symmetric in
(s, t).  The log kernel phi_0(s - t) goes in as it is, with its singularity
at the end t = s of the inner panels, where tanh-sinh resolves it; so does
lemma_I's single integral, split at s and, as alpha_c and lemma F3 are, at
multiples of |1 - c| past the bulk's left end, where Omega_c' turns near
c = 1.  Lemma intIOmega's left side, the log energy of Omega_c' on the
window, is an oracle built from phi_0's antiderivatives and one series:
off the bulk Omega_c' is +-1, so that part's energy is -E and its cross
term with the bulk one tanh-sinh call, split at the same multiples of
|1 - c|, and the bulk's own energy is the Chebyshev series of
_bulk_log_energy, whose coefficients are elementary.
_rho_curve, rho of a Curve, is lemma A's quadrature side and the oracle for
rho.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import mpmath
import numpy as np

from . import exact, functionals, rsk, shape
from .diagrams import Partition, Profile, profile
from .functionals import (
    _TURN_SCALES,
    _corner_jumps,
    _lemma_A_closed,
    _lemma_F3_closed,
    _log_energy,
    _pole_term,
)
from .quadrature import nested_tanh_sinh, tanh_sinh
from .shape import (G, H_tilde, J_tilde, _require_c, omega_c, omega_c_prime, phi,
                    shape_breakpoints, shape_support)

__all__ = [
    "Curve",
    "shape_curve",
    "profile_minus_shape",
    "default_window",
    "lemma_A",
    "lemma_I",
    "lemma_F3",
    "lemma_intIOmega",
    "H_tilde_second",
    "run_checks",
    "sum_rules",
    "measure_routes",
    "chi_square_sf",
    "chi_square",
    "decomposition",
    "minimizer_gap",
    "variational_identity",
    "gap_positivity",
    "penalty_nonnegative",
    "lemmas",
    "sobolev_routes",
    "derivatives",
    "constants_and_series",
    "hat_inequality",
    "partition_function",
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


@dataclass(frozen=True)
class Curve:
    """A piecewise-smooth function for the quadrature routes; fn and prime act
    elementwise on numpy arrays.  Outside support fn vanishes for
    profile_minus_shape and is |s| for shape_curve; prime may jump only at
    kinks."""

    fn: Callable[[np.ndarray], np.ndarray]
    prime: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    kinks: tuple[float, ...]


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


def profile_minus_shape(prof: Profile, c: float) -> Curve:
    """The difference f = L - Omega_c as a Curve on its support [a, b], the hull
    of the profile's corners and Omega_c's support [lo, hi]: L is |s| left of
    the profile's first corner and right of its last, and Omega_c is |s|
    outside its own support, so f and f' vanish beyond both ends.  Kinks at
    the corners, the shape's breakpoints and 0, strictly inside."""
    cx, d = _corner_jumps(prof)
    _require_c(c, positive=True)
    lo, hi = shape_support(c)
    a, b = min(float(cx[0]), lo), max(float(cx[-1]), hi)
    lp = np.cumsum(np.concatenate(([-1.0], d)))  # L' left of cx[0], on each piece, right of it
    kinks = sorted(set(cx.tolist()) | set(shape_breakpoints(c)) | {0.0})
    return Curve(fn=lambda s: prof.evaluate(s) - omega_c(c, s),
                 prime=lambda s: lp[np.searchsorted(cx, s, side="right")] - omega_c_prime(c, s),
                 support=(a, b), kinks=tuple(k for k in kinks if a < k < b))


def _theta_curve(L: Curve) -> float:
    """Hook integral of a curve by nested tanh-sinh quadrature of its definition:
    theta(L) = 1 - 2 iint_{t<s} phi_0(s-t) (1 + L'(t)) (1 - L'(s)) ds dt, where
    1 + L' vanishes left of the support and 1 - L' right of it."""
    return 1.0 - 2.0 * nested_tanh_sinh(lambda s, t: _phi0_off_diagonal(s - t) * (1.0 + L.prime(t)),
                                        lambda s: 1.0 - L.prime(s), *L.support, L.kinks)


def _rho_integral(L: Curve, c: float) -> tuple:
    """rho of a Curve as a tanh_sinh member (log singularity possible at the left edge)."""
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

    return integrand, lo, hi, L.kinks + (0.0,)


def _rho_curve(L: Curve, c: float) -> float:
    """rho of a Curve by tanh-sinh quadrature."""
    return tanh_sinh([_rho_integral(L, c)])[0]


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

    return (nested_tanh_sinh(kernel, np.ones_like, a, b, f.kinks)
            + tanh_sinh([(tails, a, b, f.kinks)])[0])


def _sobolev_logkernel_generic(f: Curve) -> float:
    """Log-kernel route to the Sobolev norm by nested tanh-sinh quadrature:
    - iint ln|2(s-t)| f'(s) f'(t) ds dt over f's support.  The kernel is
    symmetric in (s, t), so this is twice its triangle t < s, phi_0(s-t) f'(t)
    inside and 2 f'(s) outside."""
    return nested_tanh_sinh(lambda s, t: _phi0_off_diagonal(s - t) * f.prime(t),
                            lambda s: 2.0 * f.prime(s), *f.support, f.kinks)


@dataclass(frozen=True)
class _Oracle:
    """A quadrature oracle split into the one integral it needs, a tanh_sinh
    member (f, a, b, points), and the step that assembles its value: assemble
    takes the integral and returns (quadrature value, closed form)."""

    member: tuple
    assemble: Callable[[float], tuple[float, float]]


def _evaluate(oracles: list[_Oracle]) -> list[tuple[float, float]]:
    """Each oracle's (oracle value, closed form), from one tanh_sinh call over
    all their integrals.  Each value is bit for bit the oracle's alone."""
    values = tanh_sinh([o.member for o in oracles])
    return [o.assemble(value) for o, value in zip(oracles, values)]


def default_window(c: float) -> tuple[float, float]:
    """Integration window [a, b] of lemmas, strictly containing the shape support."""
    _require_c(c, positive=True)
    return min(0.5 * c - 1.0, -0.5 / c) - 0.5, 0.5 * c + 1.5


def lemma_A(c: float) -> tuple[float, float]:
    """A(c) = int ln(1 + 2cs) (|s| - Omega_c(s)) ds, quadrature vs closed form.

    The quadrature side is -rho(Omega_c)/2 by _rho_curve; for c >= 1 the left
    support endpoint carries a log singularity, handled by tanh-sinh.
    """
    return _evaluate([_lemma_A(c)])[0]


def _lemma_A(c: float) -> _Oracle:
    _require_c(c, positive=True)
    closed = _lemma_A_closed(c)
    return _Oracle(_rho_integral(shape_curve(c), c), lambda rho: (-0.5 * rho, closed))


def _bulk_turns(c: float) -> tuple[float, ...]:
    """c/2 - 1 + k|1 - c| for k in _TURN_SCALES.  Near c = 1 Omega_c' turns
    just right of the bulk's left end, within ~(1 - c)^2 of it; breakpoints
    there shorten the panels around the turn."""
    return tuple(0.5 * c - 1.0 + k * abs(1.0 - c) for k in _TURN_SCALES)


def lemma_I(c: float, s: float, a: float, b: float) -> tuple[float, float]:
    """I_c(s) = int_a^b phi_0(s-t) Omega_c'(t) dt, quadrature vs closed form.

    The breakpoints _bulk_turns resolve Omega_c''s turn near c = 1: at
    c = 0.99 and 1.01 they take the error at s = c/2 and c/2 + 1.2 from up to
    2.7e-9 to at most 1.1e-12.
    """
    return _evaluate([_lemma_I(c, s, a, b)])[0]


def _lemma_I_closed(c: float, s: float, a: float, b: float) -> float:
    return phi(1, a - s) + phi(1, b - s) + G(c, s) - H_tilde(c, s - 0.5 * c)


def _lemma_I(c: float, s: float, a: float, b: float) -> _Oracle:
    if not a < s < b:
        raise ValueError("s must lie in (a, b)")
    pts = (*shape_breakpoints(c), 0.0, s, *_bulk_turns(c))
    closed = _lemma_I_closed(c, s, a, b)
    return _Oracle((lambda t: _phi0_off_diagonal(s - t) * omega_c_prime(c, t), a, b, pts),
                   lambda val: (val, closed))


def lemma_F3(c: float, x: float) -> tuple[float, float]:
    """int_{-1}^{1} phi_2(x - z) Omega_c''(z + c/2 shift) dz vs its closed form.

    The substitution z = -cos(t) absorbs the inverse-square-root endpoint
    factor: the transformed weight 2(1 - c cos t)/(pi (1 + c^2 - 2c cos t))
    is smooth on [0, pi].  Near c = 1 it turns within ~|1 - c| of t = 0, so
    breakpoints at k|1 - c| resolve the turn.  There 1 + c^2 - 2c cos t
    cancels to ~(1 - c)^2, so the weight is taken as
    (1 + (1 - c^2)/((1 - c)^2 + 4c sin^2(t/2)))/pi, whose denominator sums
    nonnegative terms.  At c = 1 it is 1/pi, save a few nodes within 1e-150
    of t = 0, where sin^2(t/2) underflows, the weight is 0/0 and tanh_sinh
    takes it as non-finite.  At c = 1.0001 and 0.9999, x = 2, that takes the
    error from 3.6e-9 (1 + c^2 + 2c sin psi, in psi = t - pi/2) to 1.5e-10.
    """
    return _evaluate([_lemma_F3(c, x)])[0]


def _lemma_F3(c: float, x: float) -> _Oracle:
    _require_c(c, positive=True)

    def g(t):
        w = 1.0 + (1.0 - c) * (1.0 + c) / ((1.0 - c) ** 2 + 4.0 * c * np.sin(0.5 * t) ** 2)
        return phi(2, x + np.cos(t)) * (w / math.pi)

    pts = tuple(k * abs(1.0 - c) for k in _TURN_SCALES)
    if -1.0 < x < 1.0:
        pts += (math.acos(-x),)
    closed = _lemma_F3_closed(c, x)
    return _Oracle((g, 0.0, math.pi, pts), lambda val: (val, closed))


# Terms of _bulk_log_energy's series.  Past n, c_n is at most ~2/n^2, so the
# tail is ~1/n^4: measured 2.1e-15 at c = 1 and 3.7e-15 to 4.0e-15 at c from
# 0.1 to 20/3, against 100 times as many terms.
_BULK_TERMS = 4000


def _bulk_log_energy(c: float) -> float:
    """kk = iint phi_0(s - t) Omega_c'(s) Omega_c'(t) ds dt over the bulk
    [c/2 - 1, c/2 + 1], by the Chebyshev series of the log kernel.

    In x = s - c/2 and y = t - c/2, both in [-1, 1], the kernel has the
    classical expansion phi_0 = -ln|2(x - y)| = sum_{n>=1} (2/n) T_n(x) T_n(y),
    so kk = sum_{n>=1} (2/n) c_n^2 with c_n = int_{-1}^{1} K(x) T_n(x) dx and
    K(x) = Omega_c'(c/2 + x).  In x = cos theta, K is
    1 - (2/pi) arg(c + e^{i theta}), the form alpha_constant integrates, and
    T_n(x) dx = -cos(n theta) sin theta dtheta, so with
    beta_m = int_0^pi K sin(m theta) dtheta and beta_0 = 0,

        c_n = int_0^pi K cos(n theta) sin theta dtheta = (beta_{n+1} - beta_{n-1}) / 2.

    The Fourier series of log(1 + z) gives arg(c + e^{i theta}) as
    sum_k (-1)^{k+1} c^-k sin(k theta)/k for c > 1, and as theta minus
    sum_k (-1)^{k+1} c^k sin(k theta)/k for c < 1; with
    int_0^pi sin(k theta) sin(m theta) = (pi/2) [k = m],
    int_0^pi theta sin(m theta) = pi (-1)^{m+1}/m and
    int_0^pi sin(m theta) = (1 + (-1)^{m+1})/m,

        beta_m = (1 + (-1)^{m+1} (1 - q_m)) / m,

    q_m = c^-m for c > 1, 2 - c^m for c < 1 and 1 at c = 1, where
    arg(1 + e^{i theta}) = theta/2.  At c = 1, beta_m = 1/m, c_1 = 1/4,
    c_n = -1/(n^2 - 1) past it and kk = 1/4.  The sum runs over the first
    _BULK_TERMS terms.
    """
    m = np.arange(1.0, _BULK_TERMS + 2.0)
    q = np.ones_like(m)
    if c != 1.0:
        # c^-m for c > 1, c^m for c < 1, left at 0 once below e^-40, far under kk's ulp
        rate = abs(math.log(c))
        r = np.zeros_like(m)
        k = min(m.size, math.ceil(40.0 / rate))
        r[:k] = np.exp(-rate * m[:k])
        q = r if c > 1.0 else 2.0 - r
    beta = np.zeros(_BULK_TERMS + 2)
    beta[1:] = q / m
    beta[1::2] = (2.0 - q[::2]) / m[::2]  # odd m
    cn = 0.5 * (beta[2:] - beta[:-2])
    return float(np.sum(cn * cn * (2.0 / m[:-1])))


def _log_moment(c: float, s: float) -> float:
    """int_0^s t ln|1 + 2ct| dt = ((e^2 - 1) ln|1 + e| / 2 + e/2 - e^2/4) / (4c^2), e = 2cs.

    Continuous through the pole e = -1, where the log term is taken as its
    limit 0.  ln|1 + e| is log1p of e, or of -2 - e left of the pole, so the
    sum keeps its digits when e is small.
    """
    e = 2.0 * c * s
    log_term = 0.0 if e == -1.0 else 0.5 * (e * e - 1.0) * math.log1p(e if e > -1.0 else -2.0 - e)
    return (log_term + 0.5 * e - 0.25 * e * e) / (4.0 * c * c)


def _int_I_omega_closed(c: float, a: float, b: float) -> float:
    """Closed form of int_a^b I_c(s) Omega_c'(s) ds (lemma intIOmega):

        1 - 2 phi_2(b - a) + 2 [a G_c(a) + b G_c(b) + M(a) + M(b)
                                - J~_c(a - c/2) - J~_c(b - c/2)] + _pole_term(c),

    with M(s) = int_0^s t ln|1 + 2ct| dt (_log_moment).  The lemma reduces
    the integral to 1 + 2 A(c) - 2 phi_2(b - a) + 2 int_a^b (G_c - H~_c(s - c/2))
    Omega_c'(s) ds, with A lemma A's constant (-c^2/8 for c <= 1), and three
    steps close the rest:

    - By parts, with G_c' = -ln|1 + 2cs| and Omega_c = |s| at a < 0 < b:
      int G_c Omega_c' = b G_c(b) + a G_c(a) + int ln|1 + 2cs| |s| ds - A(c),
      since A(c) = int ln(1 + 2cs)(|s| - Omega_c) and 1 + 2cs > 0 wherever
      Omega_c differs from |s|.  So A cancels.
    - int_a^b ln|1 + 2cs| |s| ds = M(a) + M(b).  Where a lies at or left
      of the pole -1/(2c), always for c > 1, the range reaches it, and M is
      continuous there.
    - H~_c vanishes on the bulk |s - c/2| <= 1, and off it Omega_c' is
      sign(s), but +1 on [-1/(2c), c/2 - 1] when c > 1.  With J~_c' = H~_c
      and J~_c(+-1) = 0, int H~_c Omega_c' = J~_c(a - c/2) + J~_c(b - c/2)
      - 2 J~_c(-1/(2c) - c/2) [c > 1], the pole term of functionals.h_term.

    The window must contain the shape support and may end at lo or hi.  No
    production route reads this form, so it lives here beside the oracle
    that integrates the same energy by quadrature.
    functionals.sobolev_half_sq's polarization is what it leaves of this
    form, with the window's terms cancelled.
    """
    lo_s, hi_s = shape_support(c)
    if not (a <= lo_s and b >= hi_s):
        raise ValueError("window must contain the shape support")
    ends = np.array([a, b])
    by_parts = float(ends @ G(c, ends)) + _log_moment(c, a) + _log_moment(c, b)
    off_bulk = float(np.sum(J_tilde(c, ends - 0.5 * c)))
    return 1.0 - 2.0 * phi(2, b - a) + 2.0 * (by_parts - off_bulk) + _pole_term(c)


def lemma_intIOmega(c: float, a: float, b: float) -> tuple[float, float]:
    """int_a^b I_c(s) Omega_c'(s) ds from its definition vs its closed reduction.

    The left side is the log-kernel energy iint phi_0(s-t) Omega_c'(s) Omega_c'(t)
    over the window.  Split Omega_c' there into h, the constant +-1 off the
    bulk [c/2 - 1, c/2 + 1] and 0 on it, and k, Omega_c' on the bulk.  Then
    the energy is hh + 2 hk + kk:

    - hh = -E(x, d), with d the jumps of h at x = [a, breakpoints, b];
    - 2 hk = 2 int_bulk Omega_c'(t) (-sum_k d_k phi_1(x_k - t)) dt, one
      tanh-sinh call, since int phi_0(s - t) h(s) ds = -sum_k d_k phi_1(x_k - t),
      split at _bulk_turns, where Omega_c' turns near c = 1;
    - kk, the bulk's own energy, by the Chebyshev series of _bulk_log_energy,
      with no quadrature.

    The error is hk's: at most 2.1e-14 on verify-all's c grid, and 2.6e-13
    and 4.4e-13 at c = 0.99 and 1.01, where the nested kk route was 8.9e-11
    and 9.9e-11 off.  None of it uses G, H~, J~, the log moment or lemma I,
    on which the closed reduction rests.  The value depends on the window
    (a, b), which must contain the shape support.
    """
    return _evaluate([_lemma_intIOmega(c, a, b)])[0]


def _lemma_intIOmega(c: float, a: float, b: float) -> _Oracle:
    rhs = _int_I_omega_closed(c, a, b)  # first: it checks the window
    lo, hi = 0.5 * c - 1.0, 0.5 * c + 1.0
    x = np.array([a, *shape_breakpoints(c), b])
    mid = 0.5 * (x[:-1] + x[1:])
    h = np.where((lo < mid) & (mid < hi), 0.0, omega_c_prime(c, mid))
    d = np.diff(np.concatenate(([0.0], h, [0.0])))
    hk = (lambda t: omega_c_prime(c, t) * (phi(1, x - t[..., None]) @ d), lo, hi, _bulk_turns(c))
    kk = _bulk_log_energy(c)
    return _Oracle(hk, lambda hk: (-_log_energy(x, d) + 2.0 * -hk + kk, rhs))


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
    """Chi-square fit of count RSK samples per (n, N); passes when p > 1e-3.
    Where Y_N^n has one diagram, p is 1 when every sample is it and 0 otherwise."""
    for n, N in sizes:
        observed = Counter(rsk.sample_schur_weyl(n, N, seed, count))
        chisq = 0.0
        dof = -1
        for lam in exact.enumerate_diagrams(n, N):
            e = float(exact.schur_weyl_measure(lam, N).value) * count
            chisq += (observed[lam] - e) ** 2 / e
            dof += 1
        # one diagram (N = 1 or n = 1): the fit is exact, and chi_square_sf(0, 0) is NaN
        pval = chi_square_sf(chisq, dof) if dof else float(chisq == 0.0)
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
        yield ("minimizer_gap", {"c": c}, _theta_curve(shape_curve(c)), functionals.theta_shape(c),
               1e-6, ("minimizer", "hook-integral-quadrature"))


def variational_identity(cases=((100, 12, 2), (100, 5, 1), (64, 2, 1), (36, 4, 1)), seed=2):
    """The variational identity on count samples at each (n, N, count); the last
    three cases sample N-row diagrams at c = 2, 4 and 1.5."""
    for n, N, count in cases:
        for lam in rsk.sample_schur_weyl(n, N, seed, count):
            lhs, rhs = functionals.prop41_identity(lam, N)
            yield ("variational_identity", {"n": n, "N": N, "lam": str(lam)}, lhs, rhs, 1e-6,
                   ("variational-identity",))


def gap_positivity(n=100, N=10, count=10, seed=3):
    """theta - rho >= -1e-9 on count sampled profiles."""
    c_n = math.sqrt(n) / N
    profs = [profile(lam) for lam in rsk.sample_schur_weyl(n, N, seed, count)]
    worst = min(functionals.theta_profile(p) - functionals.rho(p, c_n) for p in profs)
    yield "gap_nonnegative", {"n": n, "N": N}, min(worst, 0.0), 0.0, 1e-9, ("gap-positivity",)


def penalty_nonnegative(cases=(((9,), 2), ((12, 4), 3), ((40, 30, 2), 4), ((9,), 20),
                                ((1,) * 5, 9), ((2,) * 6, 7), ((60, 40), 10), ((50, 30, 20), 9))):
    """The boundary penalty h_term >= -1e-9 on fixed diagrams (rows, N) with corners
    off the bulk, c from 0.15 to 2.12, and above 1e-3 on at least one of them:
    sampled diagrams keep their corners near Omega_c, and their penalty is
    nearly always exactly 0."""
    h = [functionals.h_term(profile(Partition(rows)), math.sqrt(sum(rows)) / N)
         for rows, N in cases]
    yield ("penalty_nonnegative", {"count": len(h)}, min(min(h), 0.0), 0.0, 1e-9,
           ("penalty-nonnegative",))
    yield ("penalty_nonvacuous", {"count": len(h)}, max(h), max(h) if max(h) > 1e-3 else -1.0,
           0.0, ("penalty-nonnegative",))


def lemmas(c_grid):
    """Lemmas A, I, F3 and intIOmega: oracle against closed form at each c,
    with the grid's single integrals in one tanh_sinh call; none is nested."""
    cases = []
    for c in c_grid:
        a, b = default_window(c)
        cases += [(c, "lemma_A", _lemma_A(c), 1e-7),
                  (c, "lemma_I", _lemma_I(c, 0.5 * c + 1.2, a, b), 1e-7),
                  (c, "lemma_F3", _lemma_F3(c, 0.3), 1e-7),
                  (c, "lemma_intIOmega", _lemma_intIOmega(c, a, b), 1e-11)]
    for (c, test, _, tol), (lhs, rhs) in zip(cases, _evaluate([o for _, _, o, _ in cases])):
        yield test, {"c": c}, lhs, rhs, tol, (test.replace("_", "-"),)


def sobolev_routes():
    """The nested difference quotient against the closed-form Sobolev norm of L - Omega_1."""
    prof = profile(Partition((1,)))
    yield ("sobolev_routes", {"lam": "1", "c": 1.0},
           _sobolev_quotient(profile_minus_shape(prof, 1.0)),
           functionals.sobolev_half_sq(prof, 1.0), 1e-6, ("sobolev-half-norm",))


def H_tilde_second(c: float, z: float) -> float:
    """Second derivative of H_tilde for |z| > 1."""
    _require_c(c, positive=True)
    if abs(z) <= 1.0:
        raise ValueError("H_tilde_second is defined for |z| > 1")
    a = (1.0 + c * c) / (2.0 * c)
    return math.copysign(1.0, z) * (z + 1.0 / c) / ((a + z) * math.sqrt((z - 1.0) * (z + 1.0)))


def derivatives(cs=(0.5, 2.0), zs=(1.7,), ss=(0.3,)):
    """H', H'', J' = H at each z and Omega', G' at each s against central differences."""
    h = 1e-6

    def fd(fn, c, x):
        return (fn(c, x + h) - fn(c, x - h)) / (2 * h)

    for c in cs:
        for z in zs:
            yield ("H_prime_fd", {"c": c, "z": z}, shape.H_tilde_prime(c, z),
                   fd(shape.H_tilde, c, z), 1e-6, ("H-function",))
            yield ("H_second_fd", {"c": c, "z": z}, H_tilde_second(c, z),
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


def partition_function():
    """exact.partition_count at 100 against the known value p(100) = 190569292."""
    yield ("partition_count_100", {}, float(exact.partition_count(100)), 190569292.0, 0.0,
           ("partition-function",))
