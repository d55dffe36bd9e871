"""The variational layer: hook and content integrals and their identities.

theta is the hook integral of a profile, rho its content counterpart with
deformation parameter c, theta_hat and rho_hat the discrete correction sums
built from m(x).  The decomposition

    -ln P(lam) / sqrt(n) = sqrt(n) (theta - rho) + theta_hat - rho_hat - eps_n

splits the exact log-probability into functional and correction parts, with
eps_n depending on n only.  The identity

    theta(L) - rho(L) = (1/2) ||L - Omega_c||^2_{1/2} + 2 int H'_c (L - Omega_c)

expresses the gap as a half-Sobolev norm plus a boundary penalty, which is the
mechanism behind positivity and the unique minimizer Omega_c.  The lemma_*
functions check the closed forms of the auxiliary integrals (A, I_c, the
phi_2 moment of Omega_c'' and the I-against-Omega' integral) by independent
quadrature.

On a lattice profile L'' is a sum of point masses d_k at the corners x_k, so
two integrations by parts turn every log-kernel functional into a sum over
corners: theta = 1 - E(x, d) with E = sum_{j,k} d_j d_k phi_2(x_k - x_j), rho
a sum of phi_2(x_k + 1/(2c)) and x_k^2 terms, and the Sobolev norm of
L - Omega_c the energy E on the window, the antiderivative of lemma I at the
corners and lemma intIOmega's reduction of the shape self-energy.
That reduction is one tanh-sinh call over the array-valued G and H, and so
are alpha_c and lemma_F3, in angle variables.  The boundary penalty takes
no quadrature: J~_c and H~_c vanish on the bulk, so it is a sum over the
kinks of L - Omega_c of J~_c times the jumps of its slope.
theta(Omega_c) is -2 A(c), lemma A's closed form, since Omega_c minimizes
theta - rho with gap 0.  The nested-quadrature routes (difference quotient,
generic log kernel and the hook integral of a Curve, minimizer_gap's left
side) are independent oracles; each gives quadrature.nested_tanh_sinh its
kernel and outer weight as defined.  That integrates the triangle t < s
alone: the hook integral lives there, and the two Sobolev kernels are
symmetric in (s, t).  The log kernel phi_0(s - t) goes in as it is, with its
singularity at the end t = s of the inner panels, where tanh-sinh resolves
it; so does lemma_I's single integral, split at s.  Lemma intIOmega's left
side, the log energy of Omega_c' on the window, is an oracle built from phi_0's
antiderivatives alone: off the bulk Omega_c' is +-1, so that part's energy is
-E and its cross term with the bulk one tanh-sinh call, and only the bulk's
own energy is a nested quadrature, by the generic log-kernel route.
_rho_curve, rho of a Curve, is lemma A's quadrature side and the oracle for
rho.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .diagrams import Partition, Profile, profile
from .exact import hook_lengths, neg_log_measure_scaled, shifted_contents
from .quadrature import nested_tanh_sinh, tanh_sinh
from .shape import (
    G,
    H_tilde,
    J_tilde,
    _require_c,
    omega_c,
    omega_c_prime,
    phi,
    shape_breakpoints,
    shape_support,
)

__all__ = [
    "FunctionalReport",
    "Curve",
    "shape_curve",
    "profile_minus_shape",
    "default_window",
    "theta_profile",
    "theta_shape",
    "rho",
    "m_series",
    "theta_hat",
    "rho_hat",
    "sobolev_half_sq",
    "h_term",
    "prop31_decompose",
    "prop41_identity",
    "lemma_A",
    "lemma_I",
    "lemma_F3",
    "lemma_intIOmega",
    "alpha_constant",
    "beta_constant",
]


@dataclass(frozen=True)
class FunctionalReport:
    """All pieces of the log-probability decomposition for one diagram.

    lhs is -ln P / sqrt(n); residual = sqrt(n)(theta - rho) + theta_hat -
    rho_hat - lhs, which estimates the diagram-independent constant eps_n.
    """

    theta: float
    rho: float
    theta_hat: float
    rho_hat: float
    lhs: float
    residual: float


@dataclass(frozen=True)
class Curve:
    """A piecewise-smooth function bundle for the quadrature routes; fn and
    prime act elementwise on numpy arrays.  Outside support fn vanishes for
    a difference such as profile_minus_shape and is |s| for a profile or
    shape_curve; prime may jump only at kinks."""

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


def default_window(c: float) -> tuple[float, float]:
    """Default integration window [a, b] strictly containing the shape support."""
    _require_c(c, positive=True)
    return min(0.5 * c - 1.0, -0.5 / c) - 0.5, 0.5 * c + 1.5


# ---------------------------------------------------------------------------
# theta: the hook integral
# ---------------------------------------------------------------------------


def _corner_jumps(prof: Profile) -> tuple[np.ndarray, np.ndarray]:
    """Scaled corners x_k of a profile and the jumps d_k of L' there.

    L' is -1 left of the profile and +1 right of it, so L'' = sum d_k delta_{x_k}
    with every d_k = +-2 and sum d_k = 2.
    """
    x, y = prof.corners
    return x, np.diff(np.concatenate(([-1.0], np.sign(np.diff(y)), [1.0])))


# Rows j per block of _log_energy's phi_2 matrix, so that phi's temporaries
# take a few times 8 * _ENERGY_ROWS * K bytes for K corners: on the staircase
# (2000, ..., 1), K = 4001, theta_profile peaks 33 MB above its baseline,
# where the whole K x K matrix took 505 MB.
_ENERGY_ROWS = 256


def _log_energy(x: np.ndarray, d: np.ndarray) -> float:
    """E(x, d) = sum_{j,k} d_j d_k phi_2(x_k - x_j), summed over blocks of rows j.

    For g' of compact support with g'' = sum d_k delta_{x_k}, two integrations
    by parts in each variable give iint phi_0(s - t) g'(s) g'(t) ds dt = -E.
    """
    return float(sum(d[j:j + _ENERGY_ROWS] @ phi(2, x[None, :] - x[j:j + _ENERGY_ROWS, None]) @ d
                     for j in range(0, x.size, _ENERGY_ROWS)))


def theta_profile(prof: Profile) -> float:
    """Hook integral of a lattice profile, exactly: theta(L) = 1 - E(x, d).

    theta(L) = 1 - 2 iint_{t<s} phi_0(s-t) (1 + L'(t)) (1 - L'(s)) ds dt.  Both
    weights have derivative +-L''; integrating by parts in t and then in s
    leaves sum_{j<k} d_j d_k phi_2(x_k - x_j) = E/2.  The boundary terms vanish:
    1 + L' is 0 left of the profile, 1 - L' is 0 right of it, and the diagonal
    t = s carries phi_1(0) = phi_2(0) = 0.
    """
    return 1.0 - _log_energy(*_corner_jumps(prof))


def _phi0_off_diagonal(d):
    """phi_0(d) = -ln|2d| for d != 0, and 0 at d = 0, where the quadrature
    routes' nodes have weight zero; d = 0 is evaluated as phi_0(1/2) = 0."""
    return -np.log(np.abs(2.0 * np.where(d == 0.0, 0.5, d)))


def _theta_curve(L: Curve) -> float:
    """Hook integral of a curve by nested tanh-sinh quadrature of its definition
    theta(L) = 1 - 2 iint_{t<s} phi_0(s-t) (1 + L'(t)) (1 - L'(s)) ds dt, where
    1 + L' vanishes left of the support and 1 - L' right of it."""
    return 1.0 - 2.0 * nested_tanh_sinh(
        lambda s, t: _phi0_off_diagonal(s - t) * (1.0 + L.prime(t)),
        lambda s: 1.0 - L.prime(s), *L.support, L.kinks)


def theta_shape(c: float) -> float:
    """Hook integral of the limit shape Omega_c: -2 A(c), which is c^2/4 for c <= 1.

    Omega_c minimizes theta - rho with gap 0, and rho(Omega_c) = -2 A(c) by the
    definition of A; minimizer_gap checks this against _theta_curve.
    """
    _require_c(c)
    return -2.0 * _lemma_A_closed(c)


# ---------------------------------------------------------------------------
# rho: the content integral
# ---------------------------------------------------------------------------


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


def rho(L: Profile, c_n: float) -> float:
    """Content integral rho(L) = 2 int ln(1 + 2 c_n s) (L(s) - |s|) ds of a lattice
    profile, in closed form as a sum over its corners.

    g = L - |s| has g'' = L'' - 2 delta_0, and ln(1 + 2cs) = ln c - phi_0(s + u)
    with u = 1/(2c), whose second antiderivatives are ln c s^2/2 and
    -phi_2(s + u).  Two integrations by parts give

        rho = ln c sum d_k x_k^2 - 2 sum d_k phi_2(x_k + u) + 4 phi_2(u).

    Requires L(s) = |s| for s <= -u, so the log argument stays positive where
    the integrand is nonzero; a corner at -u (a diagram with N rows)
    contributes phi_2(0) = 0.
    """
    if not isinstance(L, Profile):
        raise TypeError("rho takes a Profile")
    _require_c(c_n)
    if c_n == 0.0:
        return 0.0
    x, d = _corner_jumps(L)
    u = 0.5 / c_n
    if x[0] < -u - 1e-9:
        raise ValueError("profile support extends below -1/(2c); rho is undefined")
    return float(math.log(c_n) * (d @ (x * x)) - 2.0 * (d @ phi(2, x + u)) + 4.0 * phi(2, u))


# ---------------------------------------------------------------------------
# m(x) and the discrete correction sums
# ---------------------------------------------------------------------------

_M_LIMIT_AT_1 = 3.0 - 4.0 * math.log(2.0)
_M_CLOSED_CUTOFF = 8.0


def m_series(x: float) -> float:
    """m(x) = sum_{k>=1} 1 / (k (k+1) (2k+1) x^{2k}), for |x| >= 1.

    For large |x| the series is summed directly, truncating when the next term
    drops below 1e-16 times the partial sum.  Near |x| = 1 the series converges
    too slowly (terms are of order 1/(2k^3)), so the closed form

        m(x) = 3 - (x+1)^2 ln(1 + 1/x) - (x-1)^2 ln(1 - 1/x)

    obtained by resumming the partial fractions 1/k + 1/(k+1) - 4/(2k+1) is
    used instead; at x = 1 its limit is 3 - 4 ln 2.
    """
    ax = abs(float(x))
    if ax < 1.0:
        raise ValueError(f"m(x) requires |x| >= 1, got {x}")
    if ax < _M_CLOSED_CUTOFF:
        if ax == 1.0:
            return _M_LIMIT_AT_1
        return (
            3.0
            - (ax + 1.0) ** 2 * math.log1p(1.0 / ax)
            - (ax - 1.0) ** 2 * math.log(1.0 - 1.0 / ax)
        )
    inv2 = 1.0 / (ax * ax)
    power = inv2
    total = 0.0
    k = 1
    while True:
        term = power / (k * (k + 1) * (2 * k + 1))
        total += term
        power *= inv2
        k += 1
        nxt = power / (k * (k + 1) * (2 * k + 1))
        if nxt < 1e-16 * total:
            return total + nxt


def _m_sum(values: list[int]) -> float:
    """Sum of m over values, one evaluation per distinct value."""
    return sum(mult * m_series(k) for k, mult in Counter(values).items())


def theta_hat(lam: Partition) -> float:
    """Discrete hook correction: (1/sqrt(n)) sum of m over all hook lengths."""
    return _m_sum(hook_lengths(lam)) / math.sqrt(lam.n)


def rho_hat(lam: Partition, N: int) -> float:
    """Discrete content correction: (1/(2 sqrt(n))) sum of m over shifted contents."""
    if lam.height > N:
        raise ValueError("diagram has more than N rows")
    return _m_sum(shifted_contents(lam, N)) / (2.0 * math.sqrt(lam.n))


# ---------------------------------------------------------------------------
# half-Sobolev norm and the boundary penalty
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ProfileMinusShape(Curve):
    """L_lambda - Omega_c with the pieces kept for the semi-analytic route."""

    prof: Profile
    c: float


def profile_minus_shape(prof: Profile, c: float) -> _ProfileMinusShape:
    """The difference f = L - Omega_c as a Curve over a window [a, b].

    The window is default_window(c) widened on the right so that f vanishes
    outside it (required by both Sobolev routes and the penalty term).
    """
    _require_c(c, positive=True)
    cx, _ = prof.corners
    a, b0 = default_window(c)
    b = max(b0, float(cx[-1]) + 0.5)
    if a > float(cx[0]) - 1e-12:
        raise ValueError("profile support reaches the left end of the default window")

    slopes = np.asarray(prof.slopes, dtype=float)

    def fn(s):
        return prof.evaluate(s) - omega_c(c, s)

    def prime(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(invalid="ignore"):
            k = np.clip((s / prof.scale - prof.x0).astype(int), 0, len(slopes) - 1)
        lp = np.where(s < cx[0], -1.0, np.where(s > cx[-1], 1.0, slopes[k]))
        return lp - omega_c_prime(c, s)

    kinks = sorted(set(cx.tolist()) | set(shape_breakpoints(c)) | {0.0})
    return _ProfileMinusShape(fn=fn, prime=prime, support=(a, b),
                              kinks=tuple(k for k in kinks if a < k < b),
                              prof=prof, c=c)


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


def _lemma_I_antiderivative(c: float, e, a: float, b: float):
    """An antiderivative in e of the closed form of I_c(e) (lemma I); takes arrays.

    int_a^b phi_1(e - t) Omega_c'(t) dt equals this up to a constant in e.
    """
    return (-phi(2, a - e) - phi(2, b - e) + phi(2, 0.5 + c * e) / (c * c)
            - (1.0 - c * c) * e / (2.0 * c) - J_tilde(c, e - 0.5 * c))


def _sobolev_profile_shape(f: _ProfileMinusShape) -> float:
    """Closed-form log-kernel evaluation for f = L - Omega_c.

    Expands f'f' into three terms, none by nested quadrature.  Take L' on the
    window [a, b] and 0 outside it: its jumps are d_bar = [-1, d, -1] at
    x_bar = [a, x, b].  The L'L' term is -E(x_bar, d_bar); the cross term is
    sum d_bar_k K(x_bar_k), with K the antiderivative of lemma I's closed form
    (its constant of integration cancels, since sum d_bar_k = 0); and the shape
    self-energy is -int I_c Omega_c', lemma intIOmega's closed reduction.
    """
    a, b = f.support
    c = f.c
    x, d = _corner_jumps(f.prof)
    xw = np.concatenate(([a], x, [b]))
    dw = np.concatenate(([-1.0], d, [-1.0]))
    s_ll = _log_energy(xw, dw)
    s_lo = float(dw @ _lemma_I_antiderivative(c, xw, a, b))
    s_oo = -_int_I_omega_closed(c, a, b)
    return -s_ll + 2.0 * s_lo - s_oo


def sobolev_half_sq(f: Curve) -> float:
    """(1/2) ||f||^2_{1/2} for a profile-minus-shape difference f = L - Omega_c.

    The log-kernel form -iint ln|2(s-t)| f'(s) f'(t) is evaluated in closed form
    from lemmas I and intIOmega.  The nested oracles _sobolev_quotient (the
    difference quotient over the plane) and _sobolev_logkernel_generic (the
    log-kernel form itself, on the triangle t < s) take any Curve; the Fourier
    symbols coincide since int f' = 0.
    """
    if not isinstance(f, _ProfileMinusShape):
        raise TypeError("sobolev_half_sq takes a profile_minus_shape difference")
    return _sobolev_profile_shape(f)


def h_term(f: Curve, c: float) -> float:
    """Boundary penalty 2 int_{|s - c/2| > 1} H'_c(s - c/2) f(s) ds, as a sum over kinks.

    H~_c and its antiderivative J~_c vanish on the bulk |z| <= 1, ends
    included, and f vanishes outside its support, so two integrations by
    parts give 2 int H~_c' f = -2 int H~_c f' = 2 int J~_c f'' with no
    boundary terms.  Off the bulk f'' is a sum of point masses at the kinks
    x_k, each the jump of f' there:

        h = 2 sum_k J~_c(x_k - c/2) (f'(x_k+) - f'(x_k-)).

    The x_k are the support ends, f.kinks, the bulk edges c/2 +- 1 and the
    pole -1/(2c); f' is read once between each pair of neighbours and taken
    as 0 outside the support.  Requires f to be linear between those points
    off the bulk, as every profile difference is; inside the bulk J~_c = 0
    and f may be anything.
    """
    _require_c(c, positive=True)
    a, b = f.support
    x = np.unique([a, b, *f.kinks, 0.5 * c - 1.0, 0.5 * c + 1.0, -0.5 / c])
    mid = 0.5 * (x[:-1] + x[1:])
    slopes = np.where((a < mid) & (mid < b), f.prime(mid), 0.0)
    jumps = np.diff(np.concatenate(([0.0], slopes, [0.0])))
    return 2.0 * float(jumps @ J_tilde(c, x - 0.5 * c))


# ---------------------------------------------------------------------------
# the two assemblies
# ---------------------------------------------------------------------------


def prop31_decompose(lam: Partition, N: int) -> FunctionalReport:
    """Decompose -ln P(lam)/sqrt(n) into functional and correction parts.

    The residual estimates the diagram-independent constant eps_n.
    """
    prof = profile(lam)
    n = lam.n
    c_n = math.sqrt(n) / N
    th = theta_profile(prof)
    rh = rho(prof, c_n)
    th_hat = theta_hat(lam)
    rh_hat = rho_hat(lam, N)
    lhs = float(neg_log_measure_scaled(lam, N))
    residual = math.sqrt(n) * (th - rh) + th_hat - rh_hat - lhs
    return FunctionalReport(theta=th, rho=rh, theta_hat=th_hat, rho_hat=rh_hat,
                            lhs=lhs, residual=residual)


def _check_admissible(prof: Profile, c: float) -> None:
    """Conditions for the variational identity: L >= |X| (automatic for
    diagram profiles) and strict L(X) < X + 1/c, i.e. fewer than N rows."""
    cx, cy = prof.corners
    slack = (cx + 1.0 / c) - cy
    if float(np.min(slack)) <= 1e-12:
        raise ValueError("profile touches the line X + 1/c (diagram has N rows); "
                         "the identity requires strictly fewer rows")


def prop41_identity(lam: Partition | Profile, N: int) -> tuple[float, float]:
    """Both sides of theta - rho = (1/2)||f||^2 + penalty, with c = sqrt(n)/N.

    Returns (lhs, rhs).  The left side uses the exact profile formulas; the
    right side is built from the Sobolev norm and the boundary penalty of
    f = L - Omega_c, so agreement is a genuine two-route check.
    """
    prof = lam if isinstance(lam, Profile) else profile(lam)
    c = math.sqrt(prof.n) / N
    _check_admissible(prof, c)
    lhs = theta_profile(prof) - rho(prof, c)
    f = profile_minus_shape(prof, c)
    rhs = sobolev_half_sq(f) + h_term(f, c)
    return lhs, rhs


# ---------------------------------------------------------------------------
# closed-form lemmas, each returned as (quadrature value, closed form)
# ---------------------------------------------------------------------------

# Multiples k of |1 - c| at which alpha_constant and lemma_F3 split their
# angle integrals: near c = 1 the integrand turns within ~|1 - c| of one end.
_TURN_SCALES = (0.25, 1.0, 4.0, 16.0)


def _lemma_A_closed(c: float) -> float:
    val = -c * c / 8.0
    if c > 1.0:
        val += 0.5 - 5.0 / (8.0 * c * c) + c * c / 8.0 - (1.0 + 0.5 / (c * c)) * math.log(c)
    return val


def lemma_A(c: float) -> tuple[float, float]:
    """A(c) = int ln(1 + 2cs) (|s| - Omega_c(s)) ds, quadrature vs closed form.

    The quadrature side is -rho(Omega_c)/2 by _rho_curve; for c >= 1 the left
    support endpoint carries a log singularity, handled by tanh-sinh.
    """
    _require_c(c, positive=True)
    return -0.5 * _rho_curve(shape_curve(c), c), _lemma_A_closed(c)


def _lemma_I_closed(c: float, s: float, a: float, b: float) -> float:
    return phi(1, a - s) + phi(1, b - s) + G(c, s) - H_tilde(c, s - 0.5 * c)


def lemma_I(c: float, s: float, a: float, b: float) -> tuple[float, float]:
    """I_c(s) = int_a^b phi_0(s-t) Omega_c'(t) dt, quadrature vs closed form."""
    if not a < s < b:
        raise ValueError("s must lie in (a, b)")
    pts = tuple(shape_breakpoints(c)) + (0.0, s)
    val = tanh_sinh(lambda t: _phi0_off_diagonal(s - t) * omega_c_prime(c, t), a, b, pts)
    return val, _lemma_I_closed(c, s, a, b)


def _lemma_F3_closed(c: float, x: float) -> float:
    a_c = (1.0 + c * c) / (2.0 * c)
    sgn = float(np.sign(1.0 - c))
    val = (
        sgn * phi(2, 0.5 * (1.0 + c * c + 2.0 * c * x)) / (c * c)
        - (1.0 - c * c) / (2.0 * c) * x
        - J_tilde(c, x)
        + (-3.0 + 4.0 * c * c + 3.0 * c ** 4) / (16.0 * c * c)
    )
    if c > 1.0:
        val -= (x + a_c) ** 2 * math.log(c)
    return val


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


def _int_I_omega_closed(c: float, a: float, b: float) -> float:
    """Closed reduction of int_a^b I_c(s) Omega_c'(s) ds (lemma intIOmega).

    1 - c^2/4 - 2 phi_2(b-a) + 2 int (G_c - H_c) Omega_c'
    (+ an extra constant for c > 1); the remaining integral is
    one-dimensional and nonsingular.
    """
    lo_s, hi_s = shape_support(c)
    if not (a < lo_s and b > hi_s):
        raise ValueError("window must strictly contain the shape support")
    pts = tuple(shape_breakpoints(c)) + (0.0, -0.5 / c)
    int_GH = tanh_sinh(lambda s: (G(c, s) - H_tilde(c, s - 0.5 * c)) * omega_c_prime(c, s),
                       a, b, pts)
    val = 1.0 - c * c / 4.0 - 2.0 * phi(2, b - a) + 2.0 * int_GH
    if c > 1.0:
        val += 1.0 - 5.0 / (4.0 * c * c) + c * c / 4.0 - (2.0 + 1.0 / (c * c)) * math.log(c)
    return val


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
# the bound constants
# ---------------------------------------------------------------------------


def alpha_constant(c: float) -> float:
    """alpha_c = (1/4) int_{-1}^{1} (sign(z) - Omega_c'(z + c/2))^2 dz.

    Integrated in theta = arccos z, where Omega_c'(z + c/2) is
    1 - (2/pi) atan2(sin theta, c + cos theta).  Near c = 1 that turns within
    ~|1 - c| of theta = pi (within ~(1 - c)^2 of z = -1), so breakpoints at
    pi - k|1 - c| resolve the turn.  At c = 0 this reduces to 2/pi - 4/pi^2.
    """
    _require_c(c)

    def g(theta):
        sin, cos = np.sin(theta), np.cos(theta)
        d = np.sign(cos) - 1.0 + (2.0 / math.pi) * np.arctan2(sin, c + cos)
        return d * d * sin

    pts = (0.5 * math.pi,) + tuple(math.pi - k * abs(1.0 - c) for k in _TURN_SCALES)
    return 0.25 * tanh_sinh(g, 0.0, math.pi, pts)


def beta_constant() -> float:
    """The upper-bound constant 2 pi / sqrt(6)."""
    return 2.0 * math.pi / math.sqrt(6.0)
