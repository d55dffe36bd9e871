"""The variational layer: hook and content integrals and their identities.

theta is the hook integral of a profile, rho its content counterpart with
deformation parameter c, theta_hat and rho_hat the discrete correction sums
built from m(x).  The decomposition

    -ln P(lam) / sqrt(n) = sqrt(n) (theta - rho) + theta_hat - rho_hat - eps_n

splits the exact log-probability into functional and correction parts, with
eps_n depending on n only.  The identity

    theta(L) - rho(L) = (1/2) ||L - Omega_c||^2_{1/2} + 2 int H'_c (L - Omega_c)

expresses the gap as a half-Sobolev norm plus a boundary penalty, which is the
mechanism behind positivity and the unique minimizer Omega_c.  The
_lemma_*_closed helpers are the closed forms of the auxiliary integrals (A,
I_c, the phi_2 moment of Omega_c'' and the I-against-Omega' integral).

On a lattice profile L'' is a sum of point masses d_k at the corners x_k, so
two integrations by parts turn every log-kernel functional into a sum over
corners: theta = 1 - E(x, d) with E = sum_{j,k} d_j d_k phi_2(x_k - x_j), rho
a sum of phi_2(x_k + 1/(2c)) and x_k^2 terms, and the Sobolev norm of
L - Omega_c the energy E on the window, the antiderivative of lemma I at the
corners and lemma intIOmega's reduction of the shape self-energy.
That reduction is one tanh-sinh call over the array-valued G and H, and so
is alpha_c, in angle variables.  The boundary penalty takes no quadrature:
J~_c and H~_c vanish on the bulk, so it is a sum over the kinks of
L - Omega_c of J~_c times the jumps of its slope.  theta(Omega_c) is
-2 A(c), lemma A's closed form, since Omega_c minimizes theta - rho with
gap 0.  No route here takes a nested quadrature: the independent oracles
for these closed forms, and the lemma_* pairs of quadrature and closed form,
live in ytensor.checks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diagrams import Partition, Profile, profile
from .exact import hook_lengths, neg_log_measure_scaled, shifted_contents
from .quadrature import tanh_sinh
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
    checks.shape_curve; prime may jump only at kinks."""

    fn: Callable[[np.ndarray], np.ndarray]
    prime: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    kinks: tuple[float, ...]


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


def theta_shape(c: float) -> float:
    """Hook integral of the limit shape Omega_c: -2 A(c), which is c^2/4 for c <= 1.

    Omega_c minimizes theta - rho with gap 0, and rho(Omega_c) = -2 A(c) by the
    definition of A; checks.minimizer_gap checks this against checks._theta_curve.
    """
    _require_c(c)
    return -2.0 * _lemma_A_closed(c)


# ---------------------------------------------------------------------------
# rho: the content integral
# ---------------------------------------------------------------------------


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
    cx, d = _corner_jumps(prof)
    a, b0 = default_window(c)
    b = max(b0, float(cx[-1]) + 0.5)
    if a > float(cx[0]) - 1e-12:
        raise ValueError("profile support reaches the left end of the default window")
    lp = np.cumsum(np.concatenate(([-1.0], d)))  # L' left of cx[0], on each piece, right of it

    def fn(s):
        return prof.evaluate(s) - omega_c(c, s)

    def prime(s):
        return lp[np.searchsorted(cx, s, side="right")] - omega_c_prime(c, s)

    kinks = sorted(set(cx.tolist()) | set(shape_breakpoints(c)) | {0.0})
    return _ProfileMinusShape(fn=fn, prime=prime, support=(a, b),
                              kinks=tuple(k for k in kinks if a < k < b),
                              prof=prof, c=c)


def _lemma_I_antiderivative(c: float, e, a: float, b: float):
    """An antiderivative in e of the closed form of I_c(e) (lemma I); takes arrays.

    int_a^b phi_1(e - t) Omega_c'(t) dt equals this up to a constant in e.
    """
    return (-phi(2, a - e) - phi(2, b - e) + phi(2, 0.5 + c * e) / (c * c)
            - (1.0 - c * c) * e / (2.0 * c) - J_tilde(c, e - 0.5 * c))


def sobolev_half_sq(f: Curve) -> float:
    """(1/2) ||f||^2_{1/2} for a profile-minus-shape difference f = L - Omega_c.

    The log-kernel form -iint ln|2(s-t)| f'(s) f'(t) is evaluated in closed
    form: f'f' expands into three terms, none by nested quadrature.  Take L'
    on the window [a, b] and 0 outside it: its jumps are d_bar = [-1, d, -1]
    at x_bar = [a, x, b].  The L'L' term is -E(x_bar, d_bar); the cross term
    is sum d_bar_k K(x_bar_k), with K the antiderivative of lemma I's closed
    form (its constant of integration cancels, since sum d_bar_k = 0); and the
    shape self-energy is -int I_c Omega_c', lemma intIOmega's closed reduction.

    The nested oracles checks._sobolev_quotient (the difference quotient over
    the plane) and checks._sobolev_logkernel_generic (the log-kernel form
    itself, on the triangle t < s) take any Curve; the Fourier symbols
    coincide since int f' = 0.
    """
    if not isinstance(f, _ProfileMinusShape):
        raise TypeError("sobolev_half_sq takes a profile_minus_shape difference")
    a, b = f.support
    x, d = _corner_jumps(f.prof)
    xw = np.concatenate(([a], x, [b]))
    dw = np.concatenate(([-1.0], d, [-1.0]))
    s_lo = float(dw @ _lemma_I_antiderivative(f.c, xw, a, b))
    return -_log_energy(xw, dw) + 2.0 * s_lo + _int_I_omega_closed(f.c, a, b)


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
    fprime = np.where((a < mid) & (mid < b), f.prime(mid), 0.0)
    jumps = np.diff(np.concatenate(([0.0], fprime, [0.0])))
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
# closed forms of the lemmas; checks.lemma_* pairs each with its quadrature
# ---------------------------------------------------------------------------

# Multiples k of |1 - c| at which alpha_constant and checks.lemma_F3 split their
# angle integrals: near c = 1 the integrand turns within ~|1 - c| of one end.
_TURN_SCALES = (0.25, 1.0, 4.0, 16.0)


def _lemma_A_closed(c: float) -> float:
    val = -c * c / 8.0
    if c > 1.0:
        val += 0.5 - 5.0 / (8.0 * c * c) + c * c / 8.0 - (1.0 + 0.5 / (c * c)) * math.log(c)
    return val


def _lemma_I_closed(c: float, s: float, a: float, b: float) -> float:
    return phi(1, a - s) + phi(1, b - s) + G(c, s) - H_tilde(c, s - 0.5 * c)


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


_IN_CHECKS = frozenset({"lemma_A", "lemma_I", "lemma_F3", "lemma_intIOmega"})


def __getattr__(name: str):
    """checks.lemma_* under their former names here, imported on first use so
    that this module never imports checks at load time.  It goes once
    perfbench/spans.py traces them as checks.lemma_*."""
    if name in _IN_CHECKS:
        from . import checks
        return getattr(checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
