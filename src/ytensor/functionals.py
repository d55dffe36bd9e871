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

For a lattice profile the Sobolev norm of L - Omega_c is evaluated from those
closed forms: exact phi_2 corner sums, the antiderivative of lemma I at the
profile corners and lemma intIOmega's reduction of the shape self-energy.
The nested-quadrature routes (difference quotient, generic log kernel and
the lemmas' quadrature sides) are kept as independent oracles for the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .diagrams import Partition, Profile, profile
from .exact import hook_lengths, neg_log_measure_scaled, shifted_contents
from .quadrature import DEFAULT_QUAD, QuadratureConfig, quad_breakpoints, tanh_sinh
from .shape import (
    G,
    H_tilde,
    H_tilde_prime,
    J_tilde,
    omega_c,
    omega_c_prime,
    phi,
    phi2_arr,
    shape_breakpoints,
    shape_support,
)

__all__ = [
    "QuadratureConfig",
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

    sobolev_sq stores the full squared half-Sobolev norm (not halved); lhs is
    -ln P / sqrt(n); residual = sqrt(n)(theta - rho) + theta_hat - rho_hat - lhs,
    which estimates the diagram-independent constant eps_n.
    """

    theta: float
    rho: float
    theta_hat: float
    rho_hat: float
    sobolev_sq: float
    h_term: float
    lhs: float
    residual: float


@dataclass(frozen=True)
class Curve:
    """A piecewise-smooth function bundle for the quadrature-based routes."""

    fn: Callable[[float], float]
    prime: Callable[[float], float]
    support: tuple[float, float]
    kinks: tuple[float, ...]

    def __call__(self, s: float) -> float:
        return self.fn(s)


def shape_curve(c: float) -> Curve:
    """Omega_c as a Curve (support where it differs from |s|, kinks at branch points)."""
    lo, hi = shape_support(c)
    kinks = tuple(shape_breakpoints(c)) + ((0.0,) if lo < 0.0 < hi else ())
    return Curve(
        fn=lambda s: omega_c(c, s),
        prime=lambda s: omega_c_prime(c, s),
        support=(lo, hi),
        kinks=tuple(sorted(set(kinks))),
    )


def default_window(c: float) -> tuple[float, float]:
    """Default integration window [a, b] strictly containing the shape support."""
    if c <= 0.0:
        raise ValueError("c must be positive")
    return min(0.5 * c - 1.0, -0.5 / c) - 0.5, 0.5 * c + 1.5


# ---------------------------------------------------------------------------
# theta: the hook integral
# ---------------------------------------------------------------------------


def _signed_segments(prof: Profile) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal segments of a profile: left ends, right ends (scaled), slopes."""
    cx, cy = prof.corner_grid
    x1 = cx[:-1] * prof.scale
    x2 = cx[1:] * prof.scale
    sgn = np.sign(cy[1:] - cy[:-1]).astype(float)
    return x1, x2, sgn


def theta_profile(prof: Profile) -> float:
    """Hook integral of a lattice profile, exactly.

    theta(L) = 1 + 2 iint_{t<s} ln(2(s-t)) (1 - L'(s)) (1 + L'(t)) ds dt.
    Since L' = +-1, only pairs (ascending segment T, descending segment S with
    T entirely left of S) contribute, each with weight 4, and every rectangle
    integral is a four-corner combination of phi_2 (the second antiderivative
    of ln(2x)).
    """
    x1, x2, sgn = _signed_segments(prof)
    t1 = x1[sgn > 0]
    t2 = x2[sgn > 0]
    s1 = x1[sgn < 0]
    s2 = x2[sgn < 0]
    if len(t1) == 0 or len(s1) == 0:
        return 1.0
    # Pair mask: ascending segment strictly to the left of the descending one.
    mask = t2[:, None] <= s1[None, :] + 1e-12
    block = (
        phi2_arr(s2[None, :] - t2[:, None])
        + phi2_arr(s1[None, :] - t1[:, None])
        - phi2_arr(s2[None, :] - t1[:, None])
        - phi2_arr(s1[None, :] - t2[:, None])
    )
    return 1.0 + 8.0 * float(np.sum(block, where=mask))


def _theta_curve(L: Curve, cfg: QuadratureConfig) -> float:
    """Hook integral of a smooth curve by nested adaptive quadrature.

    The logarithmic diagonal is removed by integrating the inner variable by
    parts, which leaves a bounded difference-quotient integrand plus a
    boundary term at the left support edge.
    """
    lo, hi = L.support
    inner_cfg = QuadratureConfig(abs_tol=min(cfg.abs_tol, 1e-10), rel_tol=cfg.rel_tol,
                                 max_subdivisions=cfg.max_subdivisions)
    kinks = L.kinks

    def inner(s: float) -> float:
        if s <= lo:
            return 0.0
        boundary = -math.log(2.0 * (s - lo)) * (lo + L.fn(lo) - s - L.fn(s))
        Ls = L.fn(s)

        def g(t: float) -> float:
            return 1.0 + (Ls - L.fn(t)) / (s - t) if t != s else 1.0 + L.prime(s)

        return boundary - quad_breakpoints(g, lo, s, kinks, inner_cfg)

    def outer(s: float) -> float:
        w = 1.0 - L.prime(s)
        if w == 0.0:
            return 0.0
        return w * inner(s)

    return 1.0 + 2.0 * quad_breakpoints(outer, lo, hi, kinks, cfg)


def theta_shape(c: float, quad: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Hook integral of the limit shape Omega_c."""
    if c < 0.0:
        raise ValueError("c must be nonnegative")
    return _theta_curve(shape_curve(c), quad)


# ---------------------------------------------------------------------------
# rho: the content integral
# ---------------------------------------------------------------------------


def _ln_antiderivative(c: float, s: float) -> float:
    """Antiderivative of ln(1 + 2cs): (u ln u - u) / (2c) with u = 1 + 2cs."""
    u = 1.0 + 2.0 * c * s
    if u < -1e-9:
        raise ValueError("log argument negative")
    return (u * math.log(u) - u) / (2.0 * c) if u > 0.0 else 0.0


def _s_ln_antiderivative(c: float, s: float) -> float:
    """Antiderivative of s ln(1 + 2cs), via u = 2cs."""
    u = 2.0 * c * s
    w = 1.0 + u
    if w < -1e-9:
        raise ValueError("log argument negative")
    lead = 0.0 if w <= 0.0 else 0.5 * (u * u - 1.0) * math.log(w)
    return (lead - 0.25 * u * u + 0.5 * u) / (4.0 * c * c)


def _rho_profile(prof: Profile, c: float) -> float:
    """Closed form of rho for a lattice profile: per-segment log antiderivatives."""
    cx, _ = prof.corners
    lo = float(cx[0])
    if lo < -0.5 / c - 1e-9:
        raise ValueError("profile support extends below -1/(2c); rho is undefined")
    nodes = sorted(set(cx.tolist()) | ({0.0} if cx[0] < 0.0 < cx[-1] else set()))
    total = 0.0
    for sa, sb in zip(nodes[:-1], nodes[1:]):
        ga = prof.evaluate(sa) - abs(sa)
        gb = prof.evaluate(sb) - abs(sb)
        g1 = (gb - ga) / (sb - sa)
        g0 = ga - g1 * sa
        total += g0 * (_ln_antiderivative(c, sb) - _ln_antiderivative(c, sa))
        total += g1 * (_s_ln_antiderivative(c, sb) - _s_ln_antiderivative(c, sa))
    return 2.0 * total


def _rho_curve(L: Curve, c: float, cfg: QuadratureConfig) -> float:
    """rho by tanh-sinh quadrature (log singularity possible at the left edge)."""
    lo, hi = L.support
    edge = -0.5 / c
    if lo < edge - 1e-9:
        # only allowed when L coincides with |s| below the singular edge
        probes = np.linspace(lo, edge, 7)
        if any(abs(L.fn(float(v)) - abs(v)) > 1e-12 for v in probes):
            raise ValueError("L differs from |s| below -1/(2c); rho is undefined")
        lo = edge

    def integrand(s):
        s = np.asarray(s, dtype=float)
        g = np.array([L.fn(v) - abs(v) for v in s.ravel()]).reshape(s.shape)
        out = np.zeros_like(g)
        nz = g != 0.0
        out[nz] = 2.0 * np.log1p(np.maximum(2.0 * c * s[nz], -1.0 + 1e-300)) * g[nz]
        return out

    return tanh_sinh(integrand, lo, hi, L.kinks + (0.0,), cfg)


def rho(L: Profile | Curve, c_n: float, quad: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Content integral rho(L) = 2 int ln(1 + 2 c_n s) (L(s) - |s|) ds.

    Requires L(s) = |s| for s <= -1/(2 c_n) so the log argument stays positive
    where the integrand is nonzero.  Lattice profiles are evaluated in closed
    form; Curve inputs fall back to quadrature.
    """
    if c_n < 0.0:
        raise ValueError("c_n must be nonnegative")
    if c_n == 0.0:
        return 0.0
    if isinstance(L, Profile):
        return _rho_profile(L, c_n)
    return _rho_curve(L, c_n, quad)


# ---------------------------------------------------------------------------
# m(x) and the discrete correction sums
# ---------------------------------------------------------------------------

_M_LIMIT_AT_1 = 3.0 - 4.0 * math.log(2.0)
_M_CLOSED_CUTOFF = 8.0


def m_series(x: float, tol: float = 1e-14) -> float:
    """m(x) = sum_{k>=1} 1 / (k (k+1) (2k+1) x^{2k}), for |x| >= 1.

    For large |x| the series is summed directly, truncating when the next term
    drops below tol times the partial sum.  Near |x| = 1 the series converges
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
        if nxt < tol * total:
            return total + nxt


@lru_cache(maxsize=None)
def _m_int(k: int) -> float:
    return m_series(float(k), tol=1e-16)


def theta_hat(lam: Partition) -> float:
    """Discrete hook correction: (1/sqrt(n)) sum of m over all hook lengths."""
    return sum(_m_int(h) for h in hook_lengths(lam)) / math.sqrt(lam.n)


def rho_hat(lam: Partition, N: int) -> float:
    """Discrete content correction: (1/(2 sqrt(n))) sum of m over shifted contents."""
    if lam.height > N:
        raise ValueError("diagram has more than N rows")
    return sum(_m_int(x) for x in shifted_contents(lam, N)) / (2.0 * math.sqrt(lam.n))


# ---------------------------------------------------------------------------
# half-Sobolev norm and the boundary penalty
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ProfileMinusShape(Curve):
    """L_lambda - Omega_c with the pieces kept for the semi-analytic route."""

    prof: Profile = None
    c: float = 0.0


def profile_minus_shape(prof: Profile, c: float, a: float | None = None,
                        b: float | None = None) -> _ProfileMinusShape:
    """The difference f = L - Omega_c as a Curve over a window [a, b].

    The window defaults to default_window(c) widened so that f vanishes
    outside it (required by both Sobolev routes and the penalty term).
    """
    if c <= 0.0:
        raise ValueError("c must be positive")
    cx, _ = prof.corners
    a0, b0 = default_window(c)
    a = a0 if a is None else float(a)
    b = max(b0, float(cx[-1]) + 0.5) if b is None else float(b)
    if a > float(cx[0]) - 1e-12 or b < float(cx[-1]) + 1e-12:
        raise ValueError("window [a, b] must strictly contain the profile support")

    def fn(s: float) -> float:
        return prof.evaluate(s) - omega_c(c, s)

    def prime(s: float) -> float:
        xs = float(cx[0])
        if s < xs:
            lp = -1.0
        elif s > float(cx[-1]):
            lp = 1.0
        else:
            k = min(int((s / prof.scale - prof.x0)), len(prof.slopes) - 1)
            lp = float(prof.slopes[max(k, 0)])
        return lp - omega_c_prime(c, s)

    kinks = sorted(set(cx.tolist()) | set(shape_breakpoints(c)) | {0.0})
    return _ProfileMinusShape(fn=fn, prime=prime, support=(a, b),
                              kinks=tuple(k for k in kinks if a < k < b),
                              prof=prof, c=c)


def _sobolev_quotient(f: Curve, cfg: QuadratureConfig) -> float:
    """Difference-quotient route: (1/2) iint ((f(s)-f(t))/(s-t))^2 ds dt over R^2.

    The plane splits into the window square plus two tail strips where one
    argument is outside [a, b] and f vanishes there.
    """
    a, b = f.support
    inner_cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9, max_subdivisions=cfg.max_subdivisions)

    def q2_row(s: float) -> float:
        fs = f.fn(s)

        def g(t: float) -> float:
            if abs(t - s) < 1e-13:
                d = f.prime(s)
            else:
                d = (fs - f.fn(t)) / (s - t)
            return d * d

        return quad_breakpoints(g, a, b, f.kinks + (s,), inner_cfg)

    square = quad_breakpoints(q2_row, a, b, f.kinks, cfg)

    def tails(s: float) -> float:
        fs = f.fn(s)
        return fs * fs * (1.0 / (s - a) + 1.0 / (b - s))

    return 0.5 * (square + 2.0 * quad_breakpoints(tails, a, b, f.kinks, cfg))


def _sobolev_logkernel_generic(f: Curve, cfg: QuadratureConfig) -> float:
    """Log-kernel route: - iint ln|2(s-t)| f'(s) f'(t) ds dt, nested quadrature.

    The inner singularity is regularized by subtracting f'(s); the subtracted
    piece integrates to -(phi_1(s-a) + phi_1(b-s)) f'(s) in closed form.
    """
    a, b = f.support
    inner_cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9, max_subdivisions=cfg.max_subdivisions)

    def V(s: float) -> float:
        fps = f.prime(s)

        def g(t: float) -> float:
            if abs(t - s) < 1e-15:
                return 0.0
            return math.log(abs(2.0 * (s - t))) * (f.prime(t) - fps)

        reg = quad_breakpoints(g, a, b, f.kinks + (s,), inner_cfg)
        return reg - (phi(1, s - a) + phi(1, b - s)) * fps

    return -quad_breakpoints(lambda s: f.prime(s) * V(s), a, b, f.kinks, cfg)


def _segments_on_window(prof: Profile, a: float, b: float):
    """Profile segments extended by the |X| tails so they cover [a, b]."""
    x1, x2, sgn = _signed_segments(prof)
    xs = float(x1[0])
    xe = float(x2[-1])
    e1 = np.concatenate(([a], x1, [xe]))
    e2 = np.concatenate(([xs], x2, [b]))
    sg = np.concatenate(([-1.0], sgn, [1.0]))
    return e1, e2, sg


def _lemma_I_antiderivative(c: float, e: float, a: float, b: float) -> float:
    """An antiderivative in e of the closed form of I_c(e) (lemma I).

    int_a^b phi_1(e - t) Omega_c'(t) dt equals this up to a constant in e.
    """
    return (-phi(2, a - e) - phi(2, b - e) + phi(2, 0.5 + c * e) / (c * c)
            - (1.0 - c * c) * e / (2.0 * c) - J_tilde(c, e - 0.5 * c))


def _sobolev_profile_shape(f: _ProfileMinusShape, cfg: QuadratureConfig) -> float:
    """Closed-form log-kernel evaluation for f = L - Omega_c.

    Expands f'f' into three terms, none by nested quadrature:
    L'L' is an exact four-corner phi_2 sum over segment pairs; the cross term
    sums, over segments of L, the antiderivative of lemma I's closed form at
    both segment ends (the constant of integration cancels); and the shape
    self-energy is -int I_c Omega_c', lemma intIOmega's closed reduction.
    """
    a, b = f.support
    c = f.c
    e1, e2, sg = _segments_on_window(f.prof, a, b)

    # L'L' term: four-corner phi_2 over all segment pairs.
    d_pp = phi2_arr(e2[:, None] - e2[None, :]) + phi2_arr(e1[:, None] - e1[None, :]) \
        - phi2_arr(e2[:, None] - e1[None, :]) - phi2_arr(e1[:, None] - e2[None, :])
    s_ll = float(sg @ d_pp @ sg)

    # Cross term: int Omega'(t) * [int ln|2(s-t)| L'(s) ds] dt
    #   = sum_k sg_k int (phi_1(e1_k - t) - phi_1(e2_k - t)) Omega'(t) dt.
    s_lo = sum(g * (_lemma_I_antiderivative(c, x, a, b) - _lemma_I_antiderivative(c, y, a, b))
               for g, x, y in zip(sg.tolist(), e1.tolist(), e2.tolist()))

    s_oo = -_int_I_omega_closed(c, a, b, cfg)
    return -s_ll + 2.0 * s_lo - s_oo


def sobolev_half_sq(f: Curve, c: float, quad: QuadratureConfig = DEFAULT_QUAD,
                    route: str = "log-kernel") -> float:
    """(1/2) ||f||^2_{1/2} for a compactly supported piecewise-smooth f.

    Routes: "log-kernel" integrates -ln|2(s-t)| f'(s) f'(t); when f is a
    profile-minus-shape difference this is evaluated in closed form from
    lemmas I and intIOmega, otherwise by nested quadrature.
    "difference-quotient" integrates ((f(s)-f(t))/(s-t))^2 over the plane by
    nested quadrature.  The two agree (the Fourier symbols coincide since
    int f' = 0); the nested routes serve as test oracles.
    """
    if route == "difference-quotient":
        return _sobolev_quotient(f, quad)
    if route == "log-kernel":
        if isinstance(f, _ProfileMinusShape) and f.prof is not None:
            return _sobolev_profile_shape(f, quad)
        return _sobolev_logkernel_generic(f, quad)
    raise ValueError(f"unknown route {route!r}")


def h_term(f: Curve, c: float, quad: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Boundary penalty 2 int_{|s - c/2| > 1} H'_c(s - c/2) f(s) ds."""
    if c <= 0.0:
        raise ValueError("c must be positive")
    a, b = f.support
    pts = f.kinks + (-0.5 / c,)

    def g(s: float) -> float:
        z = s - 0.5 * c
        if abs(z) <= 1.0:
            return 0.0  # H' extends continuously by 0 at |z| = 1
        return H_tilde_prime(c, z) * f.fn(s)

    total = 0.0
    left_hi = min(0.5 * c - 1.0, b)
    if a < left_hi:
        total += quad_breakpoints(g, a, left_hi, pts, quad)
    right_lo = max(0.5 * c + 1.0, a)
    if right_lo < b:
        total += quad_breakpoints(g, right_lo, b, pts, quad)
    return 2.0 * total


# ---------------------------------------------------------------------------
# the two assemblies
# ---------------------------------------------------------------------------


def prop31_decompose(lam: Partition, N: int, quad: QuadratureConfig = DEFAULT_QUAD,
                     with_variational: bool = False) -> FunctionalReport:
    """Decompose -ln P(lam)/sqrt(n) into functional and correction parts.

    The residual estimates the diagram-independent constant eps_n.  The
    Sobolev and penalty fields are filled only when with_variational is set
    (they require the window machinery and are not needed for the residual).
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
    sob = hterm = float("nan")
    if with_variational:
        f = profile_minus_shape(prof, c_n)
        sob = 2.0 * sobolev_half_sq(f, c_n, quad)
        hterm = h_term(f, c_n, quad)
    return FunctionalReport(theta=th, rho=rh, theta_hat=th_hat, rho_hat=rh_hat,
                            sobolev_sq=sob, h_term=hterm, lhs=lhs, residual=residual)


def _check_admissible(prof: Profile, c: float) -> None:
    """Conditions for the variational identity: L >= |X| (automatic for
    diagram profiles) and strict L(X) < X + 1/c, i.e. fewer than N rows."""
    cx, cy = prof.corners
    slack = (cx + 1.0 / c) - cy
    if float(np.min(slack)) <= 1e-12:
        raise ValueError("profile touches the line X + 1/c (diagram has N rows); "
                         "the identity requires strictly fewer rows")


def prop41_identity(lam: Partition | Profile, N: int,
                    quad: QuadratureConfig = DEFAULT_QUAD) -> tuple[float, float]:
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
    rhs = sobolev_half_sq(f, c, quad) + h_term(f, c, quad)
    return lhs, rhs


# ---------------------------------------------------------------------------
# closed-form lemmas, each returned as (quadrature value, closed form)
# ---------------------------------------------------------------------------


def _lemma_A_closed(c: float) -> float:
    val = -c * c / 8.0
    if c > 1.0:
        val += 0.5 - 5.0 / (8.0 * c * c) + c * c / 8.0 - (1.0 + 0.5 / (c * c)) * math.log(c)
    return val


def lemma_A(c: float, quad: QuadratureConfig = DEFAULT_QUAD) -> tuple[float, float]:
    """A(c) = int ln(1 + 2cs) (|s| - Omega_c(s)) ds, quadrature vs closed form.

    The integrand vanishes outside the shape support; for c >= 1 the left
    support endpoint carries a log singularity, handled by tanh-sinh.
    """
    if c <= 0.0:
        raise ValueError("c must be positive")
    lo, hi = shape_support(c)

    def integrand(s):
        s = np.asarray(s, dtype=float)
        g = np.array([abs(v) - omega_c(c, v) for v in s.ravel()]).reshape(s.shape)
        return np.log1p(2.0 * c * s) * g

    pts = tuple(shape_breakpoints(c)) + (0.0,)
    val = tanh_sinh(integrand, lo, hi, pts, quad)
    return val, _lemma_A_closed(c)


def _lemma_I_closed(c: float, s: float, a: float, b: float) -> float:
    return phi(1, a - s) + phi(1, b - s) + G(c, s) - H_tilde(c, s - 0.5 * c)


def _I_quad(c: float, s: float, a: float, b: float, pts: tuple[float, ...],
            cfg: QuadratureConfig) -> float:
    """I_c(s) by quadrature, the log singularity at t = s removed.

    Subtracting Omega_c'(s) regularizes the integrand; the subtracted part has
    the exact value (phi_1(s-a) + phi_1(b-s)) Omega_c'(s).
    """
    ops = omega_c_prime(c, s)

    def g(t: float) -> float:
        if abs(t - s) < 1e-15:
            return 0.0
        return phi(0, s - t) * (omega_c_prime(c, t) - ops)

    return quad_breakpoints(g, a, b, pts + (s,), cfg) + ops * (phi(1, s - a) + phi(1, b - s))


def lemma_I(c: float, s: float, a: float, b: float,
            quad: QuadratureConfig = DEFAULT_QUAD) -> tuple[float, float]:
    """I_c(s) = int_a^b phi_0(s-t) Omega_c'(t) dt, quadrature vs closed form."""
    if not a < s < b:
        raise ValueError("s must lie in (a, b)")
    val = _I_quad(c, s, a, b, tuple(shape_breakpoints(c)) + (0.0,), quad)
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


def lemma_F3(c: float, x: float, quad: QuadratureConfig = DEFAULT_QUAD) -> tuple[float, float]:
    """int_{-1}^{1} phi_2(x - z) Omega_c''(z + c/2 shift) dz vs its closed form.

    The substitution z = sin(psi) absorbs the inverse-square-root endpoint
    factor: the transformed weight 2(1 + c sin psi)/(pi (1 + c^2 + 2c sin psi))
    is smooth on [-pi/2, pi/2].
    """
    if c <= 0.0:
        raise ValueError("c must be positive")

    def g(psi: float) -> float:
        z = math.sin(psi)
        w = 2.0 * (1.0 + c * z) / (math.pi * (1.0 + c * c + 2.0 * c * z))
        return phi(2, x - z) * w

    pts = (math.asin(x),) if -1.0 < x < 1.0 else ()
    val = quad_breakpoints(g, -0.5 * math.pi, 0.5 * math.pi, pts, quad)
    return val, _lemma_F3_closed(c, x)


def _int_I_omega_closed(c: float, a: float, b: float, quad: QuadratureConfig) -> float:
    """Closed reduction of int_a^b I_c(s) Omega_c'(s) ds (lemma intIOmega).

    1 - c^2/4 - 2 phi_2(b-a) + 2 int G_c Omega_c' - 2 int H_c Omega_c'
    (+ an extra constant for c > 1); the two remaining integrals are
    one-dimensional and nonsingular.
    """
    lo_s, hi_s = shape_support(c)
    if not (a < lo_s and b > hi_s):
        raise ValueError("window must strictly contain the shape support")
    pts = tuple(shape_breakpoints(c)) + (0.0, -0.5 / c)
    int_G = quad_breakpoints(lambda s: G(c, s) * omega_c_prime(c, s), a, b, pts, quad)
    int_H = quad_breakpoints(lambda s: H_tilde(c, s - 0.5 * c) * omega_c_prime(c, s),
                             a, b, pts + (0.5 * c - 1.0, 0.5 * c + 1.0), quad)
    val = 1.0 - c * c / 4.0 - 2.0 * phi(2, b - a) + 2.0 * int_G - 2.0 * int_H
    if c > 1.0:
        val += 1.0 - 5.0 / (4.0 * c * c) + c * c / 4.0 - (2.0 + 1.0 / (c * c)) * math.log(c)
    return val


def lemma_intIOmega(c: float, a: float, b: float,
                    quad: QuadratureConfig = DEFAULT_QUAD) -> tuple[float, float]:
    """int_a^b I_c(s) Omega_c'(s) ds by nested quadrature vs its closed reduction.

    The value is independent of the window (a, b) as long as it strictly
    contains the shape support.
    """
    rhs = _int_I_omega_closed(c, a, b, quad)
    pts = tuple(shape_breakpoints(c)) + (0.0, -0.5 / c)
    inner_cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9, max_subdivisions=quad.max_subdivisions)
    lhs = quad_breakpoints(lambda s: _I_quad(c, s, a, b, pts, inner_cfg) * omega_c_prime(c, s),
                           a, b, pts, quad)
    return lhs, rhs


# ---------------------------------------------------------------------------
# the bound constants
# ---------------------------------------------------------------------------


def alpha_constant(c: float, quad: QuadratureConfig = DEFAULT_QUAD) -> float:
    """alpha_c = (1/4) int_{-1}^{1} (sign(z) - Omega_c'(z + c/2))^2 dz.

    At c = 0 this reduces to 2/pi - 4/pi^2.
    """
    if c < 0.0:
        raise ValueError("c must be nonnegative")

    def g(z: float) -> float:
        d = (1.0 if z > 0.0 else -1.0 if z < 0.0 else 0.0) - omega_c_prime(c, z + 0.5 * c)
        return d * d

    return 0.25 * quad_breakpoints(g, -1.0, 1.0, (0.0,), quad)


def beta_constant() -> float:
    """The upper-bound constant 2 pi / sqrt(6)."""
    return 2.0 * math.pi / math.sqrt(6.0)
