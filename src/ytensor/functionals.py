"""The variational layer: hook and content integrals and their identities.

theta is the hook integral of a profile, rho its content counterpart with
deformation parameter c, theta_hat and rho_hat the discrete correction sums
built from m(x).  The decomposition

    -ln P(lam) / sqrt(n) = sqrt(n) (theta - rho) + theta_hat - rho_hat - eps_n

splits the exact log-probability into functional and correction parts, with
eps_n depending on n only.  The identity

    theta(L) - rho(L) = (1/2) ||L - Omega_c||^2_{1/2} + 2 int H'_c (L - Omega_c)

expresses the gap as a half-Sobolev norm plus a boundary penalty, which is the
mechanism behind positivity and the unique minimizer Omega_c.  Both hold on
all of Y_N^n, the diagrams with at most N rows, c = sqrt(n)/N; for c > 1
typical diagrams have exactly N rows, since Omega_c runs along X + 1/c.  The
_lemma_*_closed helpers are the closed forms of the auxiliary integrals (A,
I_c, the phi_2 moment of Omega_c'' and the I-against-Omega' integral).

On a lattice profile L'' is a sum of point masses d_k at the corners x_k, so
two integrations by parts turn every log-kernel functional into a sum over
corners: theta = 1 - E(x, d) with E = sum_{j,k} d_j d_k phi_2(x_k - x_j), rho
a sum of phi_2(x_k + 1/(2c)) and x_k^2 terms, and the Sobolev norm of
f = L - Omega_c a polarization with no window: theta(L) + theta(Omega_c) - 2
plus a cross term that reads at the corners the phi_2 moment of Omega_c''
(lemma F3's bulk part and the pole's mass), an antiderivative of lemma I's
I_c.  Lemma intIOmega's closed reduction (_int_I_omega_closed) stays as a
closed form that verify-all checks; no production route reads it.
alpha_c, an integral in angle variables, is the layer's one tanh-sinh call.
The boundary penalty takes no quadrature either: J~_c and H~_c vanish on
the bulk, and off it Omega_c is |s| but for the line X + 1/c when c > 1, so
the penalty is a sum of J~_c over the corners off the bulk plus one term at
the pole -1/(2c).  So every functional of a
diagram takes (Profile, c) and reads the profile only through
_corner_jumps, which rejects anything else with a TypeError.
theta(Omega_c) is -2 A(c), lemma A's closed form, since Omega_c minimizes
theta - rho with gap 0.  No route here takes a nested quadrature: the
independent oracles for these closed forms, L - Omega_c as a generic Curve,
and the lemma_* pairs of quadrature and closed form live in ytensor.checks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .diagrams import Partition, Profile, profile
from .exact import hook_lengths, neg_log_measure_scaled, shifted_contents
from .quadrature import tanh_sinh
from .shape import (
    G,
    H_tilde,
    J_tilde,
    _require_c,
    phi,
    shape_support,
)

__all__ = [
    "FunctionalReport",
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
    Measured, not derived: eps_n = (ln n! - n ln n + n)/sqrt(n), exactly 1 at
    n = 1 and within 4e-11 on samples up to n = 3e4 with N or fewer rows.
    """

    theta: float
    rho: float
    theta_hat: float
    rho_hat: float
    lhs: float
    residual: float


def default_window(c: float) -> tuple[float, float]:
    """Integration window [a, b] of checks.lemmas, strictly containing the shape support."""
    _require_c(c, positive=True)
    return min(0.5 * c - 1.0, -0.5 / c) - 0.5, 0.5 * c + 1.5


# ---------------------------------------------------------------------------
# theta: the hook integral
# ---------------------------------------------------------------------------


def _corner_jumps(prof: Profile) -> tuple[np.ndarray, np.ndarray]:
    """Scaled corners x_k of a profile and the jumps d_k of L' there.

    L' is -1 left of the profile and +1 right of it, so L'' = sum d_k delta_{x_k}
    with every d_k = +-2 and sum d_k = 2.  The one type check of the layer:
    a functional of a diagram takes a Profile, never a checks.Curve.
    """
    if not isinstance(prof, Profile):
        raise TypeError("the functionals of a diagram take a Profile")
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
    x, d = _corner_jumps(L)
    _require_c(c_n)
    if c_n == 0.0:
        return 0.0
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
    is at most 1e-16 times the partial sum; where 1/x^2 underflows (|x| = inf
    included) every term is 0 and so is m.  NaN is rejected with |x| < 1.
    Near |x| = 1 the series converges too slowly (terms are of order
    1/(2k^3)), so the closed form

        m(x) = 3 - (x+1)^2 ln(1 + 1/x) - (x-1)^2 ln(1 - 1/x)

    obtained by resumming the partial fractions 1/k + 1/(k+1) - 4/(2k+1) is
    used instead; at x = 1 its limit is 3 - 4 ln 2.
    """
    ax = abs(float(x))
    if not ax >= 1.0:
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
        if nxt <= 1e-16 * total:
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


def sobolev_half_sq(prof: Profile, c: float) -> float:
    """(1/2) ||f||^2_{1/2} for the profile-minus-shape difference f = L - Omega_c.

    The log-kernel form iint phi_0(s-t) f'(s) f'(t) polarizes into L's own
    energy, Omega_c's own energy and a cross term, each in closed form:

        (1/2) ||f||^2 = theta(L) + theta(Omega_c) - 2 + 2 sum d_k K(x_k),

    with theta(L) = 1 - E(x, d), theta(Omega_c) = -2 A(c) (theta_shape) and
    the cross term -2 int L' I_c = 2 sum d_k K(x_k) by parts.  K is
    _sobolev_kernel, an antiderivative of I_c = G_c - H~_c(. - c/2), lemma I
    without its window:

        K(e) = int phi_2(e - t) dOmega_c'(t) = F3_c(e - c/2) + m_c phi_2(e + 1/(2c)).

    Omega_c''s bulk part Omega_c'' is lemma F3's measure, and m_c =
    1 - sgn(1 - c) is Omega_c''s mass at the pole -1/(2c), 0 for c < 1, 1 at
    c = 1 (the bulk's left edge) and 2 for c > 1.

    Why no window is needed: cut L' and Omega_c' to any window [a, b] that
    holds both supports, so that each jumps by -1 at a and at b.  Then
    -E(x_bar, d_bar) = -E(x, d) + 2 sum d_k [phi_2(x_k - a) + phi_2(b - x_k)]
    - 2 phi_2(b - a), and since phi_2 is even the corner terms cancel the
    window part -phi_2(a - e) - phi_2(b - e) of the cut kernel.  What is left
    at a and b, with lemma intIOmega's reduction of int_a^b I_c Omega_c', is
    theta(Omega_c) - 1 whatever the window.

    The nested oracles checks._sobolev_quotient (the difference quotient over
    the plane) and checks._sobolev_logkernel_generic (the log-kernel form
    itself, on the triangle t < s) take f as checks.profile_minus_shape; the
    Fourier symbols coincide since int f' = 0.
    """
    x, d = _corner_jumps(prof)
    _require_c(c, positive=True)
    return theta_shape(c) - 1.0 - _log_energy(x, d) + 2.0 * float(d @ _sobolev_kernel(c, x))


def _sobolev_kernel(c: float, e: np.ndarray) -> np.ndarray:
    """K(e), the antiderivative of I_c that sobolev_half_sq's cross term reads at
    the corners; its docstring derives it from lemma F3."""
    m_c = 1.0 - float(np.sign(1.0 - c))
    return _lemma_F3_closed(c, e - 0.5 * c) + m_c * phi(2, e + 0.5 / c)


def h_term(prof: Profile, c: float) -> float:
    """Boundary penalty 2 int_{|s - c/2| > 1} H'_c(s - c/2) f(s) ds of f = L - Omega_c,
    as a sum over the profile's corners off the bulk and the pole:

        h = 2 sum_{x_k off [c/2 - 1, c/2 + 1]} d_k J~_c(x_k - c/2)
            - 4 J~_c(-1/(2c) - c/2) [c > 1].

    H~_c and its antiderivative J~_c vanish on the bulk |z| <= 1, ends
    included, and f and f' vanish beyond both ends of f, so two integrations
    by parts on each side of the bulk give 2 int H~_c' f = 2 int J~_c f''
    with no boundary terms.  Off the bulk f'' = L'' - Omega_c'': L'' is the
    point masses d_k at the corners x_k, and Omega_c is |s| there but for
    the line X + 1/c on [-1/(2c), c/2 - 1] when c > 1, whose only kink off
    the bulk is the slope's jump of +2 at the pole -1/(2c).  J~_c is taken
    as 0 at every x_k in the bulk, its edges included, by x_k itself: at an
    edge x_k - c/2 may round to an ulp outside +-1.  The pole is the left
    end of a diagram with N rows; J~_c is continuous through it, so such a
    corner's point mass is read like any other.
    """
    x, d = _corner_jumps(prof)
    _require_c(c, positive=True)
    off = (x < 0.5 * c - 1.0) | (0.5 * c + 1.0 < x)
    return 2.0 * float(d[off] @ J_tilde(c, x[off] - 0.5 * c)) - _pole_term(c)


def _pole_term(c: float) -> float:
    """4 J~_c(-1/(2c) - c/2) for c > 1, else 0: the jump of +2 in Omega_c' at the
    pole -1/(2c) weighted by 2 J~_c, the one kink of Omega_c off the bulk."""
    return 4.0 * J_tilde(c, -0.5 / c - 0.5 * c) if c > 1.0 else 0.0


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


def prop41_identity(lam: Partition, N: int) -> tuple[float, float]:
    """Both sides of theta - rho = (1/2)||f||^2 + penalty, with c = sqrt(n)/N.

    Returns (lhs, rhs).  The left side uses the exact profile formulas; the
    right side is built from the Sobolev norm and the boundary penalty of
    f = L - Omega_c.  Both sides share L's energy E(x, d), as they did when
    the norm took a window, whose added pieces cancel; so the identity checks
    rho, lemma F3, the pole term and J~_c against each other, and E keeps its
    own oracles, checks._theta_curve and sobolev_routes' difference quotient.

    The domain is all of Y_N^n, diagrams with N rows included.  The profile
    of one leaves |X| at -1/(2c), where ln(1 + 2cs) and H~_c' have their log
    singularities, but no integration by parts behind either side needs it
    strictly to the right: L - |s| vanishes linearly there, phi_1(0) =
    phi_2(0) = 0, and H~_c and J~_c are continuous through the pole.  A
    diagram with more than N rows reaches left of -1/(2c), and rho rejects
    it with a ValueError.
    """
    prof = profile(lam)
    c = math.sqrt(lam.n) / N
    return theta_profile(prof) - rho(prof, c), sobolev_half_sq(prof, c) + h_term(prof, c)


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
      - 2 J~_c(-1/(2c) - c/2) [c > 1], the pole term of h_term.

    The window must contain the shape support and may end at lo or hi.  No
    production route reads this form: its windows come only from checks,
    whose lemma intIOmega oracle integrates the same energy by quadrature.
    sobolev_half_sq's polarization is what it leaves of this form, with the
    window's terms cancelled.
    """
    lo_s, hi_s = shape_support(c)
    if not (a <= lo_s and b >= hi_s):
        raise ValueError("window must contain the shape support")
    ends = np.array([a, b])
    by_parts = float(ends @ G(c, ends)) + _log_moment(c, a) + _log_moment(c, b)
    off_bulk = float(np.sum(J_tilde(c, ends - 0.5 * c)))
    return 1.0 - 2.0 * phi(2, b - a) + 2.0 * (by_parts - off_bulk) + _pole_term(c)


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
    return 0.25 * tanh_sinh([(g, 0.0, math.pi, pts)])[0]


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
