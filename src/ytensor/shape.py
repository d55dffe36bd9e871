"""The limit-shape family and its auxiliary special functions.

The deformed limit shape Omega_c (with Omega_0 the Vershik-Kerov-Logan-Shepp
curve), its derivative, the iterated log antiderivatives phi_k, and
the closed-form functions H, G, J that appear in the variational identity.
Shifted arguments are written z = s - c/2 throughout; functions named
``*_tilde`` take the shifted coordinate.  omega, omega_c, omega_c_prime and
phi take floats or numpy arrays through one numpy body: a float in gives a
float out, an array in gives an array out.  So do G and, through one shared
body masked for |z| <= 1 and the pole of the inner arccosh, H_tilde,
H_tilde_prime and J_tilde.  H~_c'' is read only by verify-all's derivatives
check, so it lives beside that check in ytensor.checks.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "omega",
    "omega_c",
    "omega_c_prime",
    "phi",
    "H_tilde",
    "H_tilde_prime",
    "G",
    "J_tilde",
    "shape_support",
    "shape_breakpoints",
]


def _result(out: np.ndarray):
    """A 0-d result as a float, any other result as the array itself."""
    return float(out) if out.ndim == 0 else out


def _require_c(c: float, positive: bool = False) -> None:
    """Reject a non-finite or negative c, and with positive also c = 0."""
    if not (math.isfinite(c) and (c > 0.0 if positive else c >= 0.0)):
        raise ValueError(f"c must be finite and {'positive' if positive else 'nonnegative'}")


def omega(X):
    """The undeformed limit shape: (2/pi)(sqrt(1-X^2) + X arcsin X) on [-1, 1]."""
    return omega_c(0.0, X)


def omega_c(c: float, s):
    """The deformed limit shape Omega_c(s); Omega_0 equals omega.

    The curved branch is (2/pi)(s atan2(2s + c, w) + w/4 + atan2(cw, 2 - c^2 + 2cs)/(2c)),
    the arcsin/arccos form written through w = sqrt(4 - (2s - c)^2), taken as
    the product of the two factors that vanish at the support ends.  There an
    error in w has no first-order effect on the sum, while an arccos of an
    argument near 1 loses ~1e-9.  At c = 0 the last term is its limit w/4.
    The left end of the branch goes to the neighbouring branch, which has the
    same value there and no 0/0 at c = 1, s = -1/2.
    """
    _require_c(c)
    s = np.asarray(s, dtype=float)
    two_s = 2.0 * s
    with np.errstate(invalid="ignore"):
        w = np.sqrt((2.0 + c - two_s) * (2.0 - c + two_s))  # nan off the curved branch
        arc = 0.25 * w if c == 0.0 else np.arctan2(c * w, 2.0 - c * c + c * two_s) / (2.0 * c)
        curved = (2.0 / math.pi) * (s * np.arctan2(two_s + c, w) + 0.25 * w + arc)
    out = np.where((c - 2.0 < two_s) & (two_s <= c + 2.0), curved, np.abs(s))
    if c > 1.0:
        out = np.where((-1.0 / c <= two_s) & (two_s <= c - 2.0), s + 1.0 / c, out)
    return _result(out)


def omega_c_prime(c: float, s):
    """Derivative of Omega_c: (2/pi) arcsin((c+2s)/(2 sqrt(1+2cs))) on the bulk,
    evaluated as (2/pi) atan2(2s + c, w) with w as in omega_c (0 at c = 1, s = -1/2)."""
    _require_c(c)
    s = np.asarray(s, dtype=float)
    two_s = 2.0 * s
    with np.errstate(invalid="ignore"):
        w = np.sqrt((2.0 + c - two_s) * (2.0 - c + two_s))
        curved = (2.0 / math.pi) * np.arctan2(two_s + c, w)
    out = np.where((c - 2.0 <= two_s) & (two_s <= c + 2.0), curved, np.sign(s))
    if c > 1.0:
        out = np.where((-1.0 / c <= two_s) & (two_s < c - 2.0), 1.0, out)
    return _result(out)


def phi(k: int, x):
    """Iterated antiderivatives of -ln|2x|:

    phi_0(x) = -ln|2x|, phi_1(x) = x - x ln|2x|,
    phi_2(x) = (3/4) x^2 - (1/2) x^2 ln(2|x|);
    phi_1 and phi_2 are extended by 0 at x = 0.  Accepts arrays; phi_0
    rejects any zero.
    """
    if k not in (0, 1, 2):
        raise ValueError(f"phi is only defined for k in 0..2, got {k}")
    x = np.asarray(x, dtype=float)
    if k == 0 and np.any(x == 0.0):
        raise ValueError("phi_0 is singular at x = 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        lg = np.log(np.abs(2.0 * x))
        if k == 0:
            return _result(-lg)
        out = x - x * lg if k == 1 else 0.75 * x * x - 0.5 * x * x * lg
    return _result(np.where(x == 0.0, 0.0, out))


def _arccosh1p(delta):
    """arccosh(1 + delta) for delta >= 0, with no loss of digits near delta = 0."""
    return np.log1p(delta + np.sqrt(delta * (2.0 + delta)))


def _off_bulk(c: float, z, k: int):
    """The shared body of H_tilde, H_tilde_prime and J_tilde.

    Returns the mask |z| > 1; zo, which is z where the mask holds and 2
    elsewhere, so that every piece is finite and callers mask results back;
    arccosh|zo|; sign(zo) sqrt(zo^2 - 1); and sgn(1 - c) (zo + a)^k
    arccosh|q| with q = (1 + a zo)/(zo + a) and a = (1+c^2)/(2c).  At the
    pole zo = -a the last one takes its limit: 0 for k > 0, infinite for k = 0.

    Each arccosh argument, and the root, vanishes to first order at |z| = 1,
    where J~ and H~ are sums of terms ~sqrt(|z| - 1) that cancel to
    ~(|z| - 1)^{5/2} and ^{3/2}.  So each distance from 1 is formed as a
    product of the factors that vanish there, never as a difference of
    numbers near 1: |zo| - 1; |q| - 1 = (a - 1)(zo - 1)/(zo + a) where
    q >= 0, that is where zo > 1 or zo < -a, and -(a + 1)(zo + 1)/(zo + a)
    where q < 0; and (zo - 1)(zo + 1).  With a -+ 1 = (1 -+ c)^2/(2c), every
    factor's sign is exact, so both quotients are >= 0.
    """
    _require_c(c, positive=True)
    z = np.asarray(z, dtype=float)
    out = np.abs(z) > 1.0
    zo = np.where(out, z, 2.0)
    a = (1.0 + c * c) / (2.0 * c)
    d = zo + a
    with np.errstate(divide="ignore", invalid="ignore"):
        abs_q_minus_1 = np.where((zo > 1.0) | (d < 0.0), (1.0 - c) ** 2 * (zo - 1.0),
                                 -(1.0 + c) ** 2 * (zo + 1.0)) / (2.0 * c * d)
        inner = np.power(d, k) * _arccosh1p(abs_q_minus_1)
    inner = np.sign(1.0 - c) * np.where(d == 0.0, 0.0 if k else np.inf, inner)
    root = np.copysign(np.sqrt((zo - 1.0) * (zo + 1.0)), zo)
    return out, zo, _arccosh1p(np.abs(zo) - 1.0), root, inner


def H_tilde(c: float, z):
    """The boundary-penalty function H in shifted coordinates; zero on |z| <= 1."""
    out, z, acz, root, inner = _off_bulk(c, z, 1)
    return _result(np.where(out, (z - (1.0 - c * c) / (2.0 * c)) * acz + inner - root, 0.0))


def H_tilde_prime(c: float, z):
    """Derivative of H_tilde; every |z| must exceed 1."""
    out, _, acz, _, inner = _off_bulk(c, z, 0)
    if not np.all(out):
        raise ValueError("H_tilde_prime is defined for |z| > 1")
    return _result(acz + inner)


def G(c: float, s):
    """G_c(s) = (1/c) phi_1((1+2cs)/2) - (1-c^2)/(2c); G' = -ln|1+2cs|."""
    _require_c(c, positive=True)
    return phi(1, 0.5 * (1.0 + 2.0 * c * s)) / c - (1.0 - c * c) / (2.0 * c)


def J_tilde(c: float, z):
    """Antiderivative of H_tilde: zero on |z| <= 1, closed form outside."""
    out, z, acz, root, inner = _off_bulk(c, z, 2)
    shift = z + (c * c - 1.0) / (2.0 * c)
    t1 = 0.5 * (1.0 - 0.5 / (c * c) + shift * shift) * acz
    t2 = (1.0 - c * c - 3.0 * c * z) / (4.0 * c) * root
    return _result(np.where(out, t1 + t2 + 0.5 * inner, 0.0))


def shape_support(c: float) -> tuple[float, float]:
    """Interval outside which Omega_c(s) equals |s|."""
    _require_c(c)
    if c > 1.0:
        return -0.5 / c, 0.5 * c + 1.0
    return 0.5 * c - 1.0, 0.5 * c + 1.0


def shape_breakpoints(c: float) -> list[float]:
    """Points where Omega_c switches branches (kinks of derivatives)."""
    pts = [0.5 * c - 1.0, 0.5 * c + 1.0]
    if c > 1.0:
        pts.insert(0, -0.5 / c)
    return pts
