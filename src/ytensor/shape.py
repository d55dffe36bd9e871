"""The limit-shape family and its auxiliary special functions.

The deformed limit shape Omega_c (with Omega_0 the Vershik-Kerov-Logan-Shepp
curve), its first two derivatives, the iterated log antiderivatives phi_k, and
the closed-form functions H, G, J that appear in the variational identity.
Shifted arguments are written z = s - c/2 throughout; functions named
``*_tilde`` take the shifted coordinate.  omega, omega_c, omega_c_prime and
phi take floats or numpy arrays through one numpy body: a float in gives a
float out, an array in gives an array out.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "omega",
    "omega_c",
    "omega_c_prime",
    "omega_c_second",
    "phi",
    "H_tilde",
    "H_tilde_prime",
    "H_tilde_second",
    "G",
    "J_tilde",
    "shape_support",
    "shape_breakpoints",
    "emit_shape_csv",
]


def _result(out: np.ndarray):
    """A 0-d result as a float, any other result as the array itself."""
    return float(out) if out.ndim == 0 else out


def _acosh_abs(x: float) -> float:
    """arccosh(|x|), treating |x| slightly below 1 as exactly 1."""
    a = abs(x)
    if a < 1.0:
        if a > 1.0 - 1e-12:
            return 0.0
        raise ValueError(f"arccosh argument {x} inside (-1, 1)")
    return math.acosh(a)


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
    if c < 0.0:
        raise ValueError("c must be nonnegative")
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
    if c < 0.0:
        raise ValueError("c must be nonnegative")
    s = np.asarray(s, dtype=float)
    two_s = 2.0 * s
    with np.errstate(invalid="ignore"):
        w = np.sqrt((2.0 + c - two_s) * (2.0 - c + two_s))
        curved = (2.0 / math.pi) * np.arctan2(two_s + c, w)
    out = np.where((c - 2.0 <= two_s) & (two_s <= c + 2.0), curved, np.sign(s))
    if c > 1.0:
        out = np.where((-1.0 / c <= two_s) & (two_s < c - 2.0), 1.0, out)
    return _result(out)


def omega_c_second(c: float, z: float) -> float:
    """Second derivative in the shifted coordinate: 2(1+cz)/(pi(1+c^2+2cz)sqrt(1-z^2)).

    Zero for |z| > 1; the endpoints |z| = 1 are nonintegrable point evaluations
    and are rejected (quadrature against this factor should substitute
    z = sin(psi) first).
    """
    if c < 0.0:
        raise ValueError("c must be nonnegative")
    if abs(z) > 1.0:
        return 0.0
    if abs(z) == 1.0:
        raise ValueError("omega_c_second is singular at |z| = 1")
    return 2.0 * (1.0 + c * z) / (math.pi * (1.0 + c * c + 2.0 * c * z) * math.sqrt(1.0 - z * z))


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


def _require_positive_c(c: float) -> None:
    if c <= 0.0:
        raise ValueError("defined only for c > 0")


def _inner_acosh_arg(c: float, z: float) -> float:
    """|(1 + a z) / (z + a)| with a = (1+c^2)/(2c); the recurring arccosh argument."""
    a = (1.0 + c * c) / (2.0 * c)
    denom = z + a
    if denom == 0.0:
        raise ZeroDivisionError("arccosh argument pole at z = -(1+c^2)/(2c)")
    return abs((1.0 + a * z) / denom)


def H_tilde(c: float, z: float) -> float:
    """The boundary-penalty function H in shifted coordinates; zero on |z| <= 1."""
    _require_positive_c(c)
    if abs(z) <= 1.0:
        return 0.0
    a = (1.0 + c * c) / (2.0 * c)
    sgn_1c = float(np.sign(1.0 - c))
    t1 = (z - (1.0 - c * c) / (2.0 * c)) * _acosh_abs(z)
    t3 = math.copysign(math.sqrt(z * z - 1.0), z)
    if z + a == 0.0:
        # (z + a) * arccosh -> 0 as z approaches the pole of the inner argument
        t2 = 0.0
    else:
        t2 = sgn_1c * (z + a) * _acosh_abs(_inner_acosh_arg(c, z))
    return t1 + t2 - t3


def H_tilde_prime(c: float, z: float) -> float:
    """Derivative of H_tilde for |z| > 1."""
    _require_positive_c(c)
    if abs(z) <= 1.0:
        raise ValueError("H_tilde_prime is defined for |z| > 1")
    sgn_1c = float(np.sign(1.0 - c))
    return _acosh_abs(z) + sgn_1c * _acosh_abs(_inner_acosh_arg(c, z))


def H_tilde_second(c: float, z: float) -> float:
    """Second derivative of H_tilde for |z| > 1."""
    _require_positive_c(c)
    if abs(z) <= 1.0:
        raise ValueError("H_tilde_second is defined for |z| > 1")
    a = (1.0 + c * c) / (2.0 * c)
    return math.copysign(1.0, z) * (z + 1.0 / c) / ((a + z) * math.sqrt(z * z - 1.0))


def G(c: float, s: float) -> float:
    """G_c(s) = (1/c) phi_1((1+2cs)/2) - (1-c^2)/(2c); G' = -ln|1+2cs|."""
    _require_positive_c(c)
    return phi(1, 0.5 * (1.0 + 2.0 * c * s)) / c - (1.0 - c * c) / (2.0 * c)


def J_tilde(c: float, z: float) -> float:
    """Antiderivative of H_tilde: zero on |z| <= 1, closed form outside."""
    _require_positive_c(c)
    if abs(z) <= 1.0:
        return 0.0
    a = (1.0 + c * c) / (2.0 * c)
    sgn_1c = float(np.sign(1.0 - c))
    t1 = 0.5 * (1.0 - 0.5 / (c * c) + (z + (c * c - 1.0) / (2.0 * c)) ** 2) * _acosh_abs(z)
    t2 = math.copysign(1.0, z) * (1.0 - c * c - 3.0 * c * z) / (4.0 * c) * math.sqrt(z * z - 1.0)
    if abs(z + a) < 1e-14:
        t3 = 0.0  # quadratic prefactor kills the log divergence at the pole
    else:
        t3 = sgn_1c * 0.5 * (z + a) ** 2 * _acosh_abs(_inner_acosh_arg(c, z))
    return t1 + t2 + t3


def shape_support(c: float) -> tuple[float, float]:
    """Interval outside which Omega_c(s) equals |s|."""
    if c > 1.0:
        return -0.5 / c, 0.5 * c + 1.0
    return 0.5 * c - 1.0, 0.5 * c + 1.0


def shape_breakpoints(c: float) -> list[float]:
    """Points where Omega_c switches branches (kinks of derivatives)."""
    pts = [0.5 * c - 1.0, 0.5 * c + 1.0]
    if c > 1.0:
        pts.insert(0, -0.5 / c)
    return pts


def emit_shape_csv(c: float, s_values) -> str:
    """CSV table with columns s, omega_c, omega_c_prime on the given grid."""
    s = np.asarray(s_values, dtype=float)
    rows = zip(s.tolist(), omega_c(c, s).tolist(), omega_c_prime(c, s).tolist())
    return "\n".join(["s,omega_c,omega_c_prime"] + [f"{x!r},{y!r},{d!r}" for x, y, d in rows]) + "\n"
