"""Thin quadrature helpers shared by the variational layer.

Plain adaptive quadrature is scipy's QUADPACK; integrable endpoint
singularities (logarithmic ones in particular) go through scipy's tanh-sinh
rule.  Both are wrapped so callers pass breakpoint lists instead of managing
interval splits by hand.

Every integral runs at one fixed policy: absolute and relative tolerance
1e-9 and at most 400 QUADPACK subdivisions.  The inner integral of a nested
quadrature is asked for INNER_ABS_TOL = 1e-10 instead, so that its error
stays below what the outer integral resolves; that is the one setting a
caller chooses, through quad_breakpoints' abs_tol.
"""

from __future__ import annotations

from scipy import integrate

__all__ = ["quad_breakpoints", "tanh_sinh"]

ABS_TOL = 1e-9
INNER_ABS_TOL = 1e-10
REL_TOL = 1e-9
MAX_SUBDIVISIONS = 400


def quad_breakpoints(f, a: float, b: float, points=(), abs_tol: float = ABS_TOL) -> float:
    """Adaptive quadrature of a scalar f over [a, b], splitting at breakpoints."""
    if a == b:
        return 0.0
    pts = sorted({float(p) for p in points if a < p < b})
    val, _ = integrate.quad(
        f, a, b,
        points=pts or None,
        epsabs=abs_tol, epsrel=REL_TOL,
        limit=max(MAX_SUBDIVISIONS, 10 * (len(pts) + 1)),
    )
    return val


def tanh_sinh(f, a: float, b: float, points=()) -> float:
    """Tanh-sinh quadrature, splitting at interior breakpoints.

    f must accept numpy arrays.  Suited to integrands with integrable endpoint
    singularities (log or inverse square root).
    """
    if a == b:
        return 0.0
    edges = [a] + sorted({float(p) for p in points if a < p < b}) + [b]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        res = integrate.tanhsinh(f, lo, hi, atol=ABS_TOL, rtol=REL_TOL)
        total += float(res.integral)
    return total
