"""Thin quadrature helpers shared by the variational layer, taking breakpoint
lists: QUADPACK for scalar integrands (quad_breakpoints), tanh-sinh for array
integrands with integrable endpoint singularities (tanh_sinh), and two-level
tanh-sinh for double integrals with a singular diagonal (nested_tanh_sinh).

The policy is fixed: absolute and relative tolerance 1e-9, at most 400
QUADPACK subdivisions, and INNER_ABS_TOL = 1e-10 for the inner integrals of
nested_tanh_sinh, so that their error stays below what the outer integral
resolves.  A tanh-sinh panel that does not converge raises ArithmeticError.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate

__all__ = ["quad_breakpoints", "tanh_sinh", "nested_tanh_sinh"]

ABS_TOL = 1e-9
INNER_ABS_TOL = 1e-10
REL_TOL = 1e-9
MAX_SUBDIVISIONS = 400
NESTED_BLOCK = 64  # outer nodes per inner tanh-sinh call; bounds its memory


def _edges(a: float, b: float, points) -> np.ndarray:
    """a, the breakpoints strictly inside (a, b) in order, and b."""
    return np.array([a] + sorted({float(p) for p in points if a < p < b}) + [b])


def _converged(res, lo: np.ndarray, hi: np.ndarray) -> None:
    """Raise ArithmeticError naming the first panel [lo, hi] tanh-sinh did not converge on."""
    bad = np.flatnonzero(res.status)
    if bad.size:
        k = bad[0]
        raise ArithmeticError(f"tanh-sinh did not converge on [{float(lo.flat[k])!r}, "
                              f"{float(hi.flat[k])!r}] (status {res.status.flat[k]})")


def quad_breakpoints(f, a: float, b: float, points=()) -> float:
    """Adaptive quadrature of a scalar f over [a, b], splitting at breakpoints."""
    if a == b:
        return 0.0
    pts = _edges(a, b, points)[1:-1].tolist()
    val, _ = integrate.quad(f, a, b, points=pts or None, epsabs=ABS_TOL, epsrel=REL_TOL,
                            limit=max(MAX_SUBDIVISIONS, 10 * (len(pts) + 1)))
    return val


def tanh_sinh(f, a: float, b: float, points=()) -> float:
    """Tanh-sinh quadrature of an array integrand f, one panel per breakpoint gap.

    Nodes that round onto a panel end get weight zero, so f may return a
    non-finite value there.
    """
    if a == b:
        return 0.0
    edges = _edges(a, b, points)
    res = integrate.tanhsinh(f, edges[:-1], edges[1:], atol=ABS_TOL, rtol=REL_TOL)
    _converged(res, edges[:-1], edges[1:])
    return float(np.sum(res.integral))


def nested_tanh_sinh(kernel, weight, a: float, b: float, points=()) -> float:
    """int_a^b weight(s) int_a^b kernel(s, t) dt ds by two-level tanh-sinh.

    kernel(s, t) and weight(s) take broadcastable arrays; the kernel may have
    an integrable singularity at t = s.  One tanh-sinh call takes the inner
    integrals of NESTED_BLOCK outer nodes s, each panel split at s clipped into it.
    """
    edges = _edges(a, b, points)
    lo, hi = edges[:-1], edges[1:]

    def rows(s: np.ndarray) -> np.ndarray:
        flat = s.reshape(-1, 1)
        out = np.empty(len(flat))
        for start in range(0, len(flat), NESTED_BLOCK):
            s_blk = flat[start:start + NESTED_BLOCK]
            cut = np.clip(s_blk, lo, hi)
            p_lo = np.concatenate([np.broadcast_to(lo, cut.shape), cut], axis=1)
            p_hi = np.concatenate([cut, np.broadcast_to(hi, cut.shape)], axis=1)
            res = integrate.tanhsinh(lambda t, s_: kernel(s_, t), p_lo, p_hi, args=(s_blk,),
                                     atol=INNER_ABS_TOL, rtol=REL_TOL)
            _converged(res, p_lo, p_hi)
            out[start:start + NESTED_BLOCK] = res.integral.sum(axis=1)
        return weight(s) * out.reshape(s.shape)

    return tanh_sinh(rows, a, b, points)
