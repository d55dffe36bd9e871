"""Thin quadrature helpers shared by the variational layer, taking breakpoint
lists: tanh-sinh for array integrands with integrable endpoint singularities
(tanh_sinh), two-level tanh-sinh for double integrals with a singular diagonal
(nested_tanh_sinh), and QUADPACK (quad_breakpoints) for the scalar integrands
of alpha_constant and lemma_F3.

The policy is fixed: absolute and relative tolerance 1e-9, at most 400
QUADPACK subdivisions, and INNER_ABS_TOL = 1e-10 for the inner integrals of
nested_tanh_sinh, so that their error stays below what the outer integral
resolves.  An unconverged tanh-sinh panel or QUADPACK call raises
ArithmeticError.  Breakpoints a few ulps apart are merged: scipy's tanhsinh
returns NaN on a one-ulp panel.
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


def _thin(lo, hi):
    """Whether [lo, hi] is at most a few ulps wide (elementwise)."""
    return hi - lo <= 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))


def _edges(a: float, b: float, points) -> np.ndarray:
    """a, the breakpoints strictly inside (a, b) in order, and b, leaving out
    each breakpoint a few ulps from the edge before it or from b."""
    edges = [a]
    for p in sorted({float(p) for p in points if a < p < b}):
        if not (_thin(edges[-1], p) or _thin(p, b)):
            edges.append(p)
    return np.array(edges + [b])


def _converged(res, lo: np.ndarray, hi: np.ndarray) -> None:
    """Raise ArithmeticError naming the first panel [lo, hi] tanh-sinh did not converge on."""
    bad = np.flatnonzero(res.status)
    if bad.size:
        k = bad[0]
        raise ArithmeticError(f"tanh-sinh did not converge on [{float(lo.flat[k])!r}, "
                              f"{float(hi.flat[k])!r}] (status {res.status.flat[k]})")


def quad_breakpoints(f, a: float, b: float, points=()) -> float:
    """Adaptive quadrature of a scalar f over [a, b], splitting at breakpoints;
    raises ArithmeticError naming [a, b] when QUADPACK reports a problem."""
    if a == b:
        return 0.0
    pts = _edges(a, b, points)[1:-1].tolist()
    val, _, _, *problem = integrate.quad(f, a, b, points=pts or None, epsabs=ABS_TOL,
                                         epsrel=REL_TOL, limit=MAX_SUBDIVISIONS, full_output=1)
    if problem:
        raise ArithmeticError(f"QUADPACK did not converge on [{a!r}, {b!r}]: "
                              f"{problem[0].splitlines()[0]}")
    return val


def tanh_sinh(f, a: float, b: float, points=()) -> float:
    """Tanh-sinh quadrature of an array integrand f, one panel per breakpoint gap.

    Nodes that round onto a panel end get weight zero, so f may return a
    non-finite value there.  An inverse-square-root singularity at a panel end
    away from 0 is under-resolved while the status still reads converged:
    nodes next to the end round onto it and lose their distance to it, so
    int_0^1 |x - 0.3|^(-1/2) split at 0.3 is off by 2.2e-8 against a 1e-9
    target.  Substitute such a singularity away first, as lemma_F3 does with
    z = sin(psi).
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
    integrals of NESTED_BLOCK outer nodes s, each panel split at s clipped into
    it, unless s lies within a few ulps of the panel's ends.
    """
    edges = _edges(a, b, points)
    lo, hi = edges[:-1], edges[1:]

    def rows(s: np.ndarray) -> np.ndarray:
        flat = s.reshape(-1, 1)
        out = np.empty(len(flat))
        for start in range(0, len(flat), NESTED_BLOCK):
            s_blk = flat[start:start + NESTED_BLOCK]
            cut = np.clip(s_blk, lo, hi)
            cut = np.where(_thin(lo, cut), lo, np.where(_thin(cut, hi), hi, cut))
            p_lo = np.concatenate([np.broadcast_to(lo, cut.shape), cut], axis=1)
            p_hi = np.concatenate([cut, np.broadcast_to(hi, cut.shape)], axis=1)
            res = integrate.tanhsinh(lambda t, s_: kernel(s_, t), p_lo, p_hi, args=(s_blk,),
                                     atol=INNER_ABS_TOL, rtol=REL_TOL)
            _converged(res, p_lo, p_hi)
            out[start:start + NESTED_BLOCK] = res.integral.sum(axis=1)
        return weight(s) * out.reshape(s.shape)

    return tanh_sinh(rows, a, b, points)
