"""Thin quadrature helpers shared by the variational layer, taking breakpoint
lists: tanh-sinh for array integrands with integrable endpoint singularities
(tanh_sinh) and two-level tanh-sinh for double integrals with a singular
diagonal (nested_tanh_sinh).  Every production integral runs on these two.
quad_breakpoints, a QUADPACK wrapper, has no production caller; it stays only
while perfbench/spans.py traces it.

The tanh-sinh rule is the one of Bailey, Jeyabalan and Li (A comparison of
three high-precision quadrature schemes, Experimental Math. 14, 2005), run
here in one numpy loop over all panels of a call (_tanh_sinh_panels).  It
reproduces scipy's tanhsinh with its default levels node for node: the base
step, levels 2..10 with a jump start, the handling of non-finite values and
the error estimate, so integral and status agree with scipy's bit for bit;
scipy's tanhsinh stays only as the tests' oracle.  What the loop leaves out is
scipy's per-iteration bookkeeping and its probe call at each panel's midpoint,
which cost more than the integrands in a verify-all pass.

The policy is fixed: absolute and relative tolerance 1e-9, and
INNER_ABS_TOL = 1e-10 for the inner integrals of nested_tanh_sinh, so that
their error stays below what the outer integral resolves.  An unconverged
tanh-sinh panel raises ArithmeticError.  Breakpoints a few ulps apart are
merged: on a panel one ulp wide every node rounds onto an end and gets weight
zero, so the rule has no value to use and ends with a NaN and status -3, as
scipy's does.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["quad_breakpoints", "tanh_sinh", "nested_tanh_sinh"]

ABS_TOL = 1e-9
INNER_ABS_TOL = 1e-10
REL_TOL = 1e-9
MAX_SUBDIVISIONS = 400
NESTED_BLOCK = 64  # outer nodes per inner tanh-sinh call; bounds its memory

# Tanh-sinh levels: level k has step _H0 / 2**k and 8 * 2**k steps to each
# side, so its outermost complement 1 - x_j just avoids underflow (4 * tiny).
# The first pass sums levels 0.._FIRST_LEVEL together; each later pass adds
# the odd-indexed nodes of one level, up to _LAST_LEVEL.
_FIRST_LEVEL = 2
_LAST_LEVEL = 10
_H0 = math.asinh(math.log(2.0 / (4.0 * np.finfo(float).tiny) - 1.0) / math.pi) / 8


def _level_nodes(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Complements 1 - x_j and weights of the nodes level k adds (all of
    level 0's, with the weight at x = 0 halved: both sides evaluate it)."""
    j = np.arange(8 * 2 ** k + 1) if k == 0 else np.arange(1, 8 * 2 ** k + 1, 2)
    u1 = math.pi / 2 * np.cosh(j * (_H0 / 2 ** k))
    u2 = math.pi / 2 * np.sinh(j * (_H0 / 2 ** k))
    with np.errstate(over="ignore"):
        w = u1 / np.cosh(u2) ** 2
        xc = 1 / (np.exp(u2) * np.cosh(u2))
    if k == 0:
        w[0] /= 2
    return xc, w


_LEVELS = [_level_nodes(k) for k in range(_LAST_LEVEL + 1)]
# One (complements, weights) pair per pass: levels 0.._FIRST_LEVEL in order
# for the first, then one level each.
_PASSES = ([tuple(np.concatenate(z) for z in zip(*_LEVELS[:_FIRST_LEVEL + 1]))]
           + _LEVELS[_FIRST_LEVEL + 1:])
# Of the first pass's nodes per side, the first _COARSE[0] make level
# _FIRST_LEVEL - 2 and the first _COARSE[1] level _FIRST_LEVEL - 1.
_COARSE = np.cumsum([len(xc) for xc, _ in _LEVELS[:_FIRST_LEVEL]])[-2:]


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


def _tanh_sinh_panels(f, lo, hi, atol: float, args=()) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-sinh integrals of f over the panels [lo, hi], with a status each.

    lo, hi and the arrays in args broadcast to the panels' shape.  Each pass
    calls f(x, *args) once, with x of shape (panels, nodes) and each arg a
    column, for the panels still running only: a panel leaves the pass it
    converges in, with its arguments.  Status 0 is converged; -2 means level
    _LAST_LEVEL did not converge, and the integral is its estimate; -3 means
    the estimate became non-finite.  A zero-width panel is 0 with no call.

    Per pass and panel this is scipy's tanhsinh rule with its default levels
    and rtol = REL_TOL.  f may return non-finite values: each is replaced by
    f at the outermost finite node so far on its side of the panel, and
    nodes that round onto an end get weight zero.  The error
    estimate is Bailey's, max(d1^(ln d1 / ln d2), d1^2, d3, d4) clipped to
    [d5, d1], where d1 and d2 are the changes from the last two levels, d3 is
    eps times the largest term of this pass, d4 the outermost term on either
    side so far, and d5 eps times the estimate.  scipy also evaluates f at
    each panel's midpoint first and stops with status -3 where that is NaN;
    here a NaN at the level-0 node in the middle does the same.  Limits are
    finite, and lo > hi integrates backwards.
    """
    lo, hi, *args = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float),
                                        *args)
    shape = lo.shape
    lo, hi = lo.ravel(), hi.ravel()
    backward = hi < lo
    a, b = np.where(backward, hi, lo), np.where(backward, lo, hi)
    integral = np.zeros(lo.size)
    status = np.where(a == b, 0, -2)
    live = np.flatnonzero(a != b)
    a, b = a[live, None, None], b[live, None, None]
    args = [arg.ravel()[live, None] for arg in args]
    # Per panel and side (right, left): the outermost finite node so far, as
    # x on the right and -x on the left, its f and its weight.
    outer = np.full((live.size, 2), -np.inf)
    f_outer = np.full((live.size, 2), np.nan)
    w_outer = np.zeros((live.size, 2))
    side = np.array([[1.0], [-1.0]])
    eps = np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k, (xc, wc) in enumerate(_PASSES, _FIRST_LEVEL):
            if not live.size:
                break
            h = _H0 / 2 ** k
            alpha = (b - a) / 2
            x = np.concatenate((-alpha * xc + b, alpha * xc + a), axis=1)
            w = np.repeat(wc * alpha, 2, axis=1)
            w[(x <= a) | (x >= b)] = 0
            fx = np.asarray(f(x.reshape(live.size, -1), *args), dtype=float).reshape(x.shape)
            bad = ~np.isfinite(fx) | (w == 0)

            reach = np.where(bad, -np.inf, side * x)
            i = reach.argmax(axis=2)[..., None]
            top = np.take_along_axis(reach, i, axis=2)[..., 0]
            new = top > outer
            outer = np.where(new, top, outer)
            f_outer = np.where(new, np.take_along_axis(fx, i, axis=2)[..., 0], f_outer)
            w_outer = np.where(new, np.take_along_axis(w, i, axis=2)[..., 0], w_outer)
            d4 = np.max(np.abs(f_outer * w_outer), axis=1)

            terms = np.where(bad, f_outer[..., None], fx) * w
            est = terms.reshape(live.size, -1).sum(axis=1) * h
            if k == _FIRST_LEVEL:
                est[np.isnan(fx[:, 0, 0])] = np.nan  # where scipy's midpoint probe stops
                prev2, prev = (terms[..., :n].reshape(live.size, -1).sum(axis=1) * (h * 2 ** m)
                               for n, m in zip(_COARSE, (2, 1)))
            else:
                est = prev / 2 + est
            d1 = np.abs(est - prev)
            d2 = np.abs(est - prev2)
            d3 = eps * np.max(np.abs(terms), axis=(1, 2))
            power = np.where(d1 > 0, d1 ** (np.log(d1) / np.log(d2)), 0)
            err = np.clip(np.max([power, d1 ** 2, d3, d4], axis=0), eps * np.abs(est), d1)
            done = (err / np.abs(est) < REL_TOL) | (err < atol)
            failed = ~np.isfinite(est) & ~done
            integral[live] = est
            status[live[done]] = 0
            status[live[failed]] = -3
            keep = ~(done | failed)
            if not keep.all():
                live, a, b, args = live[keep], a[keep], b[keep], [arg[keep] for arg in args]
                outer, f_outer, w_outer = outer[keep], f_outer[keep], w_outer[keep]
                est, prev = est[keep], prev[keep]
            prev2, prev = prev, est
    integral[backward] *= -1
    return integral.reshape(shape), status.reshape(shape)


def _converged(status: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """Raise ArithmeticError naming the first panel [lo, hi] tanh-sinh did not converge on."""
    bad = np.flatnonzero(status)
    if bad.size:
        k = bad[0]
        raise ArithmeticError(f"tanh-sinh did not converge on [{float(lo.flat[k])!r}, "
                              f"{float(hi.flat[k])!r}] (status {status.flat[k]})")


def quad_breakpoints(f, a: float, b: float, points=()) -> float:
    """Adaptive quadrature of a scalar f over [a, b], splitting at breakpoints;
    raises ArithmeticError naming [a, b] when QUADPACK reports a problem.

    No production path calls this; it goes when perfbench/spans.py stops
    tracing it.  scipy is imported here, so importing ytensor loads none.
    """
    from scipy import integrate
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
    integral, status = _tanh_sinh_panels(f, edges[:-1], edges[1:], ABS_TOL)
    _converged(status, edges[:-1], edges[1:])
    return float(np.sum(integral))


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
            integral, status = _tanh_sinh_panels(lambda t, s_: kernel(s_, t), p_lo, p_hi,
                                                 INNER_ABS_TOL, (s_blk,))
            _converged(status, p_lo, p_hi)
            out[start:start + NESTED_BLOCK] = integral.sum(axis=1)
        return weight(s) * out.reshape(s.shape)

    return tanh_sinh(rows, a, b, points)
