"""Thin quadrature helpers shared by the variational layer, taking breakpoint
lists: tanh-sinh for array integrands with integrable endpoint singularities
(tanh_sinh) and two-level tanh-sinh for double integrals with a singular
diagonal (nested_tanh_sinh), taken over the triangle t < s only: its callers'
integrands are symmetric in (s, t) or live on the triangle alone.  The
diagonal is then the end of every inner panel, so a log kernel such as
-ln|2(s - t)| goes in as it is, with no regularization.  The one production
integral is functionals.alpha_constant's tanh_sinh call; every other caller
is an oracle in ytensor.checks.

tanh_sinh takes a batch: a sequence of independent integrals (f, a, b,
points), and returns their values in order; one integral is a one-member
batch.  A batch is one panel table (_panels): each member's panels [lo, hi]
between its breakpoints, in member order, with each panel's member.
_integrate is the one caller of _tanh_sinh_panels: it runs a table's panels
in one pass loop, raises on the first unconverged panel and sums each
owner's panels in order (np.bincount).  Each pass hands each member's
function its own contiguous rows (_by_member), so a member's value is bit
for bit what it is alone.  A call's fixed cost is paid once per batch
instead of once per integral: verify-all's lemma oracles integrate its
whole c grid in one tanh_sinh call.  nested_tanh_sinh takes one double
integral (kernel, weight, a, b, points) and returns its value.  Its outer
panels are one table, and each outer node has the same row of inner panels,
cut at the node; a pass's nodes go to _integrate in blocks of whole nodes,
each block one table whose owners are its nodes.
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
which cost more than the integrands in a verify-all pass.  Its own cost is a
fixed number of numpy calls per call and per pass, and most calls end after
their first pass; so the loop keeps that number small, and nested_tanh_sinh
makes few, wide inner calls (NESTED_BLOCK) instead of many narrow ones.

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
from functools import partial

import numpy as np

__all__ = ["quad_breakpoints", "tanh_sinh", "nested_tanh_sinh"]

ABS_TOL = 1e-9
INNER_ABS_TOL = 1e-10
REL_TOL = 1e-9
MAX_SUBDIVISIONS = 400
# The most inner panels (outer nodes times outer panels) one inner tanh-sinh
# call of nested_tanh_sinh takes, unless one node's row alone is more; it
# bounds the call's memory.  A call has a fixed cost on top of its per-node
# work: a one-panel call of a cheap integrand takes ~80 us on 2 cores, so
# wider calls make fewer of them.  At 1024, each outer pass of verify-all's
# nested quadratures makes one call; ROADMAP records other budgets against
# verify-all's time and memory.
NESTED_BLOCK = 1024

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
# Of the first pass's nodes per side, the first _COARSE[0] make level
# _FIRST_LEVEL - 2 and the first _COARSE[1] level _FIRST_LEVEL - 1.
_COARSE = np.cumsum([len(xc) for xc, _ in _LEVELS[:_FIRST_LEVEL]])[-2:]
# One entry per pass: levels 0.._FIRST_LEVEL in order for the first, then one
# level each.  An entry holds the nodes' signed offsets and weights per side,
# right then left: [-xc; xc] and [w; w], so that the panel's ends [b; a] plus
# alpha times the offsets are b - alpha xc and a + alpha xc bit for bit.
_PASSES = [(np.stack((-xc, xc)), np.stack((w, w)))
           for xc, w in [tuple(map(np.concatenate, zip(*_LEVELS[:_FIRST_LEVEL + 1])))]
           + _LEVELS[_FIRST_LEVEL + 1:]]
_SIDE = np.array([[1.0], [-1.0]])
_EPS = np.finfo(float).eps


def _thin(lo, hi):
    """Whether [lo, hi] is at most a few ulps wide (elementwise)."""
    return hi - lo <= 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))


def _thin_float(lo: float, hi: float) -> bool:
    """``_thin`` on two floats, without numpy scalar calls.

    math.ulp(x) equals np.spacing(x) for finite x >= 0 below the largest
    float, where np.spacing overflows to inf.
    """
    return hi - lo <= 4.0 * math.ulp(max(abs(lo), abs(hi)))


def _edges(a: float, b: float, points) -> np.ndarray:
    """a, the breakpoints strictly inside (a, b) in order, and b, leaving out
    each breakpoint a few ulps from the edge before it or from b."""
    edges = [a]
    for p in sorted({float(p) for p in points if a < p < b}):
        if not (_thin_float(edges[-1], p) or _thin_float(p, b)):
            edges.append(p)
    return np.array(edges + [b])


def _tanh_sinh_panels(f, lo, hi, atol: float, args=()) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-sinh integrals of f over the panels [lo, hi], with a status each.

    lo, hi and the arrays in args broadcast to the panels' shape.  Each pass
    calls f(x, *args) once, with x of shape (panels, nodes) and each arg a
    column, for the panels still running only: a panel leaves the pass it
    converges in, with its arguments, and the call ends with the pass in
    which the last one does.  Status 0 is converged; -2 means level
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

    A pass makes a fixed number of numpy calls whatever the panel count: the
    panels' ends and half widths are formed once per call and leave with
    their panels, and the nodes come from per-pass signed offsets.  Each
    pass's outermost node lies within 1e-279 half widths of the end, so it
    rounds onto the end of larger magnitude: every pass of every panel has
    a value to replace, and the replacement is never skipped.
    """
    lo, hi, *args = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float),
                                        *args)
    shape = lo.shape
    lo, hi = lo.ravel(), hi.ravel()
    integral = np.zeros(lo.size)
    status = np.where(lo == hi, 0, -2)
    live = status.nonzero()[0]
    # Per live panel, formed once: the ends [b; a], which alpha times the
    # signed offsets of _PASSES move inwards, and the half width alpha.
    ends = np.empty((live.size, 2, 1))
    ends[:, 0, 0] = np.maximum(lo, hi)[live]
    ends[:, 1, 0] = np.minimum(lo, hi)[live]
    alpha = (ends[:, :1] - ends[:, 1:]) / 2
    args = [arg.ravel()[live, None] for arg in args]
    # Per panel and side (right, left): the outermost finite node so far, as
    # x on the right and -x on the left, its f and its weight.
    outer = np.full((live.size, 2), -np.inf)
    f_outer = np.full((live.size, 2), np.nan)
    w_outer = np.zeros((live.size, 2))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k, (offsets, weights) in enumerate(_PASSES if live.size else (), _FIRST_LEVEL):
            h = _H0 / 2 ** k
            x = alpha * offsets
            x += ends  # in place: a broadcast sum into a new array is ~2x slower on wide calls
            fx = np.asarray(f(x.reshape(len(x), -1), *args), dtype=float).reshape(x.shape)
            w = alpha * weights  # after the call: a wide call's peak memory is f's temporaries
            w[(x <= ends[:, 1:]) | (x >= ends[:, :1])] = 0
            bad = ~np.isfinite(fx) | (w == 0)

            reach = np.where(bad, -np.inf, x * _SIDE)
            # Flat index of each (panel, side)'s outermost finite node.
            i = reach.argmax(axis=2)
            i += np.arange(0, i.size * x.shape[2], x.shape[2]).reshape(i.shape)
            top = reach.ravel()[i]
            new = top > outer
            outer = np.where(new, top, outer)
            f_outer = np.where(new, fx.ravel()[i], f_outer)
            w_outer = np.where(new, w.ravel()[i], w_outer)
            d4 = np.abs(f_outer * w_outer).max(axis=1)

            terms = np.where(bad, f_outer[..., None], fx)
            terms *= w
            est = terms.reshape(len(x), -1).sum(axis=1) * h
            if k == _FIRST_LEVEL:
                est[np.isnan(fx[:, 0, 0])] = np.nan  # where scipy's midpoint probe stops
                prev2 = terms[..., :_COARSE[0]].reshape(len(x), -1).sum(axis=1) * (h * 4)
                prev = terms[..., :_COARSE[1]].reshape(len(x), -1).sum(axis=1) * (h * 2)
            else:
                est = prev / 2 + est
            d1 = np.abs(est - prev)
            d2 = np.abs(est - prev2)
            d3 = _EPS * np.abs(terms, out=reach).reshape(len(x), -1).max(axis=1)  # reach is free
            power = np.where(d1 > 0, d1 ** (np.log(d1) / np.log(d2)), 0)
            size = np.abs(est)
            # np.clip(max(power, d1^2, d3, d4), d5, d1) in fewer calls
            err = np.minimum(np.maximum(np.maximum(np.maximum(np.maximum(power, d1 * d1), d3), d4),
                                        _EPS * size), d1)
            done = (err / size < REL_TOL) | (err < atol)
            integral[live] = est
            if done.all():
                status[live] = 0
                break
            keep = ~done & np.isfinite(est)
            status[live] = np.where(done, 0, np.where(keep, -2, -3))
            if not keep.any():
                break
            if not keep.all():
                live, ends, alpha = live[keep], ends[keep], alpha[keep]
                args = [arg[keep] for arg in args]
                outer, f_outer, w_outer = outer[keep], f_outer[keep], w_outer[keep]
                est, prev = est[keep], prev[keep]
            prev2, prev = prev, est
    integral[hi < lo] *= -1
    return integral.reshape(shape), status.reshape(shape)


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


def _panels(bounds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The panel table of a batch of integrals over (a, b, points): the ends
    lo and hi of each member's panels between its _edges, in member order,
    and each panel's member."""
    edges = [_edges(a, b, points) for a, b, points in bounds]
    return (np.concatenate([e[:-1] for e in edges]), np.concatenate([e[1:] for e in edges]),
            np.repeat(np.arange(len(edges)), [len(e) - 1 for e in edges]))


def _by_member(fns, x, member):
    """One pass's integrand values of a batch: fns[k](x) on member k's rows.

    A batch's panels are ordered by member and leave _tanh_sinh_panels in
    order, so each member's rows of x and member are one contiguous slice; a
    member whose panels have all converged gets no call.
    """
    if member[0, 0] == member[-1, 0]:  # one member's rows: no split, no copy
        return fns[member[0, 0]](x)
    out = np.empty(x.shape)
    cuts = np.searchsorted(member[:, 0], np.arange(len(fns) + 1))
    for k in np.flatnonzero(np.diff(cuts)):
        i, j = cuts[k], cuts[k + 1]
        out[i:j] = fns[k](x[i:j])
    return out


def _integrate(f, lo, hi, owner, count: int, atol: float, args) -> np.ndarray:
    """The integrals of count owners, each the sum of its panels [lo, hi], from
    one _tanh_sinh_panels call of f(x, *args); raises ArithmeticError naming
    the first unconverged panel."""
    integral, status = _tanh_sinh_panels(f, lo, hi, atol, args)
    bad = np.flatnonzero(status)
    if bad.size:
        k = bad[0]
        raise ArithmeticError(f"tanh-sinh did not converge on [{float(lo[k])!r}, "
                              f"{float(hi[k])!r}] (status {status[k]})")
    return np.bincount(owner, integral, count)


def tanh_sinh(integrals) -> list[float]:
    """Tanh-sinh quadrature of independent integrals (f, a, b, points) of array
    integrands, one panel per breakpoint gap; their values, in order.

    Every member's panels run in one pass loop, and each member's f sees only
    its own panels' nodes, so its value is bit for bit what a one-member call
    returns; one integral is a one-member sequence.  Nodes that round onto a
    panel end get weight zero, so f may return a non-finite value there.  An
    inverse-square-root singularity at a panel end away from 0 is
    under-resolved while the status still reads converged: nodes next to the
    end round onto it and lose their distance to it, so int_0^1 |x - 0.3|^(-1/2)
    split at 0.3 is off by 2.2e-8 against a 1e-9 target.  Substitute such a
    singularity away first, as lemma_F3 does with z = -cos(t).
    """
    integrals = list(integrals)
    if not integrals:
        return []
    lo, hi, member = _panels(bounds for _, *bounds in integrals)
    return _integrate(partial(_by_member, [f for f, *_ in integrals]), lo, hi, member,
                      len(integrals), ABS_TOL, (member,)).tolist()


def nested_tanh_sinh(kernel, weight, a: float, b: float, points=()) -> float:
    """int_a^b weight(s) int_a^s kernel(s, t) dt ds by two-level tanh-sinh.

    Only the triangle t < s is integrated: a kernel symmetric in (s, t) gives
    half its integral over the square.  kernel(s, t) and weight(s) take
    broadcastable arrays; the kernel may have an integrable singularity at
    t = s.  The outer panels lie between the _edges of [a, b].  Each outer
    node s gets the same row of inner panels, one per outer panel, cut at s
    clipped into it: [lo, cut].  A cut within a few ulps of lo or hi is moved
    onto it, so such panels are empty or whole.  A pass's outer nodes go to
    _integrate in node order, in blocks of NESTED_BLOCK // panels whole
    nodes, at least one; each block is one inner table, in which each node
    owns its row.
    """
    edges = _edges(a, b, points)
    lo, hi = edges[:-1], edges[1:]
    step = max(NESTED_BLOCK // lo.size, 1)

    def outer(s: np.ndarray) -> np.ndarray:
        nodes = s.ravel()
        inner = np.empty(nodes.size)
        for i in range(0, nodes.size, step):
            block = nodes[i:i + step]
            p_s = np.repeat(block, lo.size)
            p_lo, p_hi = np.tile(lo, block.size), np.tile(hi, block.size)
            cut = np.clip(p_s, p_lo, p_hi)
            cut = np.where(_thin(p_lo, cut), p_lo, np.where(_thin(cut, p_hi), p_hi, cut))
            inner[i:i + step] = _integrate(lambda t, s_: kernel(s_, t), p_lo, cut,
                                           np.repeat(np.arange(block.size), lo.size), block.size,
                                           INNER_ABS_TOL, (p_s,))
        return inner.reshape(s.shape) * weight(s)

    return float(_integrate(outer, lo, hi, np.zeros(lo.size, dtype=int), 1, ABS_TOL, ())[0])
