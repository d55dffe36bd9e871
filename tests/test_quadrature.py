import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from ytensor import quadrature


class TestTanhSinh:
    def test_breakpoint_split_converges(self):
        # singular point at 0, where nodes do not round onto it
        got = quadrature.tanh_sinh([(lambda x: np.abs(x) ** -0.5, -0.3, 0.7, (0.0,))])[0]
        assert got == pytest.approx(2 * (math.sqrt(0.3) + math.sqrt(0.7)), abs=1e-9)

    def test_breakpoints_an_ulp_apart(self):
        # scipy's tanhsinh returns NaN on the one-ulp panel between them
        got = quadrature.tanh_sinh([(np.ones_like, 0.0, 2.0, (1.4, 1.4000000000000001))])[0]
        assert got == pytest.approx(2.0, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1e300), st.integers(-6, 6),
           st.sampled_from([1.0, -1.0]))
    def test_float_thinness_matches_the_array_test(self, x, ulps, sign):
        # _edges checks breakpoints on floats; nested_tanh_sinh's cuts on arrays.
        lo = sign * x
        hi = lo
        for _ in range(abs(ulps)):
            hi = math.nextafter(hi, math.inf if ulps > 0 else -math.inf)
        for a, b in ((lo, hi), (hi, lo)):
            assert quadrature._thin_float(a, b) == bool(quadrature._thin(np.float64(a), np.float64(b)))

    def test_edges_drop_breakpoints_a_few_ulps_from_an_edge(self):
        u = math.ulp(0.25)
        points = [4 * math.ulp(0.0), 0.25, 0.25 + 2 * u, 0.25 + 8 * u, 0.5,
                  math.nextafter(0.5, 1.0), 1.0 - 4 * math.ulp(0.5), 2.0]
        got = quadrature._edges(0.0, 1.0, points)
        assert got.tolist() == [0.0, 0.25, 0.25 + 8 * u, 0.5, 1.0]

    @pytest.mark.parametrize("f", [
        lambda x: 1.0 / x,  # divergent
        lambda x: np.abs(x - 0.3) ** -0.5,  # interior singularity left unsplit
    ])
    def test_unconverged_panel_raises(self, f):
        with pytest.raises(ArithmeticError, match=r"did not converge on \[0\.0, 1\.0\] \(status -?\d+\)"):
            quadrature.tanh_sinh([(f, 0.0, 1.0, ())])


def _cos_sqrt(x):
    return np.cos(15.0 * x) * np.sqrt(x)


# Members of one batch: breakpoint counts from none to three, a backwards one,
# a zero-width one and one whose panels all converge in the first pass.
_MEMBERS = [
    (_cos_sqrt, 0.0, 1.0, ()),
    (lambda x: np.abs(x) ** -0.5, -0.3, 0.7, (0.0,)),
    (np.exp, 1.0, 0.0, ()),
    (np.ones_like, 2.0, 2.0, (2.0,)),
    (lambda x: np.sin(x) * _log(np.abs(x)), -2.0, 5.0, (0.0, 1.0, 3.0)),
    (np.ones_like, 0.0, 2.0, (1.4, 1.4000000000000001)),
]


class TestBatches:
    def test_members_keep_their_one_member_values(self):
        got = quadrature.tanh_sinh(_MEMBERS)
        want = [quadrature.tanh_sinh([member])[0] for member in _MEMBERS]
        assert _same_bits(got, want)
        assert got[3] == 0.0
        # a one-panel member is scipy's tanhsinh bit for bit
        ref = integrate.tanhsinh(_cos_sqrt, 0.0, 1.0, atol=quadrature.ABS_TOL,
                                 rtol=quadrature.REL_TOL)
        assert _same_bits(got[0], ref.integral)

    def test_each_member_sees_its_own_rows_only(self):
        seen = [[], []]

        def member(k):
            def f(x):
                seen[k].append(x.copy())
                return np.exp(x) if k else np.cos(40.0 * x)
            return f

        quadrature.tanh_sinh([(member(0), 0.0, 3.0, (1.0,)), (member(1), 5.0, 6.0, ())])
        assert len(seen[0]) > len(seen[1]) >= 1  # the cos member takes more passes
        assert all(np.all((0.0 <= x) & (x <= 3.0)) for x in seen[0])
        assert all(np.all((5.0 <= x) & (x <= 6.0)) for x in seen[1])

    def test_unconverged_member_names_its_panel(self):
        members = [(np.exp, 0.0, 1.0, ()), (lambda x: 1.0 / (x - 2.0), 1.0, 2.0, (1.5,))]
        with pytest.raises(ArithmeticError, match=r"did not converge on \[1\.5, 2\.0\]"):
            quadrature.tanh_sinh(members)

    def test_unconverged_inner_panel_names_its_cut(self):
        # the kernel diverges at t = s, so the first failing inner panel is
        # [1.0, s] for one of the outer nodes s
        with pytest.raises(ArithmeticError) as error:
            quadrature.nested_tanh_sinh(lambda s, t: 1.0 / (s - t), np.ones_like, 1.0, 2.0)
        cut = float(re.fullmatch(r"tanh-sinh did not converge on \[1\.0, (\S+)\] \(status -?\d+\)",
                                 str(error.value))[1])
        assert 1.0 < cut < 2.0

    def test_no_members(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_tanh_sinh_panels", None)
        assert quadrature.tanh_sinh([]) == []


def _neg_log_kernel(s, t):
    d = s - t
    with np.errstate(divide="ignore"):
        return np.where(d == 0.0, 0.0, -np.log(np.abs(2.0 * d)))


class TestNestedTanhSinh:
    def test_log_kernel_closed_form(self):
        # iint_{[0,1]^2} -ln|2(s - t)| ds dt = 3/2 - ln 2, and the kernel is
        # symmetric, so its triangle t < s holds half of that
        got = quadrature.nested_tanh_sinh(_neg_log_kernel, np.ones_like, 0.0, 1.0)
        assert got == pytest.approx((1.5 - math.log(2.0)) / 2, abs=1e-9)

    @pytest.mark.parametrize("kernel, weight, points, want", [
        (lambda s, t: t + 0.0 * s, np.ones_like, (), 1.0 / 6.0),  # int_0^1 s^2/2 ds
        (lambda s, t: np.ones_like(t + s), lambda s: s, (0.4,), 1.0 / 3.0),  # int_0^1 s * s ds
    ], ids=["kernel_t", "weight_s"])
    def test_only_below_the_diagonal(self, kernel, weight, points, want):
        # over the square both would give 1/2
        got = quadrature.nested_tanh_sinh(kernel, weight, 0.0, 1.0, points)
        assert got == pytest.approx(want, abs=1e-12)

    def test_blocks_do_not_change_the_value(self, monkeypatch):
        def weight(s):
            return 1.0 + s * s

        want = quadrature.nested_tanh_sinh(_neg_log_kernel, weight, 0.0, 1.0, (0.4,))
        monkeypatch.setattr(quadrature, "NESTED_BLOCK", 5)
        got = quadrature.nested_tanh_sinh(_neg_log_kernel, weight, 0.0, 1.0, (0.4,))
        assert got == want
        # a budget below one row's panels: one outer node per inner call
        monkeypatch.setattr(quadrature, "NESTED_BLOCK", 1)
        got = quadrature.nested_tanh_sinh(_neg_log_kernel, weight, 0.0, 1.0, (0.4,))
        assert got == want

    @pytest.mark.parametrize("budget", [quadrature.NESTED_BLOCK, 200, 9])
    def test_inner_calls_take_at_most_the_panel_budget(self, monkeypatch, budget):
        # Per outer pass: its row count and the panel count of each inner call.
        passes = []
        panels_tanh_sinh = quadrature._tanh_sinh_panels

        def spy(f, lo, hi, atol, args=()):
            if atol == quadrature.INNER_ABS_TOL:  # an inner call: one row of panels per outer node
                passes[-1][1].append(np.broadcast(lo, hi).size)
                return panels_tanh_sinh(f, lo, hi, atol, args)

            def outer_pass(s):
                passes.append((s.size, []))
                return f(s)

            return panels_tanh_sinh(outer_pass, lo, hi, atol, args)

        monkeypatch.setattr(quadrature, "_tanh_sinh_panels", spy)
        monkeypatch.setattr(quadrature, "NESTED_BLOCK", budget)
        quadrature.nested_tanh_sinh(_neg_log_kernel, np.ones_like, 0.0, 1.0, (0.4,))
        assert passes
        for rows, calls in passes:  # two panels per row
            assert sum(calls) == 2 * rows and max(calls) <= budget
            assert len(calls) == -(-rows // (budget // 2))  # one call when 2 * rows <= budget
        # the first pass's 132 rows (264 panels) fit the default budget only
        assert passes[0][0] == 132 and (len(passes[0][1]) == 1) == (budget >= 264)

    def test_outer_node_an_ulp_from_an_inner_edge(self):
        # some outer nodes on these panels round to within an ulp of -0.525,
        # which the inner panels must not be split at
        got = quadrature.nested_tanh_sinh(_neg_log_kernel, np.ones_like, -1.0, 0.0,
                                          (-0.55, -0.525, -0.5))
        assert got == pytest.approx((1.5 - math.log(2.0)) / 2, abs=1e-9)

    def test_unconverged_inner_panel_raises(self):
        def kernel(s, t):
            return np.abs(t - 0.3) ** -0.5 + 0.0 * s

        with pytest.raises(ArithmeticError, match="did not converge"):
            quadrature.nested_tanh_sinh(kernel, np.ones_like, 0.0, 1.0)


class TestQuadBreakpoints:
    def test_converged_value(self):
        got = quadrature.quad_breakpoints(lambda x: abs(x) ** -0.5, -0.3, 0.7, (0.0,))
        assert got == pytest.approx(2 * (math.sqrt(0.3) + math.sqrt(0.7)), abs=1e-9)

    def test_empty_interval_is_zero_without_a_call(self):
        def never(x):
            raise AssertionError("the integrand was called")

        assert quadrature.quad_breakpoints(never, 0.25, 0.25) == 0.0

    def test_unconverged_raises(self):
        with pytest.raises(ArithmeticError, match=r"QUADPACK did not converge on \[0\.0, 1\.0\]: "
                                                  r"The maximum number of subdivisions \(400\)"):
            quadrature.quad_breakpoints(lambda x: 1.0 / x, 0.0, 1.0)


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64)))


def _assert_matches_scipy(f, lo, hi, atol, args=()):
    integral, status = quadrature._tanh_sinh_panels(f, lo, hi, atol, args)
    with np.errstate(all="ignore"):
        want = integrate.tanhsinh(f, lo, hi, args=args, atol=atol, rtol=quadrature.REL_TOL)
    assert _same_bits(integral, want.integral), (integral, want.integral)
    assert np.array_equal(status, want.status), (status, want.status)
    return status


def _log(x):
    with np.errstate(divide="ignore"):
        return np.log(x)


class TestTanhSinhPanelsAgainstScipy:
    # The in-module rule against scipy.integrate.tanhsinh at the same tolerances:
    # integral and status bit for bit.
    @pytest.mark.parametrize("atol", [quadrature.ABS_TOL, quadrature.INNER_ABS_TOL])
    @pytest.mark.parametrize("f, lo, hi, args", [
        (_log, 0.0, 1.0, ()),  # log singularity at the left end
        (lambda x: _log(1.0 - x), 0.0, 1.0, ()),  # ... at the right end
        (lambda x: _log(x * (2.0 - x)), 0.0, 2.0, ()),  # ... at both ends
        (lambda x: x ** -0.5, 0.0, 1.0, ()),  # inverse square root at 0
        (lambda x: (-x) ** -0.5, -1.0, 0.0, ()),  # ... at 0 as the right end
        (lambda x: np.sin(x) * _log(np.abs(x)), [-2.0, 0.0, 1.0], [0.0, 1.0, 5.0], ()),
        (lambda x: np.abs(x - 0.3) ** -0.5, [0.0, 0.3], [0.3, 1.0], ()),  # split at 0.3
        (np.ones_like, [0.0, 1.4, 1.4000000000000001], [1.4, 1.4000000000000001, 2.0], ()),
        (lambda x: 1.0 / x, 0.0, 1.0, ()),  # divergent
        (lambda x: np.abs(x - 0.3) ** -0.5, 0.0, 1.0, ()),  # interior singularity unsplit
        (lambda x: np.exp(-x * x), -6.0, 6.0, ()),
        (np.exp, 1.0, 0.0, ()),  # backwards
        (np.ones_like, [0.0, 1.0], [0.0, 2.0], ()),  # a zero-width panel
        (lambda x: np.where(np.abs(x - 0.5) < 1e-12, np.nan, x), 0.0, 1.0, ()),  # NaN at the middle
        (lambda x, p: x ** p, np.zeros(5), np.ones(5), (np.array([-0.9, -0.5, 0.0, 2.5, 40.0]),)),
        # The first panel stops at once (NaN at its middle); the other two
        # converge together in a later pass, which ends the call.
        (lambda x: np.where(np.abs(x - 0.5) < 1e-12, np.nan, np.cos(30.0 * x)),
         [0.0, 1.0, 2.0], [1.0, 2.0, 3.0], ()),
        # inf on the last nodes before 1: a later level puts a finite node
        # outside the first pass's outermost one, which the outer state must take
        (lambda x: np.where(x > 0.999999, np.inf, np.cos(15.0 * x)), 0.0, 1.0, ()),
        # ... and d4 must come from the outermost finite node so far, not from
        # the outermost one of the pass at hand
        (lambda x: np.where(x > 1.0 - 1e-12, np.inf, np.cos(15.0 * x) * np.sqrt(x)), 0.0, 1.0, ()),
    ])
    def test_fixed_integrands(self, f, lo, hi, args, atol):
        _assert_matches_scipy(f, lo, hi, atol, args)

    @given(coefficients=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
           starts=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3),
           widths=st.lists(st.floats(1e-3, 3.0), min_size=3, max_size=3),
           where=st.sampled_from(["lo", "hi", "free"]), free=st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_polynomial_times_log(self, coefficients, starts, widths, where, free):
        lo = np.array(starts)
        hi = lo + np.array(widths[:len(starts)])
        a = {"lo": lo[0], "hi": hi[0], "free": free}[where]

        def f(x):
            return np.polyval(coefficients, x) * _log(np.abs(x - a))

        _assert_matches_scipy(f, lo, hi, quadrature.ABS_TOL)

    @pytest.mark.parametrize("kernel", [
        _neg_log_kernel,
        lambda s, t: np.abs(s - t) ** -0.5 * (1.0 + s * t),
    ])
    def test_nested_form(self, kernel):
        # nested_tanh_sinh's inner call: one row of panels [lo, s clipped
        # into the panel] per outer node s; panels right of s have zero width
        lo, hi = np.array([-1.0, -0.25, 0.5]), np.array([-0.25, 0.5, 1.0])
        s = np.array([-0.9, -0.25, 0.0, 0.3, 0.5, 0.99])[:, None]
        cut = np.clip(s, lo, hi)
        p_lo = np.broadcast_to(lo, cut.shape)
        with np.errstate(divide="ignore"):
            status = _assert_matches_scipy(lambda t, s_: kernel(s_, t), p_lo, cut,
                                           quadrature.INNER_ABS_TOL, (s,))
        assert not status.any()


def test_converged_panels_leave_with_their_arguments():
    # cos(w x) x**q converges at a later level the larger w is, and the q = -1
    # panel not at all; a panel's result must not depend on its neighbours
    w = np.array([80.0, 1.0, 40.0, 3.0, 3.0, 160.0])
    q = np.array([0.0, 0.0, 0.0, 0.0, -1.0, 0.0])
    lo, hi = np.zeros(6), np.linspace(2.0, 2.5, 6)
    rows = []

    def f(x, w_, q_):
        rows.append(len(x))
        with np.errstate(divide="ignore"):
            return np.cos(w_ * x) * x ** q_

    integral, status = quadrature._tanh_sinh_panels(f, lo, hi, quadrature.ABS_TOL, (w, q))
    assert len(set(rows)) > 3 and rows == sorted(rows, reverse=True)
    assert list(status) == [0, 0, 0, 0, -2, 0]
    for k in range(len(w)):
        alone = quadrature._tanh_sinh_panels(f, lo[k], hi[k], quadrature.ABS_TOL, (w[k], q[k]))
        assert _same_bits(integral[k], alone[0]) and status[k] == alone[1]
