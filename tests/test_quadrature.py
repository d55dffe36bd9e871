import math

import numpy as np
import pytest

from ytensor import quadrature


class TestTanhSinh:
    def test_breakpoint_split_converges(self):
        # singular point at 0, where nodes do not round onto it
        got = quadrature.tanh_sinh(lambda x: np.abs(x) ** -0.5, -0.3, 0.7, (0.0,))
        assert got == pytest.approx(2 * (math.sqrt(0.3) + math.sqrt(0.7)), abs=1e-9)

    def test_breakpoints_an_ulp_apart(self):
        # scipy's tanhsinh returns NaN on the one-ulp panel between them
        got = quadrature.tanh_sinh(np.ones_like, 0.0, 2.0, (1.4, 1.4000000000000001))
        assert got == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("f", [
        lambda x: 1.0 / x,  # divergent
        lambda x: np.abs(x - 0.3) ** -0.5,  # interior singularity left unsplit
    ])
    def test_unconverged_panel_raises(self, f):
        with pytest.raises(ArithmeticError, match=r"did not converge on \[0\.0, 1\.0\] \(status -?\d+\)"):
            quadrature.tanh_sinh(f, 0.0, 1.0)


def _neg_log_kernel(s, t):
    d = s - t
    with np.errstate(divide="ignore"):
        return np.where(d == 0.0, 0.0, -np.log(np.abs(2.0 * d)))


class TestNestedTanhSinh:
    def test_log_kernel_closed_form(self):
        # iint_{[0,1]^2} -ln|2(s - t)| ds dt = 3/2 - ln 2
        got = quadrature.nested_tanh_sinh(_neg_log_kernel, np.ones_like, 0.0, 1.0)
        assert got == pytest.approx(1.5 - math.log(2.0), abs=1e-9)

    def test_blocks_do_not_change_the_value(self, monkeypatch):
        def weight(s):
            return 1.0 + s * s

        want = quadrature.nested_tanh_sinh(_neg_log_kernel, weight, 0.0, 1.0, (0.4,))
        monkeypatch.setattr(quadrature, "NESTED_BLOCK", 5)
        got = quadrature.nested_tanh_sinh(_neg_log_kernel, weight, 0.0, 1.0, (0.4,))
        assert got == want

    def test_outer_node_an_ulp_from_an_inner_edge(self):
        # some outer nodes on these panels round to within an ulp of -0.525,
        # which the inner panels must not be split at
        got = quadrature.nested_tanh_sinh(_neg_log_kernel, np.ones_like, -1.0, 0.0,
                                          (-0.55, -0.525, -0.5))
        assert got == pytest.approx(1.5 - math.log(2.0), abs=1e-9)

    def test_unconverged_inner_panel_raises(self):
        def kernel(s, t):
            return np.abs(t - 0.3) ** -0.5 + 0.0 * s

        with pytest.raises(ArithmeticError, match="did not converge"):
            quadrature.nested_tanh_sinh(kernel, np.ones_like, 0.0, 1.0)


class TestQuadBreakpoints:
    def test_converged_value(self):
        got = quadrature.quad_breakpoints(lambda x: abs(x) ** -0.5, -0.3, 0.7, (0.0,))
        assert got == pytest.approx(2 * (math.sqrt(0.3) + math.sqrt(0.7)), abs=1e-9)

    def test_unconverged_raises(self):
        with pytest.raises(ArithmeticError, match=r"QUADPACK did not converge on \[0\.0, 1\.0\]: "
                                                  r"The maximum number of subdivisions \(400\)"):
            quadrature.quad_breakpoints(lambda x: 1.0 / x, 0.0, 1.0)
