import math

import numpy as np
import pytest

from ytensor import quadrature


class TestTanhSinh:
    def test_breakpoint_split_converges(self):
        # singular point at 0, where nodes do not round onto it
        got = quadrature.tanh_sinh(lambda x: np.abs(x) ** -0.5, -0.3, 0.7, (0.0,))
        assert got == pytest.approx(2 * (math.sqrt(0.3) + math.sqrt(0.7)), abs=1e-9)

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

    def test_unconverged_inner_panel_raises(self):
        def kernel(s, t):
            return np.abs(t - 0.3) ** -0.5 + 0.0 * s

        with pytest.raises(ArithmeticError, match="did not converge"):
            quadrature.nested_tanh_sinh(kernel, np.ones_like, 0.0, 1.0)
