import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ytensor import rsk

TOOL = Path(__file__).resolve().parents[1] / "tools" / "draw_costs.py"
_spec = importlib.util.spec_from_file_location("draw_costs", TOOL)
draw_costs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(draw_costs)


@pytest.mark.parametrize("N", [2**31 + 11, 2**40 + 3])
def test_measure_times_warm_draws_and_takes_one_peak(monkeypatch, N):
    draw, buffers = rsk._draw_letters, []

    def spy(seed, trials, n, N, out):
        buffers.append((trials.tolist(), out.shape, out.dtype))
        draw(seed, trials, n, N, out)

    monkeypatch.setattr(rsk, "_draw_letters", spy)
    seconds, peak = draw_costs.measure(0, range(5), 6, N)
    assert seconds > 0 and peak > 0
    dtype = np.min_scalar_type(N)
    assert buffers == [([0, 1, 2, 3, 4], (5, 6), dtype)] * (draw_costs.CALLS + 2)
