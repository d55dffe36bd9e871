"""Planted defects against verify-all: each defect is patched into the names the
production routes and oracles read, and the report must fail exactly the
checks that can see it."""

import numpy as np
import pytest

from ytensor import checks, functionals, harness, shape

BUMP = 1e-3


def _bump(c, s):
    """BUMP times z (1/4 - z^2)^2 for |z| < 1/2, z = s - c/2: odd, so of zero
    area, and inside the bulk [c/2 - 1, c/2 + 1]."""
    z = np.asarray(s, dtype=float) - 0.5 * c
    return np.where(np.abs(z) < 0.5, BUMP * z * (0.25 - z * z) ** 2, 0.0)


def _bump_prime(c, s):
    z = np.asarray(s, dtype=float) - 0.5 * c
    return np.where(np.abs(z) < 0.5, BUMP * (0.25 - z * z) * (0.25 - 5.0 * z * z), 0.0)


def _failing(report) -> set[str]:
    return {record["test"] for record in report["checks"] if not record["pass"]}


def _bumped_shape(monkeypatch):
    omega_c, omega_c_prime = shape.omega_c, shape.omega_c_prime
    for module in (shape, checks):
        monkeypatch.setattr(module, "omega_c", lambda c, s: omega_c(c, s) + _bump(c, s))
        monkeypatch.setattr(module, "omega_c_prime",
                            lambda c, s: omega_c_prime(c, s) + _bump_prime(c, s))


def _scaled_lemma_A(monkeypatch):
    lemma_A_closed = functionals._lemma_A_closed
    monkeypatch.setattr(functionals, "_lemma_A_closed", lambda c: lemma_A_closed(c) * (1 + 1e-4))


@pytest.mark.parametrize("plant, failing", [
    (None, set()),
    (_bumped_shape, {"lemma_A", "lemma_I", "lemma_intIOmega", "minimizer_gap", "sobolev_routes"}),
    (_scaled_lemma_A, {"minimizer_gap", "sobolev_routes", "variational_identity"}),
], ids=["none", "odd_bump_on_the_bulk", "lemma_A_closed_scaled"])
def test_verify_all_fails_exactly_the_checks_that_see_the_defect(monkeypatch, plant, failing):
    if plant:
        plant(monkeypatch)
    assert _failing(harness.cmd_verify_all()) == failing


def test_the_bump_is_odd_with_the_planted_derivative():
    # odd about c/2, so of zero area, and _bump_prime is its derivative
    s = np.linspace(-0.6, 0.6, 1201)
    assert np.array_equal(_bump(0.0, s), -_bump(0.0, -s)) and _bump(0.0, s).any()
    h = 1e-6
    fd = (_bump(2.0, 1.0 + s + h) - _bump(2.0, 1.0 + s - h)) / (2 * h)
    assert np.allclose(_bump_prime(2.0, 1.0 + s), fd, rtol=0, atol=1e-9)
