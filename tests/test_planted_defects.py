"""Planted defects against verify-all: each defect is patched into the names the
production routes and oracles read, and the report must fail exactly the
checks that can see it."""

import numpy as np
import pytest

import ytensor
from ytensor import checks, exact, functionals, harness, rsk, shape

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


def _scaled_pole_term(monkeypatch):
    pole_term = functionals._pole_term
    for module in (functionals, checks):
        monkeypatch.setattr(module, "_pole_term", lambda c: pole_term(c) * (1 + 1e-7))


def _shifted_lemma_F3(delta):
    def plant(monkeypatch):
        lemma_F3_closed = functionals._lemma_F3_closed
        for module in (functionals, checks):
            monkeypatch.setattr(module, "_lemma_F3_closed",
                                lambda c, x: lemma_F3_closed(c, x) + delta)
    return plant


def _scaled_m_closed_branch(monkeypatch):
    m_series = functionals.m_series

    def planted(x):
        closed = 1.0 < abs(x) < functionals._M_CLOSED_CUTOFF
        return m_series(x) * (1 + 1e-8) if closed else m_series(x)

    for module in (functionals, ytensor):
        monkeypatch.setattr(module, "m_series", planted)


def _flipped_h_term(monkeypatch):
    h_term = functionals.h_term
    for module in (functionals, ytensor):
        monkeypatch.setattr(module, "h_term", lambda prof, c: -h_term(prof, c))


def _first_hook_plus_one(monkeypatch):
    hook_lengths = exact.hook_lengths

    def planted(lam):
        hooks = hook_lengths(lam)
        return [hooks[0] + 1, *hooks[1:]] if hooks else hooks

    for module in (exact, functionals):
        monkeypatch.setattr(module, "hook_lengths", planted)


def _cell_moved_up(monkeypatch):
    # one cell from row 1 to row 0 in every 20th word, where the rows stay a partition
    row_lengths = rsk._row_lengths

    def planted(words):
        lengths = row_lengths(words).copy()
        if lengths.shape[1] > 1:
            below = lengths[:, 2] if lengths.shape[1] > 2 else 0
            hit = (np.arange(len(lengths)) % 20 == 0) & (lengths[:, 1] > below)
            lengths[hit, 0] += 1
            lengths[hit, 1] -= 1
        return lengths

    monkeypatch.setattr(rsk, "_row_lengths", planted)


CAUGHT = [
    pytest.param(None, set(), id="none"),
    pytest.param(_bumped_shape, {"lemma_A", "lemma_I", "lemma_intIOmega", "minimizer_gap",
                                 "sobolev_routes"}, id="odd_bump_on_the_bulk"),
    pytest.param(_scaled_lemma_A, {"minimizer_gap", "sobolev_routes", "variational_identity"},
                 id="lemma_A_closed_scaled"),
    pytest.param(_scaled_pole_term, {"lemma_intIOmega"}, id="pole_term_scaled"),
    pytest.param(_shifted_lemma_F3(1e-6), {"lemma_F3", "sobolev_routes", "variational_identity"},
                 id="lemma_F3_closed_shifted_1e-6"),
    pytest.param(_scaled_m_closed_branch, {"power_series_identity"}, id="m_closed_branch_scaled"),
    pytest.param(_flipped_h_term, {"penalty_nonnegative", "penalty_nonvacuous"},
                 id="h_term_sign_flipped"),
]
# Defects verify-all does not see; their empty sets are pinned so that a
# check which comes to see one must update this list.
UNCAUGHT = [
    pytest.param(_shifted_lemma_F3(1e-9), set(), id="uncaught_lemma_F3_closed_shifted_1e-9"),
    # verify-all's one chi-square check, at (4, 2), runs on the word table,
    # and of its 16 words the defect hits only word 0, (4,), which has no row 1
    pytest.param(_cell_moved_up, set(), id="uncaught_row_lengths_cell_moved_up"),
]


@pytest.mark.parametrize("plant, failing", CAUGHT + UNCAUGHT)
def test_verify_all_fails_exactly_the_checks_that_see_the_defect(monkeypatch, plant, failing):
    if plant:
        plant(monkeypatch)
    assert _failing(harness.cmd_verify_all()) == failing


def test_a_hook_length_off_by_one_stops_verify_all(monkeypatch):
    # n! over the planted hook product is no integer, and sum_rules, the first
    # family, divides exactly
    _first_hook_plus_one(monkeypatch)
    with pytest.raises(ArithmeticError, match="quotient is not integral") as raised:
        harness.cmd_verify_all()
    assert "sum_rules" in {entry.name for entry in raised.traceback}


def test_the_bump_is_odd_with_the_planted_derivative():
    # odd about c/2, so of zero area, and _bump_prime is its derivative
    s = np.linspace(-0.6, 0.6, 1201)
    assert np.array_equal(_bump(0.0, s), -_bump(0.0, -s)) and _bump(0.0, s).any()
    h = 1e-6
    fd = (_bump(2.0, 1.0 + s + h) - _bump(2.0, 1.0 + s - h)) / (2 * h)
    assert np.allclose(_bump_prime(2.0, 1.0 + s), fd, rtol=0, atol=1e-9)


def test_the_moved_cell_changes_kernel_shapes_into_partitions(monkeypatch):
    words = np.random.default_rng(3).integers(1, 4, size=(200, 8))
    clean = rsk._row_lengths(words)
    _cell_moved_up(monkeypatch)
    moved = rsk._row_lengths(words)
    changed = np.flatnonzero((moved != clean).any(axis=1))
    assert changed.size and not (changed % 20).any()
    assert (np.diff(moved, axis=1) <= 0).all() and (moved.sum(axis=1) == 8).all()
