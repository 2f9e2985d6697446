"""Criteria 3, 5 and 6 by linearity: one basis field per time stands in
for every random state.

``validation._amplitudes`` reads a state's amplitudes from the field of the
basis state, the packed ``(1, i) / sqrt(2)`` on the line and the real
``(1, 0, 0, 0)`` with its inversion and mirror images on the lattice.
Check 3 compares the line's with the closed form, and checks 5 and 6 take
the moments of their masses (``validation._masses``) through the package's
moment functions.  These tests hold the line's amplitudes and moments and
the lattice's masses, read from all four basis fields, against states
stepped directly, pin the number and horizons of the trajectories checks 3
and 5 step, and plant defects that linearity must not hide; the line's
basis stays complex so that a step that conjugates is seen.
"""

import numpy as np
import pytest

from qwalk import closedform, validation, walk1d
from qwalk.walk1d import Distribution1D, QubitState, distribution_1d, moment_1d, trajectory_1d
from qwalk.walk2d import QuditState, distribution_2d, trajectory_2d

P_GRID = [0.25, 0.5, 0.75]


@pytest.mark.parametrize("p", P_GRID)
def test_check_3_fields_equal_directly_stepped_haar_states(p):
    rng = np.random.default_rng(300 + int(p * 100))
    t = 200
    basis = list(validation._basis_fields(1, p, tuple(range(t + 1))))
    for _ in range(3):
        th = QubitState.random(rng)
        c = validation._coefficients(th)
        for f, field in zip(basis, trajectory_1d(th, p, t), strict=True):
            # measured 4.7e-16 over p 0.25/0.5/0.75, three states each
            amps = validation._amplitudes(f, c)
            assert np.max(np.abs(amps - field.amps)) <= 2e-15, (p, field.t)


@pytest.mark.parametrize("p", P_GRID)
def test_check_5_forms_give_directly_stepped_moments(p):
    # the masses read by linearity give the moments of the stepped states
    rng = np.random.default_rng(500 + int(p * 100))
    ladder, orders = (1, 2, 125, 500, 1000), (1, 2, 3, 4)
    basis = list(validation._basis_fields(1, p, ladder))
    for _ in range(2):
        th = QubitState.random(rng)
        c = validation._coefficients(th)
        direct = [f for f in trajectory_1d(th, p, ladder[-1]) if f.t in ladder]
        for field, f in zip(direct, basis, strict=True):
            dist = Distribution1D(f.t, validation._masses(f, c))
            for alpha in orders:
                want = moment_1d(distribution_1d(field), alpha)
                # measured 4.4e-16 over p 0.25/0.5/0.75, two states each
                assert abs(moment_1d(dist, alpha) - want) <= 1e-14, (p, field.t, alpha)


@pytest.mark.parametrize("p", P_GRID)
def test_lattice_masses_equal_directly_stepped_distributions(p):
    rng = np.random.default_rng(700 + int(p * 100))
    ladder = (1, 7, 60)
    basis = list(validation._basis_fields(2, p, ladder))
    for _ in range(2):
        th = QuditState.random(rng)
        c = validation._coefficients(th)
        direct = [f for f in trajectory_2d(th, p, ladder[-1]) if f.t in ladder]
        for field, f in zip(direct, basis, strict=True):
            want = distribution_2d(field).grid
            # measured 2.2e-16 over p 0.25/0.5/0.75, two states each
            assert np.max(np.abs(validation._masses(f, c) - want)) <= 1e-15, (p, field.t)


@pytest.mark.parametrize(
    "check,quick,horizons",
    [
        (validation.check_closed_form, False, [200] * 5),
        (validation.check_closed_form, True, [50] * 2),
        (validation.check_limit_1d, False, [1000] * 3),
        (validation.check_limit_1d, True, [200] * 3),
    ],
)
def test_checks_3_and_5_step_one_basis_trajectory_per_p(monkeypatch, check, quick, horizons):
    seen = []

    def counted(theta, p, horizon, k=0.0):
        seen.append(horizon)
        return trajectory_1d(theta, p, horizon, k)

    monkeypatch.setattr(validation, "trajectory_1d", counted)
    passed, _ = check(quick=quick)
    assert passed
    assert seen == horizons


def test_check_3_fails_a_closed_form_that_reads_the_conjugate_of_d2(monkeypatch):
    as_qubit = closedform.as_qubit

    def conjugated(theta):
        th = as_qubit(theta)
        return QubitState(th.d1, th.d2.conjugate())

    monkeypatch.setattr(closedform, "as_qubit", conjugated)
    passed, details = validation.check_closed_form(quick=True)
    assert not passed
    assert details.startswith("max amplitude deviation = 1.538e+00 ")


def test_checks_3_and_5_fail_a_step_that_conjugates_from_the_second_step(monkeypatch):
    # conjugation commutes with the real coin and leaves every mass alone,
    # but it is not linear over the complex numbers: a basis field read by
    # linearity must see it
    step = walk1d.step_1d

    def conjugating(field, p, k=0.0):
        new = step(field, p, k)
        return new if new.t < 2 else type(new)(new.t, new.amps.conj())

    monkeypatch.setattr(walk1d, "step_1d", conjugating)
    for check in (validation.check_closed_form, validation.check_limit_1d):
        passed, details = check(quick=True)
        assert not passed, details


def test_check_3_fails_a_line_coin_built_from_a_perturbed_p(monkeypatch):
    # the step's coin cache is keyed by the coin function, so the stand-in
    # builds fresh coins and the true ones stay cached for later tests
    coin_1d = walk1d.coin_1d
    monkeypatch.setattr(walk1d, "coin_1d", lambda p: coin_1d(p * (1 + 1e-9)))
    passed, details = validation.check_closed_form()
    assert not passed
    assert details.startswith("max amplitude deviation = 2.328e-08 ")
