"""Criteria 3 and 5 by linearity: one basis trajectory per ``p`` stands in
for every random state.

Check 3 reads each line state's stepped field from the field of ``(1, i) /
sqrt(2)`` and check 5 each state's simulated moment from weighted 2x2 forms
of the same field (``validation._basis_forms``).  These tests hold both
contractions against states stepped directly, hold the same forms on the
lattice, read from one packed field, its mirror image and their cross
blocks, against
directly stepped joint moments, hold the forms of one evolved time against
a ladder's, pin the number and horizons of the trajectories the two checks
step, and plant defects that linearity must not hide.
"""

import numpy as np
import pytest

from qwalk import closedform, validation, walk1d
from qwalk.walk1d import QubitState, distribution_1d, moment_1d, trajectory_1d
from qwalk.walk2d import QuditState, distribution_2d, joint_moment_2d, trajectory_2d

P_GRID = [0.25, 0.5, 0.75]


@pytest.mark.parametrize("p", P_GRID)
def test_check_3_fields_equal_directly_stepped_haar_states(p):
    rng = np.random.default_rng(300 + int(p * 100))
    t = 200
    basis = [f.amps for f in validation._basis_fields(1, p, tuple(range(t + 1)))]
    for _ in range(3):
        th = QubitState.random(rng)
        direct = trajectory_1d(th, p, t)
        for amps, field in zip(validation._line_fields(basis, th), direct, strict=True):
            # measured 4.7e-16 over p 0.25/0.5/0.75, three states each
            assert np.max(np.abs(amps - field.amps)) <= 2e-15, (p, field.t)


@pytest.mark.parametrize("p", P_GRID)
def test_check_5_forms_give_directly_stepped_moments(p):
    rng = np.random.default_rng(500 + int(p * 100))
    ladder, orders = (1, 2, 125, 500, 1000), (1, 2, 3, 4)
    forms = validation._basis_forms(1, p, ladder, [(alpha,) for alpha in orders])
    for _ in range(2):
        th = QubitState.random(rng)
        a = th.as_array()
        direct = [f for f in trajectory_1d(th, p, ladder[-1]) if f.t in ladder]
        for field, row in zip(direct, forms, strict=True):
            for alpha, m in zip(orders, row, strict=True):
                want = moment_1d(distribution_1d(field), alpha)
                # measured 1.3e-15 over p 0.25/0.5/0.75, two states each
                assert abs(float(np.vdot(a, m @ a).real) - want) <= 1e-14, (p, field.t, alpha)


@pytest.mark.parametrize("p", P_GRID)
def test_lattice_forms_give_directly_stepped_joint_moments(p):
    rng = np.random.default_rng(700 + int(p * 100))
    ladder, orders = (1, 7, 60), ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0))
    forms = validation._basis_forms(2, p, ladder, orders)
    assert forms.shape == (len(ladder), len(orders), 4, 4)
    for _ in range(2):
        th = QuditState.random(rng)
        a = th.as_array()
        direct = [f for f in trajectory_2d(th, p, ladder[-1]) if f.t in ladder]
        for field, row in zip(direct, forms, strict=True):
            dist = distribution_2d(field)
            for order, m in zip(orders, row, strict=True):
                want = joint_moment_2d(dist, *order)
                # measured 2.9e-15 over p 0.25/0.5/0.75, two states each
                assert abs(float(np.vdot(a, m @ a).real) - want) <= 1e-14, (p, field.t, order)


@pytest.mark.parametrize("dim,orders", [(1, ((0,), (1,), (2,))), (2, ((0, 0), (1, 0), (1, 1)))])
def test_forms_at_one_time_equal_the_ladders_last_forms_bit_for_bit(dim, orders):
    # one time is evolved in reused blocks, a ladder read off trajectories
    single = validation._basis_forms(dim, 0.3, (40,), orders)
    ladder = validation._basis_forms(dim, 0.3, (5, 40), orders)
    assert single.tobytes() == ladder[-1:].tobytes()


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
