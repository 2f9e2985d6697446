"""The propagator: one basis trajectory per lattice and ``p`` stands in for
every state.

``basis_fields_1d``/``basis_fields_2d`` read the evolved chirality basis
from one stepped field per time, the packed ``(1, i) / sqrt(2)`` on the
line and the real ``e_1`` with its inversion and mirror images on the
lattice (``e_1`` and ``e_2`` with their mirror images under ``step_e2``).
These tests hold its masses, amplitude matrices and fields to states
stepped directly by ``trajectory_*`` and ``evolve_*`` (the oracle); hold
the batch bodies ``symmetric_states`` and ``time_averaged_probabilities``
to the one-state forms and to the per-state computations they replaced;
check that the lattice's symmetry verdicts do not assume the inversion
they judge; and pin the input checks.
"""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk import walk2d
from qwalk.coin import EXCHANGE_XY, coin_2d
from qwalk.errors import InvalidParameterError
from qwalk.localization import (
    time_averaged_probabilities,
    time_averaged_probability_1d,
    time_averaged_probability_2d,
)
from qwalk.symmetry import empirical_symmetric_1d, empirical_symmetric_2d, symmetric_states
from qwalk.walk1d import (
    QubitState,
    basis_fields_1d,
    distribution_1d,
    evolve_1d,
    trajectory_1d,
)
from qwalk.walk2d import (
    QuditState,
    basis_fields_2d,
    distribution_2d,
    evolve_2d,
    trajectory_2d,
)

LATTICES = {
    1: (QubitState, basis_fields_1d, trajectory_1d, evolve_1d, distribution_1d),
    2: (QuditState, basis_fields_2d, trajectory_2d, evolve_2d, distribution_2d),
}
SITES = {1: [(0,), (1,), (-3,), (10,), (500,)], 2: [(0, 0), (1, 0), (-2, 1), (3, -4), (0, 99)]}


def _grid(dist) -> np.ndarray:
    return dist.masses if hasattr(dist, "masses") else dist.grid


@pytest.mark.parametrize("dim,horizon", [(1, 256), (2, 128)])
@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_masses_and_amplitudes_equal_directly_stepped_haar_states(dim, horizon, p):
    cls, basis_fields, trajectory, _, distribution = LATTICES[dim]
    rng = np.random.default_rng(dim * 1000 + int(100 * p))
    states = [cls.random(rng) for _ in range(3)]
    theta = np.array([s.as_array() for s in states])
    directs = [trajectory(s, p, horizon) for s in states]
    for basis, fields in zip(basis_fields(p, range(horizon + 1)), zip(*directs), strict=True):
        masses = basis.masses(states)
        assert masses.shape == (3,) + _grid(distribution(fields[0])).shape
        for row, amps, field in zip(masses, theta, fields):
            assert field.t == basis.t
            # measured at most 7.8e-16 on the line to t = 256 and 2.2e-16 on
            # the lattice to t = 128
            assert np.max(np.abs(row - _grid(distribution(field)))) <= 2e-15, basis.t
            for site in SITES[dim]:
                # measured at most 3.4e-16 on the line, 1.1e-16 on the lattice
                direct = np.array(field.amplitude(*site))
                assert np.max(np.abs(amps @ basis.amplitude(*site) - direct)) <= 1e-15, site


@pytest.mark.parametrize("p", [0.3, 0.7])
def test_a_stepped_e2_field_equals_its_inversion_image(p):
    # step_e2 steps e_2 beside e_1; the default reads e_2 as e_1's inversion
    # image: the two bases agree within rounding
    rng = np.random.default_rng(int(10 * p))
    states = [QuditState.random(rng) for _ in range(3)]
    times = (1, 2, 17, 40)
    pairs = zip(basis_fields_2d(p, times), basis_fields_2d(p, times, step_e2=True), strict=True)
    for imaged, stepped in pairs:
        assert imaged.t == stepped.t
        assert np.max(np.abs(imaged.masses(states) - stepped.masses(states))) <= 1e-15
        assert np.max(np.abs(imaged.gram() - stepped.gram())) <= 1e-14
        for theta in states:
            assert np.max(np.abs(imaged.field(theta).amps - stepped.field(theta).amps)) <= 1e-15


def _mirror_only(p: float) -> np.ndarray:
    """A unitary lattice coin that keeps the mirror's ``A H A^T = -H`` and
    breaks the inversion's ``E H E^T = -H``: the coin plus a fixed matrix
    that anticommutes with ``A``, made unitary by its polar factor, which
    keeps the anticommutation."""
    k = np.arange(16.0).reshape(4, 4) / 16
    u, _, vt = np.linalg.svd(coin_2d(p) + (k - EXCHANGE_XY @ k @ EXCHANGE_XY.T) / 2)
    return u @ vt


def test_lattice_symmetry_verdicts_do_not_assume_the_inversion(monkeypatch):
    # under a coin that keeps the mirror and breaks the inversion, a
    # balanced state's masses are asymmetric (measured 0.35 by t = 6).  The
    # verdict read from the propagator says so, as the state's own
    # trajectory does; the default basis, which reads e_2 as e_1's inversion
    # image, gives symmetric masses (measured 2.8e-17) whatever the step did
    monkeypatch.setattr(walk2d, "coin_2d", _mirror_only)
    balanced = QuditState(0.5, 0.5j, 0.5j, -0.5)

    def asymmetry(grids):
        return max(np.max(np.abs(g - np.flip(g))) for g in grids)

    assert asymmetry(distribution_2d(f).grid for f in trajectory_2d(balanced, 0.5, 6)) > 0.1
    imaged = basis_fields_2d(0.5, tuple(range(7)))
    assert asymmetry(b.masses([balanced])[0] for b in imaged) <= 1e-12
    assert symmetric_states([balanced], 0.5, 6) == (False,)
    assert empirical_symmetric_2d(balanced, 0.5, 6) is False


@pytest.mark.parametrize("dim", [1, 2])
def test_a_batch_of_one_gives_the_bits_of_any_larger_batch(dim):
    cls, basis_fields, _, _, _ = LATTICES[dim]
    rng = np.random.default_rng(5 + dim)
    states = [cls.random(rng) for _ in range(7)]
    for basis in basis_fields(0.4, (20, 120)):
        batch = basis.masses(states)
        for row, state in zip(batch, states):
            assert row.tobytes() == basis.masses([state])[0].tobytes()
        batch = basis.amplitudes(states)
        for row, state in zip(batch, states):
            assert row.tobytes() == basis.amplitudes([state])[0].tobytes()


@pytest.mark.parametrize(
    "dim,step_e2", [(1, None), (2, False), (2, True)], ids=["line", "lattice", "lattice_e2"]
)
def test_each_amplitude_row_is_the_one_state_field_bit_for_bit(dim, step_e2):
    cls, basis_fields, _, evolve, _ = LATTICES[dim]
    rng = np.random.default_rng(11 + dim)
    states = [cls.random(rng) for _ in range(5)] + [cls(*e) for e in np.eye(2 * dim)]
    flags = {} if step_e2 is None else {"step_e2": step_e2}
    for basis in basis_fields(0.4, (0, 1, 20, 77), **flags):
        batch = basis.amplitudes(states)
        assert batch.shape == (len(states), 2 * dim) + (basis.t + 1,) * dim
        for row, state in zip(batch, states):
            assert row.tobytes() == basis.field(state).amps.tobytes()
            # measured at most 2.5e-16 on the line, 1.3e-16 on the lattice
            assert np.max(np.abs(row - evolve(state, 0.4, basis.t).amps)) <= 2e-15


@pytest.mark.parametrize("dim", [1, 2])
def test_the_batch_bodies_give_the_one_state_answers_bit_for_bit(dim):
    # each state's answer is its own: a batch of three gives, row by row, the
    # bits of three batches of one, which are the one-state calls
    cls = LATTICES[dim][0]
    symmetric = (empirical_symmetric_1d, empirical_symmetric_2d)[dim - 1]
    averaged = (time_averaged_probability_1d, time_averaged_probability_2d)[dim - 1]
    site = SITES[dim][1] if dim == 2 else SITES[dim][1][0]
    rng = np.random.default_rng(17 + dim)
    balanced = reduce(np.kron, [np.array([1, 1j])] * dim) / np.sqrt(2) ** dim
    states = [cls(*balanced), cls(*np.eye(2 * dim)[0]), cls.random(rng)]
    for p in (0.25, 0.6):
        assert symmetric_states(states, p, 12) == tuple(symmetric(s, p, 12) for s in states)
        assert symmetric_states(states, p, 12) == (True, False, False)
        estimates = time_averaged_probabilities(states, p, site, (8, 16, 32))
        for estimate, state in zip(estimates, states):
            assert estimate == averaged(state, p, site, (8, 16, 32))
            assert (estimate.site, estimate.horizons) == (site, (8, 16, 32))


def _stepped_averages(theta, trajectory, p, site, ladder):
    """The Cesaro averages as the one-state estimator computed them, from
    the state's own trajectory."""
    acc, averages = 0.0, []
    for field in trajectory(theta, p, ladder[-1]):
        if field.t:
            acc += float(np.sum(np.abs(field.amplitude(*site)) ** 2))
        if field.t in ladder:
            averages.append(acc / field.t)
    return averages


@pytest.mark.parametrize("dim,ladder", [(1, (64, 128, 256)), (2, (16, 32, 64))])
def test_cesaro_averages_equal_those_of_stepped_states(dim, ladder):
    cls, _, trajectory, _, _ = LATTICES[dim]
    rng = np.random.default_rng(23 + dim)
    states = [cls(*np.eye(2 * dim)[0]), cls.random(rng), cls.random(rng)]
    for p in (0.25, 0.5, 0.75):
        for site in SITES[dim][:3]:
            where = site if dim == 2 else site[0]
            estimates = time_averaged_probabilities(states, p, where, ladder)
            for estimate, state in zip(estimates, states):
                want = _stepped_averages(state, trajectory, p, site, ladder)
                # measured at most 3.5e-17 on the line, 1.4e-17 on the lattice
                assert np.max(np.abs(np.subtract(estimate.averages, want))) <= 1e-16


@pytest.mark.parametrize("dim", [1, 2])
def test_symmetry_verdicts_equal_those_of_stepped_states(dim):
    # the verdict the one-state form read from each state's own trajectory
    cls, _, trajectory, _, distribution = LATTICES[dim]
    rng = np.random.default_rng(31 + dim)
    line = (np.array([1, 1j]), np.array([1, -1j]), np.array([1, 1]), np.array([1, 0]))
    patterns = [reduce(np.kron, [v] * dim) for v in line]
    states = [cls(*(v / np.linalg.norm(v))) for v in patterns] + [cls.random(rng)]
    for p in (0.25, 0.75):
        want = tuple(
            all(
                np.max(np.abs(_grid(distribution(f)) - np.flip(_grid(distribution(f))))) <= 1e-12
                for f in trajectory(s, p, 15)
            )
            for s in states
        )
        assert symmetric_states(states, p, 15) == want
        assert want[:2] == (True, True) and not any(want[2:])


def test_symmetric_states_stops_once_every_state_has_broken(monkeypatch):
    from qwalk import walk1d

    seen = []
    trajectory = walk1d.trajectory_1d

    def counted(theta, p, horizon, k=0.0):
        for field in trajectory(theta, p, horizon, k):
            seen.append(field.t)
            yield field

    monkeypatch.setattr(walk1d, "trajectory_1d", counted)
    # (0.6, 0.8) breaks at t = 1, and (1, 0) at t = 3
    assert symmetric_states([QubitState(1, 0), QubitState(0.6, 0.8)], 0.5, 10**4) == (False, False)
    assert seen == [0, 1, 2, 3]


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: symmetric_states([], 0.5, 5), "non-empty batch"),
        (lambda: symmetric_states(
            [QubitState(1, 0), QuditState(1, 0, 0, 0)], 0.5, 5), "one lattice"),
        (lambda: symmetric_states([(1, 0)], 0.5, 5), "QubitState"),
        (lambda: symmetric_states(QubitState(1, 0), 0.5, 5), "sequence of states"),
        (lambda: time_averaged_probabilities([], 0.5, 0, (8, 16)), "non-empty batch"),
        (lambda: time_averaged_probabilities(
            [QuditState(1, 0, 0, 0), QubitState(1, 0)], 0.5, 0, (8, 16)), "one lattice"),
        (lambda: next(basis_fields_1d(0.5, (3,))).masses([]), "at least one state"),
        (lambda: next(basis_fields_1d(0.5, (3,))).masses([QuditState(1, 0, 0, 0)]),
         "need a QubitState, got QuditState"),
        (lambda: next(basis_fields_2d(0.5, (3,))).masses([QubitState(1, 0)]),
         "need a QuditState, got QubitState"),
        (lambda: next(basis_fields_2d(0.5, (3,))).field(QubitState(1, 0)),
         "need a QuditState, got QubitState"),
        (lambda: next(basis_fields_2d(0.5, (3,))).amplitudes([QubitState(1, 0)]),
         "need a QuditState, got QubitState"),
        (lambda: next(basis_fields_1d(0.5, (3,))).amplitudes([]), "at least one state"),
        (lambda: next(basis_fields_1d(0.5, (3,))).masses(5), "sequence of states"),
        (lambda: basis_fields_1d(0.5, (4, 4)), "strictly increasing"),
        (lambda: basis_fields_1d(0.5, (5, 3)), "strictly increasing"),
        (lambda: basis_fields_2d(0.5, ()), "non-empty"),
        (lambda: basis_fields_2d(0.5, (-1, 3)), ">= 0"),
        (lambda: basis_fields_1d(0.5, (1.5,)), "integer"),
        (lambda: basis_fields_1d(0.5, 7), "ladder"),
        (lambda: basis_fields_1d(0.5, range(5, 3)), "non-empty"),
        (lambda: basis_fields_2d(0.5, (0, 2**28 + 1)), "<= 268435456"),
        (lambda: basis_fields_2d(0.5, (2**28 + 1,), step_e2=True), "<= 268435456"),
        # both were read by truthiness: "yes" stepped e_2 and 0 did not
        (lambda: basis_fields_2d(0.5, (3,), step_e2="yes"), "step_e2 must be True or False"),
        (lambda: basis_fields_2d(0.5, (3,), step_e2=0), "step_e2 must be True or False"),
        (lambda: basis_fields_1d(0.5, range(-1, 5)), ">= 0"),
        (lambda: basis_fields_1d(1.5, (3,)), "open interval"),
        (lambda: next(basis_fields_1d(0.5, (3,))).amplitude(0, 0), "1 integer coordinates"),
        (lambda: next(basis_fields_2d(0.5, (3,))).amplitude(0.5, 0), "integer"),
        (lambda: next(basis_fields_1d(0.5, (3,))).field((1, 0)), "need a QubitState, got tuple"),
    ],
)
def test_bad_input_raises_invalid_parameter_error(call, match):
    with pytest.raises(InvalidParameterError, match=match):
        call()


_PROBABILITY = st.floats(min_value=0.05, max_value=0.95)


@settings(max_examples=25, deadline=None)
@given(p=_PROBABILITY, t=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_the_line_propagator_equals_the_oracle(p, t, seed):
    theta = QubitState.random(np.random.default_rng(seed))
    (basis,) = basis_fields_1d(p, (t,))
    field = evolve_1d(theta, p, t)
    # measured at most 5.6e-16 (fields) and 6.7e-16 (masses) over these ranges
    assert np.max(np.abs(basis.field(theta).amps - field.amps)) <= 2e-15
    want = distribution_1d(field).masses
    assert np.max(np.abs(basis.masses([theta])[0] - want)) <= 2e-15
    assert abs(float(np.vdot(theta.as_array(), basis.gram() @ theta.as_array()).real) - 1) <= 1e-14


@settings(max_examples=15, deadline=None)
@given(p=_PROBABILITY, t=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_the_lattice_propagator_equals_the_oracle(p, t, seed):
    theta = QuditState.random(np.random.default_rng(seed))
    (basis,) = basis_fields_2d(p, (t,))
    field = evolve_2d(theta, p, t)
    # measured at most 2.2e-16 (fields) and 3.3e-16 (masses) over these ranges
    assert np.max(np.abs(basis.field(theta).amps - field.amps)) <= 1e-15
    want = distribution_2d(field).grid
    assert np.max(np.abs(basis.masses([theta])[0] - want)) <= 1e-15
    assert abs(float(np.vdot(theta.as_array(), basis.gram() @ theta.as_array()).real) - 1) <= 1e-14
