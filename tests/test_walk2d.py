"""Lattice-walk oracle: hand-checked single steps, conservation, geometry."""

import math

import numpy as np
import pytest

from qwalk.errors import InvalidParameterError, InvalidStateError
from qwalk.walk1d import QubitState, distribution_1d, evolve_1d, moment_1d
from qwalk.walk2d import (
    QuditState,
    distribution_2d,
    evolve_2d,
    init_2d,
    joint_moment_2d,
    step_2d,
    trajectory_2d,
)


class TestQuditState:
    def test_accepts_normalized(self):
        QuditState(0.5, 0.5j, 0.5j, -0.5)
        QuditState(0.6, 0.0, 0.8, 0.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidStateError):
            QuditState(1.0, 1.0, 0.0, 0.0)


class TestInit:
    def test_point_mass_at_origin(self):
        f = init_2d(QuditState(1, 0, 0, 0))
        assert f.amplitude(0, 0) == (1.0, 0.0, 0.0, 0.0)
        assert f.total_probability() == pytest.approx(1.0, abs=1e-15)

    def test_balanced_state_origin_probability(self):
        f = init_2d(QuditState(0.5, 0.5j, 0.5j, -0.5))
        assert distribution_2d(f).mass(0, 0) == pytest.approx(1.0, abs=1e-15)


class TestStep:
    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_single_step_component_one(self, p):
        q = 1 - p
        d = distribution_2d(step_2d(init_2d(QuditState(1, 0, 0, 0)), p))
        assert d.mass(1, 0) == pytest.approx(p * p, abs=1e-15)
        assert d.mass(-1, 0) == pytest.approx(p * q, abs=1e-15)
        assert d.mass(0, 1) == pytest.approx(p * q, abs=1e-15)
        assert d.mass(0, -1) == pytest.approx(q * q, abs=1e-15)
        assert d.total() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("p", [0.25, 0.6])
    def test_single_step_component_four(self, p):
        q = 1 - p
        d = distribution_2d(step_2d(init_2d(QuditState(0, 0, 0, 1)), p))
        assert d.mass(1, 0) == pytest.approx(q * q, abs=1e-15)
        assert d.mass(-1, 0) == pytest.approx(p * q, abs=1e-15)
        assert d.mass(0, 1) == pytest.approx(p * q, abs=1e-15)
        assert d.mass(0, -1) == pytest.approx(p * p, abs=1e-15)

    def test_phase_cancels_in_distribution(self):
        th = QuditState(0.5, 0.5j, 0.5j, -0.5)
        d0 = distribution_2d(evolve_2d(th, 0.3, 5, k=0.0))
        d1 = distribution_2d(evolve_2d(th, 0.3, 5, k=1.23))
        assert np.max(np.abs(d0.grid - d1.grid)) <= 1e-14


class TestEvolve:
    def test_zero_steps_is_init(self):
        th = QuditState(0.6, 0, 0.8, 0)
        f = evolve_2d(th, 0.5, 0)
        assert f.t == 0 and f.amplitude(0, 0) == (0.6, 0.0, 0.8, 0.0)

    def test_norm_after_two_steps(self):
        f = evolve_2d(QuditState(1, 0, 0, 0), 0.5, 2)
        assert abs(f.total_probability() - 1.0) <= 1e-14

    def test_light_cone(self):
        r = 1 / math.sqrt(2)
        f = evolve_2d(QuditState(r, 0, r, 0), 0.5, 50)
        for (x, y), _ in f.items():
            assert abs(x) + abs(y) <= 50
            assert (x + y - 50) % 2 == 0

    def test_norm_conserved_long_run(self):
        rng = np.random.default_rng(9)
        for p in (0.25, 0.5, 0.75):
            f = evolve_2d(QuditState.random(rng), p, 300)
            assert abs(f.total_probability() - 1.0) <= 1e-12


class TestDistributionAndMoments:
    def test_single_step_values(self):
        d = distribution_2d(evolve_2d(QuditState(1, 0, 0, 0), 0.3, 1))
        expected = {(1, 0): 0.09, (-1, 0): 0.21, (0, 1): 0.21, (0, -1): 0.49}
        for (x, y), m in expected.items():
            assert d.mass(x, y) == pytest.approx(m, abs=1e-14)

    def test_lexicographic_item_order(self):
        d = distribution_2d(evolve_2d(QuditState(1, 0, 0, 0), 0.3, 2))
        sites = [site for site, _ in d.items()]
        assert sites == sorted(sites)

    def test_trivial_joint_moment(self):
        d = distribution_2d(evolve_2d(QuditState(1, 0, 0, 0), 0.5, 3))
        assert joint_moment_2d(d, 0, 0) == 1.0

    def test_first_moments_vanish_unbiased_single_step(self):
        d = distribution_2d(evolve_2d(QuditState(1, 0, 0, 0), 0.5, 1))
        assert joint_moment_2d(d, 1, 0) == pytest.approx(0.0, abs=1e-15)
        assert joint_moment_2d(d, 0, 1) == pytest.approx(0.0, abs=1e-15)


def _whole_array_masses(amps):
    """The reference the blocked reduction must equal bit for bit."""
    return np.sum(np.abs(amps) ** 2, axis=0)


def _whole_array_moment(grids, values, t, orders):
    """The reference moment: every weight grid built whole, then multiplied."""
    weights = math.prod((g / t) ** a for g, a in zip(grids, orders))
    return float(np.sum(weights * values))


@pytest.mark.parametrize("t", [1, 30, 75, 200])
def test_blocked_reductions_equal_the_whole_array_formulas(t):
    # from t = 32 on the lattice masses and second moment factor run in more
    # than one block of rows (at t = 200, 29 blocks of 7 rows), and on the
    # line from t = 1024 on
    rng = np.random.default_rng(t)
    f2 = evolve_2d(QuditState.random(rng), 0.37, t, 0.4)
    f1 = evolve_1d(QubitState.random(rng), 0.37, 40 * t, 0.4)
    d2, d1 = distribution_2d(f2), distribution_1d(f1)
    assert d2.grid.tobytes() == _whole_array_masses(f2.amps).tobytes()
    assert d1.masses.tobytes() == _whole_array_masses(f1.amps).tobytes()
    i = np.arange(t + 1)
    grids = (i[:, None] + i[None, :] - t, i[:, None] - i[None, :])
    for a in range(4):
        for b in range(4):
            want = _whole_array_moment(grids, d2.grid, t, (a, b)) if a + b else 1.0
            assert joint_moment_2d(d2, a, b) == want, (a, b)
        want = _whole_array_moment((d1.sites(),), d1.masses, 40 * t, (a,)) if a else 1.0
        assert moment_1d(d1, a) == want, a


def test_rotated_marginals_do_not_reduce_to_line_walks():
    # The axial moves couple the two rotated coordinates through the coin:
    # even for a product initial state, the u = x + y marginal measurably
    # deviates from any single line walk of one tensor factor (and v = x - y
    # likewise).  This pins down a property of these dynamics so a future
    # refactor cannot silently assume a product structure.
    p, t = 0.3, 21
    a = np.array([0.6, 0.8j])
    b = np.array([1 / math.sqrt(2), 1j / math.sqrt(2)])
    theta = QuditState(*np.kron(a, b))
    grid = distribution_2d(evolve_2d(theta, p, t)).grid
    u_marginal = grid.sum(axis=1)  # index i: u = 2 i - t
    v_marginal = grid.sum(axis=0)

    line_b = distribution_1d(evolve_1d(QubitState(*b), p, t)).masses
    line_a = distribution_1d(evolve_1d(QubitState(*a), p, t)).masses
    assert np.max(np.abs(u_marginal - line_b)) > 1e-3
    assert np.max(np.abs(v_marginal - line_a)) > 1e-3
    # the marginals are still genuine distributions
    assert u_marginal.sum() == pytest.approx(1.0, abs=1e-12)
    assert v_marginal.sum() == pytest.approx(1.0, abs=1e-12)


class TestTrajectory:
    def test_fields_equal_stepping_and_evolve_bit_for_bit(self):
        th = QuditState(0.5, 0.5j, -0.5, 0.5j)
        fields = list(trajectory_2d(th, 0.3, 12, k=-0.8))
        assert [f.t for f in fields] == list(range(13))
        ref = init_2d(th)
        for f in fields:
            assert f.amps.tobytes() == ref.amps.tobytes()
            assert f.amps.tobytes() == evolve_2d(th, 0.3, f.t, k=-0.8).amps.tobytes()
            ref = step_2d(ref, 0.3, k=-0.8)

    @pytest.mark.parametrize("bad", [2.7, True, -1])
    def test_rejects_non_integral_or_bool_horizon(self, bad):
        with pytest.raises(InvalidParameterError):
            trajectory_2d(QuditState(1, 0, 0, 0), 0.5, bad)

    def test_rejects_non_finite_phase(self):
        with pytest.raises(InvalidParameterError):
            evolve_2d(QuditState(1, 0, 0, 0), 0.5, 3, float("nan"))
