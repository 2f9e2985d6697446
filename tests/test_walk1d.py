"""Line-walk oracle: hand-checked small cases and conservation laws."""

import math

import numpy as np
import pytest

from qwalk.errors import InvalidParameterError, InvalidStateError
from qwalk.walk1d import (
    Distribution1D,
    QubitState,
    WaveField1D,
    distribution_1d,
    evolve_1d,
    init_1d,
    moment_1d,
    step_1d,
    trajectory_1d,
)
from qwalk.walk2d import (
    Distribution2D,
    QuditState,
    WaveField2D,
    distribution_2d,
    evolve_2d,
    joint_moment_2d,
    step_2d,
)

R = 1 / math.sqrt(2)

# expectation table for the unbiased coin started in (1, 0), t = 1..10
A_SERIES = (0.0, 0.0, 1 / 2, 1.0, 9 / 8, 5 / 4, 27 / 16, 17 / 8, 293 / 128, 157 / 64)


class TestQubitState:
    def test_accepts_normalized(self):
        QubitState(0.6, 0.8j)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidStateError):
            QubitState(1.0, 1.0)

    def test_random_is_normalized(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            th = QubitState.random(rng)
            assert abs(abs(th.d1) ** 2 + abs(th.d2) ** 2 - 1) <= 1e-12

    @pytest.mark.parametrize(
        "cls,comps",
        [(QubitState, (1e200, 0)), (QuditState, (1e200, 0, 0, 0)), (QubitState, (10**400, 0))],
    )
    def test_overflowing_norm_is_a_state_error(self, cls, comps):
        # a component or its squared modulus overflowed a Python float: a
        # bare OverflowError
        with pytest.raises(InvalidStateError, match="inf"):
            cls(*comps)

    @pytest.mark.parametrize("cls,rng", [(QubitState, 3), (QuditState, None)])
    def test_random_needs_a_generator(self, cls, rng):
        # rng.normal was read from whatever came in: a bare AttributeError
        with pytest.raises(InvalidParameterError, match="Generator"):
            cls.random(rng)

    def test_components_must_be_numbers(self):
        # strings were parsed by complex(), None raised TypeError, bools passed
        for bad in (("0.6", "0.8j"), (None, 1), (True, False)):
            with pytest.raises(InvalidStateError):
                QubitState(*bad)
        for bad in ("10", "ab"):
            with pytest.raises(InvalidStateError):
                evolve_1d(bad, 0.5, 3)
        th = QubitState(np.float64(0.6), np.complex128(0.8j))
        assert th.as_array().tolist() == [0.6, 0.8j]


class TestInit:
    def test_point_mass_at_origin(self):
        f = init_1d(QubitState(1.0, 0.0))
        assert f.t == 0
        assert f.amplitude(0) == (1.0, 0.0)
        assert f.total_probability() == pytest.approx(1.0, abs=1e-15)

    def test_complex_components_kept(self):
        f = init_1d(QubitState(R, R * 1j))
        a1, a2 = f.amplitude(0)
        assert a1 == pytest.approx(R, abs=1e-12)
        assert a2 == pytest.approx(R * 1j, abs=1e-12)

    def test_origin_probability_one(self):
        f = init_1d(QubitState(0.6, 0.8j))
        assert distribution_1d(f).mass(0) == pytest.approx(1.0, abs=1e-15)


class TestStep:
    def test_single_step_unbiased(self):
        f = step_1d(init_1d(QubitState(1.0, 0.0)), 0.5)
        assert f.amplitude(1)[0] == pytest.approx(R, abs=1e-15)
        assert f.amplitude(-1)[1] == pytest.approx(R, abs=1e-15)
        d = distribution_1d(f)
        assert d.mass(1) == pytest.approx(0.5, abs=1e-15)
        assert d.mass(-1) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("p", [0.1, 0.37, 0.9])
    def test_single_step_generic_bias(self, p):
        d = distribution_1d(step_1d(init_1d(QubitState(1.0, 0.0)), p))
        assert d.mass(1) == pytest.approx(p, abs=1e-15)
        assert d.mass(-1) == pytest.approx(1 - p, abs=1e-15)

    def test_phase_cancels_in_distribution(self):
        th = QubitState(0.6, 0.8j)
        for t in range(1, 8):
            d0 = distribution_1d(evolve_1d(th, 0.3, t, k=0.0))
            d1 = distribution_1d(evolve_1d(th, 0.3, t, k=math.pi / 3))
            assert np.max(np.abs(d0.masses - d1.masses)) <= 1e-14


class TestEvolve:
    def test_two_steps(self):
        d = distribution_1d(evolve_1d(QubitState(1.0, 0.0), 0.5, 2))
        assert d.mass(2) == pytest.approx(0.25, abs=1e-14)
        assert d.mass(0) == pytest.approx(0.5, abs=1e-14)
        assert d.mass(-2) == pytest.approx(0.25, abs=1e-14)

    def test_three_steps(self):
        d = distribution_1d(evolve_1d(QubitState(1.0, 0.0), 0.5, 3))
        expected = {3: 1 / 8, 1: 5 / 8, -1: 1 / 8, -3: 1 / 8}
        for x, m in expected.items():
            assert d.mass(x) == pytest.approx(m, abs=1e-14)

    def test_zero_steps_is_init(self):
        th = QubitState(0.6, 0.8j)
        f = evolve_1d(th, 0.25, 0)
        assert f.t == 0 and f.amplitude(0) == (th.d1, th.d2)

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidParameterError):
            evolve_1d(QubitState(1.0, 0.0), 0.5, -1)

    def test_norm_conserved_long_run(self):
        rng = np.random.default_rng(5)
        for p in (0.25, 0.5, 0.75):
            th = QubitState.random(rng)
            f = evolve_1d(th, p, 1000)
            assert abs(f.total_probability() - 1.0) <= 1e-12

    def test_support_and_parity(self):
        f = evolve_1d(QubitState(0.6, 0.8j), 0.4, 9)
        for x, _ in f.items():
            assert abs(x) <= 9 and (x - 9) % 2 == 0


class TestDistributionAndMoments:
    def test_quarter_bias_single_step(self):
        d = distribution_1d(evolve_1d(QubitState(1.0, 0.0), 0.25, 1))
        assert dict(d.items()) == pytest.approx({1: 0.25, -1: 0.75}, abs=1e-15)

    def test_masses_sum_to_one(self):
        d = distribution_1d(evolve_1d(QubitState(1.0, 0.0), 0.5, 3))
        assert d.total() == pytest.approx(1.0, abs=1e-15)

    def test_zeroth_moment_is_one(self):
        d = distribution_1d(evolve_1d(QubitState(0.6, 0.8j), 0.3, 7))
        assert moment_1d(d, 0) == 1.0

    def test_first_moment_three_steps(self):
        d = distribution_1d(evolve_1d(QubitState(1.0, 0.0), 0.5, 3))
        assert moment_1d(d, 1) == pytest.approx(1 / 6, abs=1e-14)

    def test_first_moment_balanced_real_state(self):
        d = distribution_1d(evolve_1d(QubitState(R, R), 0.5, 1))
        assert moment_1d(d, 1) == pytest.approx(1.0, abs=1e-14)

    def test_time_zero_moments(self):
        d = distribution_1d(init_1d(QubitState(1.0, 0.0)))
        assert moment_1d(d, 0) == 1.0
        assert moment_1d(d, 1) == 0.0
        assert moment_1d(d, 2) == 0.0


# the lattice's lookups share the line's site check, so both are pinned here
_FIELD_1D = evolve_1d(QubitState(1.0, 0.0), 0.5, 3)
_DIST_1D = distribution_1d(_FIELD_1D)
_DIST_2D = distribution_2d(evolve_2d(QuditState(1, 0, 0, 0), 0.5, 3))


@pytest.mark.parametrize(
    "lookup",
    [
        lambda: _DIST_1D.mass(1.5),
        lambda: _DIST_1D.mass(True),
        lambda: _DIST_1D.mass(1.0),
        lambda: _DIST_1D.mass("1"),
        lambda: _DIST_1D.mass(1, 0),
        lambda: _FIELD_1D.amplitude(1.0),
        lambda: _DIST_2D.mass(1.0, 0),
        lambda: _DIST_2D.mass(1),
    ],
    ids=[
        "fraction",
        "bool",
        "integral_float",
        "string",
        "two_coordinates",
        "amplitude_float",
        "lattice_float",
        "lattice_one_coordinate",
    ],
)
def test_site_lookup_rejects_a_malformed_site(lookup):
    with pytest.raises(InvalidParameterError, match="site"):
        lookup()


@pytest.mark.parametrize(
    "call",
    [
        lambda: step_1d(evolve_2d(QuditState(1, 0, 0, 0), 0.5, 2), 0.5),
        lambda: step_1d("x", 0.5),
        lambda: step_2d(_FIELD_1D, 0.5),
        lambda: distribution_1d(evolve_2d(QuditState(1, 0, 0, 0), 0.5, 2)),
        lambda: distribution_2d(_FIELD_1D),
        lambda: moment_1d(_DIST_2D, 1),
        lambda: joint_moment_2d(_DIST_1D, 1, 0),
    ],
    ids=[
        "step_1d_lattice_field",
        "step_1d_string",
        "step_2d_line_field",
        "distribution_1d_lattice_field",
        "distribution_2d_line_field",
        "moment_1d_lattice_distribution",
        "joint_moment_2d_line_distribution",
    ],
)
def test_rejects_a_field_or_distribution_of_the_other_lattice(call):
    with pytest.raises(InvalidParameterError, match="need a"):
        call()


def test_site_lookup_accepts_numpy_integers():
    assert _DIST_1D.mass(np.int64(1)) == _DIST_1D.mass(1) == pytest.approx(5 / 8)
    assert _FIELD_1D.amplitude(np.int32(-1)) == _FIELD_1D.amplitude(-1)
    assert _DIST_2D.mass(np.int64(1), np.int64(0)) == _DIST_2D.mass(1, 0) > 0
    assert _DIST_1D.mass(2) == _DIST_2D.mass(3, 1) == 0.0


def test_orientation_anchor_expectation_series():
    # (1, 0) at p = 1/2 drifts in +x with the documented coefficient series
    th = QubitState(1.0, 0.0)
    f = init_1d(th)
    for t, expected in enumerate(A_SERIES, start=1):
        f = step_1d(f, 0.5)
        mean = distribution_1d(f).mean_position()
        assert mean == pytest.approx(expected, abs=1e-12), f"t={t}"


class TestTrajectory:
    def test_fields_equal_stepping_and_evolve_bit_for_bit(self):
        th = QubitState(0.6, 0.8j)
        fields = list(trajectory_1d(th, 0.3, 25, k=0.4))
        assert [f.t for f in fields] == list(range(26))
        ref = init_1d(th)
        for f in fields:
            for other in (ref, evolve_1d(th, 0.3, f.t, k=0.4)):
                assert f.phi1.tobytes() == other.phi1.tobytes()
                assert f.phi2.tobytes() == other.phi2.tobytes()
            ref = step_1d(ref, 0.3, k=0.4)

    @pytest.mark.parametrize("bad", [2.7, 3.0, True, -1, "3"])
    def test_rejects_non_integral_or_bool_horizon(self, bad):
        with pytest.raises(InvalidParameterError):
            evolve_1d(QubitState(1.0, 0.0), 0.5, bad)

    def test_accepts_numpy_integer_horizon(self):
        assert evolve_1d(QubitState(1.0, 0.0), 0.5, np.int64(5)).t == 5

    def test_inputs_checked_before_first_field(self):
        with pytest.raises(InvalidParameterError):
            trajectory_1d(QubitState(1.0, 0.0), 0.5, 4, k=float("nan"))
        with pytest.raises(InvalidParameterError):
            trajectory_1d(QubitState(1.0, 0.0), 1.5, 4)

    @pytest.mark.parametrize("k", [float("nan"), float("inf"), 1j, "0.1"])
    def test_rejects_non_finite_or_non_real_phase(self, k):
        with pytest.raises(InvalidParameterError):
            evolve_1d(QubitState(1.0, 0.0), 0.5, 3, k)

    def test_moment_order_must_be_integral(self):
        d = distribution_1d(evolve_1d(QubitState(1.0, 0.0), 0.5, 3))
        with pytest.raises(InvalidParameterError):
            moment_1d(d, 1.5)


class TestDirectConstruction:
    """Fields and distributions built directly take an integer ``t >= 0``, a
    block of the support's shape and finite entries, or raise
    ``InvalidParameterError``, and a finite total probability, or raise
    ``InvalidStateError``; stepping and ``distribution_*`` build them
    through the same contract."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: WaveField1D(-1, np.zeros((2, 0))),
            lambda: WaveField1D(True, np.zeros((2, 2))),
            lambda: WaveField1D(1.0, np.zeros((2, 2))),
            lambda: WaveField1D(1, [[float("nan"), 0], [0, 0]]),
            lambda: WaveField1D(1, np.array([[0, 0], [complex("inf"), 0]])),
            lambda: WaveField1D(1, np.zeros((2, 3))),
            lambda: WaveField1D(1, [["a", 0], [0, 0]]),
            lambda: WaveField2D(-1, np.zeros((4, 0, 0))),
            lambda: WaveField2D(1, np.full((4, 2, 2), np.nan)),
            lambda: WaveField2D(1, np.zeros((2, 2))),
            lambda: Distribution1D(2, np.array([0.1, 0.2])),
            lambda: Distribution1D(-1, np.zeros(0)),
            lambda: Distribution1D(np.True_, np.zeros(2)),
            lambda: Distribution1D(1, np.array([np.inf, 0.0])),
            lambda: Distribution2D(1, np.zeros(4)),
            lambda: Distribution2D(0, np.array([[np.nan]])),
            lambda: Distribution1D(1, np.array([0.5 + 2j, -0.5])),
            lambda: Distribution1D(1, np.array([0.5 + 0j, 0.5 + 1e-300j])),
            lambda: Distribution1D(1, [1.5, -0.5]),
            lambda: Distribution2D(1, np.array([[1.0, 0.5], [-0.5, 0.0]])),
        ],
        ids=[
            "field_negative_t",
            "field_bool_t",
            "field_float_t",
            "field_nan",
            "field_inf",
            "field_shape",
            "field_string",
            "lattice_negative_t",
            "lattice_nan",
            "lattice_shape",
            "dist_short",
            "dist_negative_t",
            "dist_bool_t",
            "dist_inf",
            "lattice_dist_shape",
            "lattice_dist_nan",
            "dist_complex",
            "dist_tiny_imaginary",
            "dist_negative",
            "lattice_dist_negative",
        ],
    )
    def test_rejects(self, build):
        with pytest.raises(InvalidParameterError):
            build()

    def test_accepts_a_valid_block_and_numpy_time(self):
        f = WaveField1D(np.int64(1), [[0.6, 0], [0, 0.8j]])
        assert (f.t, type(f.t)) == (1, int)
        assert f.total_probability() == pytest.approx(1.0, abs=1e-15)
        d = Distribution1D(2, [0.25, 0.5, 0.25])
        assert d.mass(2) == 0.25 and d.total() == 1.0
        assert Distribution2D(1, np.eye(2)).mass(1, 0) == 1.0
        assert not f.amps.flags.writeable and not d.masses.flags.writeable
        # masses given as complex numbers with zero imaginary parts are real
        assert Distribution1D(1, np.array([0.5 + 0j, 0.5])).total() == 1.0

    @pytest.mark.parametrize(
        "build, shape, dtype, name",
        [
            (WaveField1D, (2, 2), complex, "amps"),
            (WaveField2D, (4, 2, 2), complex, "amps"),
            (Distribution1D, (2,), float, "masses"),
            (Distribution2D, (2, 2), float, "grid"),
        ],
    )
    def test_copies_the_callers_array(self, build, shape, dtype, name):
        # the caller's array stays writeable, and writing it leaves the
        # object unchanged
        a = np.zeros(shape, dtype=dtype)
        block = getattr(build(1, a), name)
        assert not np.shares_memory(block, a)
        assert a.flags.writeable and not block.flags.writeable
        a[(0,) * a.ndim] = 1.0
        assert not block.any()
        assert not block.any()

    def test_a_field_whose_mass_overflows_is_rejected(self):
        # built, its distribution had mass inf at the origin
        with pytest.raises(InvalidStateError, match="total probability"):
            WaveField1D(0, np.array([[1e200], [0]], complex))

    def test_a_field_whose_moments_would_overflow_is_rejected(self):
        # built, moment_1d of its distribution returned -inf
        with pytest.raises(InvalidStateError, match="total probability"):
            WaveField1D(2, [[1e200, 0, 1], [0, 0, 0]])

    def test_a_line_field_whose_step_would_overflow_is_rejected(self):
        # built, step_1d returned an inf amplitude through the trusted path
        with pytest.raises(InvalidStateError, match="total probability"):
            WaveField1D(0, [[1.7e308], [1.7e308]])

    def test_a_lattice_field_whose_step_would_overflow_is_rejected(self):
        # built, step_2d returned non-finite amplitudes
        with pytest.raises(InvalidStateError, match="total probability"):
            WaveField2D(0, np.full((4, 1, 1), 1e308))

    def test_masses_whose_total_overflows_are_rejected(self):
        with pytest.raises(InvalidStateError, match="total probability"):
            Distribution1D(1, [1.7e308, 1.7e308])
        with pytest.raises(InvalidStateError, match="total probability"):
            Distribution2D(1, np.full((2, 2), 1e308))

    @pytest.mark.parametrize(
        "field, step",
        [
            (lambda: WaveField1D(0, [[9e153], [9e153]]), step_1d),
            (lambda: WaveField2D(0, np.full((4, 1, 1), 6e153)), step_2d),
        ],
        ids=["line", "lattice"],
    )
    def test_a_finite_total_bounds_every_step(self, field, step):
        # the total is within a factor 1.25 of the largest float, and every
        # amplitude of every later field is bounded by its square root
        f = field()
        total = f.total_probability()
        for _ in range(3):
            f = step(f, 0.5)
            assert np.isfinite(f.amps).all()
            assert np.abs(f.amps).max() <= math.sqrt(total) * (1 + 1e-15)
            assert f.total_probability() == pytest.approx(total, rel=1e-15)

    def test_step_keeps_the_contract(self):
        f = step_1d(WaveField1D(0, np.array([[1.0], [0.0]])), 0.5)
        assert f.t == 1 and distribution_1d(f).total() == pytest.approx(1.0, abs=1e-15)
