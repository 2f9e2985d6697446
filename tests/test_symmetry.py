"""Symmetry classes, expectation tables, and exchange identities."""

import math

import numpy as np
import pytest

from qwalk.errors import InvalidParameterError, PreconditionError
from qwalk.spectral import limit_moment_1d
from qwalk.symmetry import (
    EXCHANGE_1D,
    EXCHANGE_2D,
    ABTable,
    classify_1d,
    empirical_symmetric_1d,
    empirical_symmetric_2d,
    expectation_series,
    extract_ab,
    in_phi_perp,
    in_phi_perp_2d,
    kns_check,
    reflection_identity_1d,
    reflection_identity_2d,
)
from qwalk.walk1d import QubitState
from qwalk.walk2d import QuditState, distribution_2d, evolve_2d, trajectory_2d

R = 1 / math.sqrt(2)

A_HALF = (0.0, 0.0, 1 / 2, 1.0, 9 / 8, 5 / 4, 27 / 16, 17 / 8, 293 / 128, 157 / 64)
B_HALF = (1.0, 1.0, 1.0, 3 / 2, 2.0, 17 / 8, 9 / 4, 43 / 16, 25 / 8, 421 / 128)


class TestExchangeConstants:
    def test_line_constant_squares_to_minus_identity(self):
        np.testing.assert_array_equal(EXCHANGE_1D @ EXCHANGE_1D, -np.eye(2))

    def test_block_constant_squares_to_minus_identity(self):
        np.testing.assert_array_equal(EXCHANGE_2D @ EXCHANGE_2D, -np.eye(4))


class TestPhiPerp1D:
    def test_balanced_imaginary_pair(self):
        assert in_phi_perp(QubitState(R, R * 1j))

    def test_right_mover_excluded(self):
        assert not in_phi_perp(QubitState(1.0, 0.0))

    def test_balanced_real_pair_excluded(self):
        assert not in_phi_perp(QubitState(R, R))

    def test_global_phase_irrelevant(self):
        ph = np.exp(0.77j)
        assert in_phi_perp(QubitState(ph * R, ph * R * -1j))


class TestEmpiricalSymmetry1D:
    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_balanced_states_symmetric(self, p):
        assert empirical_symmetric_1d(QubitState(R, R * 1j), p, 50)
        assert empirical_symmetric_1d(QubitState(R, R * -1j), p, 50)

    def test_right_mover_breaks_by_three(self):
        assert not empirical_symmetric_1d(QubitState(1.0, 0.0), 0.5, 5)

    def test_classify_bundle(self):
        v = classify_1d(QubitState(R, R * 1j), 0.5, 20)
        assert v.in_phi_perp and v.empirically_symmetric and v.zero_mean
        w = classify_1d(QubitState(1.0, 0.0), 0.5, 5)
        assert not w.in_phi_perp and not w.empirically_symmetric and not w.zero_mean


class TestExpectationTable:
    def test_series_for_right_mover(self):
        e = expectation_series(QubitState(1.0, 0.0), 0.5, 3)
        np.testing.assert_allclose(e, [0.0, 0.0, 0.5], atol=1e-14)

    def test_series_for_balanced_real(self):
        e = expectation_series(QubitState(R, R), 0.5, 2)
        np.testing.assert_allclose(e, [1.0, 1.0], atol=1e-14)

    def test_balanced_imaginary_mean_free(self):
        for p in (0.25, 0.5, 0.8):
            e = expectation_series(QubitState(R, R * 1j), p, 30)
            assert np.max(np.abs(e)) <= 1e-12

    def test_unbiased_table_reproduces_reference(self):
        table = extract_ab(0.5, 10)
        np.testing.assert_allclose(table.a, A_HALF, atol=1e-12)
        np.testing.assert_allclose(table.b, B_HALF, atol=1e-12)

    def test_difference_law_at_half(self):
        assert kns_check(extract_ab(0.5, 30))

    def test_difference_law_reference_values(self):
        table = ABTable(a=np.asarray(A_HALF), b=np.asarray(B_HALF))
        assert kns_check(table)
        assert table.b[3] - table.a[2] == pytest.approx(1.0)  # 3/2 - 1/2
        assert table.b[4] - table.a[3] == pytest.approx(1.0)  # 2 - 1

    def test_perturbed_table_fails(self):
        b = np.asarray(B_HALF).copy()
        b[1] = 1.5
        assert not kns_check(ABTable(a=np.asarray(A_HALF), b=b))

    def test_tolerance_is_fixed_at_1e_10(self):
        a, b = np.asarray(A_HALF), np.asarray(B_HALF)
        assert kns_check(ABTable(a=a, b=b + 5e-11))
        assert not kns_check(ABTable(a=a, b=b + np.eye(1, len(b), 1)[0] * 2e-10))
        with pytest.raises(TypeError):
            kns_check(ABTable(a=a, b=b), tol=float("nan"))

    def test_table_is_a_read_only_copy(self):
        # the arrays aliased the caller's input and stayed writeable
        a, b = np.array(A_HALF), np.array(B_HALF)
        table = ABTable(a=a, b=b)
        assert a.flags.writeable and not np.shares_memory(a, table.a)
        a[0] = 5.0
        assert table.a[0] == 0.0
        with pytest.raises(ValueError):
            table.a[0] = 5.0
        with pytest.raises(ValueError):
            table.b[0] = 5.0

    @pytest.mark.parametrize(
        "a, b",
        [
            (["x", "y"], [1.0, 2.0]),
            ([0.0, float("nan")], [1.0, 2.0]),
            ([0.0, 1.0], [1.0, float("inf")]),
            ([0.0, 1j], [1.0, 2.0]),
            ([0.0, 1.0], [1.0]),
        ],
    )
    def test_table_rejects_bad_input(self, a, b):
        with pytest.raises(InvalidParameterError):
            ABTable(a=a, b=b)

    @pytest.mark.parametrize("p", [0.25, 0.75])
    def test_difference_law_fails_for_biased_coin(self, p):
        # measured property of these dynamics: the first-difference law
        # b_{t+1} - a_t = 1 holds only for the unbiased coin; the first
        # violation is already b_2 - a_1 = 4 p sqrt(p q) - 2 p + 1
        table = extract_ab(p, 12)
        assert not kns_check(table)
        predicted = 4 * p * math.sqrt(p * (1 - p)) - 2 * p + 1
        assert table.b[1] - table.a[0] == pytest.approx(predicted, abs=1e-12)



class TestKonnoSlopes:
    """Slopes of the expectation table from Konno's weak limit law, with
    ``q = 1 - p``: ``a_t / t -> 1 - sqrt(q)``, ``b_t / t -> (1 - sqrt(q))
    sqrt(q / p)``, so ``(b_{t+1} - a_t) / t -> (1 - sqrt(q))(sqrt(q / p) - 1)``,
    which is nonzero for p != 1/2: the KNS law fails there at a linear rate.

    Each error shrinks like 1/t.  Measured ``t * |error|`` at t = 1000 and
    2000 for p in {0.3, 0.5, 0.7}: at most 0.43 for both slopes and 1.00 for
    the difference, halving the error from t = 1000 to t = 2000.
    """

    @staticmethod
    def _limits(p):
        q = 1 - p
        a = 1 - math.sqrt(q)
        return a, a * math.sqrt(q / p), a * (math.sqrt(q / p) - 1)

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_slopes_converge_like_one_over_t(self, p):
        table, limits = extract_ab(p, 2001), self._limits(p)
        errors = {}
        for t in (1000, 2000):
            slopes = (
                table.a[t - 1] / t,
                table.b[t - 1] / t,
                (table.b[t] - table.a[t - 1]) / t,
            )
            errors[t] = [abs(s - lim) for s, lim in zip(slopes, limits)]
            assert max(errors[t][:2]) * t <= 0.5, (t, errors[t])
            assert errors[t][2] * t <= 1.1, (t, errors[t])
        assert all(e2 <= 0.6 * e1 for e1, e2 in zip(errors[1000], errors[2000]))
        # 0.0862 at p = 0.3 and -0.1562 at p = 0.7, 0 only at p = 1/2
        assert (abs(limits[2]) > 0.08) == (p != 0.5)


class TestSymmetricLimitCircle:
    """Konno's limit law is symmetric exactly on the circle ``lambda(theta)
    = |a|^2 - |b|^2 + 2 sqrt(q/p) Re(a conj(b)) = 0``, which strictly
    contains the balanced states.  At p = 0.3 the real state on it is not
    in Phi-perp: every odd limit moment vanishes, yet its mean position
    stays near -1/2 at every finite time (-0.523 at t = 10, -0.495 at
    t = 4000), so the limit is symmetrized while no finite time is."""

    def test_unbalanced_real_state_on_the_circle(self):
        p = 0.3
        phi = -math.atan(math.sqrt(p / (1 - p))) / 2
        th = QubitState(math.cos(phi), math.sin(phi))
        assert abs(math.cos(2 * phi) + math.sqrt((1 - p) / p) * math.sin(2 * phi)) <= 1e-15
        assert not in_phi_perp(th)
        for alpha in (1, 3, 5):
            assert abs(limit_moment_1d(th, p, alpha)) <= 1e-15, alpha
        means = expectation_series(th, p, 4000)
        for t in (10, 4000):
            assert -0.53 < means[t - 1] < -0.49, t


class TestReflectionIdentity1D:
    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_residual_vanishes_on_pattern_states(self, p, sign):
        th = QubitState(R, R * 1j * sign)
        for t in range(1, 21):
            assert reflection_identity_1d(th, p, t) <= 1e-12

    def test_phase_shifted_pattern_state(self):
        ph = np.exp(1.1j)
        th = QubitState(ph * R, ph * R * 1j)
        assert reflection_identity_1d(th, 0.4, 9) <= 1e-12

    def test_precondition_rejects_other_states(self):
        with pytest.raises(PreconditionError):
            reflection_identity_1d(QubitState(1.0, 0.0), 0.5, 3)
        with pytest.raises(PreconditionError):
            reflection_identity_1d(QubitState(R, R), 0.5, 3)


class TestPhiPerp2D:
    def test_balanced_pattern_state(self):
        assert in_phi_perp_2d(QuditState(0.5, 0.5j, 0.5j, -0.5))

    def test_corner_state_excluded(self):
        assert not in_phi_perp_2d(QuditState(1, 0, 0, 0))

    def test_uniform_real_state_excluded(self):
        assert not in_phi_perp_2d(QuditState(0.5, 0.5, 0.5, 0.5))


class TestEmpiricalSymmetry2D:
    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_balanced_states_inversion_symmetric(self, p):
        assert empirical_symmetric_2d(QuditState(0.5, 0.5j, 0.5j, -0.5), p, 20)
        assert empirical_symmetric_2d(QuditState(0.5, -0.5j, -0.5j, -0.5), p, 20)

    def test_mixed_pattern_state_inversion_symmetric(self):
        assert empirical_symmetric_2d(QuditState(0.5, 0.5j, -0.5j, 0.5), 0.3, 20)

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_corner_state_breaks_by_three(self, p):
        assert not empirical_symmetric_2d(QuditState(1, 0, 0, 0), p, 3)

    def test_strict_four_way_fails_even_for_balanced_states(self):
        # the single-axis mirror is not a symmetry of these dynamics, so the
        # four-way equality is strictly stronger than inversion symmetry and
        # fails by t = 3 even at the unbiased point
        th = QuditState(0.5, 0.5j, 0.5j, -0.5)
        assert empirical_symmetric_2d(th, 0.5, 20)
        # four-way adds the transposed inversion P(x, y) = P(-y, -x) on the
        # square support; it breaks for some t <= 3
        grids = (distribution_2d(f).grid for f in trajectory_2d(th, 0.5, 3))
        assert max(np.max(np.abs(m - np.flip(m).T)) for m in grids) > 1e-12


class TestReflectionIdentity2D:
    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_residual_vanishes_on_pattern_states(self, p, sign):
        th = QuditState(0.5, 0.5j * sign, 0.5j * sign, -0.5)
        for t in range(1, 11):
            assert reflection_identity_2d(th, p, t) <= 1e-12

    def test_precondition_rejects_other_states(self):
        with pytest.raises(PreconditionError):
            reflection_identity_2d(QuditState(1, 0, 0, 0), 0.5, 2)

    def test_tensor_constant_is_not_the_intertwiner(self):
        # kron(EXCHANGE_1D, EXCHANGE_1D) pairs the wrong components for these
        # dynamics: substituting it into the identity leaves an O(1) residual
        tensor = np.kron(EXCHANGE_1D, EXCHANGE_1D)
        np.testing.assert_array_equal(tensor @ tensor, np.eye(4))
        th = QuditState(0.5, 0.5j, 0.5j, -0.5)
        t, p = 3, 0.5
        field = evolve_2d(th, p, t)
        c = (-1) ** t * 1j
        amps = field.amps
        inverted = amps[:, ::-1, ::-1]
        predicted = c * np.einsum("ab,bij->aij", tensor, amps)
        residual = np.max(np.abs(inverted - predicted))
        assert residual > 0.1
        # while the block constant leaves rounding noise only
        predicted_ok = c * np.einsum("ab,bij->aij", EXCHANGE_2D, amps)
        assert np.max(np.abs(inverted - predicted_ok)) <= 1e-12
