"""Coin matrices and wavenumber kernels."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qwalk.coin import (
    CoinParameter,
    coin_1d,
    coin_2d,
    kernel_1d,
    kernel_2d,
    validate_wavenumber,
)
from qwalk.errors import InvalidParameterError

P_GRID = [round(0.05 * k, 2) for k in range(1, 20)]
NODES = -np.pi + (np.arange(64) + 0.5) * (2 * np.pi / 64)


def unitarity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


class TestCoinParameter:
    def test_q_is_derived(self):
        c = CoinParameter(0.3)
        assert c.q == pytest.approx(0.7, abs=1e-15)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5, float("nan"), float("inf")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(InvalidParameterError):
            CoinParameter(bad)

    @pytest.mark.parametrize("value", [np.float32(0.5), np.float64(0.5), Fraction(1, 2)])
    def test_accepts_any_real_scalar(self, value):
        assert CoinParameter(value).p == 0.5

    @pytest.mark.parametrize("bad", ["0.5", 0.5 + 0j, None, True])
    def test_non_real_named_as_such(self, bad):
        with pytest.raises(InvalidParameterError, match="must be a real number"):
            CoinParameter(bad)

    def test_wavenumber_half_open_interval(self):
        assert validate_wavenumber(-math.pi) == -math.pi
        with pytest.raises(InvalidParameterError):
            validate_wavenumber(math.pi)
        with pytest.raises(InvalidParameterError):
            validate_wavenumber(4.0)

    @pytest.mark.parametrize("bad", [True, "1.0", 1j])
    def test_wavenumber_must_be_real(self, bad):
        with pytest.raises(InvalidParameterError, match="must be a real number"):
            validate_wavenumber(bad)
        with pytest.raises(InvalidParameterError, match="must be a real number"):
            kernel_1d(0.5, bad)


class TestCoin1D:
    def test_unbiased_is_hadamard(self):
        h = coin_1d(0.5)
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        np.testing.assert_allclose(h, expected, atol=1e-15)

    def test_quarter_bias_values(self):
        h = coin_1d(0.25)
        expected = np.array([[0.5, math.sqrt(0.75)], [math.sqrt(0.75), -0.5]])
        np.testing.assert_allclose(h, expected, atol=1e-15)

    def test_unitary_symmetric_det(self):
        h = coin_1d(0.7)
        assert unitarity_defect(h) <= 1e-15
        np.testing.assert_allclose(h, h.T, atol=0)
        assert np.linalg.det(h) == pytest.approx(-1.0, abs=1e-14)


class TestCoin2D:
    def test_unbiased_top_row(self):
        top = coin_2d(0.5)[0]
        np.testing.assert_allclose(top, [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_entry_matches_complement(self):
        assert coin_2d(0.3)[1, 2] == pytest.approx(0.7, abs=1e-15)

    @pytest.mark.parametrize("p", P_GRID)
    def test_equals_kronecker_square(self, p):
        h = coin_1d(p)
        diff = np.max(np.abs(coin_2d(p) - np.kron(h, h)))
        assert diff <= 1e-15


class TestKernel1D:
    def test_reduces_to_coin_at_zero(self):
        np.testing.assert_allclose(kernel_1d(0.4, 0.0), coin_1d(0.4), atol=1e-15)

    def test_trace_formula(self):
        s = kernel_1d(0.5, math.pi / 2)
        assert np.trace(s) == pytest.approx(-math.sqrt(2) * 1j, abs=1e-14)

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("x", [-2.5, -0.4, 0.9, 3.0])
    def test_determinant(self, p, x):
        assert np.linalg.det(kernel_1d(p, x)) == pytest.approx(-1.0, abs=1e-14)


class TestKernel2D:
    def test_reduces_to_coin_at_zero(self):
        np.testing.assert_allclose(kernel_2d(0.3, 0.0, 0.0), coin_2d(0.3), atol=1e-15)

    def test_row_phase(self):
        s = kernel_2d(0.5, math.pi / 2, 0.0)
        expected = np.exp(-1j * math.pi / 2) * np.array([0.5, 0.5, 0.5, 0.5])
        np.testing.assert_allclose(s[0], expected, atol=1e-15)

    def test_unitary_on_sample(self):
        for m in (-1.1, 0.7):
            for n in (0.3, 2.0):
                assert unitarity_defect(kernel_2d(0.6, m, n)) <= 1e-14


def test_constructor_grid_unitarity():
    worst = 0.0
    for p in P_GRID:
        worst = max(worst, unitarity_defect(coin_1d(p)), unitarity_defect(coin_2d(p)))
        for x in NODES:
            worst = max(worst, unitarity_defect(kernel_1d(p, x)))
        for m in NODES[::8]:
            for n in NODES[::8]:
                worst = max(worst, unitarity_defect(kernel_2d(p, m, n)))
    assert worst <= 1e-14
