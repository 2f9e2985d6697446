"""Time-averaged probability estimates and localization verdicts."""

import math

import numpy as np
import pytest

from qwalk.errors import InvalidParameterError, PreconditionError
from qwalk.localization import (
    DeltaIntensityEstimate,
    validate_epsilon,
    localization_verdict,
    time_averaged_probability_1d,
    time_averaged_probability_2d,
)
from qwalk.walk1d import QubitState
from qwalk.walk2d import QuditState

R = 1 / math.sqrt(2)


class TestEstimates1D:
    def test_origin_average_decays(self):
        est = time_averaged_probability_1d(
            QubitState(1.0, 0.0), 0.5, 0, (64, 128, 256)
        )
        assert est.horizons == (64, 128, 256)
        assert est.decaying
        assert all(0.0 <= v <= 1.0 for v in est.averages)

    def test_balanced_state_also_decays(self):
        est = time_averaged_probability_1d(
            QubitState(R, R * 1j), 0.25, 0, (64, 128, 256)
        )
        assert est.decaying

    def test_site_outside_first_horizon(self):
        est = time_averaged_probability_1d(
            QubitState(1.0, 0.0), 0.5, 40, (32, 64, 128)
        )
        assert est.averages[0] == 0.0
        assert all(v < 0.01 for v in est.averages)

    def test_ladder_validation(self):
        th = QubitState(1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            time_averaged_probability_1d(th, 0.5, 0, (4, 8))      # horizon < 8
        with pytest.raises(InvalidParameterError):
            time_averaged_probability_1d(th, 0.5, 0, (16, 16))    # not increasing
        with pytest.raises(InvalidParameterError):
            time_averaged_probability_1d(th, 0.5, 0, (10.5, 20.9))  # not truncated
        with pytest.raises(InvalidParameterError):
            time_averaged_probability_2d(QuditState(1, 0, 0, 0), 0.5, (0, 0), (16, 32.5))

    def test_site_not_truncated(self):
        with pytest.raises(InvalidParameterError):
            time_averaged_probability_1d(QubitState(1.0, 0.0), 0.5, 1.7, (8, 16))
        with pytest.raises(InvalidParameterError):
            time_averaged_probability_2d(QuditState(1, 0, 0, 0), 0.5, (0, 0.5), (8, 16))
        with pytest.raises(InvalidParameterError):
            time_averaged_probability_2d(QuditState(1, 0, 0, 0), 0.5, (0, 0, 1), (8, 16))
        est = time_averaged_probability_2d(QuditState(1, 0, 0, 0), 0.5, (-2, 0), (8, 16))
        assert est.site == (-2, 0)

    def test_halving_ratio_band(self):
        est = time_averaged_probability_1d(
            QubitState(1.0, 0.0), 0.5, 0, (64, 128, 256)
        )
        for a, b in zip(est.averages, est.averages[1:]):
            assert 0.3 <= b / a <= 0.8


class TestEstimates2D:
    def test_origin_average_decays(self):
        est = time_averaged_probability_2d(
            QuditState(1, 0, 0, 0), 0.5, (0, 0), (32, 64, 128)
        )
        assert est.decaying
        assert all(0.0 <= v <= 1.0 for v in est.averages)

    def test_balanced_state_decays(self):
        est = time_averaged_probability_2d(
            QuditState(0.5, 0.5j, 0.5j, -0.5), 0.5, (0, 0), (32, 64, 128)
        )
        assert est.decaying

    def test_off_origin_site_in_range(self):
        est = time_averaged_probability_2d(
            QuditState(1, 0, 0, 0), 0.5, (1, 0), (32, 64, 128)
        )
        assert all(0.0 <= v <= 1.0 for v in est.averages)


class TestVerdict:
    def test_decaying_never_localized(self):
        est = DeltaIntensityEstimate(
            site=0, horizons=(8, 16, 32), averages=(0.5, 0.4, 0.3)
        )
        assert est.decaying
        assert not localization_verdict(est)

    def test_persistent_average_is_localized(self):
        est = DeltaIntensityEstimate(
            site=0, horizons=(8, 16, 32), averages=(0.2, 0.2, 0.2)
        )
        assert not est.decaying
        assert localization_verdict(est)

    def test_small_persistent_average_below_threshold(self):
        est = DeltaIntensityEstimate(
            site=0, horizons=(8, 16, 32), averages=(0.001, 0.001, 0.001)
        )
        assert not localization_verdict(est)
        assert localization_verdict(est, epsilon=0.0005)

    def test_line_walk_not_localized(self):
        est = time_averaged_probability_1d(
            QubitState(1.0, 0.0), 0.5, 0, (64, 128, 256)
        )
        assert not localization_verdict(est)

    def test_lattice_walk_not_localized(self):
        est = time_averaged_probability_2d(
            QuditState(1, 0, 0, 0), 0.5, (0, 0), (32, 64, 128)
        )
        assert not localization_verdict(est)

    def test_needs_three_horizons(self):
        est = DeltaIntensityEstimate(site=0, horizons=(8, 16), averages=(0.5, 0.4))
        with pytest.raises(PreconditionError):
            localization_verdict(est)

    def test_epsilon_validation(self):
        est = DeltaIntensityEstimate(
            site=0, horizons=(8, 16, 32), averages=(0.5, 0.4, 0.3)
        )
        with pytest.raises(InvalidParameterError):
            localization_verdict(est, epsilon=0.0)

    def test_estimate_rejects_a_nan_average(self):
        # unchecked, the verdict read it as "not localized"
        with pytest.raises(InvalidParameterError, match="finite"):
            DeltaIntensityEstimate(0, (8, 16, 32), (0.5, 0.5, float("nan")))

    def test_estimate_rejects_fewer_averages_than_horizons(self):
        # unchecked, the verdict read the one average and returned False
        with pytest.raises(InvalidParameterError, match="shape"):
            DeltaIntensityEstimate(0, (8, 16, 32), (0.5,))

    def test_estimate_rejects_a_decreasing_ladder(self):
        # unchecked, the verdict called the rising averages localized
        with pytest.raises(InvalidParameterError, match="increasing"):
            DeltaIntensityEstimate(0, (32, 16, 8), (0.5, 0.6, 0.7))

    @pytest.mark.parametrize("site", ["x", (0, 0, 0), (1,), 1.5, True])
    def test_estimate_rejects_a_site_that_is_not_one_or_two_integers(self, site):
        # unchecked, any object stood as the site of a valid estimate
        with pytest.raises(InvalidParameterError, match="site"):
            DeltaIntensityEstimate(site, (8, 16, 32), (0.1, 0.2, 0.3))

    def test_estimate_coerces_its_site_as_the_estimators_do(self):
        est = DeltaIntensityEstimate(np.int64(3), (8, 16, 32), (0.3, 0.2, 0.1))
        assert est.site == 3 and type(est.site) is int
        est = DeltaIntensityEstimate([np.int64(1), -2], (8, 16, 32), (0.3, 0.2, 0.1))
        assert est.site == (1, -2)

    def test_estimate_rejects_a_negative_average(self):
        # unchecked, the verdict called it localized: -1 to 0.2 is no decay
        with pytest.raises(InvalidParameterError, match=r"\[0, 1\]"):
            DeltaIntensityEstimate(0, (8, 16, 32), (-1.0, 0.2, 0.1))

    def test_estimate_rejects_an_average_above_one(self):
        # unchecked, the verdict called five times the whole mass localized
        with pytest.raises(InvalidParameterError, match=r"\[0, 1\]"):
            DeltaIntensityEstimate((0, 0), (8, 16, 32), (5.0, 5.0, 5.0))
        with pytest.raises(InvalidParameterError, match=r"\[0, 1\]"):
            DeltaIntensityEstimate(0, (8, 16, 32), (0.5, 0.4, 1 + 1e-11))

    def test_estimate_keeps_an_average_rounded_just_above_one(self):
        est = DeltaIntensityEstimate(0, (8, 16, 32), (1 + 1e-13, 1.0, 1.0))
        assert est.averages[0] == 1 + 1e-13

    @pytest.mark.parametrize("bad", [0.0, 7.0, float("nan"), "0.5"])
    def test_epsilon_check_without_estimate(self, bad):
        with pytest.raises(InvalidParameterError):
            validate_epsilon(bad)
        assert validate_epsilon(1) == 1.0
