"""The size policy: every time, horizon and ladder entry above ``2**28``
raises :class:`InvalidParameterError` before any work is done.

Before the bound, a horizon of ``10**20`` raised numpy's ``ValueError`` from
``evolve_*`` and ``reflection_identity_*``, ``OverflowError`` from the
trajectories and their readers, and kept ``closed_form_field(s)``,
``alpha_coefficients`` and ``double_sum_coefficient`` running past a 5 s
alarm.  Each call below runs under that alarm, so a regression fails instead
of hanging.
"""

import math
import signal

import pytest

from qwalk.closedform import (
    alpha_coefficients,
    closed_form_field,
    closed_form_fields,
    double_sum_coefficient,
)
from qwalk.errors import InvalidParameterError, require_ladder, require_time
from qwalk.localization import time_averaged_probability_1d, time_averaged_probability_2d
from qwalk.spectral import convergence_report
from qwalk.symmetry import (
    classify_1d,
    empirical_symmetric_1d,
    empirical_symmetric_2d,
    expectation_series,
    extract_ab,
    reflection_identity_1d,
    reflection_identity_2d,
)
from qwalk.walk1d import QubitState, evolve_1d, trajectory_1d
from qwalk.walk2d import QuditState, evolve_2d, trajectory_2d

BIG = 10**20
_LINE = QubitState(1, 0)
_LATTICE = QuditState(1, 0, 0, 0)
_R = 1 / math.sqrt(2)

HUGE = {
    "evolve_1d": lambda: evolve_1d(_LINE, 0.5, BIG),
    "evolve_2d": lambda: evolve_2d(_LATTICE, 0.5, BIG),
    "trajectory_1d": lambda: trajectory_1d(_LINE, 0.5, BIG),
    "trajectory_2d": lambda: trajectory_2d(_LATTICE, 0.5, BIG),
    "reflection_identity_1d": lambda: reflection_identity_1d((_R, _R * 1j), 0.5, BIG),
    "reflection_identity_2d": lambda: reflection_identity_2d((0.5, 0.5j, 0.5j, -0.5), 0.5, BIG),
    "empirical_symmetric_1d": lambda: empirical_symmetric_1d(_LINE, 0.5, BIG),
    "empirical_symmetric_2d": lambda: empirical_symmetric_2d(_LATTICE, 0.5, BIG),
    "expectation_series": lambda: expectation_series(_LINE, 0.5, BIG),
    "classify_1d": lambda: classify_1d(_LINE, 0.5, BIG),
    "extract_ab": lambda: extract_ab(0.5, BIG),
    "time_averaged_probability_1d": lambda: time_averaged_probability_1d(_LINE, 0.5, 0, (8, BIG)),
    "time_averaged_probability_2d": lambda: time_averaged_probability_2d(
        _LATTICE, 0.5, (0, 0), (8, BIG)
    ),
    "closed_form_field": lambda: closed_form_field(_LINE, 0.5, BIG),
    "closed_form_fields": lambda: closed_form_fields(_LINE, 0.5, (1, BIG)),
    "alpha_coefficients": lambda: alpha_coefficients(0.5, BIG),
    "double_sum_coefficient": lambda: double_sum_coefficient(0.5, BIG, 0),
    "convergence_report": lambda: convergence_report(_LINE, 0.5, 1, ladder=(10, BIG), grid=64),
}


def _timed_out(signum, frame):
    raise TimeoutError("still running after the 5 s alarm")


@pytest.mark.parametrize("call", HUGE.values(), ids=HUGE.keys())
def test_a_huge_horizon_raises_invalid_parameter_error(call):
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(5)
    try:
        with pytest.raises(InvalidParameterError, match="<= 268435456"):
            call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_the_bound_is_2_to_the_28():
    # through the helpers alone: a field at the bound is never allocated
    assert require_time(2**28, "time") == 2**28
    assert require_ladder((1, 2**28), "time", 1) == (1, 2**28)
    with pytest.raises(InvalidParameterError, match="time must be <= 268435456, got 268435457"):
        require_time(2**28 + 1, "time")
    with pytest.raises(InvalidParameterError, match="<= 268435456"):
        require_ladder((1, 2**28 + 1), "time", 1)
    with pytest.raises(InvalidParameterError, match=">= 1"):
        require_time(0, "time", 1)
