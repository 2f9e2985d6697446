"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run) and asserts the criterion.  The same
checks back the ``qwalk validate`` command.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from qwalk import spectral, validation
from qwalk.errors import InvalidParameterError
from qwalk.localization import localization_verdict
from qwalk.symmetry import extract_ab, kns_check


def _run(number: int) -> None:
    entry = next(e for e in validation.ALL_CHECKS if e[0] == number)
    _, section, description, fn = entry
    passed, details = fn(quick=False)
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {number} ({section}): {details}")
    assert passed, f"criterion {number} ({description}): {details}"


def test_criterion_01_unitarity_and_normalization():
    _run(1)


def test_criterion_02_hand_derived_distributions():
    _run(2)


def test_criterion_03_closed_form_oracle_equivalence():
    _run(3)


def test_criterion_04_coefficient_identity():
    _run(4)


def test_criterion_05_weak_limit_line():
    _run(5)


def test_criterion_06_weak_limit_lattice():
    _run(6)


def test_criterion_07_expectation_table():
    _run(7)


def test_criterion_08_symmetry_classes():
    _run(8)


def test_criterion_09_reflection_identities():
    _run(9)


def test_criterion_10_localization_probes():
    _run(10)


def test_criterion_11_quadrature_stability():
    _run(11)


def test_criterion_12_propagator_witness():
    _run(12)


def test_run_checks_runs_every_criterion_serially_in_order():
    results = validation.run_checks(quick=True)
    assert [r.number for r in results] == list(range(1, 13))
    assert all(r.passed for r in results)
    (hand,) = validation.run_checks(quick=True, only="hand", max_workers=1)
    assert (hand.number, hand.details) == (2, results[1].details)


@pytest.mark.parametrize("workers", [2, 0, True])
def test_run_checks_rejects_parallel_max_workers(workers):
    with pytest.raises(InvalidParameterError, match="serially"):
        validation.run_checks(quick=True, max_workers=workers)


@pytest.mark.parametrize("only", [5, b"hand", ["hand"]])
def test_run_checks_rejects_a_section_that_is_not_a_string(only):
    # only.lower() was called on whatever came in: a bare AttributeError
    with pytest.raises(InvalidParameterError, match="section name"):
        validation.run_checks(quick=True, only=only)


@pytest.mark.parametrize("quick", ["no", 0, 1, None, np.True_])
def test_run_checks_rejects_a_quick_that_is_not_a_bool(quick):
    # any truthy value selected the quick scales: "no" ran them
    with pytest.raises(InvalidParameterError, match="quick"):
        validation.run_checks(quick=quick, only="table")


@pytest.mark.parametrize(
    "call",
    [
        lambda: kns_check([1, 2, 3]),
        lambda: validation.reference_table_deviation([0] * 10),
        lambda: localization_verdict("x"),
    ],
    ids=["kns_check", "reference_table_deviation", "localization_verdict"],
)
def test_table_and_estimate_readers_reject_other_types(call):
    # each read an attribute of whatever came in: a bare AttributeError
    with pytest.raises(InvalidParameterError, match="need a"):
        call()


@pytest.mark.parametrize("horizon", [1, 2, 9])
def test_reference_table_deviation_rejects_a_short_table(horizon):
    table = extract_ab(0.5, horizon)
    with pytest.raises(InvalidParameterError, match="t = 1..10"):
        validation.reference_table_deviation(table)


def test_reference_table_deviation_reads_the_first_ten_rows():
    assert validation.reference_table_deviation(extract_ab(0.5, 12)) <= 1e-12


_NAN = float("nan")

# for each numeric check, a stand-in that makes one value the check compares
# with its tolerance NaN
def _nan_basis(p, times):
    """A line propagator whose Gram matrix and amplitude blocks are NaN."""
    for t in times:
        gram = np.full((2, 2), _NAN)

        def amplitudes(states, t=t):
            return np.full((len(states), 2, t + 1), _NAN)

        yield SimpleNamespace(t=t, gram=lambda: gram, amplitudes=amplitudes)


_NAN_PLANTS = {
    1: (validation, "basis_fields_1d", _nan_basis),
    2: (validation, "distribution_1d", lambda field: SimpleNamespace(mass=lambda x: _NAN)),
    3: (validation, "basis_fields_1d", _nan_basis),
    4: (validation, "double_sum_coefficient", lambda p, t, j: _NAN),
    # checks 5 and 6 read both sides through spectral.convergence_reports:
    # a NaN quadrature on the line, a NaN simulated moment on the lattice
    5: (spectral, "_limit_moments", lambda ths, p, orders, *a: np.full((len(ths), 2), _NAN)),
    6: (spectral, "joint_moment_2d", lambda d, a, b: _NAN),
    7: (validation, "reference_table_deviation", lambda table: _NAN),
    9: (validation, "reflection_residuals", lambda th, p, times: (_NAN,) * len(times)),
    11: (validation, "limit_moment_1d", lambda th, p, alpha, grid: _NAN),
    12: (
        validation,
        "evolve_2d",
        lambda th, p, t: SimpleNamespace(amps=np.full((4, t + 1, t + 1), _NAN)),
    ),
}


@pytest.mark.parametrize("number", sorted(_NAN_PLANTS))
def test_a_nan_in_a_compared_value_fails_its_check(monkeypatch, number):
    # max(worst, nan) kept worst: checks 1-4, 6, 9 and 11 passed with a NaN
    # and check 5 printed its NaN gap as 0.000e+00
    module, name, stand_in = _NAN_PLANTS[number]
    monkeypatch.setattr(module, name, stand_in)
    fn = next(e[3] for e in validation.ALL_CHECKS if e[0] == number)
    passed, details = fn(quick=True)
    assert not passed, details
    assert " = nan " in details, details


def test_a_check_that_raises_is_one_fail_and_the_others_still_run(monkeypatch, caplog):
    def broken(quick=False):
        raise ZeroDivisionError("planted")

    checks = tuple(e if e[0] != 4 else (*e[:3], broken) for e in validation.ALL_CHECKS)
    monkeypatch.setattr(validation, "ALL_CHECKS", checks)
    results = validation.run_checks(quick=True)
    assert [r.number for r in results] == list(range(1, 13))
    assert [r.number for r in results if not r.passed] == [4]
    assert results[3].details == "ZeroDivisionError: planted"
    # the traceback is logged, so the frame that raised stays findable
    [record] = caplog.records
    assert record.getMessage() == "acceptance check 4 (coefficients) raised"
    assert record.exc_info[0] is ZeroDivisionError
