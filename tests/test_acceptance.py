"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run) and asserts the criterion.  The same
checks back the ``qwalk validate`` command.
"""

import pytest

from qwalk import validation
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


def test_run_checks_runs_every_criterion_serially_in_order():
    results = validation.run_checks(quick=True)
    assert [r.number for r in results] == list(range(1, 12))
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
