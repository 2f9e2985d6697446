"""Rows of the acceptance gate's sensitivity matrix on the lattice.

Each test plants one defect in the lattice step and asserts the exact set
of checks that ``run_checks(quick=True)`` fails; the full gate fails the
same sets (measured).  Check 1 reads the lattice basis's second packed
field as the first one's diagonal mirror image, so it fails every defect
that breaks that mirror and passes one that keeps it.
"""

import pytest

from qwalk import validation, walk1d, walk2d
from qwalk.coin import coin_2d


def _failing() -> set[int]:
    return {r.number for r in validation.run_checks(quick=True) if not r.passed}


def test_swapped_y_shifts_fail_checks_1_2_and_6(monkeypatch):
    # the +y mover steps like the -y mover and back: no longer a mirror of x
    up, down = walk1d._UP, walk1d._DOWN
    shifts = ((up, up), (down, down), (down, up), (up, down))
    support = walk2d._Support2D
    for name, value in zip(("_MIX_AXES", "_CORNERS", "_EDGES"), walk1d._geometry(shifts)):
        monkeypatch.setattr(support, name, value)
    monkeypatch.setattr(support, "_SHIFTS", shifts)
    assert _failing() == {1, 2, 6}


@pytest.mark.parametrize(
    "coin,failing",
    [
        (lambda p: coin_2d(p)[[0, 1, 3, 2]], {1, 2, 6, 9}),  # rows 3 and 4 permuted
        (lambda p: coin_2d(p * (1 + 1e-6)), {2}),  # kron(C, C) still: the mirror holds
    ],
    ids=["rows_3_and_4_permuted", "p_perturbed_by_1e-6"],
)
def test_a_lattice_coin_defect_fails_exactly(monkeypatch, coin, failing):
    # the step's coin cache is keyed by the coin function, so the stand-in
    # builds fresh coins and the true ones stay cached for later tests
    monkeypatch.setattr(walk2d, "coin_2d", coin)
    assert _failing() == failing
