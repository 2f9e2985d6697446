"""Rows of the acceptance gate's sensitivity matrix on the lattice.

Each test plants one defect in the lattice step and asserts the exact set
of checks that ``run_checks(quick=True)`` fails; the full gate fails the
same sets (measured).  Check 1 reads the lattice basis from the field of
``e_1`` through its inversion and diagonal mirror images.  It fails the two
defects here that break the mirror and passes the two that keep it: the
perturbed ``p``, and a coin that breaks only the inversion, which checks 6
and 9 fail.  The staging defect is the exception: the quick gate's lattice
buffers (t <= 100) are at most 2 MB and never staged, so only the full
gate sees it.
"""

import numpy as np
import pytest

from qwalk import validation, walk1d, walk2d
from qwalk.coin import coin_1d, coin_2d


def _rotation(p: float) -> np.ndarray:
    """``[[sqrt(p), -sqrt(q)], [sqrt(q), sqrt(p)]]``: a rotation, which
    ``J`` commutes with, where ``J C(p) J^T = -C(p)``."""
    sp, sq = np.sqrt(p), np.sqrt(1 - p)
    return np.array([[sp, -sq], [sq, sp]])


def _failing(quick: bool = True) -> set[int]:
    return {r.number for r in validation.run_checks(quick=quick) if not r.passed}


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
        # unitary, with A H A^T = -H still but E H E^T = +H: the mirror
        # holds and the inversion breaks, which check 1 cannot see
        (lambda p: np.kron(coin_1d(p), _rotation(p)), {6, 9}),
    ],
    ids=["rows_3_and_4_permuted", "p_perturbed_by_1e-6", "inversion_broken"],
)
def test_a_lattice_coin_defect_fails_exactly(monkeypatch, coin, failing):
    # the step's coin cache is keyed by the coin function, so the stand-in
    # builds fresh coins and the true ones stay cached for later tests
    monkeypatch.setattr(walk2d, "coin_2d", coin)
    assert _failing() == failing


def test_staged_chunks_walked_from_the_near_end_fail_checks_1_and_6_of_the_full_gate(
    monkeypatch,
):
    # a field staged over its own source must be written from the far end:
    # from the near end, each chunk overwrites source rows that the next
    # chunk still reads
    def near_end_first(src, stage):
        rows = max(1, len(stage) // (src.size // src.shape[1]))
        for r0 in range(0, src.shape[1], rows):
            part = src[:, r0 : r0 + rows]
            staged = stage[: part.size].reshape(part.shape)
            np.copyto(staged, part)
            yield r0, staged

    monkeypatch.setattr(walk1d, "_staged", near_end_first)
    # the quick gate's lattice buffers are never staged: its blind spot
    assert _failing(quick=True) == set()
    results = {r.number: r for r in validation.run_checks() if not r.passed}
    assert set(results) == {1, 6}
    assert results[1].details.startswith("max |sum P - 1| = 1.081e-01 ")
    assert results[6].details.startswith("max |sim(t=300) - quad(N=512)| = 1.162e-01 ")
