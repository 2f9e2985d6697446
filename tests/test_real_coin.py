"""Real arithmetic for the real coin: dtypes, agreement with complex stepping,
the step's edge zeroing and its one allocation."""

import cmath
import tracemalloc

import numpy as np
import pytest

from qwalk.closedform import _alpha_pairs, closed_form_field, closed_form_fields
from qwalk.coin import CoinParameter, coin_1d, coin_2d, kernel_1d, kernel_2d
from qwalk.walk1d import evolve_1d, step_1d, trajectory_1d
from qwalk.walk2d import evolve_2d, step_2d, trajectory_2d

LINE_STATE = (0.6, 0.8j)
LATTICE_STATE = (0.5, 0.5j, -0.5, 0.5)


def _complex_step_1d(amps, coin, ph):
    mixed = ph * (coin.astype(complex) @ amps)
    new = np.zeros((2, amps.shape[1] + 1), dtype=complex)
    new[0, 1:] = mixed[0]       # +x mover
    new[1, :-1] = mixed[1]      # -x mover
    return new


def _complex_step_2d(amps, coin, ph):
    n = amps.shape[1]
    mixed = ph * (coin.astype(complex) @ amps.reshape(4, -1)).reshape(amps.shape)
    new = np.zeros((4, n + 1, n + 1), dtype=complex)
    new[0, 1:, 1:] = mixed[0]       # +x: (u, v) -> (u+1, v+1)
    new[1, :-1, :-1] = mixed[1]     # -x: (u-1, v-1)
    new[2, 1:, :-1] = mixed[2]      # +y: (u+1, v-1)
    new[3, :-1, 1:] = mixed[3]      # -y: (u-1, v+1)
    return new


def test_coins_are_float64_and_kernels_complex():
    for p in (0.1, 0.5, 0.9):
        assert coin_1d(p).dtype == np.float64
        assert coin_2d(p).dtype == np.float64
        assert kernel_1d(p, 0.3).dtype == np.complex128
        assert kernel_2d(p, 0.3, -1.1).dtype == np.complex128


@pytest.mark.parametrize(
    "coin, step, field",
    [
        (coin_1d, step_1d, lambda c: evolve_1d(LINE_STATE, c, 5)),
        (coin_2d, step_2d, lambda c: evolve_2d(LATTICE_STATE, c, 5)),
    ],
    ids=["line", "lattice"],
)
def test_coins_are_fresh_and_stepping_ignores_them(coin, step, field):
    c = CoinParameter(0.37)
    field = field(c)
    before = step(field, c)
    a, b = coin(c), coin(c)
    assert a is not b and a.flags.writeable
    a[...] = 0.0
    assert np.array_equal(step(field, c).amps, before.amps)


def test_alpha_recurrence_runs_in_float64():
    pairs = list(_alpha_pairs(CoinParameter(0.37), (1, 2, 7, 40)))
    assert [(a.size, b.size) for a, b in pairs] == [(1, 0), (2, 1), (7, 6), (40, 39)]
    for a_t, a_tm1 in pairs:
        assert a_t.dtype == np.float64 and a_tm1.dtype == np.float64


@pytest.mark.parametrize("p", [0.2, 0.5, 0.85])
@pytest.mark.parametrize("k", [0.0, 0.3])
def test_line_agrees_with_complex_stepping(p, k):
    coin, ph = coin_1d(p), cmath.exp(1j * k)
    ref = np.array(LINE_STATE, dtype=complex).reshape(2, 1)
    for t, f in enumerate(trajectory_1d(LINE_STATE, p, 2000, k)):
        if t:
            ref = _complex_step_1d(ref, coin, ph)
        assert np.max(np.abs(f.amps - ref)) <= 1e-15, t


@pytest.mark.parametrize("p", [0.2, 0.5, 0.85])
@pytest.mark.parametrize("k", [0.0, 0.3])
def test_lattice_agrees_with_complex_stepping(p, k):
    coin, ph = coin_2d(p), cmath.exp(1j * k)
    ref = np.array(LATTICE_STATE, dtype=complex).reshape(4, 1, 1)
    for t, f in enumerate(trajectory_2d(LATTICE_STATE, p, 60, k)):
        if t:
            ref = _complex_step_2d(ref, coin, ph)
        assert np.max(np.abs(f.amps - ref)) <= 1e-15, t


def test_closed_form_equals_stepping_at_long_horizon():
    p, t = 0.37, 10000
    cf, stepped = closed_form_field(LINE_STATE, p, t), evolve_1d(LINE_STATE, p, t)
    assert np.max(np.abs(cf.amps - stepped.amps)) <= 1e-10


@pytest.fixture
def nan_empty(monkeypatch):
    """Make ``np.empty`` return NaN-filled arrays, so a cell the code reads
    or returns without writing it shows up as NaN."""
    empty = np.empty

    def filled(*args, **kwargs):
        a = empty(*args, **kwargs)
        a.view(np.uint8).fill(0xFF)  # all-ones bytes are a NaN in every float dtype
        return a

    monkeypatch.setattr(np, "empty", filled)
    assert np.isnan(np.empty(3)).all()


# the cells each component cannot reach: the first or last index per axis
_LINE_EDGES = ((0, 0), (1, -1))
_LATTICE_EDGES = (
    ((0, 0, slice(None)), (0, slice(None), 0)),
    ((1, -1, slice(None)), (1, slice(None), -1)),
    ((2, 0, slice(None)), (2, slice(None), -1)),
    ((3, -1, slice(None)), (3, slice(None), 0)),
)


@pytest.mark.parametrize("k", [0.0, 0.3])
def test_line_step_writes_every_cell(nan_empty, k):
    fields = list(trajectory_1d(LINE_STATE, 0.37, 8, k))
    for f in fields:
        assert np.isfinite(f.amps).all()
        assert abs(f.total_probability() - 1.0) <= 1e-12
        if f.t:
            assert all(f.amps[idx] == 0 for idx in _LINE_EDGES)
    cfs = closed_form_fields(LINE_STATE, 0.37, tuple(range(9)), k)
    for f, cf in zip(fields, cfs, strict=True):
        assert np.isfinite(cf.amps).all()
        assert np.max(np.abs(cf.amps - f.amps)) <= 1e-14


@pytest.mark.parametrize("k", [0.0, 0.3])
def test_lattice_step_writes_every_cell(nan_empty, k):
    for f in trajectory_2d(LATTICE_STATE, 0.37, 8, k):
        assert np.isfinite(f.amps).all()
        assert abs(f.total_probability() - 1.0) <= 1e-12
        if f.t:
            for edges in _LATTICE_EDGES:
                assert all(np.all(f.amps[idx] == 0) for idx in edges)


def test_line_step_writes_every_cell_of_a_shrunken_box(nan_empty):
    # by t = 4000 at p = 0.37 the box has shed 338 columns at either end
    for f in trajectory_1d(LINE_STATE, 0.37, 4000):
        assert np.isfinite(f.amps).all(), f.t
        (box,) = f._box
        outside = np.ones(f.t + 1, dtype=bool)
        outside[box] = False
        assert np.all(f.amps[:, outside] == 0), f.t
    assert f._box == (slice(338, -338),)


@pytest.mark.parametrize(
    "step, field",
    [
        (step_1d, lambda: evolve_1d(LINE_STATE, 0.37, 2000)),
        (step_2d, lambda: evolve_2d(LATTICE_STATE, 0.37, 200)),
    ],
    ids=["line", "lattice"],
)
def test_step_allocates_only_the_new_block(step, field):
    # tracemalloc sees numpy's buffers: no mixed block beside the new one
    field, c = field(), CoinParameter(0.37)
    tracemalloc.start()
    try:
        nbytes = step(field, c).amps.nbytes
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / nbytes <= 1.1
