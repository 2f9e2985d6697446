"""The step's live box: flushing underflowed tails against unflushed stepping."""

import cmath
from collections import deque
from functools import cache
from itertools import islice

import numpy as np
import pytest

from qwalk import (
    QubitState,
    WaveField1D,
    WaveField2D,
    distribution_1d,
    moment_1d,
    step_1d,
    step_2d,
    trajectory_1d,
    trajectory_2d,
)
from qwalk.coin import coin_1d, coin_2d
from qwalk.walk1d import _FLUSH_EVERY, _TINY, _UP

T_LONG = 3000
LATTICE_STATE = (0.5, 0.5j, -0.5, 0.5)


def _unflushed_step(a, coin, shifts, k=0.0):
    """The shared step without a live box: mix every cell, move each
    component, zero the edges it does not write."""
    ph = cmath.exp(1j * k)
    mixed = (coin @ a.view(np.float64).reshape(len(a), -1)).view(a.dtype).reshape(a.shape)
    if ph != 1.0:
        np.multiply(ph, mixed, out=mixed)
    new = np.empty((len(a),) + tuple(n + 1 for n in a.shape[1:]), dtype=a.dtype)
    for c, shift in enumerate(shifts):
        new[(c, *shift)] = mixed[c]
        for d, s in enumerate(shift):
            new[(c,) + (slice(None),) * d + (0 if s is _UP else -1,)] = 0
    return new


def _unflushed_line(theta, p, t):
    a, coin = theta.as_array().reshape(2, 1), coin_1d(p)
    for _ in range(t):
        a = _unflushed_step(a, coin, WaveField1D._SHIFTS)
    return a


@cache
def _line_case(p, seed):
    """Flushed fields at the last flush time before ``T_LONG`` and at
    ``T_LONG``, and the unflushed block at ``T_LONG``, for one Haar state."""
    theta = QubitState.random(np.random.default_rng(seed))
    fields = trajectory_1d(theta, p, T_LONG)
    flushed = deque(islice(fields, T_LONG - T_LONG % _FLUSH_EVERY + 1), maxlen=1).pop()
    field = deque(fields, maxlen=1).pop()
    return flushed, field, _unflushed_line(theta, p, T_LONG)


def _same_bits(a, b):
    """Byte-for-byte equality, as one bool (a failure prints no byte diff)."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


def _box_mask(field):
    mask = np.zeros(field.amps.shape[1:], dtype=bool)
    mask[field._box] = True
    return mask


CASES = [(p, seed) for p in (0.3, 0.5, 0.7) for seed in (11, 12)]


@pytest.mark.parametrize("p, seed", CASES)
def test_line_flush_keeps_probabilities_bitwise(p, seed):
    _, field, ref = _line_case(p, seed)
    ref_field = WaveField1D(T_LONG, ref)
    dist, ref_dist = distribution_1d(field), distribution_1d(ref_field)
    assert np.array_equal(dist.masses, ref_dist.masses)
    assert field.total_probability() == ref_field.total_probability()
    for alpha in range(1, 5):
        assert moment_1d(dist, alpha) == moment_1d(ref_dist, alpha), alpha
    assert np.max(np.abs(field.amps - ref)) <= 1e-280


@pytest.mark.parametrize("p, seed", CASES)
def test_line_box_is_the_live_light_cone(p, seed):
    flushed, field, ref = _line_case(p, seed)
    for f in (flushed, field):
        assert np.all(f.amps[:, ~_box_mask(f)] == 0)
    (box,) = flushed._box
    if p == 0.7:
        # sqrt(0.7)^3000 is about 1e-232: nothing has underflowed yet
        assert field._box == flushed._box == (slice(0, None),)
        assert _same_bits(field.amps, ref)
    else:
        assert box.start > 0 and box.stop < 0
    # right after a flush both faces of the box hold a normal part
    parts = np.abs(flushed.amps.view(np.float64).reshape(2, -1, 2))
    assert parts[:, box.start].max() >= _TINY
    assert parts[:, box.stop - 1 if box.stop else -1].max() >= _TINY


def test_hand_built_field_steps_like_the_trajectory():
    p, seed = 0.3, 11
    _, field, _ = _line_case(p, seed)
    hand = WaveField1D(field.t, field.amps)  # the same block, but the whole box
    assert hand._box == (slice(0, None),) and field._box != hand._box
    for _ in range(2 * _FLUSH_EVERY):
        field, hand = step_1d(field, p), step_1d(hand, p)
        assert _same_bits(hand.amps, field.amps), field.t
    assert hand._box == field._box


@pytest.mark.parametrize("k", [0.0, 0.3])
def test_lattice_fields_are_the_unflushed_steps_byte_for_byte(k):
    coin, ref = coin_2d(0.37), np.array(LATTICE_STATE, dtype=complex).reshape(4, 1, 1)
    for t, f in enumerate(trajectory_2d(LATTICE_STATE, 0.37, 60, k)):
        if t:
            ref = _unflushed_step(ref, coin, WaveField2D._SHIFTS, k)
        assert _same_bits(f.amps, ref), t
        assert f._box == (slice(0, None),) * 2


def test_lattice_flush_sheds_underflowed_faces():
    # a hand-built block one step before a flush: normal parts everywhere but
    # the lowest row of u and the highest column of v, which are subnormal
    t, p, rng = _FLUSH_EVERY - 1, 0.37, np.random.default_rng(7)
    amps = rng.normal(size=(4, t + 1, t + 1)) + 1j * rng.normal(size=(4, t + 1, t + 1))
    amps[:, 0, :] *= 1e-310
    amps[:, :, -1] *= 1e-310
    coin, shifts = coin_2d(p), WaveField2D._SHIFTS
    field = step_2d(WaveField2D(t, amps), p)
    assert field._box == (slice(1, None), slice(0, -1))
    expected = _unflushed_step(amps, coin, shifts)
    assert np.abs(expected[:, 0, :]).max() < _TINY and np.abs(expected[:, :, -1]).max() < _TINY
    expected[:, 0, :] = expected[:, :, -1] = 0
    assert _same_bits(field.amps, expected)
    # the next step mixes only the box and keeps the cells outside it at 0
    nxt = step_2d(field, p)
    assert nxt._box == field._box
    assert _same_bits(nxt.amps, _unflushed_step(field.amps, coin, shifts))
    assert np.all(nxt.amps[:, ~_box_mask(nxt)] == 0)


@pytest.mark.parametrize("k", [0.0, 0.3])
def test_lattice_steps_a_shrunken_box_byte_for_byte(k):
    # a hand-built block one step before a flush, subnormal on all four
    # faces: the flush shrinks the box on both ends of both axes, and every
    # later step writes its strided pairs from a box corner off the origin
    t, p, rng = _FLUSH_EVERY - 1, 0.37, np.random.default_rng(8)
    amps = rng.normal(size=(4, t + 1, t + 1)) + 1j * rng.normal(size=(4, t + 1, t + 1))
    amps[:, [0, -1], :] *= 1e-310
    amps[:, :, [0, -1]] *= 1e-310
    coin, shifts = coin_2d(p), WaveField2D._SHIFTS
    field = WaveField2D(t, amps)
    for _ in range(2 * _FLUSH_EVERY + 1):
        expected = _unflushed_step(field.amps, coin, shifts, k)
        field = step_2d(field, p, k)
        outside = ~_box_mask(field)
        assert np.abs(expected[:, outside]).max(initial=0.0) < _TINY, field.t
        expected[:, outside] = 0
        assert _same_bits(field.amps, expected), field.t
        assert field._box == (slice(1, -1),) * 2, field.t


def test_flush_keeps_one_cell_of_an_empty_field():
    t = _FLUSH_EVERY - 1
    field = step_1d(WaveField1D(t, np.zeros((2, t + 1), dtype=complex)), 0.5)
    (box,) = field._box
    assert len(range(*box.indices(t + 2))) == 1
    assert not field.amps.any()
