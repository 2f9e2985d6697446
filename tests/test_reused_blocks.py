"""Evolution in one buffer: ``evolve_1d`` and ``evolve_2d``.

An evolution keeps no earlier field, so it steps in one buffer of the final
field's shape and a staging array, where a trajectory gives every field a
fresh block: a field that fits in the staging array is written there or
into the buffer's leading corner, in turn, and a larger one over the field
before it in that corner.  A buffer of at most ``_UNSTAGED_BYTES`` gets a
staging array as large as itself.  These tests hold the evolved field
against the trajectory's last field bit for bit, also through a staging
array small enough that most steps overwrite their field in chunks, pin the
step count and the one buffer with a recorder around the step, pin where
staging starts, also for a real state's ``float64`` buffers, pin the
memory of an evolution and of the reductions with ``tracemalloc``, and
check that a returned field is never written again.
"""

import tracemalloc
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

from qwalk import walk1d, walk2d
from qwalk.walk1d import QubitState, evolve_1d, step_1d, trajectory_1d
from qwalk.walk2d import (
    QuditState,
    distribution_2d,
    evolve_2d,
    joint_moment_2d,
    step_2d,
    trajectory_2d,
)

LATTICES = {
    1: (QubitState, evolve_1d, trajectory_1d, step_1d),
    2: (QuditState, evolve_2d, trajectory_2d, step_2d),
}


def _buffer(amps: np.ndarray) -> np.ndarray:
    """The array that owns the memory ``amps`` views."""
    while amps.base is not None:
        amps = amps.base
    return amps


def _assert_is_the_last_field(field, theta, p, t, k, dim):
    _, _, trajectory, _ = LATTICES[dim]
    last = deque(trajectory(theta, p, t, k), maxlen=1).pop()
    assert field.t == t
    assert field.amps.tobytes() == last.amps.tobytes()
    assert field._box == last._box
    assert field.amps.flags.c_contiguous and not field.amps.flags.writeable
    assert field._spare is None


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("k", [0.0, 0.7])
@pytest.mark.parametrize("t", [0, 1, 2, 16, 17, 33])
def test_evolution_is_the_trajectorys_last_field_bit_for_bit(dim, p, k, t):
    cls, evolve, _, _ = LATTICES[dim]
    theta = cls.random(np.random.default_rng(1000 * dim + 100 * t + int(100 * p)))
    _assert_is_the_last_field(evolve(theta, p, t, k), theta, p, t, k, dim)


def test_line_evolution_past_many_flushes_is_the_trajectorys_last_field():
    theta = QubitState.random(np.random.default_rng(5000))
    field = evolve_1d(theta, 0.25, 5000)
    assert field._box[0].start > 0  # the tails were flushed
    _assert_is_the_last_field(field, theta, 0.25, 5000, 0.0, 1)


# a staging array of 64 cells: the line's fields past t = 31 and the
# lattice's past t = 3 outgrow it, and a lattice step stages one row at a time
SMALL_STAGE_BYTES = 1024


def _small_stage(monkeypatch, nbytes=SMALL_STAGE_BYTES):
    """Stage every buffer, through a staging array of about ``nbytes``."""
    monkeypatch.setattr(walk1d, "_STAGE_BYTES", nbytes)
    monkeypatch.setattr(walk1d, "_UNSTAGED_BYTES", 0)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("k", [0.0, 0.7])
@pytest.mark.parametrize("p, t", [(0.25, 40), (0.5, 33), (0.75, 50)])
def test_evolution_through_a_small_stage_is_the_trajectorys_last_field(monkeypatch, dim, k, p, t):
    _small_stage(monkeypatch)
    cls, evolve, _, _ = LATTICES[dim]
    theta = cls.random(np.random.default_rng(2000 * dim + 10 * t + int(10 * p)))
    _assert_is_the_last_field(evolve(theta, p, t, k), theta, p, t, k, dim)


def test_line_evolution_past_many_flushes_through_a_small_stage(monkeypatch):
    # a 16 KB staging array: fields past t = 511 are written over each other
    # in chunks of 512 columns, from a box whose tails were flushed
    _small_stage(monkeypatch, 1 << 14)
    theta = QubitState.random(np.random.default_rng(5000))
    field = evolve_1d(theta, 0.25, 5000)
    assert field._box[0].start > 0
    _assert_is_the_last_field(field, theta, 0.25, 5000, 0.0, 1)


def test_lattice_evolution_whose_box_shrank_is_the_trajectorys_last_field():
    # the faces at either end of u decay as sqrt(p)^t; at p = 0.001 the
    # flush at t = 208 shed one row at each end and the one at t = 224 five
    # more (measured), while every field past t = 89 is written over the one
    # before it in the buffer's leading corner
    theta = QuditState.random(np.random.default_rng(6))
    field = evolve_2d(theta, 0.001, 230, 0.3)
    assert field._box == (slice(6, -6), slice(0, None))
    _assert_is_the_last_field(field, theta, 0.001, 230, 0.3, 2)


@pytest.mark.parametrize(
    "dim,module,name,t", [(1, walk1d, "step_1d", 40), (2, walk2d, "step_2d", 21)]
)
def test_evolution_steps_t_times_in_one_buffer(monkeypatch, dim, module, name, t):
    # each stepped field is held, so no buffer is freed and its identity is
    # never reused: a fresh block per step would give t buffers
    _small_stage(monkeypatch)
    cls, evolve, _, _ = LATTICES[dim]
    step, stepped = getattr(module, name), []

    def recorded(field, p, k=0.0):
        stepped.append(step(field, p, k))
        return stepped[-1]

    monkeypatch.setattr(module, name, recorded)
    field = evolve(cls.random(np.random.default_rng(7)), 0.5, t)
    assert len(stepped) == t and stepped[-1] is field
    buffer = _buffer(field.amps)
    assert buffer.shape == field.amps.shape  # the whole block
    owners = {id(_buffer(f.amps)): _buffer(f.amps) for f in stepped}
    (stage,) = [b for b in owners.values() if b is not buffer]
    assert stage.ndim == 1 and stage.nbytes <= max(SMALL_STAGE_BYTES, buffer[:, 0].nbytes)
    corner = buffer.__array_interface__["data"][0]
    large = [f for f in stepped if f.amps.size > stage.size]
    assert len(large) == t - (31 if dim == 1 else 3)
    for f in large:  # the buffer's leading corner
        assert f.amps.__array_interface__["data"][0] == corner
        assert f.amps.strides == buffer.strides


def _staging_steps(monkeypatch, evolve, cls, t) -> int:
    """How many steps of ``evolve`` to ``t`` copy their field in chunks."""
    calls, staged = [], walk1d._staged
    monkeypatch.setattr(walk1d, "_staged", lambda *a: calls.append(1) or staged(*a))
    evolve(cls.random(np.random.default_rng(8)), 0.5, t)
    return len(calls)


def test_no_line_field_up_to_two_megabytes_is_copied(monkeypatch):
    # at t = 16384 the line's field outgrows 512 KB, the staging array of a
    # large buffer, while the line's buffer stays within 2 MB to t = 65535
    assert 2 * 16 * (16383 + 1) == walk1d._STAGE_BYTES
    assert 2 * 16 * (65535 + 1) == walk1d._UNSTAGED_BYTES
    assert _staging_steps(monkeypatch, evolve_1d, QubitState, 16384) == 0


def test_the_lattice_stages_past_two_megabytes(monkeypatch):
    # the buffer at t = 180 holds 2,096,704 bytes, at t = 181 2,119,936;
    # fields past t = 89 outgrow the 512 KB staging array, and odd fields
    # up to there lie in it, so the steps to t = 91, ..., 181 are staged
    assert _staging_steps(monkeypatch, evolve_2d, QuditState, 180) == 0
    assert _staging_steps(monkeypatch, evolve_2d, QuditState, 181) == 181 - 90


def _real(cls):
    """A stand-in for ``cls.random`` that draws a state with real components,
    whose evolution steps ``float64`` blocks."""
    n = 2 if cls is QubitState else 4

    def real(rng):
        v = rng.normal(size=n)
        return cls(*(v / np.linalg.norm(v)))

    return SimpleNamespace(random=real)


def test_real_buffers_hold_half_the_bytes_and_stage_later(monkeypatch):
    # a float64 lattice buffer at t = 255 holds 2,097,152 bytes, at t = 256
    # 2,113,568; fields past t = 127 outgrow the staging array's 65,536
    # cells, so the steps to t = 129, ..., 256 are staged.  The line's
    # float64 buffer stays within 2 MB to t = 131071, and its fields
    # outgrow 512 KB past t = 32767
    assert 4 * 8 * (255 + 1) ** 2 == walk1d._UNSTAGED_BYTES
    assert 2 * 8 * (131071 + 1) == walk1d._UNSTAGED_BYTES
    assert _staging_steps(monkeypatch, evolve_2d, _real(QuditState), 255) == 0
    assert _staging_steps(monkeypatch, evolve_2d, _real(QuditState), 256) == 256 - 128
    assert _staging_steps(monkeypatch, evolve_1d, _real(QubitState), 32768) == 0


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("p, t", [(0.25, 40), (0.5, 33), (0.75, 50)])
@pytest.mark.parametrize("stage", [False, True])
def test_a_real_evolution_is_the_trajectorys_last_field_bit_for_bit(monkeypatch, dim, p, t, stage):
    if stage:
        _small_stage(monkeypatch)
    cls, evolve, _, _ = LATTICES[dim]
    theta = _real(cls).random(np.random.default_rng(3000 * dim + 10 * t + int(10 * p)))
    field = evolve(theta, p, t)
    assert field.amps.dtype == np.float64
    _assert_is_the_last_field(field, theta, p, t, 0.0, dim)


def test_a_real_evolution_whose_box_shrank_is_the_trajectorys_last_field():
    # the float64 buffer at t = 230 is staged from t = 129 on, and the
    # flush sheds the same rows as for a complex state
    theta = _real(QuditState).random(np.random.default_rng(6))
    field = evolve_2d(theta, 0.001, 230)
    assert field.amps.dtype == np.float64
    assert field._box == (slice(6, -6), slice(0, None))
    _assert_is_the_last_field(field, theta, 0.001, 230, 0.0, 2)


LATTICE_T = 200


@pytest.fixture(scope="module")
def lattice_field():
    return evolve_2d(QuditState.random(np.random.default_rng(21)), 0.37, LATTICE_T)


def _peak(call) -> int:
    """Peak bytes ``tracemalloc`` sees numpy allocate while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lattice_evolution_peaks_at_one_block_and_the_stage():
    theta = QuditState.random(np.random.default_rng(21))
    nbytes = 4 * (LATTICE_T + 1) ** 2 * 16
    assert walk1d._STAGE_BYTES < nbytes  # the stage is not a second block
    peak = _peak(lambda: evolve_2d(theta, 0.37, LATTICE_T))
    assert peak <= nbytes + walk1d._STAGE_BYTES + 0.1 * nbytes


MASS_BYTES = (LATTICE_T + 1) ** 2 * 8  # one float64 per site


def test_lattice_distribution_and_total_peak_at_one_mass_array(lattice_field):
    assert _peak(lambda: distribution_2d(lattice_field)) <= 1.1 * MASS_BYTES
    assert _peak(lattice_field.total_probability) <= 1.1 * MASS_BYTES


@pytest.mark.parametrize("alpha, beta", [(1, 0), (0, 1), (1, 1), (3, 2)])
def test_lattice_moment_peaks_at_one_mass_array(lattice_field, alpha, beta):
    dist = distribution_2d(lattice_field)
    assert _peak(lambda: joint_moment_2d(dist, alpha, beta)) <= 1.1 * MASS_BYTES


@pytest.mark.parametrize("dim", [1, 2])
def test_a_returned_field_is_never_written_again(dim):
    cls, evolve, _, step = LATTICES[dim]
    rng = np.random.default_rng(11)
    theta = cls.random(rng)
    field = evolve(theta, 0.3, 20)
    before = field.amps.tobytes()
    later = [evolve(theta, 0.3, 20), evolve(cls.random(rng), 0.7, 25), step(field, 0.3)]
    later += [step(later[-1], 0.3), step(field, 0.6), evolve(theta, 0.3, 19)]
    assert field.amps.tobytes() == before
    assert not any(np.shares_memory(field.amps, f.amps) for f in later)
