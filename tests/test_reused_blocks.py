"""Evolution in two reused blocks: ``evolve_1d`` and ``evolve_2d``.

An evolution keeps no earlier field, so it steps in two blocks of the final
field's shape, used in turn, where a trajectory gives every field a fresh
block.  These tests hold the evolved field against the trajectory's last
field bit for bit, pin the step count and the two buffers with a recorder
around the step, and check that a returned field is never written again.
"""

from collections import deque

import numpy as np
import pytest

from qwalk import walk1d, walk2d
from qwalk.walk1d import QubitState, evolve_1d, step_1d, trajectory_1d
from qwalk.walk2d import QuditState, evolve_2d, step_2d, trajectory_2d

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


@pytest.mark.parametrize(
    "dim,module,name,t", [(1, walk1d, "step_1d", 40), (2, walk2d, "step_2d", 21)]
)
def test_evolution_steps_t_times_in_two_buffers(monkeypatch, dim, module, name, t):
    # each stepped field is held, so no buffer is freed and its identity is
    # never reused: a fresh block per step would give t buffers
    cls, evolve, _, _ = LATTICES[dim]
    step, stepped = getattr(module, name), []

    def recorded(field, p, k=0.0):
        stepped.append(step(field, p, k))
        return stepped[-1]

    monkeypatch.setattr(module, name, recorded)
    field = evolve(cls.random(np.random.default_rng(7)), 0.5, t)
    assert len(stepped) == t and stepped[-1] is field
    buffers = {id(_buffer(f.amps)): _buffer(f.amps) for f in stepped}
    assert len(buffers) == 2
    assert _buffer(field.amps).nbytes == field.amps.nbytes  # the whole block


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
