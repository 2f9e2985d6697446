"""The exchange identity of both lattices, for every state:

    U^t (E theta) = (-1)^t E F U^t theta.

On the line ``E = symmetry.EXCHANGE_1D = J`` and ``F`` is the reflection
``x -> -x``, which reverses the block's one spatial axis; on the lattice
``E = symmetry.EXCHANGE_2D = blockdiag(J, J)`` and ``F`` is the inversion
``(x, y) -> (-x, -y)``, which on the packed grid takes cell ``(i, j)`` to
``(t - i, t - j)``.  Both rest on ``E H E^T = -H`` for the coin ``H``.  The
balanced reflection identity (``reflection_identity_1d``/``_2d``) is its
eigenvector case: a state ``theta`` proportional to ``(1, +-i)``, or on the
lattice to its Kronecker square, has ``E theta = -+i theta``.  Acceptance
checks 1 and 6 read the field of ``e_2 = EXCHANGE_2D e_1`` as the inversion
image of ``e_1``'s, and those of ``e_3`` and ``e_4`` as the mirror images
of the first two (``tests/test_mirror.py``).
"""

from functools import reduce

import numpy as np
import pytest

from qwalk import validation
from qwalk.coin import coin_1d, coin_2d
from qwalk.symmetry import (
    EXCHANGE_1D,
    EXCHANGE_2D,
    reflection_identity_1d,
    reflection_identity_2d,
)
from qwalk.walk1d import QubitState, evolve_1d
from qwalk.walk2d import QuditState, evolve_2d

LATTICES = {
    1: (QubitState, evolve_1d, coin_1d, EXCHANGE_1D, reflection_identity_1d),
    2: (QuditState, evolve_2d, coin_2d, EXCHANGE_2D, reflection_identity_2d),
}


def _inversion_image(field, exchange) -> np.ndarray:
    """``(-1)^t E F`` applied to a field's amplitudes."""
    flipped = np.flip(field.amps, axis=tuple(range(1, field.amps.ndim)))
    return (-1) ** field.t * np.tensordot(exchange, flipped, axes=1)


def _pair(dim: int, seed: int, p: float, t: int, k: float):
    cls, evolve, _, exchange, _ = LATTICES[dim]
    theta = cls.random(np.random.default_rng(seed)).as_array()
    return evolve(theta, p, t, k), evolve(exchange @ theta, p, t, k)


@pytest.mark.parametrize("dim", [1, 2])
def test_the_exchange_reverses_the_coin(dim):
    # E H E^T = -H, exactly: E only permutes and negates the coin's entries
    _, _, coin, exchange, _ = LATTICES[dim]
    for p in (0.1, 0.5, 0.83):
        h = coin(p)
        assert np.array_equal(exchange @ h @ exchange.T, -h)


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("k", [0.0, 0.7])
@pytest.mark.parametrize("t", [1, 2, 59, 60, 1000])
def test_the_exchanged_line_state_steps_to_the_reflected_field(p, k, t):
    field, exchanged = _pair(1, int(100 * p) + t, p, t, k)
    # measured at most 1.1e-15 over p 0.1-0.9, three Haar states each, to
    # t = 3001
    assert np.max(np.abs(exchanged.amps - _inversion_image(field, EXCHANGE_1D))) <= 2e-15


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("k", [0.0, 0.7])
@pytest.mark.parametrize("t", [1, 2, 59, 60, 120])
def test_the_exchanged_lattice_state_steps_to_the_inverted_field(p, k, t):
    field, exchanged = _pair(2, int(100 * p) + t, p, t, k)
    # measured at most 2.5e-16 over p 0.1-0.9, three Haar states each, to
    # t = 300
    assert np.max(np.abs(exchanged.amps - _inversion_image(field, EXCHANGE_2D))) <= 5e-16


@pytest.mark.parametrize("dim", [1, 2])
def test_the_identity_holds_past_a_box_shrink(dim):
    # at p = 0.001 the flush sheds six cells at each end of the line and six
    # rows at each end of the lattice's first axis by t = 230; the inversion
    # reverses those axes, which keeps the box
    field, exchanged = _pair(dim, 6, 0.001, 230, 0.3)
    box = (slice(6, -6),) + (slice(0, None),) * (dim - 1)
    assert field._box == exchanged._box == box
    # measured at most 1.6e-15 over twelve Haar states on either lattice
    image = _inversion_image(field, LATTICES[dim][3])
    assert np.max(np.abs(exchanged.amps - image)) <= 5e-15


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("branch", [1, -1])
def test_the_balanced_reflection_identity_is_the_eigenvector_case(dim, branch):
    # theta ~ (1, +-i) or its Kronecker square has E theta = -+i theta, so
    # U^t theta itself satisfies F U^t theta = (-1)^t (+-i) E U^t theta,
    # the residual that reflection_identity_* reads
    cls, _, _, exchange, residual = LATTICES[dim]
    theta = reduce(np.kron, [np.array([1, 1j * branch])] * dim) / np.sqrt(2) ** dim
    assert np.array_equal(exchange @ theta, -1j * branch * theta)
    for p in (0.25, 0.5, 0.75):
        for t in (1, 2, 15, 16):
            # measured at most 2.1e-16
            assert residual(cls(*theta), p, t) <= 1e-15, (p, t)


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("t", [1, 2, 60, 61])
def test_the_gates_lattice_basis_is_the_directly_stepped_basis(p, t):
    # validation._lattice_basis reads U^t e_2 as the inversion image of
    # U^t e_1, and U^t e_3, U^t e_4 as the mirror images of those two
    (field,) = validation._basis_fields(2, p, (t,))
    assert field.amps.dtype == np.float64  # e_1 is real, and stepped in float64
    for b, comps in enumerate(validation._lattice_basis(field)):
        direct = evolve_2d(np.eye(4)[b], p, t).amps
        image = np.array([sign * view for sign, view in comps])
        # measured at most 1.0e-16 here and at t = 300
        assert np.max(np.abs(image - direct)) <= 5e-16, b
