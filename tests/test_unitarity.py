"""Criterion 1's Gram path: the evolved chirality basis stands in for every state.

Check 1 reads each random state's total probability as ``theta^H G theta``
from the Gram matrix ``G`` of the evolved basis, the ``gram()`` of the
propagator's basis field (``basis_fields_1d``/``basis_fields_2d``), built
from one evolution on either lattice: the packed complex field on the line,
and on the lattice the real field of ``e_1``, whose inversion and mirror
images are the other three basis fields.  These tests hold that
``G`` against the basis fields evolved one by one and against states
evolved directly, bound every state's deviation at once, pin the check's
evolution count and its sensitivity to a planted leak, and check that a
complex lattice block is read whole.
"""

import numpy as np
import pytest

from qwalk import validation, walk1d, walk2d
from qwalk.walk1d import QubitState, basis_fields_1d, evolve_1d
from qwalk.walk2d import QuditState, basis_fields_2d, evolve_2d

LATTICES = {1: (evolve_1d, QubitState), 2: (evolve_2d, QuditState)}


def _gram(dim: int, p: float, t: int) -> np.ndarray:
    """The Gram matrix check 1 reads: the propagator's, from one evolution."""
    (basis,) = (basis_fields_1d, basis_fields_2d)[dim - 1](p, (t,))
    return basis.gram()


def _direct_gram(evolve, n: int, p: float, t: int) -> np.ndarray:
    """The Gram matrix of all ``n`` basis fields, each evolved and held at once."""
    fields = np.array([evolve(np.eye(n)[c], p, t).amps.ravel() for c in range(n)])
    return (fields.conj() @ fields.T).real


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
def test_packed_gram_equals_the_gram_of_the_basis_fields(dim, p):
    evolve, _ = LATTICES[dim]
    t = 120
    direct = _direct_gram(evolve, 2 * dim, p, t)
    assert np.max(np.abs(_gram(dim, p, t) - direct)) <= 1e-14


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
def test_gram_gives_each_haar_state_its_total_probability(dim, p):
    evolve, cls = LATTICES[dim]
    rng = np.random.default_rng(dim * 100 + int(p * 100))
    t = 120 if dim == 1 else 60
    g = _gram(dim, p, t)
    for _ in range(3):
        th = cls.random(rng)
        a = th.as_array()
        direct = evolve(th, p, t).total_probability()
        assert abs(float(np.vdot(a, g @ a).real) - direct) <= 1e-14


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
def test_gram_bounds_every_state_at_the_quick_scales(p):
    # |theta^H (G - I) theta| <= len(G) * max|G - I| for every unit theta
    for dim, t in ((1, 100), (2, 40)):
        g = _gram(dim, p, t)
        assert len(g) * np.max(np.abs(g - np.eye(len(g)))) <= 1e-12, (dim, p)


def test_check_1_evolves_the_basis_three_times_on_each_lattice(monkeypatch):
    # each call records its horizon and returns one field at the horizon,
    # with the whole state still at the origin: the count and horizons are
    # pinned without stepping; a trajectory stepped instead fails the test
    calls = {1: [], 2: []}
    for dim, name, evolve in ((1, "evolve_1d", evolve_1d), (2, "evolve_2d", evolve_2d)):

        def counted(theta, p, t, evolve=evolve, seen=calls[dim], dim=dim):
            seen.append(t)
            field = evolve(theta, p, 0)
            amps = np.pad(field.amps, [(0, 0)] + [(t // 2,) * 2] * dim)
            return type(field)(t, amps)

        monkeypatch.setattr((walk1d, walk2d)[dim - 1], name, counted)
    for module, name in ((walk1d, "trajectory_1d"), (walk2d, "trajectory_2d")):
        monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("stepped a trajectory"))
    passed, _ = validation.check_unitarity()
    assert passed
    assert calls == {1: [1000] * 3, 2: [300] * 3}


@pytest.mark.parametrize(
    "module,name,factor,worst",
    [
        (walk2d, "step_2d", 1 - 1e-6, "7.800e-05"),
        (walk1d, "step_1d", 1 - 1e-9, "1.980e-07"),
    ],
)
def test_check_1_fails_a_leak_planted_from_the_second_step(
    monkeypatch, module, name, factor, worst
):
    # every step from t = 2 on scales the amplitudes by ``factor``: the
    # horizon's norm is then factor^(2 (t - 1)), at every state alike
    step = getattr(module, name)

    def leaky(field, p, k=0.0):
        new = step(field, p, k)
        return new if new.t < 2 else type(new)(new.t, new.amps * factor)

    monkeypatch.setattr(module, name, leaky)
    passed, details = validation.check_unitarity(quick=True)
    assert not passed
    assert details.startswith(f"max |sum P - 1| = {worst} ")


def test_a_complex_lattice_basis_block_is_read_whole(monkeypatch):
    # the lattice basis is the real e_1, stepped in float64; a step rebuilt
    # through the field constructor returns complex128, and a global phase
    # from the second step on keeps every probability.  A reader that
    # dropped the imaginary parts would lose sin^2 of the phase, 0.3 (t - 1):
    # 58% of every mass at t = 40 and 98% at t = 100
    step = walk2d.step_2d
    unplanted = validation.check_unitarity(quick=True), validation.check_limit_2d(quick=True)

    def phased(field, p, k=0.0):
        new = step(field, p, k)
        return new if new.t < 2 else type(new)(new.t, new.amps * np.exp(0.3j))

    monkeypatch.setattr(walk2d, "step_2d", phased)
    (basis,) = basis_fields_2d(0.5, (40,))
    assert basis.amplitude(0, 0).dtype == np.complex128
    g = basis.gram()
    assert g.dtype == np.complex128 and np.array_equal(g, g.conj().T)
    # measured 4.0e-15
    assert np.max(np.abs(g - np.eye(4))) <= 1e-14
    assert (validation.check_unitarity(quick=True), validation.check_limit_2d(quick=True)) == unplanted
