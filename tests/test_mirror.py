"""The lattice walk's diagonal mirror, ``U^t (A theta) = (-1)^t A R U^t theta``.

``A = symmetry.EXCHANGE_XY = kron(J, I)`` exchanges the x movers with the y
movers and ``R`` mirrors the lattice, ``(x, y) -> (y, x)``, which on the
packed grid takes cell ``(i, j)`` to ``(i, t - j)``.  In wavenumber space
the same symmetry reads ``A S(m, n) A^T = -S(n, m)``.  Acceptance checks 1
and 6 read the fields of ``e_3`` and ``e_4`` as the mirror images of those
of ``e_1`` and ``e_2`` (the inversion identity, ``tests/test_inversion.py``,
gives ``e_2``'s), and the lattice quadrature sweeps one node of each mirror
pair.  These tests hold the identity on amplitudes, masses and the sweep's
per-node terms, pin that the mirror is defined once and not public, and
pin that check 6 steps one real field, that of ``e_1``.
"""

import numpy as np
import pytest

import qwalk
from qwalk import spectral, symmetry, validation
from qwalk.coin import CoinParameter, coin_2d, kernel_2d
from qwalk.spectral import QuadratureGrid
from qwalk.symmetry import EXCHANGE_XY
from qwalk.walk2d import QuditState, distribution_2d, evolve_2d


def _mirror_image(field) -> np.ndarray:
    """``(-1)^t A R`` applied to a lattice field's amplitudes."""
    flipped = field.amps[:, :, ::-1]
    return (-1) ** field.t * np.tensordot(EXCHANGE_XY, flipped, axes=1)


def _pair(seed: int, p: float, t: int, k: float):
    theta = QuditState.random(np.random.default_rng(seed)).as_array()
    return evolve_2d(theta, p, t, k), evolve_2d(EXCHANGE_XY @ theta, p, t, k)


def test_the_exchange_reverses_the_coin():
    # A kron(C, C) A^T = -kron(C, C), the position-space half of the identity
    for p in (0.1, 0.5, 0.83):
        h = coin_2d(p)
        assert np.array_equal(EXCHANGE_XY @ h @ EXCHANGE_XY.T, -h)


@pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.9])
def test_the_exchange_mirrors_the_kernel(p):
    # A S(m, n) A^T = -S(n, m), the wavenumber-space form of the identity
    rng = np.random.default_rng(int(100 * p))
    for m, n in rng.uniform(-np.pi, np.pi, (50, 2)):
        s = EXCHANGE_XY @ kernel_2d(p, m, n) @ EXCHANGE_XY.T
        assert np.max(np.abs(s + kernel_2d(p, n, m))) <= 1e-15


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("t", [1, 2, 59, 60])
@pytest.mark.parametrize("k", [0.0, 0.7])
def test_the_mirrored_state_steps_to_the_mirrored_field(p, t, k):
    field, mirrored = _pair(int(100 * p) + t, p, t, k)
    # measured 1.6e-16 here, and 2.1e-16 over p 0.1-0.9 at t = 299 and 300
    assert np.max(np.abs(mirrored.amps - _mirror_image(field))) <= 5e-16


def test_the_identity_holds_past_a_box_shrink():
    # at p = 0.001 the flush sheds six rows at each end of the first axis by
    # t = 230 (tests/test_reused_blocks.py); the mirror keeps that axis
    field, mirrored = _pair(6, 0.001, 230, 0.3)
    assert field._box == mirrored._box == (slice(6, -6), slice(0, None))
    # measured 9.7e-16 here and at most 2.8e-15 over twelve Haar states
    assert np.max(np.abs(mirrored.amps - _mirror_image(field))) <= 5e-15


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
def test_the_mirrored_state_has_the_mirrored_masses(p):
    field, mirrored = _pair(40 + int(100 * p), p, 120, 0.0)
    d, m = distribution_2d(field), distribution_2d(mirrored)
    # P_{A theta}(x, y) = P_theta(y, x); measured 7.8e-18
    assert np.max(np.abs(m.grid - d.grid[:, ::-1])) <= 1e-16
    for x, y in ((3, -7), (0, 0), (-20, 14)):
        assert abs(m.mass(x, y) - d.mass(y, x)) <= 1e-16


@pytest.mark.parametrize("p", [0.2, 0.5, 0.77])
def test_a_node_and_its_mirror_have_the_same_terms(p):
    # sum_j w_{A^T theta}(k) v_y^a v_x^b = sum_j w_theta(sigma k) v_x^a v_y^b,
    # sigma (m, n) = (n, m), node by node over the N = 32 tensor grid, to the
    # sweep's per-node accuracy: machine epsilon over the smallest phase gap
    c, h = CoinParameter(p), coin_2d(p)
    nodes = QuadratureGrid(32).nodes()
    m, n = (a.ravel() for a in np.meshgrid(nodes, nodes, indexing="ij"))
    lam, P, K, e = spectral._batch_eigensystem(c, m, n)
    _, Ps, Ks, es = spectral._batch_eigensystem(c, n, m)
    (vx, vy), (vxs, vys) = spectral._velocities(P), spectral._velocities(Ps)
    phases = np.sort(np.angle(lam), axis=1)
    gap = np.min(np.diff(phases, axis=1, append=phases[:, :1] + 2 * np.pi), axis=1)
    rng = np.random.default_rng(int(100 * p))
    for theta in (QuditState(1, 0, 0, 0), QuditState.random(rng)):
        th = theta.as_array()
        w = spectral._weights(h, e, K, EXCHANGE_XY.T @ th)
        ws = spectral._weights(h, es, Ks, th)
        for a, b in ((0, 0), (1, 0), (0, 1), (1, 1), (3, 2)):
            here = np.sum(w * vy**a * vx**b, axis=1)
            there = np.sum(ws * vxs**a * vys**b, axis=1)
            # measured: gap * |here - there| at most 3.1e-15 over N = 32, 128
            # and 512 and p = 0.2, 0.5, 0.77, and |here - there| 3.5e-15 here
            assert np.max(gap * np.abs(here - there)) <= 1e-14, (a, b)


def test_the_mirror_is_defined_once_and_not_public():
    assert symmetry.EXCHANGE_XY is spectral.EXCHANGE_XY is validation.EXCHANGE_XY
    assert not EXCHANGE_XY.flags.writeable
    assert np.array_equal(EXCHANGE_XY, np.kron(symmetry.EXCHANGE_1D, np.eye(2)))
    assert "EXCHANGE_XY" not in symmetry.__all__ and not hasattr(qwalk, "EXCHANGE_XY")


@pytest.mark.parametrize("quick,horizon", [(True, 100), (False, 300)])
def test_check_6_steps_one_packed_lattice_field_and_no_state(monkeypatch, quick, horizon):
    seen = []

    def counted(theta, p, t, k=0.0):
        seen.append((tuple(theta), p, t))
        return evolve_2d(theta, p, t, k)

    monkeypatch.setattr(validation, "evolve_2d", counted)
    monkeypatch.setattr(validation, "trajectory_2d", lambda *a, **k: pytest.fail("trajectory"))
    passed, _ = validation.check_limit_2d(quick=quick)
    assert passed
    # the real e_1: its inversion and mirror images give the other three
    assert seen == [((1, 0, 0, 0), 0.5, horizon)]


@pytest.mark.parametrize("quick", [True, False])
def test_check_6_reads_the_directly_stepped_masses(monkeypatch, quick):
    # the same verdict and the same detail line as stepping each state
    states = []

    def direct(field, theta):
        states.append(theta)
        return distribution_2d(evolve_2d(theta, 0.5, field.t)).grid

    linear = validation.check_limit_2d(quick=quick)
    # the reader's coefficients pass the state itself to the stand-in
    monkeypatch.setattr(validation, "_coefficients", lambda theta: theta)
    monkeypatch.setattr(validation, "_masses", direct)
    assert validation.check_limit_2d(quick=quick) == linear
    assert len(states) == (2 if quick else 3)
