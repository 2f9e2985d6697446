"""Kernel spectra and projectors, group velocities, and weak-limit quadrature."""

import inspect
import math

import numpy as np
import pytest

from qwalk import spectral, walk2d
from qwalk.coin import as_coin, coin_1d, coin_2d, kernel_1d, kernel_2d
from qwalk.errors import DegenerateSpectrumError, InvalidParameterError
from qwalk.spectral import (
    MomentReport,
    QuadratureGrid,
    _batch_eigensystem,
    _line_spectrum,
    _velocities,
    _weights,
    convergence_report,
    convergence_reports,
    group_velocity,
    limit_moment_1d,
    limit_moment_2d,
    limit_moments_2d,
    sigma,
)
from qwalk.walk1d import QubitState, distribution_1d, moment_1d, trajectory_1d
from qwalk.walk2d import QuditState, distribution_2d, joint_moment_2d, trajectory_2d

R = 1 / math.sqrt(2)


class TestQuadratureGrid:
    def test_nodes_offset_and_range(self):
        g = QuadratureGrid(64)
        nodes = g.nodes()
        assert nodes.size == 64
        assert nodes[0] == pytest.approx(-math.pi + math.pi / 64)
        assert np.all(nodes >= -math.pi) and np.all(nodes < math.pi)
        # nodes never hit the symmetry set
        for special in (0.0, math.pi / 2, -math.pi / 2, -math.pi):
            assert np.min(np.abs(nodes - special)) > 1e-6

    @pytest.mark.parametrize("bad", [0, 1, 3, 100, -8])
    def test_rejects_non_power_of_two(self, bad):
        with pytest.raises(InvalidParameterError):
            QuadratureGrid(bad)

    def test_numpy_integer_size(self):
        g = QuadratureGrid(np.int64(64))
        assert g.n == 64 and type(g.n) is int
        assert np.array_equal(g.nodes(), QuadratureGrid(64).nodes())

    def test_numpy_integer_size_1d_limit(self):
        a = limit_moment_1d((1, 0), 0.5, 1, np.int64(64))
        assert a == limit_moment_1d((1, 0), 0.5, 1, 64)

    def test_numpy_integer_size_2d_limits(self):
        th = [QuditState(1, 0, 0, 0)]
        a = limit_moments_2d(th, 0.5, [(1, 0)], np.int64(32))
        assert np.array_equal(a, limit_moments_2d(th, 0.5, [(1, 0)], 32))


class TestDispersion:
    def test_sigma_at_zero(self):
        assert sigma(0.37, 0.0) == 0.0

    def test_sigma_quarter_turn(self):
        assert sigma(0.5, math.pi / 2) == pytest.approx(math.pi / 4, abs=1e-14)

    def test_sigma_is_odd(self):
        for x in (0.3, 1.1, 2.9):
            assert sigma(0.6, -x) == pytest.approx(-sigma(0.6, x), abs=1e-15)

    @pytest.mark.parametrize("p", [0.05, 0.25, 0.5, 0.75, 0.95])
    def test_sigma_is_the_line_spectrum_oracle(self, p):
        x = QuadratureGrid(256).nodes()
        lam, P, _, _ = _line_spectrum(as_coin(p), x)
        sig = np.array([sigma(p, k) for k in x])
        assert np.max(np.abs(lam[:, 0] - np.exp(-1j * sig))) <= 1e-15
        assert np.max(np.abs(lam[:, 1] + np.exp(1j * sig))) <= 1e-15
        # and its derivative the oracle for the branch velocities
        (v,) = _velocities(P)
        ref = np.array([group_velocity(p, k) for k in x])
        assert np.max(np.abs(v - np.stack([ref, -ref], axis=1))) <= 1e-15

    def test_velocity_at_zero(self):
        assert group_velocity(0.49, 0.0) == pytest.approx(0.7, abs=1e-14)

    def test_velocity_vanishes_at_quarter_turn(self):
        assert group_velocity(0.5, math.pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_velocity_hand_value(self):
        assert group_velocity(0.5, math.pi / 4) == pytest.approx(
            0.5 / math.sqrt(0.75), abs=1e-14
        )

    def test_velocity_bounded_by_one(self):
        for p in (0.25, 0.5, 0.95):
            xs = np.linspace(-math.pi, math.pi, 101, endpoint=False)
            assert max(abs(group_velocity(p, x)) for x in xs) <= 1.0


def _spectrum(p, *ks):
    """The sweep's spectrum ``(lam, P, K, e)`` at wavenumbers ``ks``, one
    value or array per axis: :func:`_line_spectrum` for one axis,
    :func:`_batch_eigensystem` for two."""
    spectrum = (_line_spectrum, _batch_eigensystem)[len(ks) - 1]
    return spectrum(as_coin(p), *(np.atleast_1d(np.asarray(k, float)) for k in ks))


def _projectors(p, *ks):
    """Eigenvalues and full spectral projectors ``P_j = sum_m K_jm S^m``,
    shapes (B, n) and (B, n, n, n), with ``S = e[:, :, None] * coin``."""
    lam, _, K, e = _spectrum(p, *ks)
    S = e[:, :, None] * (coin_1d, coin_2d)[len(ks) - 1](p)
    powers = [np.broadcast_to(np.eye(S.shape[1]), S.shape)]
    for _ in range(1, S.shape[1]):
        powers.append(S @ powers[-1])
    return lam, np.einsum("bjm,mbik->bjik", K, np.array(powers))


def _branch_weights(p, theta, *ks):
    """The sweep's weights of ``theta`` per node and branch, halved: the mean
    of ``theta^dag P_j theta`` and ``conj(theta)^dag P_j conj(theta)``, which
    sums to 1 over the branches."""
    _, _, K, e = _spectrum(p, *ks)
    coin = (coin_1d, coin_2d)[len(ks) - 1](p)
    return _weights(coin, e, K, theta.as_array()) / 2


class TestEigensystem1D:
    """The line's branches, read from the projectors the sweep reads."""

    def test_eigenvalues_at_zero(self):
        lam = _spectrum(0.3, 0.0)[0]
        assert lam[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert lam[0, 1] == pytest.approx(-1.0, abs=1e-14)

    @pytest.mark.parametrize("x", [-2.1, 0.4, 1.9])
    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_branch_properties(self, p, x):
        rng = np.random.default_rng(42)
        th = QubitState.random(rng)
        lam, P, _, _ = _spectrum(p, x)
        assert np.max(np.abs(np.abs(lam) - 1.0)) <= 1e-12
        assert np.sum(_branch_weights(p, th, x)) == pytest.approx(1.0, abs=1e-10)
        _, proj = _projectors(p, x)
        assert np.max(np.abs(proj[0, 0] @ proj[0, 1])) <= 1e-12
        (v,) = _velocities(P)
        # the two transport velocities are negatives of each other
        assert v[0, 0] == pytest.approx(-v[0, 1], abs=1e-12)
        # and the positive branch carries the dispersion derivative
        assert v[0, 0] == pytest.approx(group_velocity(p, x), abs=1e-12)

    def test_eigen_residual(self):
        # the projector residual |S P_j - lam_j P_j|, S the independent kernel
        p, x = 0.6, 1.3
        lam, proj = _projectors(p, x)
        s = kernel_1d(p, x)
        for j in range(2):
            assert np.max(np.abs(s @ proj[0, j] - lam[0, j] * proj[0, j])) <= 1e-13
        assert np.max(np.abs(proj[0].sum(axis=0) - np.eye(2))) <= 1e-14


class TestLimitMoment1D:
    def test_rejects_zero_order(self):
        with pytest.raises(InvalidParameterError):
            limit_moment_1d(QubitState(1.0, 0.0), 0.5, 0)

    def test_right_mover_mean(self):
        v = limit_moment_1d(QubitState(1.0, 0.0), 0.5, 1, QuadratureGrid(4096))
        assert v == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-12)

    def test_balanced_state_mean_vanishes(self):
        v = limit_moment_1d(QubitState(R, R * 1j), 0.5, 1, QuadratureGrid(4096))
        assert abs(v) <= 1e-14

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.75, 0.9])
    def test_second_moment_state_independent(self, p):
        rng = np.random.default_rng(7)
        for th in (QubitState(1.0, 0.0), QubitState.random(rng)):
            v = limit_moment_1d(th, p, 2, QuadratureGrid(2048))
            assert v == pytest.approx(1 - math.sqrt(1 - p), abs=1e-12)

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_grid_stability(self, p):
        th = QubitState(0.6, 0.8j)
        for alpha in (1, 2):
            a = limit_moment_1d(th, p, alpha, QuadratureGrid(1024))
            b = limit_moment_1d(th, p, alpha, QuadratureGrid(4096))
            assert abs(a - b) <= 1e-10


def _closed_form_moment_1d(theta, p, alpha, n):
    """Reference 1D limit: closed-form branch weights ``w1, w2`` and
    velocities ``+-group_velocity``, integrand ``w1 v^a + w2 (-v)^a``."""
    th = theta.as_array()
    x = QuadratureGrid(n).nodes()
    sp, sq = math.sqrt(p), math.sqrt(1 - p)
    s = sp * np.sin(x)
    b = sq * np.exp(-1j * x)
    g = np.sqrt(1 - s * s) - 1j * s - sp * np.exp(-1j * x)
    nrm2 = 1 - p + np.abs(g) ** 2
    w1 = np.abs(np.conj(b) * th[0] + np.conj(g) * th[1]) ** 2 / nrm2
    w2 = np.abs(-g * th[0] + b * th[1]) ** 2 / nrm2
    v = np.array([group_velocity(p, xx) for xx in x])
    return float(np.sum(w1 * v**alpha + w2 * (-v) ** alpha) / n)


class TestLimitMoment1DAgainstClosedForm:
    @pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_matches_closed_form_integrand(self, p):
        rng = np.random.default_rng(13)
        states = [QubitState(1.0, 0.0), QubitState(0.6, 0.8j), QubitState.random(rng)]
        for th in states:
            for alpha in (1, 2, 3):
                got = limit_moment_1d(th, p, alpha)
                ref = _closed_form_moment_1d(th, p, alpha, 4096)
                assert abs(got - ref) <= 1e-15


def _konno_moment(theta, p, r):
    """Exact ``r``-th moment of the line's weak limit (Konno's law):
    ``m_2j = 1 - sqrt(q) sum_{i<j} C(2i, i) (p/4)^i`` and
    ``m_{2j+1} = lam m_{2j+2}`` with
    ``lam = |a|^2 - |b|^2 + 2 sqrt(q/p) Re(a conj(b))``; no quadrature."""
    a, b = theta.as_array()
    q = 1 - p

    def even(j):
        return 1 - math.sqrt(q) * sum(math.comb(2 * i, i) * (p / 4) ** i for i in range(j))

    if r % 2 == 0:
        return even(r // 2)
    lam = abs(a) ** 2 - abs(b) ** 2 + 2 * math.sqrt(q / p) * (a * np.conj(b)).real
    return lam * even((r + 1) // 2)


class TestLimitMoment1DAgainstKonno:
    @pytest.mark.parametrize("p", [0.05, 0.2, 0.5, 0.77, 0.95])
    def test_matches_exact_moments(self, p):
        rng = np.random.default_rng(2002)
        states = [QubitState(1.0, 0.0), QubitState(0.0, 1.0)]
        states += [QubitState.random(rng) for _ in range(5)]
        for th in states:
            for r in range(1, 13):
                got = limit_moment_1d(th, p, r, QuadratureGrid(4096))
                assert abs(got - _konno_moment(th, p, r)) <= 1e-14, (th, r)


class TestEigensystem2D:
    """The lattice's branches, read from the projectors the sweep reads."""

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            th = QuditState.random(rng)
            wgt = _branch_weights(0.5, th, 0.7, -1.1)
            assert np.sum(wgt) == pytest.approx(1.0, abs=1e-10)

    def test_unit_modulus_and_product(self):
        lam = _spectrum(0.5, 0.9, 0.4)[0][0]
        assert np.max(np.abs(np.abs(lam) - 1.0)) <= 1e-12
        assert abs(abs(np.prod(lam)) - 1.0) <= 1e-12

    def test_velocity_taxicab_bound(self):
        g = QuadratureGrid(16).nodes()[::4]
        ms, ns = (a.ravel() for a in np.meshgrid(g, g, indexing="ij"))
        vx, vy = _velocities(_spectrum(0.5, ms, ns)[1])
        assert np.max(np.abs(vx) + np.abs(vy)) <= 1.0 + 1e-10

    def test_degenerate_node_raises(self):
        with pytest.raises(DegenerateSpectrumError):
            _spectrum(0.5, 0.0, 0.0)

    def test_eigen_residual(self):
        p = 0.3
        # diagonal nodes m = n included: every node takes the same closed form
        for m, n in ((0.7, -1.2), (0.7, 0.7), (-1.1, -1.1), (2.3, 2.3)):
            s = kernel_2d(p, m, n)
            lam, proj = _projectors(p, m, n)
            for j in range(4):
                res = np.max(np.abs(s @ proj[0, j] - lam[0, j] * proj[0, j]))
                assert res <= 1e-12


class TestLimitMoment2D:
    def test_rejects_trivial_order(self):
        with pytest.raises(InvalidParameterError):
            limit_moment_2d(QuditState(1, 0, 0, 0), 0.5, 0, 0)

    def test_balanced_state_first_moments_vanish(self):
        th = QuditState(0.5, 0.5j, 0.5j, -0.5)
        for order in ((1, 0), (0, 1)):
            v = limit_moment_2d(th, 0.5, *order, grid=QuadratureGrid(64))
            assert abs(v) <= 1e-10

    def test_matches_simulation(self):
        from qwalk.walk2d import distribution_2d, evolve_2d, joint_moment_2d

        th = QuditState(1, 0, 0, 0)
        d = distribution_2d(evolve_2d(th, 0.5, 100))
        for order in ((1, 0), (1, 1), (2, 0)):
            quad = limit_moment_2d(th, 0.5, *order, grid=QuadratureGrid(64))
            sim = joint_moment_2d(d, *order)
            assert abs(quad - sim) <= 2e-2

    def test_grid_stability(self):
        # algebraic convergence; measured |N=128 - N=256| for these orders:
        # 8.39e-5, 7.29e-5, 3.65e-5, 4.50e-5
        orders = ((1, 0), (0, 1), (1, 1), (2, 0))
        th = [QuditState(1, 0, 0, 0)]
        a = limit_moments_2d(th, 0.5, orders, grid=128)
        b = limit_moments_2d(th, 0.5, orders, grid=256)
        assert np.max(np.abs(a - b)) <= 1e-4


def _grid_2d(n):
    nodes = QuadratureGrid(n).nodes()
    mm, nn = np.meshgrid(nodes, nodes, indexing="ij")
    return mm.ravel(), nn.ravel()


def _eig_qr(p, ms, ns):
    """Reference 2D eigensystem: mover phases, general eig, phase sort, QR."""
    ph = np.stack([np.exp(-1j * ms), np.exp(1j * ms), np.exp(-1j * ns), np.exp(1j * ns)], 1)
    w, V = np.linalg.eig(ph[:, :, None] * coin_2d(p).real)
    order = np.argsort(np.angle(w), axis=1)
    Q, _ = np.linalg.qr(np.take_along_axis(V, order[:, None, :], axis=2))
    return ph, np.take_along_axis(w, order, axis=1), Q


def _eig_qr_moments(thetas, p, orders, n):
    """Reference 2D limit moments: general eig, phase sort, QR, triple products."""
    ph, _, Q = _eig_qr(p, *_grid_2d(n))
    z = np.zeros(len(ph))
    dphx = np.stack([-1j * ph[:, 0], 1j * ph[:, 1], z, z], 1)
    dphy = np.stack([z, z, -1j * ph[:, 2], 1j * ph[:, 3]], 1)
    H = coin_2d(p).real
    S, dSx, dSy = (d[:, :, None] * H for d in (ph, dphx, dphy))
    lam = np.einsum("bik,bij,bjk->bk", Q.conj(), S, Q)
    vx = -np.imag(np.einsum("bik,bij,bjk->bk", Q.conj(), dSx, Q) / lam)
    vy = -np.imag(np.einsum("bik,bij,bjk->bk", Q.conj(), dSy, Q) / lam)
    out = np.empty((len(thetas), len(orders)))
    for si, th in enumerate(thetas):
        wgt = np.abs(np.einsum("bik,i->bk", Q.conj(), th.as_array())) ** 2
        for oi, (a, b) in enumerate(orders):
            out[si, oi] = np.sum(wgt * vx**a * vy**b) / n**2
    return out


def _paired_eig_qr(p, ms, ns, lam):
    """eig + QR eigenvectors with columns in the branch order of ``lam``.

    Branches are paired by eigenvalue: at p = 1/2 an eigenvalue sits at -1
    on m = -n, and a ~1e-17 imaginary part decides which end of the phase
    order it takes.
    """
    _, w, V = _eig_qr(p, ms, ns)
    pair = np.abs(lam[:, :, None] - w[:, None, :]).argmin(axis=2)
    return np.take_along_axis(V, pair[:, None, :], axis=2)


def _set_distance(lam, ref):
    """Largest distance, over nodes, between two eigenvalue sets of one node."""
    d = np.abs(lam[:, :, None] - ref[:, None, :])
    return max(d.min(axis=2).max(), d.min(axis=1).max())


class TestBatchEigensystemAgainstOracles:
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_eigenvalues_match_eigvals_on_grid(self, p):
        ms, ns = _grid_2d(64)
        lam = _batch_eigensystem(as_coin(p), ms, ns)[0]
        ref = np.linalg.eigvals(np.stack([kernel_2d(p, m, n) for m, n in zip(ms, ns)]))
        assert _set_distance(lam, ref) <= 1e-14

    @pytest.mark.parametrize(
        "m, n",
        [
            (-math.pi / 2 + 1e-3, math.pi / 2 + 1e-3),
            (-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3),
            (-math.pi / 2 + 1e-5, math.pi / 2 - 1e-5),
            (1e-3, 2e-3),
        ],
    )
    def test_eigenvalues_match_eigvals_where_cosines_cancel(self, m, n):
        # sqrt(1 - s^2) for the cosines, or 1 - cos^2 for sin^2((m - n)/2),
        # misses these nodes by 1.8e-10 and 3.2e-14
        lam = _batch_eigensystem(as_coin(0.3), np.array([m]), np.array([n]))[0]
        ref = np.linalg.eigvals(kernel_2d(0.3, m, n))[None, :]
        assert _set_distance(lam, ref) <= 1e-14

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_branch_probabilities_match_eig_qr(self, p):
        ms, ns = _grid_2d(128)
        lam, P, _, _ = _batch_eigensystem(as_coin(p), ms, ns)
        V = _paired_eig_qr(p, ms, ns, lam)
        assert np.max(np.abs(P - np.abs(V) ** 2)) <= 1e-11

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_sweep_weights_match_eig_qr(self, p):
        # the folded weights |Q^dag theta|^2 + |Q^T theta|^2 the sweep reads
        # from the projectors, node by node; the test above checks their
        # diagonals
        ms, ns = _grid_2d(128)
        c = as_coin(p)
        lam, _, K, e = _batch_eigensystem(c, ms, ns)
        V = _paired_eig_qr(p, ms, ns, lam)
        rng = np.random.default_rng(37)
        states = [QuditState(1, 0, 0, 0), QuditState(0.5, 0.5j, 0.5j, -0.5)]
        for th in states + [QuditState.random(rng) for _ in range(3)]:
            t = th.as_array()
            ref = np.abs(t @ V.conj()) ** 2 + np.abs(t @ V) ** 2
            assert np.max(np.abs(_weights(coin_2d(c), e, K, t) - ref)) <= 1e-11


class TestLineSpectrumAgainstEig:
    """The line's projectors against a general ``eig`` of ``kernel_1d``,
    which shares no code with them; the quarter-torus tests' reference
    reads the same projectors as the sweep."""

    @pytest.mark.parametrize("p", [0.05, 0.25, 0.5, 0.75, 0.95])
    def test_diagonals_and_weights_match_eig(self, p):
        xs = QuadratureGrid(256).nodes()
        lam, P, K, e = _line_spectrum(as_coin(p), xs)
        w, V = np.linalg.eig(np.stack([kernel_1d(p, x) for x in xs]))
        pair = np.abs(lam[:, :, None] - w[:, None, :]).argmin(axis=2)
        V = np.take_along_axis(V, pair[:, None, :], axis=2)
        assert np.max(np.abs(lam - np.take_along_axis(w, pair, axis=1))) <= 1e-14
        assert np.max(np.abs(P - np.abs(V) ** 2)) <= 1e-14
        rng = np.random.default_rng(41)
        for th in [QubitState(1.0, 0.0), QubitState(0.6, 0.8j), QubitState.random(rng)]:
            t = th.as_array()
            ref = np.abs(t @ V.conj()) ** 2 + np.abs(t @ V) ** 2
            assert np.max(np.abs(_weights(coin_1d(p), e, K, t) - ref)) <= 1e-14


def _phase_gap(p, ms, ns):
    """Smallest circular gap between the kernel's eigenphases, per node."""
    ph = np.angle(_batch_eigensystem(as_coin(p), np.atleast_1d(ms), np.atleast_1d(ns))[0])
    return np.diff(np.concatenate([ph, ph[:, :1] + 2 * np.pi], axis=1), axis=1).min(axis=1)


class TestDegeneratePoints:
    """The 4x4 kernel is degenerate at exactly four points, where the
    per-node error of the sweep, about machine epsilon over the smallest
    phase gap, peaks.  The discriminant vanishes only at (0, 0) and (pi, pi):
    Dirac points, where the gap opens linearly in every direction.  The
    factored cosines vanish only at (pi/2, -pi/2) and (-pi/2, pi/2):
    semi-Dirac touchings, where it opens linearly across the diagonal but
    quadratically along (1, 1).  Measured at p = 0.3; ``d`` is the
    Euclidean distance from the point.
    """

    P = 0.3
    DIRAC = ((0.0, 0.0), (-math.pi, -math.pi))
    SEMI_DIRAC = ((math.pi / 2, -math.pi / 2), (-math.pi / 2, math.pi / 2))
    DIAG, ANTI, X = (R, R), (R, -R), (1.0, 0.0)

    def _gaps(self, point, direction, ds):
        (m, n), (u, v) = point, direction
        return _phase_gap(self.P, m + ds * u, n + ds * v)

    @pytest.mark.parametrize("m, n", DIRAC + SEMI_DIRAC)
    def test_each_point_is_degenerate(self, m, n):
        ref = np.linalg.eigvals(kernel_2d(self.P, m, n))
        assert np.min(np.abs(ref[:, None] - ref[None, :]) + np.eye(4)) <= 1e-12
        with pytest.raises(DegenerateSpectrumError):
            _batch_eigensystem(as_coin(self.P), np.array([m]), np.array([n]))

    def test_no_other_point_is_degenerate(self):
        # on a 256^2 grid the gap is at least 0.2 r^2 (measured 0.235 r^2),
        # r the distance to the nearest of the four points
        ms, ns = _grid_2d(256)
        r = np.full(ms.shape, np.inf)
        for m, n in self.DIRAC + self.SEMI_DIRAC:
            dm, dn = (np.angle(np.exp(1j * (k - k0))) for k, k0 in ((ms, m), (ns, n)))
            r = np.minimum(r, np.hypot(dm, dn))
        assert np.min(_phase_gap(self.P, ms, ns) / r**2) >= 0.2

    @pytest.mark.parametrize("point", DIRAC)
    def test_dirac_gap_opens_linearly(self, point):
        ds = np.array([1e-2, 1e-3, 1e-4])
        assert np.allclose(self._gaps(point, self.DIAG, ds) / ds, 0.7746, atol=1e-3)
        assert np.allclose(self._gaps(point, self.X, ds) / ds, 0.8888, atol=1e-3)

    @pytest.mark.parametrize("point", SEMI_DIRAC)
    def test_semi_dirac_gap_is_quadratic_along_the_diagonal(self, point):
        ds = np.array([1e-1, 1e-2, 1e-3])
        # 3.27e-3, 3.27e-5 and 3.27e-7
        assert np.allclose(self._gaps(point, self.DIAG, ds) / ds**2, 0.327, atol=1e-3)
        assert np.allclose(self._gaps(point, self.ANTI, ds) / ds, 1.4142, atol=1e-3)


class TestLimitMoments2DAgainstEigQR:
    ORDERS = ((1, 0), (0, 1), (1, 1), (2, 0))

    @pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_matches_eig_qr_reference(self, p):
        rng = np.random.default_rng(11)
        states = [QuditState(1, 0, 0, 0), QuditState(0.5, 0.5j, 0.5j, -0.5)]
        states.append(QuditState.random(rng))
        got = limit_moments_2d(states, p, self.ORDERS, grid=64)
        ref = _eig_qr_moments(states, p, self.ORDERS, 64)
        assert np.max(np.abs(got - ref)) <= 1e-13


class TestConvergenceReport:
    def test_gaps_shrink_for_drifting_state(self):
        rep = convergence_report(
            QubitState(1.0, 0.0), 0.5, 1, ladder=(125, 250, 500, 1000)
        )
        assert rep.gaps[-1] < rep.gaps[0]
        assert rep.converged

    def test_trivial_order_gaps_are_zero(self):
        rep = convergence_report(QubitState(1.0, 0.0), 0.5, 0, ladder=(10, 20))
        assert rep.quadrature == 1.0
        assert rep.gaps == (0.0, 0.0)
        assert rep.converged

    @pytest.mark.parametrize(
        "theta, p, beta",
        [(QubitState(1, 0), 1.5, None), ((1, 0, 0, 0), float("nan"), 0)],
    )
    def test_trivial_order_still_checks_p(self, theta, p, beta):
        with pytest.raises(InvalidParameterError):
            convergence_report(theta, p, 0, beta, ladder=(10, 20))

    @pytest.mark.parametrize(
        "theta, beta, grid", [(QubitState(1, 0), None, 3), (QuditState(1, 0, 0, 0), 0, "x")]
    )
    def test_trivial_order_still_checks_grid(self, theta, beta, grid):
        with pytest.raises(InvalidParameterError):
            convergence_report(theta, 0.5, 0, beta, ladder=(10, 20), grid=grid)

    def test_balanced_state_stays_near_zero(self):
        rep = convergence_report(
            QubitState(R, R * 1j), 0.5, 1, ladder=(125, 250, 500)
        )
        for t, s in zip(rep.times, rep.simulated):
            if t >= 500:
                assert abs(s) <= 5e-3
        assert rep.converged

    def test_lattice_report_structure(self):
        rep = convergence_report(
            QuditState(1, 0, 0, 0),
            0.5,
            1,
            beta=0,
            ladder=(25, 50),
            grid=QuadratureGrid(64),
        )
        assert rep.beta == 0
        assert len(rep.simulated) == 2

    def test_line_state_rejects_beta(self):
        with pytest.raises(InvalidParameterError):
            convergence_report(QubitState(1, 0), 0.5, 1, beta=3, ladder=(10, 20), grid=64)

    @pytest.mark.parametrize(
        "comps, beta", [((1, 0), None), ((0.5, 0.5j, 0.5j, -0.5), 0)]
    )
    def test_iterator_state_equals_tuple_state(self, comps, beta):
        # the state is read once: the dimension test must not exhaust it
        kw = dict(beta=beta, ladder=(10, 20), grid=64)
        assert convergence_report(iter(comps), 0.5, 1, **kw) == convergence_report(
            comps, 0.5, 1, **kw
        )

    def test_default_ladder_is_per_lattice(self):
        assert convergence_report(QuditState(1, 0, 0, 0), 0.5, 1, grid=64).times == (75, 150, 300)
        assert convergence_report(QubitState(1, 0), 0.5, 0).times == (125, 250, 500, 1000)

    def test_rejects_bad_ladder(self):
        for ladder in ((100, 50), (10.5, 20.9), (0, 10)):  # 10.5 is not truncated
            with pytest.raises(InvalidParameterError):
                convergence_report(QubitState(1.0, 0.0), 0.5, 1, ladder=ladder, grid=64)


def _own_trajectory_moments(theta, p, order, ladder) -> list[float]:
    """The simulated moments of ``theta`` read from its own trajectory."""
    trajectory, distribution, moment = (
        (trajectory_1d, distribution_1d, moment_1d),
        (trajectory_2d, distribution_2d, joint_moment_2d),
    )[len(order) - 1]
    return [moment(distribution(f), *order) for f in trajectory(theta, p, ladder[-1])
            if f.t in ladder]


class TestConvergenceReports:
    # per lattice: the state class, orders, a ladder and a grid size
    CASES = {
        "line": (QubitState(1, 0), [1, (2,), 3], (10, 50, 200, 400), 64),
        "lattice": (
            QuditState(1, 0, 0, 0), [(1, 0), (0, 1), (1, 1), (2, 0), (0, 3)], (5, 40, 120), 16
        ),
    }

    @pytest.mark.parametrize("lattice", CASES)
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.85])
    def test_each_row_is_convergence_report_bit_for_bit(self, lattice, p):
        first, orders, ladder, grid = self.CASES[lattice]
        rng = np.random.default_rng(int(100 * p))
        states = [first] + [type(first).random(rng) for _ in range(2)]
        rows = convergence_reports(states, p, orders, ladder, grid)
        assert len(rows) == len(states) and all(len(row) == len(orders) for row in rows)
        for th, row in zip(states, rows):
            for order, rep in zip(orders, row):
                order = order if isinstance(order, tuple) else (order,)
                assert rep == convergence_report(th, p, *order, ladder=ladder, grid=grid)

    @pytest.mark.parametrize("lattice", CASES)
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.85])
    def test_simulated_moments_equal_the_states_own_trajectory(self, lattice, p):
        first, orders, ladder, grid = self.CASES[lattice]
        rng = np.random.default_rng(7 + int(100 * p))
        states = [type(first).random(rng) for _ in range(2)]
        for th, row in zip(states, convergence_reports(states, p, orders, ladder, grid)):
            for order, rep in zip(orders, row):
                order = order if isinstance(order, tuple) else (order,)
                own = _own_trajectory_moments(th, p, order, ladder)
                # measured over 20 seeds, p from 0.1 to 0.9, these ladders
                # and orders: 1.1e-15 on the line, 3.3e-16 on the lattice
                assert np.max(np.abs(np.subtract(rep.simulated, own))) <= 5e-15

    def test_the_quadrature_runs_before_any_step(self, monkeypatch):
        # the sweep's memory is released before the basis field is stepped
        events = []
        limit, evolve = spectral._limit_moments, walk2d.evolve_2d
        monkeypatch.setattr(
            spectral, "_limit_moments", lambda *a: events.append("sweep") or limit(*a)
        )
        monkeypatch.setattr(walk2d, "evolve_2d", lambda *a: events.append("step") or evolve(*a))
        convergence_reports([QuditState(1, 0, 0, 0)], 0.5, [(1, 0)], (20,), 16)
        assert events == ["sweep", "step"]

    def test_defaults_are_per_lattice(self):
        (line,) = convergence_reports([QubitState(1, 0)], 0.5, [1], grid=64)
        (lattice,) = convergence_reports([QuditState(1, 0, 0, 0)], 0.5, [(1, 0)], grid=16)
        assert line[0].times == (125, 250, 500, 1000) and line[0].beta is None
        assert lattice[0].times == (75, 150, 300) and lattice[0].beta == 0

    @pytest.mark.parametrize(
        "states, orders",
        [
            ([], [1]),  # no state
            ([QubitState(1, 0), QuditState(1, 0, 0, 0)], [1]),  # two lattices
            ((1, 0), [1]),  # a state, not a batch of them
            (5, [1]),
            ([QubitState(1, 0)], []),  # no order
            ([QubitState(1, 0)], 1),  # an order, not a sequence of them
            ([QubitState(1, 0)], [0]),  # the trivial moment
            ([QubitState(1, 0)], [(1, 0)]),  # a lattice order on the line
            ([QuditState(1, 0, 0, 0)], [1]),  # a line order on the lattice
            ([QuditState(1, 0, 0, 0)], [(1, 0.5)]),
            ([QuditState(1, 0, 0, 0)], [(True, 0)]),
        ],
    )
    def test_rejects_bad_input(self, states, orders):
        with pytest.raises(InvalidParameterError):
            convergence_reports(states, 0.5, orders, (10, 20), 16)


class TestMomentReport:
    def test_gaps_are_derived_bit_for_bit(self):
        sims = (0.1 + 0.2, 1 / 3, -2.5e-17, np.float64(0.7))
        rep = MomentReport(2, None, 0.3, (1, 2, 4, 8), sims)
        assert [g.hex() for g in rep.gaps] == [abs(s - 0.3).hex() for s in map(float, sims)]
        assert rep.times == (1, 2, 4, 8) and rep.simulated == tuple(map(float, sims))

    def test_stores_ints_and_floats(self):
        rep = MomentReport(1, 0, np.float64(0.5), [np.int64(10), 20], np.array([0.4, 0.45]))
        assert rep.times == (10, 20) and all(type(t) is int for t in rep.times)
        assert type(rep.quadrature) is float
        assert all(type(s) is float for s in rep.simulated)

    def test_nan_simulated_value_does_not_converge(self):
        rep = MomentReport(1, None, 0.5, (10, 20), (0.4, float("nan")))
        assert math.isnan(rep.gaps[-1])
        assert rep.converged is False
        nan_first = MomentReport(1, None, 0.5, (10, 20), (float("nan"), 0.5))
        assert nan_first.converged is False

    def test_nan_quadrature_is_kept_and_does_not_converge(self):
        rep = MomentReport(1, None, float("nan"), (10, 20), (0.4, 0.45))
        assert all(math.isnan(g) for g in rep.gaps)
        assert rep.converged is False

    @pytest.mark.parametrize(
        "times, simulated",
        [
            ((10, 20), (0.4,)),  # one value for a two-time ladder: converged read True
            ((10,), (0.4, 0.45)),
            ((), ()),  # empty: converged raised IndexError
            ((20, 10), (0.4, 0.45)),  # decreasing
            ((0, 10), (0.4, 0.45)),  # a time below 1
            ((10.5, 20), (0.4, 0.45)),
            ((10, 20), 0.4),
            ((10, 20), (0.4, "0.45")),
            ((10, 20), (0.4, 0.45 + 0j)),
        ],
    )
    def test_rejects_a_record_that_is_not_a_ladder_of_values(self, times, simulated):
        with pytest.raises(InvalidParameterError):
            MomentReport(1, None, 0.5, times, simulated)

    def test_rejects_a_quadrature_that_is_not_real(self):
        with pytest.raises(InvalidParameterError):
            MomentReport(1, None, "0.5", (10, 20), (0.4, 0.45))

    @pytest.mark.parametrize(
        "alpha, beta",
        [
            (float("nan"), None),  # each of these built a report that read converged
            (float("inf"), None),
            (2.5, None),
            (-1, None),
            (True, None),
            ("1", None),
            (1, float("nan")),
            (1, 2.5),
            (1, -1),
        ],
    )
    def test_rejects_an_order_that_is_not_an_integer_from_zero(self, alpha, beta):
        with pytest.raises(InvalidParameterError):
            MomentReport(alpha, beta, 0.1, (10, 20), (0.3, 0.2))


class TestLimitMoments2D:
    ORDERS = ((1, 0), (0, 1), (1, 1), (2, 0), (0, 3))

    def test_every_entry_equals_single_limit_bit_for_bit(self):
        rng = np.random.default_rng(41)
        states = [QuditState(1, 0, 0, 0), QuditState.random(rng), QuditState.random(rng)]
        table = limit_moments_2d(states, 0.35, self.ORDERS, grid=QuadratureGrid(32))
        assert table.shape == (len(states), len(self.ORDERS))
        for th, row in zip(states, table):
            for (a, b), v in zip(self.ORDERS, row):
                single = limit_moment_2d(th, 0.35, a, b, grid=QuadratureGrid(32))
                assert float(v).hex() == single.hex()

    @pytest.mark.parametrize(
        "orders", [(), ((0, 0),), ((1, -1),), ((1.5, 0),), ((1, 0, 0),), (1,)]
    )
    def test_rejects_bad_orders(self, orders):
        with pytest.raises(InvalidParameterError):
            limit_moments_2d([QuditState(1, 0, 0, 0)], 0.5, orders, grid=32)



def _full_torus_moments(thetas, p, orders, n, dim):
    """Reference weak-limit moments: the projectors at every node of the
    ``n^dim`` grid, weights ``theta^dag P_j theta = Re sum_m K_jm theta^dag
    S^m theta`` from ``theta`` alone, no symmetry folding."""
    nodes = QuadratureGrid(n).nodes()
    ks = [a.ravel() for a in np.meshgrid(*[nodes] * dim, indexing="ij")]
    _, P, K, e = _spectrum(p, *ks)
    H = (coin_1d, coin_2d)[dim - 1](p)
    vel = _velocities(P)
    out = np.empty((len(thetas), len(orders)))
    for si, th in enumerate(thetas):
        t = th.as_array()
        forms, x = [np.vdot(t, t) * np.ones(len(e))], t
        for _ in range(1, 2 * dim):
            x = e * (x @ H)  # S^m t, row by row
            forms.append(x @ t.conj())
        wgt = np.einsum("bjm,mb->bj", K, np.array(forms)).real
        for oi, order in enumerate(orders):
            term = wgt
            for v, a in zip(vel, order):
                term = term * v**a
            out[si, oi] = np.sum(term) / n**dim
    return out


class TestQuarterTorusQuadrature:
    P = (0.05, 0.25, 0.5, 0.75, 0.95)

    @pytest.mark.parametrize("p", P)
    @pytest.mark.parametrize("n", [2, 4, 8, 1024, 4096])
    def test_line_matches_full_torus(self, p, n):
        rng = np.random.default_rng(17)
        states = [QubitState(1.0, 0.0), QubitState(0.6, 0.8j), QubitState.random(rng)]
        orders = ((1,), (2,), (3,))
        got = [[limit_moment_1d(th, p, a, n) for (a,) in orders] for th in states]
        ref = _full_torus_moments(states, p, orders, n, 1)
        assert np.max(np.abs(np.array(got) - ref)) <= 1e-15

    @pytest.mark.parametrize("p", P)
    @pytest.mark.parametrize("n", [4, 8, 64, 128])
    def test_lattice_matches_full_torus(self, p, n):
        rng = np.random.default_rng(19)
        states = [QuditState(1, 0, 0, 0), QuditState(0.5, 0.5j, 0.5j, -0.5)]
        states.append(QuditState.random(rng))
        orders = ((1, 0), (0, 1), (1, 1), (2, 0), (3, 1))
        got = limit_moments_2d(states, p, orders, grid=n)
        ref = _full_torus_moments(states, p, orders, n, 2)
        assert np.max(np.abs(got - ref)) <= 1e-15

    def test_line_two_node_grid_is_full_torus_value(self):
        # at n = 2 the quarter domain is empty; row 0 holds one node per orbit
        got = limit_moment_1d(QubitState(1.0, 0.0), 0.5, 1, 2)
        ref = _full_torus_moments([QubitState(1.0, 0.0)], 0.5, ((1,),), 2, 1)[0, 0]
        assert abs(got - ref) <= 1e-15
        assert abs(got) <= 1e-30  # both nodes sit at x' = +-pi/2, where v = 0

    def test_lattice_two_node_grid_raises(self):
        with pytest.raises(DegenerateSpectrumError):
            limit_moments_2d([QuditState(1, 0, 0, 0)], 0.5, [(1, 0)], grid=2)
        with pytest.raises(DegenerateSpectrumError):
            _full_torus_moments([QuditState(1, 0, 0, 0)], 0.5, ((1, 0),), 2, 2)


class TestKernelSymmetries:
    """The two symmetries the quarter-torus quadrature folds over."""

    @pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.9])
    def test_line_kernel(self, p):
        rng = np.random.default_rng(23)
        for x in rng.uniform(-math.pi, 0.0, 50):
            s = kernel_1d(p, x)
            assert np.max(np.abs(kernel_1d(p, x + math.pi) + s)) <= 1e-15
            assert np.max(np.abs(kernel_1d(p, -x) - s.conj())) <= 1e-15

    @pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.9])
    def test_lattice_kernel(self, p):
        rng = np.random.default_rng(29)
        for m, n in rng.uniform(-math.pi, 0.0, (50, 2)):
            s = kernel_2d(p, m, n)
            assert np.max(np.abs(kernel_2d(p, m + math.pi, n + math.pi) + s)) <= 1e-15
            assert np.max(np.abs(kernel_2d(p, -m, -n) - s.conj())) <= 1e-15


class TestQuarterTorusNodeCount:
    @staticmethod
    def _count(monkeypatch, name):
        sizes = []
        solve = getattr(spectral, name)

        def counted(c, *ks):
            sizes.append(ks[0].size)
            return solve(c, *ks)

        monkeypatch.setattr(spectral, name, counted)
        return sizes

    @pytest.mark.parametrize("n", [4, 8, 64, 256, 512])
    def test_lattice_sweeps_a_quarter(self, monkeypatch, n):
        # the quarter's n^2 / 4 nodes from an eighth: every swept node stands
        # for itself and its mirror image, and the n mirror-fixed nodes once
        sizes = self._count(monkeypatch, "_batch_eigensystem")
        limit_moments_2d([QuditState(1, 0, 0, 0)], 0.4, [(1, 0)], grid=n)
        assert sum(sizes) == n * n // 8 + n // 2

    @pytest.mark.parametrize("n", [4, 8, 4096])
    def test_line_sweeps_a_quarter(self, monkeypatch, n):
        sizes = self._count(monkeypatch, "_line_spectrum")
        limit_moment_1d(QubitState(1, 0), 0.4, 1, n)
        assert sum(sizes) == n // 4

    def test_batch_eigensystem_signature(self):
        # the benchmark's tracer wraps it by name and reads ``ms`` by position
        assert list(inspect.signature(_batch_eigensystem).parameters) == ["p", "ms", "ns"]
