"""Kernel eigensystems, group velocities, and weak-limit moment quadrature.

For ``p < 1`` the 1D kernel has eigenvalues ``exp(-i sigma(x'))`` and
``-exp(i sigma(x'))`` with ``sin(sigma) = sqrt(p) sin(x')``; the two branch
velocities are ``+-dsigma/dx'`` (:func:`group_velocity` is the closed form).
On both lattices one rule gives every branch velocity from its normalized
eigenvector ``u``: along axis ``d`` it is the mover imbalance

    v_d = |u_{+d}|^2 - |u_{-d}|^2.

This is Hellmann-Feynman: the kernel is a diagonal mover phase times the
coin, so ``dS/dk_d = diag(-+i on axis d's movers) S``, and with ``S u =
lambda u`` the velocity ``-Im(u^dag (dS/dk_d) u / lambda)`` reduces to the
imbalance.  Long-time pseudo-velocity moments are integrals of
branch-weighted velocity powers over the wavenumber torus,

    lim <(X_t/t)^a>         = int dx'/2pi  sum_j |c_j|^2 v_j^a,
    lim <(X_t/t)^a (Y_t/t)^b> = int2 sum_j |c_j|^2 v_{x,j}^a v_{y,j}^b,

with ``c_j`` the projection of the initial state on the j-th eigenvector;
one quadrature body evaluates both.  Both eigensystems are closed form and
every node takes the same path.  The 2x2 kernel's is a quadratic, and the
line sweep reads its eigenvectors.  The 4x4 kernel's characteristic
polynomial is palindromic and reduces to a quadratic in ``sin(omega)``, and
the lattice sweep builds no eigenvector: ``|u_ij|^2`` and ``|c_j|^2`` are
entries of the spectral projector ``P_j = prod_{k != j} (S - lambda_k) /
(lambda_j - lambda_k)`` (Sylvester's formula), whose diagonal and form
``theta^dag P_j theta`` follow from those of ``S``, ``S^2`` and ``S^3``.
Per-node accuracy is about machine epsilon over the node's smallest phase
gap.  Both moments are evaluated by the midpoint rule on an offset
power-of-two grid whose nodes avoid every symmetry point where branches
could cross.  The coin is real, so ``S(k + pi (1, ..., 1)) = -S(k)`` and
``S(-k) = conj S(k)``; the eigensolves run on a quarter of the grid, the
first-axis rows ``i < n/4``, and each swept node also stands for its three
images, whose weights are its own or ``|Q^T theta|^2``.  On the line the
integrand is smooth and periodic and the rule converges spectrally
(criterion 11 holds N = 1024 and N = 4096 within 1e-10).  On the square
lattice it does not: the branch-sorted integrand is not smooth, and the
convergence is algebraic, about ``N^-1.5``.  For state (1, 0, 0, 0) at p =
1/2, order (1, 0), the value moves by 2.37e-4, 8.39e-5 and 2.96e-5 at N =
64 -> 128 -> 256 -> 512.
Moment quadratures are cross-validated against the position-space oracle
through :func:`convergence_report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coin import CoinParameter, as_coin, coin_2d, validate_wavenumber
from .errors import DegenerateSpectrumError, InvalidParameterError, require_int, require_ladder
from .walk1d import (
    QubitState,
    as_qubit,
    distribution_1d,
    moment_1d,
    trajectory_1d,
)
from .walk2d import (
    QuditState,
    as_qudit,
    distribution_2d,
    joint_moment_2d,
    trajectory_2d,
)

__all__ = [
    "QuadratureGrid",
    "EigenBranch",
    "MomentReport",
    "sigma",
    "group_velocity",
    "eigensystem_1d",
    "limit_moment_1d",
    "eigensystem_2d",
    "limit_moments_2d",
    "limit_moment_2d",
    "convergence_report",
]

_PHASE_GAP_MIN = 1e-8
_GAP_FLOOR = 1e-12   # below this, simulated and limit moments are both "zero"
_CHUNK = 4096


@dataclass(frozen=True)
class QuadratureGrid:
    """Offset uniform grid of ``n`` nodes on [-pi, pi), ``n`` a power of two.

    Nodes sit at ``-pi + (m + 1/2) (2 pi / n)``; the half-step offset keeps
    every node away from 0, +-pi/2 and +-pi exactly, where kernel branches
    can become degenerate.  The 2D grid is the tensor square.
    """

    n: int

    def __post_init__(self) -> None:
        n = require_int(self.n, "grid size", 2)
        if n & (n - 1):
            raise InvalidParameterError(f"grid size must be a power of two, got {n}")
        object.__setattr__(self, "n", n)

    def nodes(self) -> np.ndarray:
        return -np.pi + (np.arange(self.n) + 0.5) * (2.0 * np.pi / self.n)


def _as_grid(grid: QuadratureGrid | int) -> QuadratureGrid:
    return grid if isinstance(grid, QuadratureGrid) else QuadratureGrid(grid)


@dataclass(frozen=True)
class EigenBranch:
    """One eigenvalue branch of an evolution kernel at a fixed wavenumber.

    ``velocity`` holds one entry per lattice axis: ``(v,)`` on the line,
    ``(v_x, v_y)`` on the square lattice.
    """

    eigenvalue: complex
    eigenvector: np.ndarray
    weight: float
    velocity: tuple[float, ...]


@dataclass(frozen=True)
class MomentReport:
    """Quadrature limit value paired with simulated moments on a time ladder."""

    alpha: int
    beta: int | None
    quadrature: float
    times: tuple[int, ...]
    simulated: tuple[float, ...]
    gaps: tuple[float, ...]

    @property
    def converged(self) -> bool:
        """Gap at the largest time no worse than at the smallest.

        Gaps below 1e-12 are treated as converged outright; for symmetric
        states both sides vanish and the comparison would be rounding noise.
        """
        return self.gaps[-1] <= max(self.gaps[0], _GAP_FLOOR)


def sigma(p: CoinParameter | float, wavenumber: float) -> float:
    """Dispersion phase ``arcsin(sqrt(p) sin(x'))``, principal branch."""
    c = as_coin(p)
    x = validate_wavenumber(wavenumber)
    return float(np.arcsin(math.sqrt(c.p) * math.sin(x)))


def group_velocity(p: CoinParameter | float, wavenumber: float) -> float:
    """Derivative of :func:`sigma`: ``sqrt(p) cos x' / sqrt(1 - p sin^2 x')``.

    Magnitude is bounded by ``sqrt(p) < 1``: the walk never transports
    faster than one site per step.
    """
    c = as_coin(p)
    x = validate_wavenumber(wavenumber)
    return math.sqrt(c.p) * math.cos(x) / math.sqrt(1.0 - c.p * math.sin(x) ** 2)


def _velocities(P: np.ndarray) -> list[np.ndarray]:
    """Branch velocities along each axis: the mover imbalance of each branch.

    ``P`` holds squared moduli ``|u_ij|^2`` of normalized eigenvectors, row
    ``i`` the component and column ``j`` the branch, shape (B, 2 dim, 2
    dim), rows ordered (+x, -x[, +y, -y]): ``|Q|^2`` on the line, the
    spectral projectors' diagonals on the lattice.  Returns one (B, 2 dim)
    array per axis, ``P_{+d,j} - P_{-d,j}``, which is the Hellmann-Feynman
    velocity because ``dS/dk_d`` is ``S`` with axis ``d``'s rows times
    ``-+i``.
    """
    return [P[:, d] - P[:, d + 1] for d in range(0, P.shape[1], 2)]


def _branch_vectors_1d(c: CoinParameter, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem ``(lam, Q)`` of the 1D kernel at wavenumbers ``x``.

    Shapes (B, 2) and (B, 2, 2).  Column 0 is ``(S12, lam - S11)`` normalized,
    the eigenvector for the ``+cos(sigma)`` root ``lam = cos(sigma) - i
    sin(sigma)``; column 1 is its orthogonal complement, for ``-conj(lam)``
    (the kernel is normal with distinct eigenvalues for p < 1).  At
    ``x' = 0`` the eigenvalues are (+1, -1).
    """
    sp, sq = math.sqrt(c.p), math.sqrt(c.q)
    s = sp * np.sin(x)
    lam = np.sqrt(1.0 - s * s) - 1j * s
    e = np.exp(-1j * x)
    b, g = sq * e, lam - sp * e
    Q = np.array([[b, -g.conj()], [g, b.conj()]]).transpose(2, 0, 1)
    Q /= np.sqrt(c.q + np.abs(g) ** 2)[:, None, None]
    return np.stack([lam, -lam.conj()], -1), Q


def _real_sum(fbar: np.ndarray, K: np.ndarray) -> np.ndarray:
    """``Re(sum_m f[..., m] K[:, j, m])`` for each branch ``j``, from
    ``fbar = conj(f)``, as one real product of the two real views:
    ``Re(f K) = Re(fbar) Re(K) + Im(fbar) Im(K)``.  ``fbar``'s last axis
    must be contiguous.
    """
    return fbar.view(np.float64) @ K.view(np.float64).swapaxes(-1, -2)


def _batch_eigensystem(
    p: CoinParameter, ms: np.ndarray, ns: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sorted eigenvalues and spectral projectors of the 4x4 kernel at a
    batch of wavenumber pairs; no eigenvector is built.

    Returns ``(lam, P, K, e)`` with shapes (B, 4), (B, 4, 4), (B, 4, 4)
    and (B, 4).  ``lam`` is ordered by eigenvalue phase.  ``e`` holds the
    mover phases, so the kernel is ``S = e[:, :, None] * coin_2d(p)``.
    Branch ``j``'s projector is ``P_j = sum_m K[:, j, m] S^m`` (m = 0..3),
    and ``P[:, i, j]`` is its real diagonal entry ``(P_j)_ii = |u_ij|^2``.
    Raises :class:`DegenerateSpectrumError` if any two phases at one node
    are closer than 1e-8 (the caller must move the node; nothing is
    perturbed silently).

    Every node takes one closed-form path.  With ``sx = sin m``, ``sy =
    sin n``, ``C = cos^2((m-n)/2)``, ``D = sin^2((m-n)/2)`` and ``a = 2p
    (sx - sy)``, the characteristic polynomial ``lam^4 + i a lam^3 + b lam^2
    - i a lam + 1`` is a quadratic in ``s = sin(omega)`` whose discriminant
    ``4p (sx + sy)^2 + 16q D (1 - p cos^2((m+n)/2))`` has no cancellation.
    Each root ``s`` gives the pair ``+-c + i s``, the cosine ``c`` coming
    from the factored ``1 - s^2`` (``2 +- 2a - b = 4[qC + p(1 +- sx)(1 -+
    sy)]``), never from ``sqrt(1 - s^2)``, which cancels as ``|s| -> 1``.
    The projectors follow Sylvester's formula ``P_j = prod_{k != j} (S -
    lam_k) / prod_{k != j} (lam_j - lam_k)``: synthetic division of the
    characteristic polynomial by ``lam - lam_j`` writes the numerator as
    ``S^3 + c1 S^2 + c2 S + c3``, and ``K`` holds its coefficients over the
    denominator, a product of eigenvalue differences.  ``S`` is a diagonal
    phase times the real symmetric coin ``H``, so the diagonals of its
    powers are constant real coefficients against the phase vector,
    ``(S^2)_ii = e_i sum_k H_ik^2 e_k`` and ``(S^3)_ii = e_i sum_kl H_ik
    H_kl H_li e_k e_l``, and a state's weights need only ``theta^dag S^m
    theta`` (:func:`_weights_2d`).  Per-node accuracy is
    about machine epsilon over the node's smallest phase gap: on the N =
    128 grid, for p from 0.05 to 0.95, the diagonals agree with a general
    ``eig`` plus QR within 1.4e-12 and the weights within 2.8e-12, and on
    the swept quarter of the N = 2048 grid the weights of a state sum to 2
    within 2e-13; the quadrature moments do not see the difference.
    """
    sx, sy, half = np.sin(ms), np.sin(ns), 0.5 * (ms - ns)
    C, D = np.cos(half) ** 2, np.sin(half) ** 2
    a = 2.0 * p.p * (sx - sy)
    root = np.sqrt(
        4.0 * p.p * (sx + sy) ** 2
        + 16.0 * p.q * D * (1.0 - p.p * np.cos(0.5 * (ms + ns)) ** 2)
    )
    s_hi, s_lo = (root - a) / 4.0, -(root + a) / 4.0
    hi, lo = 4.0 + a + root, 4.0 - a + root
    c_hi = np.sqrt((p.q * C + p.p * (1.0 + sx) * (1.0 - sy)) * lo / hi)
    c_lo = np.sqrt((p.q * C + p.p * (1.0 - sx) * (1.0 + sy)) * hi / lo)
    lam = np.stack(
        [c_hi + 1j * s_hi, 1j * s_hi - c_hi, c_lo + 1j * s_lo, 1j * s_lo - c_lo], axis=1
    )
    lam = np.take_along_axis(lam, np.argsort(np.angle(lam), axis=1), axis=1)

    ph = np.angle(lam)
    gaps = np.diff(np.concatenate([ph, ph[:, :1] + 2.0 * np.pi], axis=1), axis=1)
    gmin = float(gaps.min())
    if gmin < _PHASE_GAP_MIN:
        raise DegenerateSpectrumError(
            f"eigenvalue phases separated by {gmin:.3e} < {_PHASE_GAP_MIN:g}; "
            "evaluate at a node away from the degenerate set"
        )

    H = coin_2d(p)
    e = np.exp(1j * np.stack([-ms, ms, -ns, ns], axis=1))
    # dbar[:, i, m] = conj((S^m)_ii): the same sums over the phases conj(e)
    # of S^dag, as _real_sum takes them; g[:, i, l] = sum_k H_ik H_kl H_li ec_k
    ec = e.conj()
    g = (ec @ np.einsum("ik,kl,li->kil", H, H, H).reshape(4, 16)).reshape(-1, 4, 4)
    dbar = np.stack(
        [
            np.ones_like(e),
            np.diagonal(H) * ec,
            (ec @ (H * H)) * ec,
            np.einsum("bil,bl->bi", g, ec) * ec,
        ],
        axis=2,
    )
    # K[:, j, m]: coefficient of S^m in prod_{k != j} (S - lam_k), by synthetic
    # division, over prod_{k != j} (lam_j - lam_k), the branch axis rolled by 1..3
    c1 = 1j * a[:, None] + lam
    c2 = (-2.0 - 4.0 * s_hi * s_lo)[:, None] + lam * c1
    K = np.stack([-lam.conj(), c2, c1, np.ones_like(lam)], axis=2)
    K /= math.prod(lam - np.roll(lam, r, axis=1) for r in (1, 2, 3))[:, :, None]
    return lam, _real_sum(dbar, K), K, e


def _branch_vectors_2d(
    c: CoinParameter, ms: np.ndarray, ns: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem ``(lam, Q)`` of the 4x4 kernel at wavenumber pairs.

    Shapes (B, 4) and (B, 4, 4), built from :func:`_batch_eigensystem`'s
    projectors: column ``j`` is the column of ``P_j`` through its largest
    diagonal entry, ``u_j conj(u_rj)``, normalized, then one Newton-Schulz
    step ``Q (3 - Q^dag Q) / 2`` squares the columns' residual overlaps so
    branch weights sum to 1 even next to a crossing.
    """
    lam, P, K, e = _batch_eigensystem(c, ms, ns)
    S = e[:, :, None] * coin_2d(c)
    E = np.argmax(P, axis=1)[:, None, :] == np.arange(4)[:, None]  # one-hot rows
    Q = K[:, None, :, 3] * E
    for m in (2, 1, 0):  # Horner: P_j e_r = sum_m K_jm S^m e_r
        Q = S @ Q + K[:, None, :, m] * E
    Q /= np.linalg.norm(Q, axis=1, keepdims=True)
    return lam, Q @ (1.5 * np.eye(4) - 0.5 * Q.conj().swapaxes(1, 2) @ Q)


def _weights_2d(
    H: np.ndarray, e: np.ndarray, K: np.ndarray, th: np.ndarray
) -> np.ndarray:
    """Branch weights ``|Q^dag theta|^2 + |Q^T theta|^2`` without ``Q``.

    The result has shape (B, 4).  The weights are ``theta^dag P_j theta + conj(theta)^dag P_j conj(theta)``, so
    only the forms ``t^dag S^m t`` (m = 0..3) are needed: with ``x = S t``
    and ``z = conj(S^dag t)``, they are ``|t|^2``, ``conj(t) . x``, ``z .
    x`` and ``z . S x``.  ``H``, ``e`` and ``K`` are the coin and
    :func:`_batch_eigensystem`'s phases and projector coefficients.
    """
    forms = 0.0
    for t in (th, th.conj()):
        x = e * (t @ H)
        z = (e * t.conj()) @ H
        forms = forms + np.stack(
            [
                np.full(len(e), np.vdot(t, t)),
                x @ t.conj(),
                np.einsum("bi,bi->b", z, x),
                np.einsum("bi,bi->b", z, e * (x @ H)),
            ],
            axis=1,
        )
    return _real_sum(forms.conj()[:, None, :], K)[:, 0]


def _eigensystem(p, wavenumbers, theta) -> tuple[EigenBranch, ...]:
    """Every branch at one node: 1 wavenumber on the line, 2 on the lattice."""
    c = as_coin(p)
    ks = [np.array([validate_wavenumber(k)]) for k in wavenumbers]
    dim = len(ks)
    th = (as_qubit, as_qudit)[dim - 1](theta).as_array()
    lam, Q = _branch_vectors_1d(c, *ks) if dim == 1 else _branch_vectors_2d(c, *ks)
    vel = _velocities(np.abs(Q) ** 2)
    return tuple(
        EigenBranch(
            complex(lam[0, j]),
            Q[0, :, j].copy(),
            float(abs(np.vdot(Q[0, :, j], th)) ** 2),
            tuple(float(v[0, j]) for v in vel),
        )
        for j in range(lam.shape[1])
    )


def eigensystem_1d(
    p: CoinParameter | float,
    wavenumber: float,
    theta: QubitState | tuple | list | np.ndarray,
) -> tuple[EigenBranch, EigenBranch]:
    """Both eigenvalue branches of the 1D kernel at one wavenumber.

    Eigenvectors come straight from the kernel entries (closed-form
    quadratic): for eigenvalue ``lam`` the vector ``(S12, lam - S11)`` is an
    eigenvector, and the second branch is its orthogonal complement.  Branch
    1 carries the ``+cos(sigma)`` root; at ``x' = 0`` the eigenvalues are
    (+1, -1).
    """
    return _eigensystem(p, (wavenumber,), theta)


def eigensystem_2d(
    p: CoinParameter | float,
    wavenumber_x: float,
    wavenumber_y: float,
    theta: QuditState | tuple | list | np.ndarray,
) -> tuple[EigenBranch, EigenBranch, EigenBranch, EigenBranch]:
    """All four eigenvalue branches of the 4x4 kernel at one node.

    Branches are ordered by eigenvalue phase.  Raises
    :class:`DegenerateSpectrumError` when branch phases are closer than
    1e-8.
    """
    return _eigensystem(p, (wavenumber_x, wavenumber_y), theta)


def _limit_moments(thetas, p, orders, grid, dim: int) -> np.ndarray:
    """Weak-limit moments on the line (``dim`` 1) or the square lattice (2).

    ``orders`` holds one exponent per axis for each moment.  One chunked
    eigensystem sweep over a quarter of the ``n^dim`` grid serves every
    state and order; the line reads its eigenvectors, the lattice its
    spectral projectors (:func:`_batch_eigensystem`, :func:`_weights_2d`).
    The kernel ``diag(e^{-+ik_d}) H`` with a real coin
    ``H`` obeys two symmetries that map grid nodes to grid nodes:
    ``S(k + pi (1, ..., 1)) = -S(k)`` keeps eigenvectors, weights and
    velocities; ``S(-k) = conj S(k)`` has eigenvectors ``conj Q``, so the
    same velocities and weights ``|Q^T theta|^2``.  For ``n >= 4`` their
    composition ``(i, j) -> (n/2 - 1 - i, (n/2 - 1 - j) mod n)`` fixes no
    node, and every orbit of four nodes meets the first-axis rows ``i <
    n/4`` (every other axis in full) exactly once.  At ``n = 2`` the two
    maps coincide and row 0 meets every orbit of two nodes once.  Either
    way the full-grid mean is the mean of ``(|Q^dag theta|^2 + |Q^T
    theta|^2) / 2`` times the velocity powers over the swept nodes.  Phase
    gaps are invariant under both maps, so the sweep raises
    :class:`DegenerateSpectrumError` exactly when a full sweep would.  Each
    chunk's terms are summed, then each entry's chunk partials are summed as
    one 1D array, in a fixed order, so results are reproducible at a fixed
    grid size.
    """
    names = ("alpha", "beta")[:dim]
    for name, arg in (("thetas", thetas), ("orders", orders)):
        if not np.iterable(arg):
            raise InvalidParameterError(f"{name} must be a sequence, got {arg!r}")
    orders = [tuple(o) if np.iterable(o) else (o,) for o in orders]
    if not orders or any(len(o) != dim for o in orders):
        raise InvalidParameterError(
            f"need moment orders of one exponent each for {', '.join(names)}, got {orders}"
        )
    orders = [tuple(require_int(a, n) for a, n in zip(o, names)) for o in orders]
    if any(sum(o) < 1 for o in orders):
        raise InvalidParameterError(
            f"need moment orders >= 0 with {' + '.join(names)} >= 1, got {orders}"
        )
    c = as_coin(p)
    g = _as_grid(grid)
    ths = [(as_qubit, as_qudit)[dim - 1](th).as_array() for th in thetas]
    nodes = g.nodes()
    rows = max(g.n // 4, 1)
    axes = [a.ravel() for a in np.meshgrid(nodes[:rows], *[nodes] * (dim - 1), indexing="ij")]
    starts = range(0, axes[0].size, _CHUNK)
    partials = np.empty((len(ths), len(orders), len(starts)))
    for ci, s in enumerate(starts):
        ks = [a[s : s + _CHUNK] for a in axes]
        if dim == 1:
            _, Q = _branch_vectors_1d(c, *ks)
            P = np.abs(Q) ** 2
            wgts = [
                np.abs(np.einsum("bik,i->bk", Q.conj(), th)) ** 2
                + np.abs(np.einsum("bik,i->bk", Q, th)) ** 2
                for th in ths
            ]
        else:
            _, P, K, e = _batch_eigensystem(c, *ks)
            H = coin_2d(c)
            wgts = [_weights_2d(H, e, K, th) for th in ths]
        vel = _velocities(P)
        for si, wgt in enumerate(wgts):
            for oi, order in enumerate(orders):
                term = wgt
                for v, a in zip(vel, order):
                    term = term * v**a
                partials[si, oi, ci] = np.sum(term)
    sums = [np.sum(row) for row in partials.reshape(-1, len(starts))]
    return np.reshape(sums, partials.shape[:2]) / (2 * axes[0].size)


def limit_moment_1d(
    theta: QubitState | tuple | list | np.ndarray,
    p: CoinParameter | float,
    alpha: int,
    grid: QuadratureGrid | int = QuadratureGrid(4096),
) -> float:
    """Long-time limit of ``<(X_t/t)^alpha>`` by midpoint quadrature.

    Branch weights are the squared eigenvector projections of ``theta`` and
    branch velocities the eigenvectors' mover imbalances (``+-``
    :func:`group_velocity`); the integrand is evaluated vectorized over the
    grid and reduced with numpy's fixed pairwise summation, so the result is
    reproducible bit-for-bit at a fixed grid size.
    """
    return float(_limit_moments([theta], p, [(alpha,)], grid, 1)[0, 0])


def limit_moments_2d(
    thetas,
    p: CoinParameter | float,
    orders,
    grid: QuadratureGrid | int = QuadratureGrid(512),
) -> np.ndarray:
    """Limits of ``<(X_t/t)^alpha (Y_t/t)^beta>`` for many states and orders.

    One batched eigensystem sweep, in fixed-size chunks, over the quarter of
    the tensor grid with first-axis rows ``i < n/4`` (the kernel's
    shift-by-pi and negation symmetries supply the rest) serves every state
    in ``thetas`` and every ``(alpha, beta)`` in ``orders``; the result has
    shape ``(len(thetas), len(orders))``.  Chunk partial sums are
    accumulated in a fixed order, so results are reproducible at a fixed
    grid size.  Propagates
    :class:`DegenerateSpectrumError` from the eigensolver.
    """
    return _limit_moments(thetas, p, orders, grid, 2)


def limit_moment_2d(
    theta: QuditState | tuple | list | np.ndarray,
    p: CoinParameter | float,
    alpha: int,
    beta: int,
    grid: QuadratureGrid | int = QuadratureGrid(512),
) -> float:
    """Long-time limit of ``<(X_t/t)^alpha (Y_t/t)^beta>`` on the tensor grid.

    The one-state, one-order case of :func:`limit_moments_2d`.
    """
    return float(_limit_moments([theta], p, [(alpha, beta)], grid, 2)[0, 0])


def validate_time_ladder(ladder) -> tuple[int, ...]:
    """The simulation times of :func:`convergence_report` as a tuple:
    non-empty, strictly increasing, every time an integer ``>= 1``."""
    return require_ladder(ladder, "ladder time", 1)


def convergence_report(
    theta,
    p: CoinParameter | float,
    alpha: int,
    beta: int | None = None,
    ladder: tuple[int, ...] = (125, 250, 500, 1000),
    grid: QuadratureGrid | int | None = None,
) -> MomentReport:
    """Pair simulated pseudo-velocity moments with the quadrature limit.

    The dimension is taken from the state length (2 or 4 components); for the
    square lattice ``beta`` defaults to 0, and a line state rejects any
    ``beta`` rather than dropping it.  A single evolution pass supplies
    the whole ladder.  ``alpha (+ beta) = 0`` is the trivial moment: both
    sides are exactly 1 and every gap is 0, but ``p`` is checked all the same.
    """
    ladder = validate_time_ladder(ladder)
    alpha = require_int(alpha, "alpha")
    beta = None if beta is None else require_int(beta, "beta")
    p = as_coin(p)

    if not hasattr(theta, "as_array") and np.iterable(theta):
        theta = list(theta)  # read an iterator once, for the dimension and the state
    comps = theta.as_array() if hasattr(theta, "as_array") else theta
    dim = 1 if not np.iterable(comps) or len(comps) == 2 else 2
    if dim == 1 and beta is not None:
        raise InvalidParameterError(f"beta applies to lattice states only, got beta={beta}")
    orders = (alpha, 0 if beta is None else beta)[:dim]
    # built per call from the module globals, so rebound names are honored
    as_state, limit, default_grid, trajectory, distribution, moment = (
        (as_qubit, limit_moment_1d, 4096, trajectory_1d, distribution_1d, moment_1d),
        (as_qudit, limit_moment_2d, 512, trajectory_2d, distribution_2d, joint_moment_2d),
    )[dim - 1]
    th = as_state(theta)
    want = set(ladder)
    if sum(orders) == 0:
        quad, sims = 1.0, [1.0] * len(ladder)
    else:
        quad = limit(th, p, *orders, default_grid if grid is None else grid)
        fields = trajectory(th, p, ladder[-1])
        sims = [moment(distribution(f), *orders) for f in fields if f.t in want]

    gaps = tuple(abs(s - quad) for s in sims)
    return MomentReport(
        alpha=alpha,
        beta=orders[1] if dim == 2 else None,
        quadrature=float(quad),
        times=ladder,
        simulated=tuple(float(s) for s in sims),
        gaps=gaps,
    )
