"""Kernel eigensystems, group velocities, and weak-limit moment quadrature.

For ``p < 1`` the 1D kernel has eigenvalues ``exp(-i sigma(x'))`` and
``-exp(i sigma(x'))`` with ``sin(sigma) = sqrt(p) sin(x')``; the two branch
velocities are ``+-dsigma/dx'`` and are computed here both in closed form
and through the Hellmann-Feynman expression

    v_j = -Im( h_j^dag (dS/dx') h_j / lambda_j ),

which is also what the 4x4 case uses per axis.  Long-time pseudo-velocity
moments are integrals of branch-weighted velocity powers over the
wavenumber torus,

    lim <(X_t/t)^a>         = int dx'/2pi  sum_j |c_j|^2 v_j^a,
    lim <(X_t/t)^a (Y_t/t)^b> = int2 sum_j |c_j|^2 v_{x,j}^a v_{y,j}^b,

with ``c_j`` the projection of the initial state on the j-th eigenvector.
The 4x4 eigenvectors come from ``eigh`` on the kernel's Hermitian part
``(S + S^dag)/2``, which shares them with the unitary ``S`` wherever the
eigenphases have distinct cosines.  Every node is checked by its cosine gap
and its residual ``|S u - lambda u|``, and the nodes that fail (all of the
diagonal m = n among them) are solved again with the general ``eig`` and a
QR re-orthonormalization.  Both moments are evaluated by the midpoint rule
on an offset power-of-two grid whose nodes avoid every symmetry point where
branches could cross.  On the line the integrand is smooth and periodic and
the rule converges spectrally (criterion 11 holds N = 1024 and N = 4096
within 1e-10).  On the square lattice it does not: the branch-sorted
integrand is not smooth, and the convergence is algebraic, about
``N^-1.5``.  For state (1, 0, 0, 0) at p = 1/2, order (1, 0), the value
moves by 2.37e-4, 8.39e-5 and 2.96e-5 at N = 64 -> 128 -> 256 -> 512.
Moment quadratures are cross-validated against the position-space oracle
through :func:`convergence_report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coin import (
    CoinParameter,
    as_coin,
    coin_2d,
    kernel_1d_derivative,
    validate_wavenumber,
)
from .errors import DegenerateSpectrumError, InvalidParameterError, require_int
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
_COSINE_GAP_MIN = 1e-3   # closer cosines: eigh may mix two eigenvectors of S
_RESIDUAL_MAX = 1e-12
_GAP_FLOOR = 1e-12   # below this, simulated and limit moments are both "zero"
_CHUNK = 16384


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


def _hf_velocity(h: np.ndarray, dS: np.ndarray, lam: complex) -> float:
    """Hellmann-Feynman branch velocity ``-Im(h^dag dS h / lambda)``."""
    return float(-np.imag(np.vdot(h, dS @ h) / lam))


def _branch_vectors_1d(c: CoinParameter, x):
    """Unnormalized eigenvectors of the 1D kernel at wavenumber(s) ``x``.

    Returns ``(lam1, b, g, nrm2)``: ``(b, g)`` is an eigenvector for
    ``lam1 = cos(sigma) - i sin(sigma)``, ``(-conj(g), conj(b))`` one for
    ``lam2 = -conj(lam1)``, and both have squared norm ``nrm2``.
    """
    sp, sq = math.sqrt(c.p), math.sqrt(c.q)
    s = sp * np.sin(x)
    lam1 = np.sqrt(1.0 - s * s) - 1j * s
    e = np.exp(-1j * x)
    g = lam1 - sp * e
    return lam1, sq * e, g, c.q + np.abs(g) ** 2


def eigensystem_1d(
    p: CoinParameter | float,
    wavenumber: float,
    theta: QubitState | tuple | list | np.ndarray,
) -> tuple[EigenBranch, EigenBranch]:
    """Both eigenvalue branches of the 1D kernel at one wavenumber.

    Eigenvectors come straight from the kernel entries (closed-form
    quadratic): for eigenvalue ``lam`` the vector ``(S12, lam - S11)`` is an
    eigenvector, and the second branch is its orthogonal complement (the
    kernel is normal with distinct eigenvalues for p < 1).  Branch 1 carries
    the ``+cos(sigma)`` root; at ``x' = 0`` the eigenvalues are (+1, -1).
    """
    c = as_coin(p)
    x = validate_wavenumber(wavenumber)
    th = as_qubit(theta).as_array()
    lam1, b, g, nrm2 = _branch_vectors_1d(c, x)
    nrm = math.sqrt(nrm2)
    h1 = np.array([b, g], dtype=np.complex128) / nrm
    h2 = np.array([-np.conj(g), np.conj(b)], dtype=np.complex128) / nrm
    dS = kernel_1d_derivative(c, x)
    branches = []
    for lam, h in ((complex(lam1), h1), (-complex(lam1).conjugate(), h2)):
        w = abs(np.vdot(h, th)) ** 2
        v = _hf_velocity(h, dS, lam)
        branches.append(EigenBranch(lam, h, float(w), (v,)))
    return branches[0], branches[1]


def limit_moment_1d(
    theta: QubitState | tuple | list | np.ndarray,
    p: CoinParameter | float,
    alpha: int,
    grid: QuadratureGrid | int = QuadratureGrid(4096),
) -> float:
    """Long-time limit of ``<(X_t/t)^alpha>`` by midpoint quadrature.

    Branch velocities are ``+-group_velocity`` and branch weights are the
    squared eigenvector projections of ``theta``; the whole integrand is
    evaluated vectorized over the grid and reduced with numpy's fixed
    pairwise summation, so the result is reproducible bit-for-bit at a
    fixed grid size.
    """
    alpha = require_int(alpha, "moment order", 1)
    c = as_coin(p)
    g = _as_grid(grid)
    th = as_qubit(theta).as_array()
    x = g.nodes()
    _, b, gg, nrm2 = _branch_vectors_1d(c, x)
    w1 = np.abs(np.conj(b) * th[0] + np.conj(gg) * th[1]) ** 2 / nrm2
    w2 = np.abs(-gg * th[0] + b * th[1]) ** 2 / nrm2
    v = math.sqrt(c.p) * np.cos(x) / np.sqrt(1.0 - c.p * np.sin(x) ** 2)
    integrand = w1 * v**alpha + w2 * (-v) ** alpha
    return float(np.sum(integrand) / g.n)


def _batch_eigensystem(
    p: CoinParameter, ms: np.ndarray, ns: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sorted eigensystem of the 4x4 kernel at a batch of wavenumber pairs.

    Returns ``(lam, Q, vx, vy)`` with shapes (B, 4), (B, 4, 4), (B, 4),
    (B, 4); ``Q`` columns are orthonormal eigenvectors ordered by eigenvalue
    phase.  Raises :class:`DegenerateSpectrumError` if any two phases at one
    node are closer than 1e-8 (the caller must move the node; nothing is
    perturbed silently).

    The kernel ``S`` is unitary, so its Hermitian part ``(S + S^dag)/2`` has
    the same eigenvectors wherever its eigenvalues, the cosines of the
    eigenphases, are distinct; ``eigh`` on that part gives them.  Each node
    is then checked: it is recomputed with the general ``eig`` followed by a
    QR re-orthonormalization if two cosines lie closer than 1e-3 (on the
    diagonal m = n they coincide exactly) or if the residual
    ``max_k |S u_k - lam_k u_k|`` exceeds 1e-12.  With ``T = conj(Q) * (S Q)``
    elementwise, the eigenvalues are the Rayleigh quotients
    ``lam_k = sum_i T_ik`` and the Hellmann-Feynman velocities
    ``-Im(u^dag dS u / lam)`` reduce to ``Re((T_0k - T_1k) / lam_k)`` along x
    and ``Re((T_2k - T_3k) / lam_k)`` along y, since the derivative of each
    diagonal phase ``exp(-+i m)`` is ``-+i`` times itself.
    """
    H = coin_2d(p).real
    phases = np.stack(
        [np.exp(-1j * ms), np.exp(1j * ms), np.exp(-1j * ns), np.exp(1j * ns)], axis=1
    )
    S = phases[:, :, None] * H

    cosines, Q = np.linalg.eigh(0.5 * (S + S.conj().swapaxes(1, 2)))
    SQ = S @ Q
    lam = np.sum(Q.conj() * SQ, axis=1)
    residual = np.linalg.norm(SQ - Q * lam[:, None, :], axis=1).max(axis=1)
    bad = (np.diff(cosines, axis=1).min(axis=1) < _COSINE_GAP_MIN) | (
        residual > _RESIDUAL_MAX
    )
    if bad.any():
        w, V = np.linalg.eig(S[bad])
        V = np.take_along_axis(V, np.argsort(np.angle(w), axis=1)[:, None, :], axis=2)
        # for a normal kernel with separated branches the QR factor differs
        # from the raw eigenvectors only by column phases
        Q[bad], _ = np.linalg.qr(V)
        SQ[bad] = S[bad] @ Q[bad]

    T = Q.conj() * SQ
    lam = np.sum(T, axis=1)
    order = np.argsort(np.angle(lam), axis=1)
    lam = np.take_along_axis(lam, order, axis=1)
    Q = np.take_along_axis(Q, order[:, None, :], axis=2)
    T = np.take_along_axis(T, order[:, None, :], axis=2)

    ph = np.angle(lam)
    gaps = np.diff(np.concatenate([ph, ph[:, :1] + 2.0 * np.pi], axis=1), axis=1)
    gmin = float(gaps.min())
    if gmin < _PHASE_GAP_MIN:
        raise DegenerateSpectrumError(
            f"eigenvalue phases separated by {gmin:.3e} < {_PHASE_GAP_MIN:g}; "
            "evaluate at a node away from the degenerate set"
        )
    vx = np.real((T[:, 0] - T[:, 1]) / lam)
    vy = np.real((T[:, 2] - T[:, 3]) / lam)
    return lam, Q, vx, vy


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
    c = as_coin(p)
    m = validate_wavenumber(wavenumber_x)
    n = validate_wavenumber(wavenumber_y)
    th = as_qudit(theta).as_array()
    lam, Q, vx, vy = _batch_eigensystem(c, np.array([m]), np.array([n]))
    out = []
    for j in range(4):
        h = Q[0, :, j].copy()
        w = abs(np.vdot(h, th)) ** 2
        out.append(
            EigenBranch(complex(lam[0, j]), h, float(w), (float(vx[0, j]), float(vy[0, j])))
        )
    return tuple(out)


def limit_moments_2d(
    thetas,
    p: CoinParameter | float,
    orders,
    grid: QuadratureGrid | int = QuadratureGrid(512),
) -> np.ndarray:
    """Limits of ``<(X_t/t)^alpha (Y_t/t)^beta>`` for many states and orders.

    One batched eigendecomposition sweep over the tensor grid, in fixed-size
    chunks, serves every state in ``thetas`` and every ``(alpha, beta)`` in
    ``orders``; the result has shape ``(len(thetas), len(orders))``.  Chunk
    partial sums are accumulated in a fixed order, so results are
    reproducible at a fixed grid size.  Propagates
    :class:`DegenerateSpectrumError` from the eigensolver.
    """
    orders = [(require_int(a, "alpha"), require_int(b, "beta")) for a, b in orders]
    if not orders or any(a + b < 1 for a, b in orders):
        raise InvalidParameterError(
            f"need moment orders (alpha, beta) >= 0 with alpha + beta >= 1, "
            f"got {orders}"
        )
    c = as_coin(p)
    g = _as_grid(grid)
    ths = [as_qudit(th).as_array() for th in thetas]
    nodes = g.nodes()
    mm, nn = np.meshgrid(nodes, nodes, indexing="ij")
    ms, ns = mm.ravel(), nn.ravel()
    starts = range(0, ms.size, _CHUNK)
    partials = np.empty((len(ths), len(orders), len(starts)))
    for ci, s in enumerate(starts):
        lam, Q, vx, vy = _batch_eigensystem(c, ms[s : s + _CHUNK], ns[s : s + _CHUNK])
        for si, th in enumerate(ths):
            wgt = np.abs(np.einsum("bik,i->bk", Q.conj(), th)) ** 2
            for oi, (a, b) in enumerate(orders):
                partials[si, oi, ci] = np.sum(wgt * vx**a * vy**b)
    # each entry's chunk partials are summed as one 1D array, in a fixed order
    sums = [np.sum(row) for row in partials.reshape(-1, len(starts))]
    return np.reshape(sums, partials.shape[:2]) / g.n**2


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
    return float(limit_moments_2d([theta], p, [(alpha, beta)], grid)[0, 0])


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
    square lattice ``beta`` defaults to 0.  A single evolution pass supplies
    the whole ladder.  ``alpha (+ beta) = 0`` is the trivial moment: both
    sides are exactly 1 and every gap is 0, but ``p`` is checked all the same.
    """
    ladder = tuple(require_int(t, "ladder time", 1) for t in ladder)
    if len(ladder) < 1 or any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise InvalidParameterError("time ladder must be strictly increasing")
    alpha = require_int(alpha, "alpha")
    beta = None if beta is None else require_int(beta, "beta")
    p = as_coin(p)

    comps = list(theta.as_array()) if hasattr(theta, "as_array") else list(theta)
    one_d = len(comps) == 2
    th = as_qubit(theta) if one_d else as_qudit(theta)
    rep_beta = None if one_d else (0 if beta is None else beta)
    want = set(ladder)
    if alpha + (rep_beta or 0) == 0:
        quad, sims = 1.0, [1.0] * len(ladder)
    elif one_d:
        quad = limit_moment_1d(th, p, alpha, QuadratureGrid(4096) if grid is None else grid)
        fields = trajectory_1d(th, p, ladder[-1])
        sims = [moment_1d(distribution_1d(f), alpha) for f in fields if f.t in want]
    else:
        quad = limit_moment_2d(
            th, p, alpha, rep_beta, QuadratureGrid(512) if grid is None else grid
        )
        fields = trajectory_2d(th, p, ladder[-1])
        sims = [
            joint_moment_2d(distribution_2d(f), alpha, rep_beta)
            for f in fields
            if f.t in want
        ]

    gaps = tuple(abs(s - quad) for s in sims)
    return MomentReport(
        alpha=alpha,
        beta=rep_beta,
        quadrature=float(quad),
        times=ladder,
        simulated=tuple(float(s) for s in sims),
        gaps=gaps,
    )
