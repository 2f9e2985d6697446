"""Kernel spectra, group velocities, and weak-limit moment quadrature.

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
one quadrature body evaluates both.  Both spectra are closed form and every
node takes the same path: the 2x2 kernel's is a quadratic, and the 4x4
kernel's characteristic polynomial is palindromic and reduces to a quadratic
in ``sin(omega)``.  No eigenvector is built and no ``numpy.linalg`` routine
is called: ``|u_ij|^2`` and ``|c_j|^2`` are entries of the spectral
projector ``P_j = prod_{k != j} (S - lambda_k) / (lambda_j - lambda_k)``
(Sylvester's formula), whose diagonal and form ``theta^dag P_j theta``
follow from those of the powers ``S^m``, ``m`` below the kernel's size.
Per-node accuracy is about machine epsilon over the node's smallest phase
gap.  Both moments are evaluated by the midpoint rule on an offset
power-of-two grid whose nodes avoid every symmetry point where branches
could cross.  The coin is real, so ``S(k + pi (1, ..., 1)) = -S(k)`` and
``S(-k) = conj S(k)``; the eigensolves run on a quarter of the grid, the
first-axis rows ``i < n/4``, and each swept node also stands for its three
images, whose weights are its own or ``|Q^T theta|^2``.  On the lattice the
diagonal mirror ``A S(m, n) A^T = -S(n, m)`` (``A = EXCHANGE_XY``, see
:mod:`qwalk.symmetry`) pairs the quarter's nodes, and the eigensolves run
on one node of each pair, an eighth of the grid: the other node has the
same spectrum, with the weights of ``A^T theta`` and the two velocities
exchanged.  On the line the
integrand is smooth and periodic and the rule converges spectrally
(criterion 11 holds N = 1024 and N = 4096 within 1e-10).  On the square
lattice it does not: the branch-sorted integrand is not smooth, and the
convergence is algebraic, about ``N^-1.5``.  For state (1, 0, 0, 0) at p =
1/2, order (1, 0), the value moves by 2.37e-4, 8.39e-5 and 2.96e-5 at N =
64 -> 128 -> 256 -> 512.
:func:`convergence_reports` pairs each quadrature with simulated moments
read from the engine's propagator (``basis_fields_1d``/``_2d``), which
criterion 12 of the acceptance gate holds to directly stepped states.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .coin import EXCHANGE_XY, CoinParameter, as_coin, coin_1d, coin_2d, validate_wavenumber
from .errors import (
    DegenerateSpectrumError, InvalidParameterError, require_int, require_ladder, require_time,
)
from .walk1d import Distribution1D, QubitState, as_qubit, moment_1d
from .walk2d import Distribution2D, QuditState, _propagator, as_qudit, joint_moment_2d

__all__ = [
    "QuadratureGrid",
    "MomentReport",
    "sigma",
    "group_velocity",
    "limit_moment_1d",
    "limit_moments_2d",
    "limit_moment_2d",
    "convergence_report",
    "convergence_reports",
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
        n = require_time(self.n, "grid size", 2)
        if n & (n - 1):
            raise InvalidParameterError(f"grid size must be a power of two, got {n}")
        object.__setattr__(self, "n", n)

    def nodes(self) -> np.ndarray:
        return -np.pi + (np.arange(self.n) + 0.5) * (2.0 * np.pi / self.n)


def _as_grid(grid: QuadratureGrid | int) -> QuadratureGrid:
    return grid if isinstance(grid, QuadratureGrid) else QuadratureGrid(grid)


@dataclass(frozen=True)
class MomentReport:
    """Quadrature limit value paired with simulated moments on a time ladder.

    ``gaps`` is derived, ``|s - quadrature|`` for each simulated moment
    ``s``, so the record cannot contradict its own numbers.  A NaN value is
    kept: its gap is NaN and the report does not converge.

    Raises
    ------
    InvalidParameterError
        If ``alpha`` is not an integer ``>= 0``, ``beta`` neither None nor
        one, ``times`` not a ladder that :func:`validate_time_ladder`
        admits, or the quadrature and the simulated moments not real
        numbers, one simulated moment per time.
    """

    alpha: int
    beta: int | None
    quadrature: float
    times: tuple[int, ...]
    simulated: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", require_int(self.alpha, "alpha"))
        if self.beta is not None:
            object.__setattr__(self, "beta", require_int(self.beta, "beta"))
        times = validate_time_ladder(self.times)
        values = (self.quadrature, *self.simulated) if np.iterable(self.simulated) else ()
        if len(values) != len(times) + 1 or not all(isinstance(v, numbers.Real) for v in values):
            raise InvalidParameterError(
                f"need a real quadrature and one real simulated moment per time {times}, "
                f"got {self.quadrature!r} and {self.simulated!r}"
            )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "quadrature", float(values[0]))
        object.__setattr__(self, "simulated", tuple(map(float, values[1:])))

    @property
    def gaps(self) -> tuple[float, ...]:
        return tuple(abs(s - self.quadrature) for s in self.simulated)

    @property
    def converged(self) -> bool:
        """Gap at the largest time no worse than at the smallest.

        Gaps below 1e-12 are treated as converged outright; for symmetric
        states both sides vanish and the comparison would be rounding noise.
        """
        return self.gaps[-1] <= max(self.gaps[0], _GAP_FLOOR)


def sigma(p: CoinParameter | float, wavenumber: float) -> float:
    """Dispersion phase ``arcsin(sqrt(p) sin(x'))``, principal branch.

    It is the oracle for the line sweep's eigenvalues: the tests hold
    :func:`_line_spectrum`'s ``lam`` to ``exp(-i sigma)`` and ``-exp(i sigma)``.
    """
    c = as_coin(p)
    x = validate_wavenumber(wavenumber)
    return float(np.arcsin(math.sqrt(c.p) * math.sin(x)))


def group_velocity(p: CoinParameter | float, wavenumber: float) -> float:
    """Derivative of :func:`sigma`: ``sqrt(p) cos x' / sqrt(1 - p sin^2 x')``.

    Magnitude is bounded by ``sqrt(p) < 1``: the walk never transports
    faster than one site per step.  It is the oracle for the line sweep's
    velocities: the tests hold :func:`_velocities` to ``+-`` this.
    """
    c = as_coin(p)
    x = validate_wavenumber(wavenumber)
    return math.sqrt(c.p) * math.cos(x) / math.sqrt(1.0 - c.p * math.sin(x) ** 2)


def _velocities(P: np.ndarray) -> list[np.ndarray]:
    """Branch velocities along each axis: the mover imbalance of each branch.

    ``P`` holds squared moduli ``|u_ij|^2`` of normalized eigenvectors, row
    ``i`` the component and column ``j`` the branch, shape (B, 2 dim, 2
    dim), rows ordered (+x, -x[, +y, -y]): the spectral projectors'
    diagonals.  Returns one (B, 2 dim) array per axis, ``P_{+d,j} -
    P_{-d,j}``, which is the Hellmann-Feynman velocity because ``dS/dk_d``
    is ``S`` with axis ``d``'s rows times ``-+i``.
    """
    return [P[:, d] - P[:, d + 1] for d in range(0, P.shape[1], 2)]


def _real_sum(fbar: np.ndarray, K: np.ndarray) -> np.ndarray:
    """``Re(sum_m f[..., m] K[:, j, m])`` for each branch ``j``, from
    ``fbar = conj(f)``, as one real product of the two real views:
    ``Re(f K) = Re(fbar) Re(K) + Im(fbar) Im(K)``.  ``fbar``'s last axis
    must be contiguous.
    """
    return fbar.view(np.float64) @ K.view(np.float64).swapaxes(-1, -2)


def _line_spectrum(
    c: CoinParameter, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues and spectral projectors of the 2x2 kernel at wavenumbers
    ``x``: ``(lam, P, K, e)`` in the shapes and meaning of
    :func:`_batch_eigensystem`, with 2 in place of 4.

    ``lam`` is ``(cos(sigma) - i sin(sigma), -cos(sigma) - i sin(sigma))``,
    the cosine taken as ``sqrt(1 - p sin^2 x')``; at ``x' = 0`` it is (+1,
    -1).  Sylvester's formula for two branches is ``P_j = (S - lam_k) /
    (lam_j - lam_k)``, so ``K[:, j] = (-lam_k, 1) / (lam_j - lam_k)``.  The
    gap ``lam_0 - lam_1 = 2 cos(sigma)`` is at least ``2 sqrt(q)``, so no
    node is degenerate.
    """
    s = math.sqrt(c.p) * np.sin(x)
    lam = np.sqrt(1.0 - s * s) - 1j * s
    lam = np.stack([lam, -lam.conj()], axis=1)
    other = lam[:, ::-1]
    K = np.stack([-other, np.ones_like(lam)], axis=2) / (lam - other)[:, :, None]
    e = np.exp(1j * np.stack([-x, x], axis=1))
    dbar = np.stack([np.ones_like(e), np.diagonal(coin_1d(c)) * e.conj()], axis=2)
    return lam, _real_sum(dbar, K), K, e


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
    theta`` (:func:`_weights`).  Per-node accuracy is
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


def _weights(H: np.ndarray, e: np.ndarray, K: np.ndarray, th: np.ndarray) -> np.ndarray:
    """Branch weights ``|Q^dag theta|^2 + |Q^T theta|^2`` without ``Q``.

    The result has shape (B, n).  The weights are ``theta^dag P_j theta +
    conj(theta)^dag P_j conj(theta)``, so only the forms ``t^dag S^m t`` (m
    < n) are needed; ``S^m t`` is ``e * (x @ H)`` of ``x = S^(m-1) t``, the
    coin ``H`` being symmetric.  ``H``, ``e`` and ``K`` are the coin and the
    spectrum's phases and projector coefficients.
    """
    forms = np.zeros(e.shape, np.complex128)
    for t in (th, th.conj()):
        x = t
        forms[:, 0] += np.vdot(t, t)
        for m in range(1, K.shape[2]):
            x = e * (x @ H)
            forms[:, m] += x @ t.conj()
    return _real_sum(forms.conj()[:, None, :], K)[:, 0]


def _moment_orders(orders, dim: int) -> list[tuple[int, ...]]:
    """``orders`` as a non-empty list of moments, each a tuple of one integer
    exponent ``>= 0`` per axis, for ``dim`` axes (on the line a bare
    exponent is a tuple of one), of total order ``>= 1``; else
    :class:`InvalidParameterError`."""
    names = ("alpha", "beta")[:dim]
    moments = [tuple(o) if np.iterable(o) else (o,) for o in orders] if np.iterable(orders) else []
    if not moments or any(len(o) != dim for o in moments):
        raise InvalidParameterError(
            f"need a sequence of moment orders of one exponent each for {', '.join(names)}, "
            f"got {orders!r}"
        )
    moments = [tuple(require_int(a, n) for a, n in zip(o, names)) for o in moments]
    if any(sum(o) < 1 for o in moments):
        raise InvalidParameterError(
            f"need moment orders >= 0 with {' + '.join(names)} >= 1, got {moments}"
        )
    return moments


def _limit_moments(thetas, p, orders, grid, dim: int) -> np.ndarray:
    """Weak-limit moments on the line (``dim`` 1) or the square lattice (2).

    ``orders`` holds one exponent per axis for each moment.  One chunked
    eigensystem sweep over a quarter of the ``n^dim`` grid, an eighth on the
    lattice, serves every state and order from the kernel's spectral projectors
    (:func:`_line_spectrum` or :func:`_batch_eigensystem`, :func:`_weights`).
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
    theta|^2) / 2`` times the velocity powers over the quarter's nodes.

    On the lattice the diagonal mirror halves that again.  With ``A =
    EXCHANGE_XY``, ``A S(m, n) A^T = -S(n, m)`` (:mod:`qwalk.symmetry`):
    the eigenvectors at ``(n, m)`` are ``A Q``, so node ``(j, i)`` has the
    weights of ``A^T theta`` at node ``(i, j)`` and the velocities ``(v_y,
    v_x)``.  The mirror pairs the quarter's nodes through
    :func:`_quarter_node`; the sweep visits the first node of each pair,
    adds the second node's term from the visited node's spectrum, and
    counts the ``n`` nodes that are their own pair once: ``n^2 / 8 + n /
    2`` eigensolves for ``n >= 4``.  Phase gaps are invariant under all
    three maps, so the sweep raises
    :class:`DegenerateSpectrumError` exactly when a full sweep would.  Each
    chunk's terms are summed, then each entry's chunk partials are summed as
    one 1D array, in a fixed order, so results are reproducible at a fixed
    grid size.
    """
    if not np.iterable(thetas):
        raise InvalidParameterError(f"thetas must be a sequence, got {thetas!r}")
    orders = _moment_orders(orders, dim)
    c = as_coin(p)
    g = _as_grid(grid)
    ths = [(as_qubit, as_qudit)[dim - 1](th).as_array() for th in thetas]
    # looked up per call, so rebound module names are honored
    spectrum, coin = ((_line_spectrum, coin_1d), (_batch_eigensystem, coin_2d))[dim - 1]
    H = coin(c)
    nodes = g.nodes()
    rows = max(g.n // 4, 1)
    quarter = rows * g.n ** (dim - 1)
    swept, twin = np.arange(quarter), None  # flat indices i n + j on the lattice
    if dim == 2:
        # each mirror pair of the quarter's nodes is swept from its first node;
        # twin is 1 where the pair has a second node and 0 where it does not
        i, j = np.divmod(swept, g.n)
        image = _quarter_node(g.n, j, i)
        twin = (swept != image)[swept <= image]
        swept = swept[swept <= image]
    axes = [nodes[k] for k in (np.divmod(swept, g.n) if dim == 2 else (swept,))]
    starts = range(0, axes[0].size, _CHUNK)
    partials = np.empty((len(ths), len(orders), len(starts)))
    for ci, s in enumerate(starts):
        chunk = slice(s, s + _CHUNK)
        _, P, K, e = spectrum(c, *(a[chunk] for a in axes))
        vel = _velocities(P)
        for si, th in enumerate(ths):
            terms = [(_weights(H, e, K, th), vel)]
            if twin is not None:
                mirrored = _weights(H, e, K, EXCHANGE_XY.T @ th) * twin[chunk, None]
                terms.append((mirrored, vel[::-1]))
            for oi, order in enumerate(orders):
                term = sum(w * math.prod(v**a for v, a in zip(vs, order)) for w, vs in terms)
                partials[si, oi, ci] = np.sum(term)
    sums = [np.sum(row) for row in partials.reshape(-1, len(starts))]
    return np.reshape(sums, partials.shape[:2]) / (2 * quarter)


def _quarter_node(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The flat index ``i n + j`` of the node of the quarter (rows ``i <
    max(n/4, 1)``) that stands for grid node ``(a, b)``: ``(a, b)`` itself
    or its image under the shift by pi, the negation or both, exactly one of
    which lies in the quarter."""
    h = n // 2
    images = [(a, b), (a + h, b + h), (n - 1 - a, n - 1 - b), (h - 1 - a, h - 1 - b)]
    images = [(i % n, j % n) for i, j in images]
    return np.select([i < max(n // 4, 1) for i, _ in images], [i * n + j for i, j in images])


def limit_moment_1d(
    theta: QubitState | tuple | list | np.ndarray,
    p: CoinParameter | float,
    alpha: int,
    grid: QuadratureGrid | int = QuadratureGrid(4096),
) -> float:
    """Long-time limit of ``<(X_t/t)^alpha>`` by midpoint quadrature.

    Branch weights (the squared eigenvector projections of ``theta``) and
    branch velocities (the mover imbalances, ``+-`` :func:`group_velocity`)
    are read from the spectral projectors; the integrand is evaluated vectorized over the
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

    One batched eigensystem sweep, in fixed-size chunks, over an eighth of
    the tensor grid (the kernel's shift-by-pi, negation and diagonal-mirror
    symmetries supply the rest) serves every state in ``thetas`` and every
    ``(alpha, beta)`` in ``orders``; the result has
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
    """The simulation times of a convergence report as a tuple: non-empty,
    strictly increasing, every time an integer ``>= 1``."""
    return require_ladder(ladder, "ladder time", 1)


# each lattice's default ladder and grid size for a convergence report
_REPORT_SCALES = (((125, 250, 500, 1000), 4096), ((75, 150, 300), 512))


def convergence_reports(
    states,
    p: CoinParameter | float,
    orders,
    ladder: tuple[int, ...] | None = None,
    grid: QuadratureGrid | int | None = None,
) -> tuple[tuple[MomentReport, ...], ...]:
    """Pair simulated pseudo-velocity moments with their quadrature limits:
    one row of reports per state of ``states``, one report per moment of
    ``orders``.

    ``states`` is a non-empty batch of :class:`QubitState` or of
    :class:`QuditState` instances; ``orders`` holds one exponent per axis
    for each moment (a bare ``alpha`` on the line), of total order ``>= 1``.
    ``ladder`` and ``grid`` default per lattice: ``(125, 250, 500, 1000)``
    and N = 4096 on the line, ``(75, 150, 300)`` and N = 512 on the square
    lattice.  One quadrature sweep serves every state and order, before any
    step.  The simulated moments come by linearity from one basis trajectory
    (``basis_fields_1d``/``_2d``), one state's distribution per time, so a
    state's reports do not depend on the rest of the batch.
    """
    dim, basis_fields, theta = _propagator(states)
    default_ladder, default_grid = _REPORT_SCALES[dim - 1]
    # looked up per call, so rebound module names are honored
    distribution, moment = (
        (Distribution1D, moment_1d), (Distribution2D, joint_moment_2d)
    )[dim - 1]
    ladder = validate_time_ladder(default_ladder if ladder is None else ladder)
    orders = _moment_orders(orders, dim)
    quads = _limit_moments(theta, p, orders, default_grid if grid is None else grid, dim)
    sims = np.empty(quads.shape + (len(ladder),))
    for i, basis in enumerate(basis_fields(p, ladder)):
        for row, sim in zip(theta, sims):
            d = distribution(basis.t, basis._masses(row[None])[0])
            sim[:, i] = [moment(d, *order) for order in orders]
    return tuple(
        tuple(MomentReport(o[0], o[1] if dim == 2 else None, q, ladder, s)
              for o, q, s in zip(orders, quad, sim))
        for quad, sim in zip(quads, sims)
    )


def convergence_report(
    theta,
    p: CoinParameter | float,
    alpha: int,
    beta: int | None = None,
    ladder: tuple[int, ...] | None = None,
    grid: QuadratureGrid | int | None = None,
) -> MomentReport:
    """The report of :func:`convergence_reports` for one state and order.

    The dimension is taken from the state length (2 or 4 components); for the
    square lattice ``beta`` defaults to 0, and a line state rejects any
    ``beta`` rather than dropping it.  ``alpha (+ beta) = 0`` is the trivial
    moment: both sides are exactly 1 and every gap is 0, but ``p``,
    ``ladder`` and ``grid`` are checked all the same.
    """
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
    default_ladder, default_grid = _REPORT_SCALES[dim - 1]
    ladder = validate_time_ladder(default_ladder if ladder is None else ladder)
    grid = _as_grid(default_grid if grid is None else grid)  # for the trivial moment too
    th = (as_qubit, as_qudit)[dim - 1](theta)
    if sum(orders):
        return convergence_reports([th], p, [orders], ladder, grid)[0][0]
    return MomentReport(alpha, orders[1] if dim == 2 else None, 1.0, ladder, [1.0] * len(ladder))
