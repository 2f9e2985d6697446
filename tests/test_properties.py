"""Property-based invariants over randomized parameters and states."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qwalk.closedform import alpha_coefficients, closed_form_field, closed_form_fields
from qwalk.coin import as_coin, coin_1d, coin_2d, kernel_1d, kernel_2d
from qwalk.errors import DegenerateSpectrumError, QwalkError
from qwalk.localization import (
    localization_verdict,
    time_averaged_probability_1d,
    time_averaged_probability_2d,
)
from qwalk.spectral import (
    _batch_eigensystem,
    _line_spectrum,
    _velocities,
    _weights,
    convergence_report,
    group_velocity,
    limit_moment_1d,
    limit_moment_2d,
    limit_moments_2d,
)
from qwalk.symmetry import in_phi_perp
from qwalk.walk1d import QubitState, distribution_1d, evolve_1d, moment_1d
from qwalk.walk2d import QuditState, distribution_2d, evolve_2d

p_strategy = st.floats(min_value=0.05, max_value=0.95)
wavenumber_strategy = st.floats(min_value=-math.pi, max_value=math.pi, exclude_max=True)
phase_strategy = st.floats(min_value=0.0, max_value=2 * math.pi)


def qubit_from(parts):
    v = np.array([complex(parts[0], parts[1]), complex(parts[2], parts[3])])
    n = np.linalg.norm(v)
    if n < 1e-3:
        v = np.array([1.0, 0.0], dtype=complex)
        n = 1.0
    v = v / n
    return QubitState(v[0], v[1])


def qudit_from(parts):
    v = np.array(
        [complex(parts[2 * i], parts[2 * i + 1]) for i in range(4)], dtype=complex
    )
    n = np.linalg.norm(v)
    if n < 1e-3:
        v = np.array([1, 0, 0, 0], dtype=complex)
        n = 1.0
    return QuditState(*(v / n))


component = st.floats(min_value=-1.0, max_value=1.0)
qubit_strategy = st.tuples(*([component] * 4)).map(qubit_from)
qudit_strategy = st.tuples(*([component] * 8)).map(qudit_from)


@settings(max_examples=50, deadline=None)
@given(p=p_strategy, x=wavenumber_strategy)
def test_kernel_1d_unitary_with_unit_determinant(p, x):
    s = kernel_1d(p, x)
    assert np.max(np.abs(s.conj().T @ s - np.eye(2))) <= 1e-14
    assert abs(np.linalg.det(s) + 1.0) <= 1e-14


@settings(max_examples=25, deadline=None)
@given(p=p_strategy, m=wavenumber_strategy, n=wavenumber_strategy)
def test_kernel_2d_unitary(p, m, n):
    s = kernel_2d(p, m, n)
    assert np.max(np.abs(s.conj().T @ s - np.eye(4))) <= 1e-14


@settings(max_examples=25, deadline=None)
@given(p=p_strategy)
def test_lattice_coin_is_kronecker_square(p):
    h = coin_1d(p)
    assert np.max(np.abs(coin_2d(p) - np.kron(h, h))) <= 1e-15


@settings(max_examples=30, deadline=None)
@given(theta=qubit_strategy, p=p_strategy, t=st.integers(min_value=0, max_value=30))
def test_line_norm_parity_and_support(theta, p, t):
    f = evolve_1d(theta, p, t)
    assert abs(f.total_probability() - 1.0) <= 1e-12
    for x, _ in f.items():
        assert abs(x) <= t and (x - t) % 2 == 0


@settings(max_examples=15, deadline=None)
@given(theta=qudit_strategy, p=p_strategy, t=st.integers(min_value=0, max_value=12))
def test_lattice_norm_and_light_cone(theta, p, t):
    f = evolve_2d(theta, p, t)
    assert abs(f.total_probability() - 1.0) <= 1e-12
    for (x, y), _ in f.items():
        assert abs(x) + abs(y) <= t and (x + y - t) % 2 == 0


@settings(max_examples=25, deadline=None)
@given(
    theta=qubit_strategy,
    p=p_strategy,
    k=st.floats(min_value=-3.0, max_value=3.0),
    t=st.integers(min_value=1, max_value=15),
)
def test_global_phase_leaves_distribution_unchanged(theta, p, k, t):
    d0 = distribution_1d(evolve_1d(theta, p, t, k=0.0))
    d1 = distribution_1d(evolve_1d(theta, p, t, k=k))
    assert np.max(np.abs(d0.masses - d1.masses)) <= 1e-14


@settings(max_examples=25, deadline=None)
@given(theta=qubit_strategy, p=p_strategy, t=st.integers(min_value=0, max_value=40))
def test_closed_form_equals_stepped_oracle(theta, p, t):
    oracle = evolve_1d(theta, p, t)
    cf = closed_form_field(theta, p, t)
    assert np.max(np.abs(cf.phi1 - oracle.phi1)) <= 1e-12
    assert np.max(np.abs(cf.phi2 - oracle.phi2)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(p=p_strategy, t=st.integers(min_value=1, max_value=40))
def test_alpha_coefficients_parity(p, t):
    for n, _ in alpha_coefficients(p, t).items():
        assert (n - (t - 1)) % 2 == 0


@settings(max_examples=25, deadline=None)
@given(theta=qubit_strategy, p=p_strategy, t=st.integers(min_value=1, max_value=20))
def test_zeroth_moment_normalization(theta, p, t):
    d = distribution_1d(evolve_1d(theta, p, t))
    assert moment_1d(d, 0) == 1.0
    assert abs(d.total() - 1.0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(gamma=phase_strategy, sign=st.sampled_from([1, -1]))
def test_balanced_phase_family_in_class(gamma, sign):
    r = 1 / math.sqrt(2)
    ph = complex(math.cos(gamma), math.sin(gamma))
    assert in_phi_perp(QubitState(ph * r, ph * r * 1j * sign))


@settings(max_examples=30, deadline=None)
@given(theta=qubit_strategy, p=p_strategy, x=wavenumber_strategy)
def test_branch_weights_and_velocities(theta, p, x):
    # one node of the line sweep's projector route
    _, P, K, e = _line_spectrum(as_coin(p), np.array([x]))
    w = _weights(coin_1d(p), e, K, theta.as_array())[0] / 2
    ((v1, v2),) = _velocities(P)[0]
    assert abs(w.sum() - 1.0) <= 1e-10
    assert abs(v1 + v2) <= 1e-10
    assert abs(v1) <= 1.0 + 1e-12
    assert abs(v1 - group_velocity(p, x)) <= 1e-10


@settings(max_examples=15, deadline=None)
@given(theta=qudit_strategy, p=p_strategy, t=st.integers(min_value=1, max_value=10))
def test_lattice_distribution_sums_to_one(theta, p, t):
    d = distribution_2d(evolve_2d(theta, p, t))
    assert abs(d.total() - 1.0) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(theta=qudit_strategy, p=p_strategy, m=wavenumber_strategy, n=wavenumber_strategy)
def test_lattice_branches_match_eigvals(theta, p, m, n):
    # one node of the lattice sweep's projector route
    try:
        lam, P, K, e = _batch_eigensystem(as_coin(p), np.array([m]), np.array([n]))
    except DegenerateSpectrumError:
        return
    d = np.abs(lam[0][:, None] - np.linalg.eigvals(kernel_2d(p, m, n))[None, :])
    assert max(d.min(axis=0).max(), d.min(axis=1).max()) <= 1e-13
    assert abs(_weights(coin_2d(p), e, K, theta.as_array()).sum() / 2 - 1.0) <= 1e-10
    vx, vy = _velocities(P)
    assert np.max(np.abs(vx) + np.abs(vy)) <= 1.0 + 1e-10


exponent = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=True),
    st.booleans(),
    st.text(max_size=2),
    st.none(),
)
order_strategy = st.one_of(
    exponent,
    st.lists(exponent, max_size=4),
    st.tuples(exponent, exponent),
    st.tuples(st.tuples(exponent, exponent), exponent),
)


def _well_formed(order):
    return (
        isinstance(order, (tuple, list))
        and len(order) == 2
        and all(isinstance(a, int) and not isinstance(a, bool) and a >= 0 for a in order)
        and sum(order) >= 1
    )


@settings(max_examples=100, deadline=None)
@given(order=order_strategy)
def test_malformed_lattice_order_raises_qwalk_error(order):
    assume(not _well_formed(order))
    with pytest.raises(QwalkError):
        limit_moments_2d([QuditState(1, 0, 0, 0)], 0.5, [order], grid=8)


_QUDIT = QuditState(1, 0, 0, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: limit_moments_2d([_QUDIT], 0.5, 5, grid=8),
        lambda: limit_moments_2d(_QUDIT, 0.5, [(1, 0)], grid=8),
        lambda: evolve_1d(5, 0.5, 3),
        lambda: closed_form_field(5, 0.5, 3),
        lambda: convergence_report(5, 0.5, 1, ladder=(10, 20)),
        lambda: convergence_report(QubitState(1, 0), 0.5, 1, ladder=100, grid=64),
        lambda: time_averaged_probability_1d(QubitState(1, 0), 0.5, 0, 64),
        lambda: time_averaged_probability_2d(_QUDIT, 0.5, 5, (16, 32, 64)),
    ],
    ids=[
        "orders",
        "thetas",
        "evolve_state",
        "closed_form_state",
        "report_state",
        "report_ladder",
        "average_ladder",
        "lattice_site",
    ],
)
def test_non_iterable_argument_raises_qwalk_error(call):
    with pytest.raises(QwalkError):
        call()


valid_p = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
valid_k = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(
    theta=qubit_strategy,
    p=valid_p,
    k=valid_k,
    times=st.sets(st.integers(min_value=0, max_value=40), min_size=1).map(sorted),
)
def test_line_outputs_are_finite_for_valid_input(theta, p, k, times):
    assert np.isfinite(evolve_1d(theta, p, times[-1], k).amps).all()
    for f in closed_form_fields(theta, p, times, k):
        assert np.isfinite(f.amps).all()


@settings(max_examples=25, deadline=None)
@given(theta=qudit_strategy, p=valid_p, k=valid_k, t=st.integers(min_value=0, max_value=12))
def test_lattice_outputs_are_finite_for_valid_input(theta, p, k, t):
    assert np.isfinite(evolve_2d(theta, p, t, k).amps).all()


def _finite_or_qwalk_error(call):
    """Run ``call``; it must raise QwalkError or return only finite numbers."""
    try:
        out = call()
    except QwalkError:
        return None
    assert _all_finite(out), out
    return out


def _all_finite(out):
    if dataclasses.is_dataclass(out):
        return all(_all_finite(getattr(out, f.name)) for f in dataclasses.fields(out))
    if isinstance(out, (tuple, list)):
        return all(_all_finite(v) for v in out)
    return out is None or bool(np.isfinite(out).all())


def _grids(max_exponent):
    return st.integers(min_value=1, max_value=max_exponent).map(lambda e: 2**e)


small_order = st.integers(min_value=0, max_value=4)
lattice_order = st.tuples(small_order, small_order).filter(lambda o: sum(o) >= 1)
small_ladder = st.sets(st.integers(min_value=1, max_value=24), min_size=1, max_size=4).map(
    lambda s: tuple(sorted(s))
)
horizon_ladder = st.sets(st.integers(min_value=8, max_value=40), min_size=1, max_size=4).map(
    lambda s: tuple(sorted(s))
)
site_strategy = st.integers(min_value=-50, max_value=50)


@settings(max_examples=40, deadline=None)
@given(
    theta=qubit_strategy,
    p=valid_p,
    alpha=st.integers(min_value=1, max_value=6),
    grid=_grids(10),
)
def test_line_limit_finite_for_valid_input(theta, p, alpha, grid):
    _finite_or_qwalk_error(lambda: limit_moment_1d(theta, p, alpha, grid))


@settings(max_examples=30, deadline=None)
@given(
    thetas=st.lists(qudit_strategy, min_size=1, max_size=3),
    p=valid_p,
    orders=st.lists(lattice_order, min_size=1, max_size=3),
    grid=_grids(5),
)
def test_lattice_limits_finite_for_valid_input(thetas, p, orders, grid):
    table = _finite_or_qwalk_error(lambda: limit_moments_2d(thetas, p, orders, grid))
    assert table is None or table.shape == (len(thetas), len(orders))
    a, b = orders[0]
    _finite_or_qwalk_error(lambda: limit_moment_2d(thetas[0], p, a, b, grid))


@settings(max_examples=25, deadline=None)
@given(
    theta=st.one_of(qubit_strategy, qudit_strategy),
    p=valid_p,
    alpha=small_order,
    beta=st.one_of(st.none(), small_order),
    ladder=small_ladder,
    grid=_grids(4),
)
def test_convergence_report_finite_for_valid_input(theta, p, alpha, beta, ladder, grid):
    _finite_or_qwalk_error(lambda: convergence_report(theta, p, alpha, beta, ladder, grid))


@settings(max_examples=25, deadline=None)
@given(
    theta=qubit_strategy,
    p=valid_p,
    site=site_strategy,
    ladder=horizon_ladder,
    epsilon=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
def test_line_localization_finite_for_valid_input(theta, p, site, ladder, epsilon):
    est = _finite_or_qwalk_error(lambda: time_averaged_probability_1d(theta, p, site, ladder))
    if est is not None:
        _finite_or_qwalk_error(lambda: localization_verdict(est, epsilon))


@settings(max_examples=15, deadline=None)
@given(
    theta=qudit_strategy,
    p=valid_p,
    site=st.tuples(site_strategy, site_strategy),
    ladder=horizon_ladder,
    epsilon=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
def test_lattice_localization_finite_for_valid_input(theta, p, site, ladder, epsilon):
    est = _finite_or_qwalk_error(lambda: time_averaged_probability_2d(theta, p, site, ladder))
    if est is not None:
        _finite_or_qwalk_error(lambda: localization_verdict(est, epsilon))
