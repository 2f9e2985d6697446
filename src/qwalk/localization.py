"""Finite-horizon localization probes via time-averaged site probabilities.

A walker is localized at a site when the time-averaged probability

    pbar_T(site) = (1/T) sum_{t=1..T} P(site, t)

stays bounded away from zero as the horizon grows; a positive limit is the
point-mass intensity of the stationary distribution at that site.  The
pointwise limit of ``P(site, t)`` does not exist for these walks (it
oscillates, and vanishes at every other step by parity), so the estimator
averages over *all* steps, parity included, and reports the average at a
ladder of horizons together with a decay flag.  For the two-state line walk
and its four-state lattice product there is no localization: the origin
average decays like ``log t / t`` (line), ``1/t`` (lattice), which the
acceptance suite pins down as a halving ratio in [0.3, 0.8] per horizon
doubling.

One body, :func:`time_averaged_probabilities`, serves a batch of states on
either lattice: one basis trajectory per ``p`` (the propagator of
:mod:`qwalk.walk1d` and :mod:`qwalk.walk2d`), of which only the basis x
component matrix at the site is read at each step.  The one-state forms
``time_averaged_probability_1d``/``_2d`` call it with a batch of one.  A
real line state such as ``(1, 0)`` is read from the line's packed complex
basis, so it costs what a complex state costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coin import CoinParameter
from .errors import (
    InvalidParameterError,
    PreconditionError,
    require_int,
    require_ladder,
    require_real,
)
from .walk1d import _checked_array, _of_type, _site_coordinates, as_qubit
from .walk2d import _propagator, as_qudit

__all__ = [
    "DeltaIntensityEstimate",
    "time_averaged_probabilities",
    "time_averaged_probability_1d",
    "time_averaged_probability_2d",
    "localization_verdict",
]


# how far a mean of probabilities may round above 1
_AVERAGE_TOL = 1e-12


@dataclass(frozen=True)
class DeltaIntensityEstimate:
    """Cesaro averages of one site's probability at increasing horizons.

    ``site`` is one integer on the line or two integer coordinates on the
    lattice, coerced as :func:`time_averaged_probability_1d` and
    :func:`time_averaged_probability_2d` coerce theirs.

    Raises
    ------
    InvalidParameterError
        If the site is neither, the horizons are not a ladder that
        :func:`validate_horizon_ladder` admits, or the averages are not one
        finite real number per horizon, each in [0, 1] (above 1 by at most
        1e-12, the rounding of a mean of probabilities).
    """

    site: int | tuple[int, int]
    horizons: tuple[int, ...]
    averages: tuple[float, ...]

    def __post_init__(self) -> None:
        site = self.site
        site = _site_coordinates(site, 2) if np.iterable(site) else require_int(site, "site", None)
        object.__setattr__(self, "site", site)
        object.__setattr__(self, "horizons", validate_horizon_ladder(self.horizons))
        averages = _checked_array(self.averages, "averages", (len(self.horizons),), real=True)
        if ((averages < 0) | (averages > 1 + _AVERAGE_TOL)).any():
            raise InvalidParameterError(
                f"averages must lie in [0, 1], got {tuple(averages.tolist())}"
            )
        object.__setattr__(self, "averages", tuple(averages.tolist()))

    @property
    def decaying(self) -> bool:
        """True iff the averages are strictly decreasing along the ladder."""
        return all(b < a for a, b in zip(self.averages, self.averages[1:]))


def time_averaged_probabilities(
    states,
    p: CoinParameter | float,
    site,
    ladder: tuple[int, ...],
) -> tuple[DeltaIntensityEstimate, ...]:
    """Cesaro averages of ``P(site, t)`` over ``t = 1..T`` at each ladder
    horizon ``T``, one estimate per state of ``states``.

    ``states`` is a non-empty batch of :class:`QubitState` (``site`` one
    integer) or of :class:`QuditState` (``site`` two integers).  One basis
    trajectory (:func:`qwalk.walk1d.basis_fields_1d`,
    :func:`qwalk.walk2d.basis_fields_2d`) serves every state: at each ``t``
    only the basis x component matrix at the site is read, and each state's
    amplitudes there are its components times that matrix, summed term by
    term, so that a state's averages do not depend on the rest of the batch.
    """
    dim, basis_fields, theta = _propagator(states)
    lad = validate_horizon_ladder(ladder)
    site = _site_coordinates(site, 2) if dim == 2 else require_int(site, "site", None)
    coords = site if dim == 2 else (site,)
    acc, averages = np.zeros(len(theta)), []
    for basis in basis_fields(p, tuple(range(1, lad[-1] + 1))):
        idx = basis.site_index(*coords)
        if idx is not None:  # off the support at every other t, by parity
            matrix = basis._matrix(idx)
            acc += (np.abs((theta[:, :, None] * matrix).sum(axis=1)) ** 2).sum(axis=1)
        if basis.t in lad:
            averages.append(acc / basis.t)
    return tuple(DeltaIntensityEstimate(site, lad, tuple(a)) for a in zip(*averages))


def time_averaged_probability_1d(
    theta,
    p: CoinParameter | float,
    site: int,
    ladder: tuple[int, ...],
) -> DeltaIntensityEstimate:
    """Cesaro averages of ``P(site, t)`` on the line:
    :func:`time_averaged_probabilities` of the one state."""
    return time_averaged_probabilities([as_qubit(theta)], p, site, ladder)[0]


def time_averaged_probability_2d(
    theta,
    p: CoinParameter | float,
    site: tuple[int, int],
    ladder: tuple[int, ...],
) -> DeltaIntensityEstimate:
    """Cesaro averages of ``P(site, t)`` on the square lattice:
    :func:`time_averaged_probabilities` of the one state."""
    return time_averaged_probabilities([as_qudit(theta)], p, site, ladder)[0]


def validate_horizon_ladder(ladder) -> tuple[int, ...]:
    """The horizon ladder as a tuple: non-empty, strictly increasing, every
    horizon an integer ``>= 8``."""
    return require_ladder(ladder, "horizon", 8)


def validate_epsilon(epsilon: float) -> float:
    """The verdict threshold as a float; it must be a real number in (0, 1]."""
    eps = require_real(epsilon, "epsilon")
    if not 0.0 < eps <= 1.0:
        raise InvalidParameterError(f"epsilon must lie in (0, 1], got {epsilon}")
    return eps


def localization_verdict(
    estimate: DeltaIntensityEstimate, epsilon: float = 0.01
) -> bool:
    """Localized iff the final average clears ``epsilon`` and is not decaying.

    The decay check is mandatory so a slowly decaying sequence is never
    reported as localized merely because its current average is still large.
    """
    if len(_of_type(estimate, DeltaIntensityEstimate).horizons) < 3:
        raise PreconditionError("verdict needs a ladder of at least 3 horizons")
    epsilon = validate_epsilon(epsilon)
    return estimate.averages[-1] >= epsilon and not estimate.decaying
