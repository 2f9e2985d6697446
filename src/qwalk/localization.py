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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .coin import CoinParameter
from .errors import (
    InvalidParameterError,
    PreconditionError,
    require_int,
    require_ladder,
    require_real,
)
from .walk1d import _checked_array, _of_type, _site_coordinates, trajectory_1d
from .walk2d import trajectory_2d

__all__ = [
    "DeltaIntensityEstimate",
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


def _cesaro(fields, ladder: tuple[int, ...], site: tuple[int, ...]) -> tuple[float, ...]:
    """Running means of ``P(site, t)`` over t = 1..T, at each ladder T."""
    acc = 0.0
    averages = []
    want = set(ladder)
    for field in islice(fields, 1, None):
        acc += float(np.sum(np.abs(field.amplitude(*site)) ** 2))
        if field.t in want:
            averages.append(acc / field.t)
    return tuple(averages)


def time_averaged_probability_1d(
    theta,
    p: CoinParameter | float,
    site: int,
    ladder: tuple[int, ...],
) -> DeltaIntensityEstimate:
    """Cesaro averages of ``P(site, t)`` on the line, one evolution pass."""
    lad = validate_horizon_ladder(ladder)
    site = require_int(site, "site", None)
    averages = _cesaro(trajectory_1d(theta, p, lad[-1]), lad, (site,))
    return DeltaIntensityEstimate(site=site, horizons=lad, averages=averages)


def time_averaged_probability_2d(
    theta,
    p: CoinParameter | float,
    site: tuple[int, int],
    ladder: tuple[int, ...],
) -> DeltaIntensityEstimate:
    """Cesaro averages of ``P(site, t)`` on the square lattice."""
    lad = validate_horizon_ladder(ladder)
    site = _site_coordinates(site, 2)
    averages = _cesaro(trajectory_2d(theta, p, lad[-1]), lad, site)
    return DeltaIntensityEstimate(site=site, horizons=lad, averages=averages)


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
