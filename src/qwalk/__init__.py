"""Simulation and verification laboratory for a one-parameter family of
coined quantum walks on the line and the square lattice.

The package is organized around an exact position-space oracle
(:mod:`qwalk.walk1d`, :mod:`qwalk.walk2d`) against which every other layer
is validated: closed-form amplitudes from a Chebyshev-type coefficient
recurrence (:mod:`qwalk.closedform`), kernel eigensystems and weak-limit
moment quadrature (:mod:`qwalk.spectral`), initial-state symmetry classes
and exchange identities (:mod:`qwalk.symmetry`), and finite-horizon
localization probes (:mod:`qwalk.localization`).  ``qwalk.cli`` exposes all
of it on the command line, including the acceptance suite
(:mod:`qwalk.validation`).

Each layer module declares its public names once, in its own ``__all__``;
this package re-exports those names as they are, in layer order, and its
``__all__`` is ``["__version__"]`` followed by the eight lists.  A new public
name therefore takes one edit, in its module.  Helpers the modules share
(the ``require_*`` and ``validate_*`` input checks, ``as_coin``) are
imported by name inside the package and are not public.
"""

from . import errors, coin, walk1d, walk2d, closedform, spectral, symmetry, localization
from .errors import *
from .coin import *
from .walk1d import *
from .walk2d import *
from .closedform import *
from .spectral import *
from .symmetry import *
from .localization import *

__version__ = "0.1.0"

# one ``+=`` per layer: the form static analysers read as a re-export
__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += coin.__all__
__all__ += walk1d.__all__
__all__ += walk2d.__all__
__all__ += closedform.__all__
__all__ += spectral.__all__
__all__ += symmetry.__all__
__all__ += localization.__all__
