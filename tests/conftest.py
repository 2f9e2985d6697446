"""Settings for the whole test run.

numpy's ``ComplexWarning`` is an error: a complex value cast to a real
dtype loses its imaginary part with only that warning, and in this package
such a cast is always a defect.  numpy 1.25 and later define the warning in
``numpy.exceptions``; numpy 1.24 only at the top level.

``RuntimeWarning`` is an error too: numpy raises it for floating-point
overflow, invalid values and division by zero, and an answer built on any
of them is a defect to fix, not a warning to filter.
"""

import numpy as np

try:
    from numpy.exceptions import ComplexWarning
except ImportError:  # numpy 1.24
    ComplexWarning = np.ComplexWarning


def pytest_configure(config):
    name = f"{ComplexWarning.__module__}.{ComplexWarning.__qualname__}"
    config.addinivalue_line("filterwarnings", f"error::{name}")
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")
