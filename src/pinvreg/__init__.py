"""Random pseudo-inverse regression on Jacobi polynomial bases.

Nonparametric least-squares regression at random Beta-distributed sample
points, with spectral stability diagnostics, a truncated estimator, robust
(consensus) fitting, a sinc-kernel ridge-regression baseline, linear
functional regression by dyadic block decomposition, and a seeded benchmark
harness with a CLI.

The package root re-exports the public names of every library module, as
listed in that module's `__all__`.
"""

from . import design, errors, jacobi, krr, lfr, regression, sampling, timeseries
from .design import *
from .errors import *
from .jacobi import *
from .krr import *
from .lfr import *
from .regression import *
from .sampling import *
from .timeseries import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (jacobi, sampling, design, regression, krr, lfr, timeseries, errors)
    for name in module.__all__
]
