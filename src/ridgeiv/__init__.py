"""Ridge-penalized instrumental variables under weak instruments.

A library and CLI around the penalized just-identified IV estimator
Cov[Y,Z] / (Cov[D,Z] + lambda_n / n): data generation for the linear IV
model, the estimator in ratio, matrix and over-identified forms with its
penalized-moment interpretation, closed-form limiting predictions, and a
seeded Monte Carlo harness for MSE sweeps.

The package re-exports the public names of ``dgp``, ``estimators``,
``asymptotics`` and ``montecarlo``: each module's ``__all__`` is the one
list of its names, and ``__all__`` here is those four lists plus
``__version__``.  ``ridgeiv.verify`` and ``ridgeiv.cli`` are imported by
name.
"""

from . import asymptotics, dgp, estimators, montecarlo
from .asymptotics import *
from .dgp import *
from .estimators import *
from .montecarlo import *

__version__ = "0.1.0"

__all__ = [
    *asymptotics.__all__, *dgp.__all__, *estimators.__all__, *montecarlo.__all__, "__version__"
]
