"""Quaternion-domain super-MDS localization and its Monte Carlo harness.

The package splits into a dependency-ordered stack: quaternion linear
algebra (`quat`), network geometry and edge bookkeeping (`network`), noise
models and measurement synthesis (`measurement`), edge-kernel construction
(`gek`), low-rank completion of partially observed kernels (`completion`),
the localization solvers (`solvers`), and the seeded benchmark harness with
its CLI (`harness`, `cli`). Each module's `__all__` is its supported
surface, declared there alone; the package re-exports all of them, and
everything else is internal.
"""

from . import completion, errors, gek, harness, measurement, network, quat, solvers
from .completion import *
from .errors import *
from .gek import *
from .harness import *
from .measurement import *
from .network import *
from .quat import *
from .solvers import *

__all__ = [name for module in (completion, errors, gek, harness, measurement,
                               network, quat, solvers) for name in module.__all__]

__version__ = "0.1.0"
