"""Splitting methods with momentum and correction terms, plus a rate benchmark.

Modules; the package holds the names of each one's ``__all__``
--------------------------------------------------------------
linalg       dense vectors, linear maps with adjoints, spectral norm
operators    resolvents, cocoercive maps, smooth terms, prox catalog
ffb          the fast forward-backward iteration in two equivalent forms
diagnostics  discrete energies and decay certificates along a run
baselines    classical and inertial comparison schemes
primal_dual  the derived splitting for min f+h s.t. Ax=b, and FLAG
bench        experiment configs, records, rate fits, reference solutions
cli          the ``fbsplit`` command, which declares no ``__all__``
"""

from .errors import *
from .linalg import *
from .operators import *
from .ffb import *
from .diagnostics import *
from .baselines import *
from .primal_dual import *
from .bench import *

__version__ = "0.1.0"
