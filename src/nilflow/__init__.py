"""Numerical toolkit for constant-coefficient R^2 actions on tori and the
Heisenberg nilmanifold: small-divisor coboundary solvers, splitting of general
cochains, hypoellipticity certificates, constant cohomology, a KAM-type Newton
conjugacy scheme, and the local-rigidity normal-form step.
"""

__version__ = "0.1.0"

# Names are imported from their modules.  Importing the package loads every
# layer, _parallel included, so tools that wrap the layers by module name and
# read nilflow._parallel as an attribute find them all.
from . import (  # noqa: F401
    algebra, diophantine, errors, torus, nilrep, cohomology, rigidity, corpus,
    _parallel, cli,
)
