"""Variational solver for the logarithmic Schrodinger equation on a box.

Finds critical points of the log-Schrodinger energy by regularising it with
a small W^{1,p} term (p < 2), locating a mountain-pass point of the smooth
perturbed functional, and continuing the solution as the perturbation is
driven to zero.  Distinct solutions are obtained by deflation: already-found
ones enter the saddle-free span that stabilizes each descent, which repels
them.  Every structural identity the construction relies on is exposed as a
named check in :mod:`lse.verify`.
"""

from . import energy, grid, io_cli, multiplicity, solver, verify
from .energy import *
from .grid import *
from .io_cli import *
from .multiplicity import *
from .solver import *
from .verify import *

__all__ = sorted({name for module in (energy, grid, io_cli, multiplicity, solver, verify) for name in module.__all__})

__version__ = "0.1.0"
