"""Continuous collective readout of a qubit register.

Simulates diffusive z-basis measurement records for an n-qubit register,
with open-loop permutation controls that speed up the collapse onto a
basis state, and provides the analytic rates, bounds, and ensemble
statistics needed to quantify that speed-up.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import ensemble, policies, registers, sde, theory
from .registers import *
from .sde import *
from .policies import *
from .theory import *
from .ensemble import *

__all__ = [
    "__version__", *registers.__all__, *sde.__all__, *policies.__all__,
    *theory.__all__, *ensemble.__all__,
]
