"""Volumes of compact simple Lie groups under the Cartan-Killing metric.

Three independent routes: a universal semi-infinite integral over the
group's parameter triple, a product of sine factors over positive roots,
and factorial/Barnes-G closed forms on the unitary family. The package
cross-validates all routes to tight numerical tolerance and exposes them
through a library API and the `lievol` command-line tool.

The names below are the surface the README and the CLI use, with the
types and errors they take and return; everything else is reached through
its module (`lievol.rootsys`, `lievol.vogel`, `lievol.quad`,
`lievol.special`, `lievol.volume`).
"""

from .errors import (
    DivergenceSetError,
    IntegrandEvaluationError,
    InvariantViolationError,
    LievolError,
    ParameterDomainError,
    QuadratureError,
    UnsupportedGroupError,
)
from .quad import QuadResult, Tolerance, integrate_phi
from .rootsys import Family, SimpleLieType, default_groups, sp, spin, su
from .special import SpecialValue, phi_unitary_closed_form
from .vogel import VogelPoint, dim_from_vogel, vogel_point
from .volume import LOG_VOLUME_BASE, CheckItem, VolumeReport, cross_check, run_check_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Family",
    "SimpleLieType",
    "VogelPoint",
    "Tolerance",
    "QuadResult",
    "SpecialValue",
    "VolumeReport",
    "CheckItem",
    "LievolError",
    "UnsupportedGroupError",
    "ParameterDomainError",
    "DivergenceSetError",
    "IntegrandEvaluationError",
    "QuadratureError",
    "InvariantViolationError",
    "su",
    "spin",
    "sp",
    "default_groups",
    "vogel_point",
    "dim_from_vogel",
    "integrate_phi",
    "phi_unitary_closed_form",
    "LOG_VOLUME_BASE",
    "cross_check",
    "run_check_suite",
]
