"""Closed-form Holevo bound and quantum Fisher information for
two-parameter qubit models.

The package computes, for any mixed two-parameter qubit model given locally
by (s, d1s, d2s), the SLD / RLD / D-invariant / Nagaoka bounds and the exact
Holevo bound with its weight-dependent branch structure, together with an
independent density-matrix oracle that validates every closed formula.
"""

from .bloch import BlochModelPoint, BlochModelPoint3
from .bounds import (
    BoundsReport,
    Branch,
    WeightMatrix,
    WeightRegion,
    WeightRegionLabel,
    bound_nagaoka,
    bound_rld,
    bound_sld,
    bound_z,
    holevo_bound,
    holevo_bound_three_param,
    weight_from_angles,
)
from .classify import (
    ModelClass,
    ModelLabel,
    classify_family,
    classify_point,
    pure_limit_duals,
    pure_limit_holevo,
)
from .errors import (
    AsymptoticallyClassicalLimitError,
    BranchError,
    DegenerateModelError,
    DomainError,
    FeasibilityError,
    ModelError,
    OracleCertificateError,
    PureStateError,
    SingularMatrixError,
    SpecialModelError,
)
from .fisher import FisherBundle, fisher_bundle
from .models import Explicit, GenericZ, Planar, Unitary, evaluate, from_descriptor

__version__ = "0.1.0"

__all__ = [
    "BlochModelPoint",
    "BlochModelPoint3",
    "BoundsReport",
    "Branch",
    "WeightMatrix",
    "WeightRegion",
    "WeightRegionLabel",
    "bound_nagaoka",
    "bound_rld",
    "bound_sld",
    "bound_z",
    "holevo_bound",
    "holevo_bound_three_param",
    "weight_from_angles",
    "ModelClass",
    "ModelLabel",
    "classify_family",
    "classify_point",
    "pure_limit_duals",
    "pure_limit_holevo",
    "FisherBundle",
    "fisher_bundle",
    "Explicit",
    "GenericZ",
    "Planar",
    "Unitary",
    "evaluate",
    "from_descriptor",
    "ModelError",
    "PureStateError",
    "DegenerateModelError",
    "SingularMatrixError",
    "BranchError",
    "SpecialModelError",
    "DomainError",
    "FeasibilityError",
    "OracleCertificateError",
    "AsymptoticallyClassicalLimitError",
    "__version__",
]
