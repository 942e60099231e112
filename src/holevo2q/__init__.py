"""Closed-form Holevo bound and quantum Fisher information for
two-parameter qubit models.

The package computes, for any mixed two-parameter qubit model given locally
by (s, d1s, d2s), the SLD / RLD / D-invariant / Nagaoka bounds and the exact
Holevo bound with its weight-dependent branch structure, together with an
independent density-matrix oracle that validates every closed formula.

The exported names are resolved on first access (PEP 562): ``import holevo2q``
loads no submodule, and ``holevo2q.classify_point`` loads ``holevo2q.classify``.
"""

import importlib

__version__ = "0.1.0"

# Exported name -> the submodule that defines it, in the order of ``__all__``.
_EXPORTS = {
    name: module
    for module, names in [
        ("bloch", "BlochModelPoint"),
        ("bounds", "BoundsReport Branch WeightMatrix holevo_bound weight_from_angles"),
        ("classify", "ModelClass ModelLabel classify_point"),
        ("matrix_forms", "pure_limit_duals pure_limit_holevo"),
        ("fisher", "FisherBundle fisher_bundle"),
        ("models", "Explicit GenericZ Planar Unitary from_descriptor"),
        ("errors", "ModelError PureStateError DegenerateModelError SingularMatrixError"
                   " SpecialModelError DomainError FeasibilityError OracleCertificateError"
                   " AsymptoticallyClassicalLimitError"),
    ]
    for name in names.split()
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
