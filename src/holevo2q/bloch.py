"""Bloch-vector data of qubit estimation models.

A qubit state is written rho = (I + s.sigma)/2 with s a real 3-vector,
|s| < 1 for mixed states.  A two-parameter model is specified locally by
the triple (s, d1s, d2s) = (s, ds/dtheta^1, ds/dtheta^2), held by
:class:`BlochModelPoint`.  This module also holds the package's tolerance
table, :class:`Record` (the frozen-record base of its value classes) and the
row-wise 3-vector helpers (``cross``, ``dot3``, ``stack_last``) and guards
(``mixed``, ``dependent``, ``not_hermitian``) that the other modules share.
The 3x3 metric factors Q, F and Q~ and the Bloch vectors built from them are
in :mod:`holevo2q.matrix_forms`.  All functions are pure; none mutate their
inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, PureStateError

__all__ = [
    # The tolerance table.
    "PURE_SHELL_TOL", "BALL_SLACK", "DERIVATIVE_INDEPENDENCE_RTOL", "CLASSIFICATION_RTOL",
    "TANGENCY_RTOL", "SINGULAR_RTOL", "BOUNDARY_RTOL", "HERMITIAN_RTOL", "PAIR_RTOL",
    "ORTHONORMAL_TOL", "MIN_EIGENVALUE", "FEASIBILITY_RTOL", "CONSTRAINT_RTOL", "RANK_RTOL",
    "FIT_RTOL", "CERTIFICATE_RTOL",
    "BlochModelPoint",
    "Record",
    "factory",
    "cross",
]

# The package's tolerances, each assigned here only, with what it bounds.  Every
# test is relative (|s| and rho have fixed scales), so scaling an input by a
# power of two keeps its verdict.  ``verify.TOLERANCES`` holds the checks' own.
PURE_SHELL_TOL = 1e-12  # |s| >= 1 - this is pure: (1-s^2)^-1 is no longer trusted
BALL_SLACK = 1e-9  # |s|^2 > 1 + this lies outside the Bloch ball
DERIVATIVE_INDEPENDENCE_RTOL = 1e-10  # |d1s x d2s| below this |d1s||d2s|: dependent derivatives
CLASSIFICATION_RTOL = 1e-10  # |r_i| <= this |s||d_i s|, |k| <= this |s||n|: exact-zero classes
TANGENCY_RTOL = 1e-8  # |n x s| <= this |n|: shell derivatives tangent to the sphere
SINGULAR_RTOL = 1e-14  # |det M| < this ||M||_F^2: a singular 2x2 matrix
BOUNDARY_RTOL = 1e-9  # |B| <= this (|C^Z| + |C^S|): the weight's branch is BOUNDARY
HERMITIAN_RTOL = 1e-12  # max|M - M^H| > this max|M|: weights, rho, d_i rho; their traces
PAIR_RTOL = 1e-10  # the Hermitian test of observable pairs (and of i X in tests' TrAbs)
ORTHONORMAL_TOL = 1e-10  # |A A^T - I| of unitary axes, ||u_i| - 1| of planar directions
MIN_EIGENVALUE = 1e-12  # an eigenvalue of the unit-trace rho below this: not strictly positive
FEASIBILITY_RTOL = 1e-8  # an unbiasedness residual of a pair over the size of its trace's terms
CONSTRAINT_RTOL = 1e-9  # the 2-d oracle's dimensionless parametrization residuals
RANK_RTOL = 1e-10  # the 6-d oracle's constraint singular values, against the largest
FIT_RTOL = 1e-6  # an oracle's raw objective off its 2-d model, relative to the raw value
CERTIFICATE_RTOL = 1e-9  # an oracle's raw value below its minimum, relative to the minimum


class factory:
    """Default of a :class:`Record` field that is made afresh for each instance."""

    def __init__(self, make):
        self.make = make


def _required(owner: str, name: str) -> factory:
    def missing():
        raise TypeError(f"{owner}() missing required argument {name!r}")

    return factory(missing)


class Record:
    """Base of the package's frozen value classes.

    The annotated class attributes are the fields, in order; a value assigned
    to one is its default.  A record takes its fields positionally or by
    keyword, then runs ``__post_init__`` (which may normalize a field with
    ``object.__setattr__``).  It prints as ``Name(field=value, ...)``, compares
    field by field (an array field with ``np.array_equal``, so arrays of
    different shapes are unequal), hashes as the tuple of its fields (so a
    record with an array field is unhashable, as an array is), and refuses
    assignment and deletion.
    """

    _fields: tuple = ()
    _defaults: tuple = ()  # per field: its default, a factory, or a factory that raises

    def __init_subclass__(cls):
        namespace = vars(cls)
        own = tuple(namespace.get("__annotations__", ()))
        cls._fields += own
        cls._defaults += tuple(namespace[n] if n in namespace else _required(cls.__name__, n)
                               for n in own)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = [*args, *map(kwargs.pop, fields[len(args):], self._defaults[len(args):])]
            if kwargs or len(args) > len(fields):
                extra = [*args[len(fields):], *kwargs]
                raise TypeError(f"{type(self).__name__}({', '.join(fields)}) got unexpected "
                                f"or repeated arguments {extra}")
            args = [v.make() if type(v) is factory else v for v in args]
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        items = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({items})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
                   else a == b for a, b in zip(self._values(), other._values()))

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _as_real_vec3(value, name: str) -> np.ndarray:
    try:
        vec = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be a real 3-vector: {exc}") from exc
    if vec.shape != (3,):
        raise DomainError(f"{name} must be a real 3-vector, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise DomainError(f"{name} has non-finite components: {vec}")
    return vec


def cross(a, b) -> np.ndarray:
    """a x b for real 3-vectors, or row-wise for stacks (..., 3).

    Bit-identical to ``np.cross(a, b)`` (the same separately rounded
    products and differences), at a fraction of its per-call cost.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    # One vector: the same arithmetic on Python floats, cheaper than on numpy scalars.
    (a1, a2, a3), (b1, b2, b3) = (a.tolist(), b.tolist()) if a.ndim == b.ndim == 1 else (a.T, b.T)
    return np.array([a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1]).T


def dot3(a, b):
    """Row-wise dot products of (..., 3) stacks, each the bits of ``a[i] @ b[i]``
    (the same BLAS call; elementwise sums round differently)."""
    return a @ b if a.ndim == 1 else (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def stack_last(nested, depth: int) -> np.ndarray:
    """``np.array(nested)`` of scalars or equal-shape arrays, with the nesting
    as the trailing ``depth`` axes (C-contiguous, like ``np.stack(..., -1)``)."""
    a = np.array(nested)
    return np.ascontiguousarray(a.transpose(*range(depth, a.ndim), *range(depth)))


def mixed(s_squared):
    """|s|^2 < (1 - PURE_SHELL_TOL)^2: where (1-s^2)^{-1} is trusted."""
    return s_squared < (1.0 - PURE_SHELL_TOL) ** 2


def not_mixed_message(s) -> str:
    return f"operation requires |s| < 1 - {PURE_SHELL_TOL:g}, got |s| = {np.hypot.reduce(s):.12g}"


def not_hermitian(m, rtol: float):
    """max|M - M^H| > rtol max|M| for a matrix, or per matrix of a stack (..., n, n)."""
    m = np.asarray(m)
    with np.errstate(invalid="ignore"):  # inf - inf; the caller refuses non-finite entries
        residual = np.abs(m - np.conj(np.swapaxes(m, -1, -2))).max(axis=(-2, -1))
    return residual > rtol * np.abs(m).max(axis=(-2, -1))


def dependent(d1, d2, perp):
    """|d1 x d2| < DERIVATIVE_INDEPENDENCE_RTOL |d1||d2|, row-wise."""
    scale = np.sqrt(dot3(d1, d1)) * np.sqrt(dot3(d2, d2))
    return (scale == 0.0) | (np.sqrt(dot3(perp, perp)) < DERIVATIVE_INDEPENDENCE_RTOL * scale)


class BlochModelPoint(Record):
    """A two-parameter qubit model evaluated at one parameter point.

    ``s`` is the Bloch vector, ``d1s`` and ``d2s`` its partial derivatives.
    Construction accepts |s| <= 1 (the pure shell is needed by the limit
    operations); operations that require strict mixedness guard themselves
    via :meth:`require_mixed`.
    """

    s: np.ndarray
    d1s: np.ndarray
    d2s: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s", _as_real_vec3(self.s, "s"))
        object.__setattr__(self, "d1s", _as_real_vec3(self.d1s, "d1s"))
        object.__setattr__(self, "d2s", _as_real_vec3(self.d2s, "d2s"))
        with np.errstate(over="ignore"):  # a huge s: |s|^2 overflows, and s is refused
            if self.s_squared > 1.0 + BALL_SLACK:
                norm = np.hypot.reduce(self.s)
                raise DomainError(f"|s| = {norm:.6g} lies outside the Bloch ball")

    @property
    def s_squared(self) -> float:
        return float(self.s @ self.s)

    @property
    def is_mixed(self) -> bool:
        return bool(mixed(self.s_squared))

    def require_mixed(self) -> None:
        if not self.is_mixed:
            raise PureStateError(not_mixed_message(self.s))
