"""Built-in parametric model families.

Each family maps a parameter pair theta = (theta1, theta2) to a
:class:`~holevo2q.bloch.BlochModelPoint`:

* :class:`Unitary` -- fixed-length Bloch vector in spherical angles,
  optionally rotated by a frame; globally D-invariant.
* :class:`Planar` -- s = f1(theta) u1 + f2(theta) u2 with polynomial
  coefficient functions; asymptotically classical everywhere.
* :class:`GenericZ` -- s = (theta1, theta2, theta0) with fixed height
  theta0; generic away from the axes' origin.
* :class:`Explicit` -- any user-supplied s(theta) with three polynomial
  components.

Polynomial components, of :class:`Planar` and :class:`Explicit` alike, and
their exact partials come from one table of powers of each variable
(``_poly_arrays``).  A model that is not polynomial needs no family: its
(N, 3) stacks of s, d1s and d2s go to ``holevo2q.fisher.fisher_bundle_many``
and then ``holevo2q.bounds.holevo_bounds_many`` as they are.

Families serialize to plain JSON descriptors (``to_descriptor`` /
``from_descriptor``) so the CLI can load them from files.
"""

from __future__ import annotations

import numpy as np

from .bloch import (ORTHONORMAL_TOL, BlochModelPoint, Record, cross, dependent, dot3, factory,
                    mixed, stack_last)
from .errors import DomainError, ModelError, PureStateError

__all__ = [
    "Poly2D",
    "Domain",
    "Unitary",
    "Planar",
    "GenericZ",
    "Explicit",
    "ModelFamily",
    "from_descriptor",
    "load_model",
]


def _finite(value, name: str) -> np.ndarray:
    """``value`` as a float array; NaN fails every range check, so it is refused here."""
    a = np.asarray(value, dtype=float)
    if not np.isfinite(a).all():
        raise DomainError(f"{name} has non-finite components: {a.tolist()}")
    return a


class Poly2D(Record):
    """Bivariate polynomial f(x, y) = sum_ij c[i, j] x^i y^j."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_2d(_finite(self.coeffs, "polynomial coefficients"))
        if c.ndim != 2:
            raise DomainError("polynomial coefficients must form a 2-d array")
        object.__setattr__(self, "coeffs", c)

    def __call__(self, x, y):
        """f at (x, y), elementwise over arrays of points."""
        return _poly_arrays([self], x, y)[0][..., 0]

    def tolist(self) -> list:
        return self.coeffs.tolist()


class Domain(Record):
    """Rectangle in parameter space; evaluation outside raises DomainError."""

    theta1: tuple[float, float]
    theta2: tuple[float, float]

    def __post_init__(self):
        for name in ("theta1", "theta2"):
            lo, hi = (float(v) for v in getattr(self, name))
            if not -np.inf < lo < hi < np.inf:
                raise DomainError(f"domain interval {name} = ({lo}, {hi}) is empty or infinite")
            object.__setattr__(self, name, (lo, hi))

    def contains(self, theta) -> bool:
        """Whether theta = (theta1, theta2) lies in the rectangle, elementwise
        for arrays theta1, theta2."""
        (lo1, hi1), (lo2, hi2) = self.theta1, self.theta2
        t1, t2 = (np.asarray(t, dtype=float) for t in theta[:2])
        return (lo1 <= t1) & (t1 <= hi1) & (lo2 <= t2) & (t2 <= hi2)

    def require(self, theta) -> None:
        if not self.contains(theta):
            raise DomainError(f"theta = {tuple(theta)} outside domain {self}")

    def to_descriptor(self) -> dict:
        return {"theta1": list(self.theta1), "theta2": list(self.theta2)}


def _check_theta(theta) -> tuple[float, float]:
    try:
        t = np.asarray(theta, dtype=float)
    except (TypeError, ValueError, OverflowError):
        t = None
    if t is None or t.shape != (2,) or not np.all(np.isfinite(t)):
        raise DomainError(f"theta must be a finite 2-vector, got {theta!r}")
    return float(t[0]), float(t[1])


def _poly_arrays(polys, t1, t2):
    """(values, d/dtheta1, d/dtheta2) of the polynomials ``polys`` at arrays
    t1, t2: three (..., len(polys)) arrays, from one table of powers per
    variable; the partials' coefficients are c[1:] * i and c[:, 1:] * j."""
    rows, cols = np.max([p.coeffs.shape for p in polys], axis=0)
    xs = np.asarray(t1, dtype=float)[..., None] ** np.arange(rows)
    ys = np.asarray(t2, dtype=float)[..., None] ** np.arange(cols)

    def at(c):
        return ((xs[..., None, :len(c)] @ c) @ ys[..., :c.shape[1], None])[..., 0, 0]

    def terms(c):
        i, j = np.indices(c.shape)
        return at(c), at(c[1:] * i[1:]), at(c[:, 1:] * j[:, 1:])

    return tuple(stack_last(f, 1) for f in zip(*(terms(p.coeffs) for p in polys)))


class _Family(Record):
    """``evaluate``/``evaluate_many`` over ``_bloch_arrays``, which maps arrays
    theta1, theta2 of in-domain points to (N, 3) arrays of s, d1s and d2s."""

    def evaluate(self, theta) -> BlochModelPoint:
        """The family's arrays at one point, with the bits of :meth:`evaluate_many`'s row.
        Raises outside the domain, for a non-finite s and where |s| >= 1, but returns
        the points with 1 - PURE_SHELL_TOL <= |s| < 1 that evaluate_many marks unusable."""
        t1, t2 = _check_theta(theta)
        self.domain.require((t1, t2))
        with np.errstate(over="ignore", invalid="ignore"):  # what overflows is refused below
            s, d1, d2 = (x[0] for x in self._bloch_arrays(np.array([t1]), np.array([t2])))
            s_squared = float(np.dot(s, s))
        if s_squared >= 1.0:
            raise PureStateError(f"family evaluates to |s| = {np.hypot.reduce(s):.6g} >= 1")
        return BlochModelPoint(s, d1, d2)

    def evaluate_many(self, theta1, theta2):
        """(S, D1, D2, usable) at the points (theta1[i], theta2[i]): (N, 3)
        arrays, and the mask of points in the domain where the family gives a
        finite, strictly mixed point (the others are skipped by sweeps)."""
        t1, t2 = (np.asarray(t, dtype=float).ravel() for t in (theta1, theta2))
        inside = self.domain.contains((t1, t2))
        out = np.zeros((3, t1.size, 3))
        with np.errstate(over="ignore", invalid="ignore"):  # such cells are skipped
            if inside.any():
                out[:, inside] = self._bloch_arrays(t1[inside], t2[inside])
            s, d1, d2 = out
            return s, d1, d2, inside & np.isfinite(out).all(axis=(0, 2)) & mixed(dot3(s, s))

    def to_descriptor(self) -> dict:
        """``kind``, then each field as plain JSON: what ``from_descriptor``
        reads.  A tuple of polynomials becomes a list of coefficient lists."""
        desc = {"kind": self.kind}
        for name in self._fields:
            value = getattr(self, name)
            if isinstance(value, Domain):
                value = value.to_descriptor()
            elif isinstance(value, tuple):
                value = [p.tolist() for p in value]
            desc[name] = value.tolist() if isinstance(value, (np.ndarray, Poly2D)) else value
        return desc


class Unitary(_Family):
    """Fixed-length Bloch vector r (sin t1 cos t2, sin t1 sin t2, cos t1),
    optionally mapped through an orthonormal frame.  Globally D-invariant."""

    radius: float
    axes: np.ndarray = factory(lambda: np.eye(3))
    domain: Domain = factory(lambda: Domain((0.2, np.pi - 0.2), (0.0, 2.0 * np.pi)))

    kind = "unitary"

    def __post_init__(self):
        r = float(self.radius)
        if not 0.0 < r < 1.0:
            raise DomainError(f"unitary family radius must lie in (0, 1), got {r}")
        object.__setattr__(self, "radius", r)
        a = _finite(self.axes, "axes")
        if a.shape != (3, 3) or np.abs(a @ a.T - np.eye(3)).max() > ORTHONORMAL_TOL:
            raise DomainError("axes must form a 3x3 orthogonal matrix")
        object.__setattr__(self, "axes", a)

    def _bloch_arrays(self, t1, t2):
        ra = self.radius * self.axes
        sin1, cos1 = np.sin(t1), np.cos(t1)
        sin2, cos2 = np.sin(t2), np.cos(t2)

        def frame(x, y, z):
            return (ra @ stack_last([x, y, z], 1)[..., None])[..., 0]

        s = frame(sin1 * cos2, sin1 * sin2, cos1)
        d1 = frame(cos1 * cos2, cos1 * sin2, -sin1)
        d2 = frame(-sin1 * sin2, sin1 * cos2, np.zeros_like(t1))
        return s, d1, d2


class Planar(_Family):
    """s = f1(theta) u1 + f2(theta) u2 with unit (not necessarily orthogonal)
    vectors u_i and polynomial f_i.  Asymptotically classical everywhere."""

    u1: np.ndarray
    u2: np.ndarray
    f1: Poly2D = factory(lambda: Poly2D([[0.0, 0.0], [1.0, 0.0]]))
    f2: Poly2D = factory(lambda: Poly2D([[0.0, 1.0], [0.0, 0.0]]))
    domain: Domain = factory(lambda: Domain((-0.7, 0.7), (-0.7, 0.7)))

    kind = "planar"

    def __post_init__(self):
        for name in ("u1", "u2"):
            u = _finite(getattr(self, name), name)
            if u.shape != (3,) or abs(np.linalg.norm(u) - 1.0) > ORTHONORMAL_TOL:
                raise DomainError(f"{name} must be a unit 3-vector")
            object.__setattr__(self, name, u)
        for name in ("f1", "f2"):
            f = getattr(self, name)
            object.__setattr__(self, name, f if isinstance(f, Poly2D) else Poly2D(f))
        if dependent(self.u1, self.u2, cross(self.u1, self.u2)):
            raise DomainError("u1 and u2 must be linearly independent")

    def _bloch_arrays(self, t1, t2):
        return tuple(f[:, :1] * self.u1 + f[:, 1:] * self.u2
                     for f in _poly_arrays((self.f1, self.f2), t1, t2))


def _generic_z_domain(theta0: float) -> Domain:
    r = np.sqrt(1.0 - theta0**2)
    return Domain((-r, r), (-r, r))


class GenericZ(_Family):
    """s = (theta1, theta2, theta0) with fixed 0 < |theta0| < 1.

    Neither D-invariant nor asymptotically classical wherever both theta
    components are nonzero; D-invariant exactly at theta = (0, 0)."""

    theta0: float
    domain: Domain | None = None

    kind = "generic_z"

    def __post_init__(self):
        t0 = float(self.theta0)
        if not 0.0 < abs(t0) < 1.0:
            raise DomainError(f"generic-z height must satisfy 0 < |theta0| < 1, got {t0}")
        object.__setattr__(self, "theta0", t0)
        if self.domain is None:
            object.__setattr__(self, "domain", _generic_z_domain(t0))

    def _bloch_arrays(self, t1, t2):
        unit = np.zeros((2, t1.size, 3))
        unit[0, :, 0] = unit[1, :, 1] = 1.0
        return stack_last([t1, t2, np.full_like(t1, self.theta0)], 1), unit[0], unit[1]


class Explicit(_Family):
    """User-supplied s(theta) = (p1, p2, p3)(theta): three :class:`Poly2D`
    components, differentiated exactly, like :class:`Planar`'s f1 and f2."""

    components: tuple[Poly2D, Poly2D, Poly2D]
    domain: Domain = factory(lambda: Domain((-0.7, 0.7), (-0.7, 0.7)))

    kind = "explicit"

    def __post_init__(self):
        polys = tuple(p if isinstance(p, Poly2D) else Poly2D(p) for p in self.components)
        if len(polys) != 3:
            raise DomainError("explicit family needs exactly 3 component polynomials")
        object.__setattr__(self, "components", polys)

    def _bloch_arrays(self, t1, t2):
        return _poly_arrays(self.components, t1, t2)


ModelFamily = Unitary | Planar | GenericZ | Explicit
_KINDS = {cls.kind: cls for cls in (Unitary, Planar, GenericZ, Explicit)}


def from_descriptor(desc: dict) -> ModelFamily:
    """Build a family from a JSON descriptor dictionary: ``kind`` and the
    family's fields (for ``explicit``: ``components`` and ``domain``).
    Other keys are ignored, such as the finite-difference setting that older
    explicit descriptors carry; a malformed value raises :class:`DomainError`."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise DomainError("model descriptor must be an object with a 'kind' key")
    kind = desc["kind"]
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise DomainError(f"unknown model kind {kind!r}")
    kwargs = {key: value for key, value in desc.items() if key in cls._fields}
    try:
        if "domain" in kwargs:
            kwargs["domain"] = Domain(kwargs["domain"]["theta1"], kwargs["domain"]["theta2"])
        return cls(**kwargs)
    except ModelError:
        raise
    except KeyError as exc:
        raise DomainError(f"model descriptor missing required key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DomainError(f"malformed {kind} model descriptor: {exc}") from exc


def load_model(path) -> ModelFamily:
    """Load a family from a JSON descriptor file."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            desc = json.load(fh)
        except ValueError as exc:
            raise DomainError(f"model file {path} is not valid JSON: {exc}") from exc
    return from_descriptor(desc)
