"""Seeded random generation of model points and weights for verification.

Sampling conventions: Bloch vectors uniform in a ball (default radius 0.95),
derivative vectors standard normal (rotation invariant), with rejection of
nearly dependent derivative pairs so that identity tests stay well
conditioned.  All generators take a ``numpy.random.Generator`` so runs are
reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

from .bloch import BlochModelPoint, cross
from .bounds import WeightMatrix

__all__ = [
    "random_unit_vector",
    "random_model_point",
    "random_d_invariant_point",
    "random_weight",
    "random_generic_pair",
]

# Reject derivative pairs whose cross product is below this fraction of
# |d1||d2|; keeps Fisher matrices comfortably nonsingular.
MIN_CROSS_FRACTION = 1e-2


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    norm = np.linalg.norm(v)
    while norm < 1e-12:
        v = rng.standard_normal(3)
        norm = np.linalg.norm(v)
    return v / norm


def _ball_point(rng: np.random.Generator, radius: float) -> np.ndarray:
    return radius * rng.random() ** (1.0 / 3.0) * random_unit_vector(rng)


def _independent_derivatives(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    while True:
        d1 = rng.standard_normal(3)
        d2 = rng.standard_normal(3)
        scale = np.linalg.norm(d1) * np.linalg.norm(d2)
        if scale > 0.0 and np.linalg.norm(cross(d1, d2)) >= MIN_CROSS_FRACTION * scale:
            return d1, d2


def random_model_point(rng: np.random.Generator, radius: float = 0.95) -> BlochModelPoint:
    """Generic mixed model point: s uniform in the ball, normal derivatives."""
    d1, d2 = _independent_derivatives(rng)
    return BlochModelPoint(s=_ball_point(rng, radius), d1s=d1, d2s=d2)


def random_d_invariant_point(rng: np.random.Generator, radius: float = 0.95) -> BlochModelPoint:
    """Model point with both derivatives orthogonal to s (gamma = 0)."""
    while True:
        s = _ball_point(rng, radius)
        s_sq = float(s @ s)
        if s_sq < 1e-4:
            continue  # near the origin the radial projection is meaningless
        d1, d2 = _independent_derivatives(rng)
        d1 = d1 - (d1 @ s) / s_sq * s
        d2 = d2 - (d2 @ s) / s_sq * s
        scale = np.linalg.norm(d1) * np.linalg.norm(d2)
        if scale > 0.0 and np.linalg.norm(cross(d1, d2)) >= MIN_CROSS_FRACTION * scale:
            return BlochModelPoint(s=s, d1s=d1, d2s=d2)


def random_weight(rng: np.random.Generator) -> WeightMatrix:
    """Random positive-definite weight with bounded condition number."""
    m = rng.standard_normal((2, 2))
    w = m.T @ m
    w += 0.05 * np.trace(w) * np.eye(2)
    w *= 0.25 + 1.75 * rng.random()  # spread the overall scale
    return WeightMatrix.from_matrix(w)


def random_generic_pair(rng: np.random.Generator) -> tuple[BlochModelPoint, WeightMatrix]:
    """(model, weight) pairs spread across both Holevo-bound branches.

    Fully random points land mostly in the correction region; points whose
    derivatives are nearly orthogonal to s (small gamma) favor the RLD
    region, so the sampler mixes the two populations.
    """
    if rng.random() < 0.5:
        point = random_model_point(rng)
    else:
        base = random_d_invariant_point(rng)
        tilt = 0.4 * rng.random()
        d1 = base.d1s + tilt * rng.standard_normal() * base.s
        d2 = base.d2s + tilt * rng.standard_normal() * base.s
        point = BlochModelPoint(s=base.s, d1s=d1, d2s=d2)
    return point, random_weight(rng)
