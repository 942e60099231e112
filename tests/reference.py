"""Test-only reference computations: derivative-free checks that no
production module calls.  scipy is a test dependency and is imported lazily.
"""

import numpy as np

from holevo2q.errors import SingularMatrixError
from holevo2q.fisher import invert_2x2


def _nelder_mead(fun, x0: np.ndarray, scale: float) -> tuple[float, np.ndarray]:
    """Two-stage Nelder-Mead refinement with a restart from the first result."""
    from scipy.optimize import minimize  # lazy: only grid_min_quadratic_abs needs scipy

    best_x = np.asarray(x0, dtype=float)
    best_f = fun(best_x)
    for _ in range(2):
        result = minimize(
            fun,
            best_x,
            method="Nelder-Mead",
            options={
                "xatol": 1e-10,
                "fatol": 1e-13 * (1.0 + abs(best_f)),
                "maxfev": 10**5,
                # best_x and best_x + scale e_k for each axis k.
                "initial_simplex": best_x + scale * np.eye(best_x.size + 1, best_x.size, -1),
            },
        )
        if result.fun < best_f:
            best_f = float(result.fun)
            best_x = np.asarray(result.x)
        scale = max(1e-6 * scale, 1e-8)
    return best_f, best_x


def grid_min_quadratic_abs(a, b, c: float) -> float:
    """Grid + refinement oracle for min (xi|A xi) + 2|(b|xi) + c|.

    Derivative-free on purpose: it is the independent check of the case
    split in :func:`holevo2q.bounds.quadratic_abs_min`.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)

    def objective(xi: np.ndarray) -> float:
        return float(xi @ a @ xi) + 2.0 * abs(float(b @ xi) + c)

    lam_min = float(np.linalg.eigvalsh(a).min())
    if lam_min <= 0.0:
        raise SingularMatrixError("quadratic coefficient matrix must be positive definite")
    a_inv = invert_2x2(a, exc=SingularMatrixError)
    alpha = float(b @ a_inv @ b)
    radius = 10.0 * (alpha + abs(c) + 1.0) / lam_min
    axis = np.linspace(-radius, radius, 201)
    xi1, xi2 = np.repeat(axis, 201), np.tile(axis, 201)
    quad = a[0, 0] * xi1**2 + 2.0 * a[0, 1] * xi1 * xi2 + a[1, 1] * xi2**2
    idx = int(np.argmin(quad + 2.0 * np.abs(b[0] * xi1 + b[1] * xi2 + c)))
    value, _ = _nelder_mead(objective, np.array([xi1[idx], xi2[idx]]), 2.0 * radius / 200)
    return value
