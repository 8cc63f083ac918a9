"""Deterministic direction sets on spheres for sup-norm sampling.

All samplers are seeded and reproducible.  Axis points (positive and
negative unit vectors) are always prepended so that axis-supported test
families attain their suprema exactly.
"""

from __future__ import annotations

import numpy as np

from ._numeric import ndtri, sobol_base2
from .clifford import Paravector


def sphere_directions(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """~count unit vectors in R^dim: all +/- axis points, then a scrambled
    Sobol set pushed through the inverse normal CDF and normalised.  The
    Sobol set exists for dim <= 10; beyond that a count above the 2*dim
    axis points raises ValueError."""
    axes = np.concatenate([np.eye(dim), -np.eye(dim)])
    extra = max(count - len(axes), 0)
    if extra == 0:
        return axes
    m = max(int(np.ceil(np.log2(extra))), 0)
    u = sobol_base2(dim, m, seed)[:extra]
    # Clip away the corners where ndtri is infinite.
    g = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return np.concatenate([axes, g / norms])


def sphere_points(n: int, radius: float, count: int, seed: int = 0) -> list[Paravector]:
    """Paravector points of norm ``radius`` in the (n+1)-dimensional space."""
    dirs = sphere_directions(n + 1, count, seed=seed)
    return [Paravector(radius * d[0], radius * d[1:]) for d in dirs]


def ball_points(n: int, radius: float, count: int, seed: int = 0) -> list[Paravector]:
    """Points of the closed ball, radii stratified from the boundary inward."""
    dirs = sphere_directions(n + 1, count, seed=seed)
    points = []
    for k, d in enumerate(dirs):
        r = radius * (1.0 - 0.5 * (k % 4) / 4.0)
        points.append(Paravector(r * d[0], r * d[1:]))
    return points
