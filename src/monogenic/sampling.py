"""Deterministic direction sets on spheres for sup-norm sampling.

All samplers are seeded and reproducible.  Axis points (positive and
negative unit vectors) are always prepended so that axis-supported test
families attain their suprema exactly.  The other directions are a
Kronecker sequence (Niederreiter, *Random Number Generation and Quasi-Monte
Carlo Methods*, SIAM 1992, ch. 5) shifted by the seed and mapped to the
sphere; any dimension works.
"""

from __future__ import annotations

import random

import numpy as np

from .clifford import Paravector


def sphere_directions(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """~count unit vectors in R^dim: all +/- axis points, then the points
    u_k = (shift + k phi^-(1..dim)) mod 1, k = 1, 2, ..., with phi the root
    of x^(dim+1) = x + 1 and the shift ``dim`` draws of ``random.Random(seed)``.
    Each u_k goes through u^0.14 - (1-u)^0.14 (Tukey's lambda approximation
    of the normal quantile) and is normalised."""
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    axes = np.concatenate([np.eye(dim), -np.eye(dim)])
    extra = max(count - len(axes), 0)
    if extra == 0:
        return axes
    phi = 2.0
    for _ in range(60):  # a contraction by at most 1/2: 60 steps reach the float root
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    rng = random.Random(seed)
    shift = np.array([rng.random() for _ in range(dim)])
    u = (shift + np.arange(1, extra + 1)[:, None] * phi ** -np.arange(1.0, dim + 1)) % 1.0
    g = u**0.14 - (1.0 - u) ** 0.14
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
