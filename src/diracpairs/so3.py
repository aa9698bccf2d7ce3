"""Rotation-group helpers for the numeric tier.

Exponential-chart plumbing (Rodrigues formula and the inverse left
Jacobian, with series fallbacks near zero) plus the Cayley bridge used to
freeze floating rotations into exactly orthogonal rational matrices.  The
bridge rounds the Cayley preimage of the rotation, a skew matrix S with
axis vector q, and maps it back by the closed form

    R = I + 2 (S + S^2) / (1 + |q|^2),

which equals the inverse form (I - S)^{-1} (I + S) because
S^3 = -|q|^2 S, and is evaluated over one integer denominator with no
matrix inversion.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from . import rational as rat


def hat(x):
    x = np.asarray(x, dtype=float)
    return np.array(
        [
            [0.0, -x[2], x[1]],
            [x[2], 0.0, -x[0]],
            [-x[1], x[0], 0.0],
        ]
    )


def exp_rotation(x):
    """Rodrigues rotation for a chart point ``x``."""
    x = np.asarray(x, dtype=float)
    theta = float(np.linalg.norm(x))
    h = hat(x)
    if theta < 1e-8:
        return np.eye(3) + h + 0.5 * (h @ h)
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / theta**2
    return np.eye(3) + a * h + b * (h @ h)


def left_jacobian_inv(x):
    x = np.asarray(x, dtype=float)
    theta = float(np.linalg.norm(x))
    h = hat(x)
    if theta < 1e-6:
        return np.eye(3) - 0.5 * h + (h @ h) / 12.0
    c = 1.0 / theta**2 - (1.0 + np.cos(theta)) / (2.0 * theta * np.sin(theta))
    return np.eye(3) - 0.5 * h + c * (h @ h)


def rationalize_rotation(r):
    """Exactly orthogonal rational matrix near the rotation ``r``.

    Round the Cayley preimage S (a skew matrix, kept exactly skew by
    mirroring the strict upper triangle) and map back; requires the rotation
    angle to stay away from a half turn, where the Cayley chart blows up.
    Entries are rounded by ``rational.rationalize`` onto the grid of
    multiples of 2^-52, each within 2^-53, so they share a power-of-two
    denominator.

    The map back is the closed form R = I + 2 (S + S^2) / (1 + |q|^2), q
    being the axis vector of S, evaluated over one integer denominator: with
    S = T / D for an integer skew T, R = I + 2 (D T + T^2) / (D^2 + |T|^2).
    It is the same rational as (I - S)^{-1} (I + S): S^2 = q q^T - |q|^2 I
    gives S^3 = -|q|^2 S, so (I - S)(I + c (S + S^2)) = I + (c (1 + |q|^2)
    - 1) S, which is I + S exactly when c = 2 / (1 + |q|^2).
    """
    r = np.asarray(r, dtype=float)
    s = np.linalg.solve((r + np.eye(3)).T, (r - np.eye(3)).T).T
    upper = [rat.rationalize(0.5 * (s[i, j] - s[j, i])) for i, j in ((0, 1), (0, 2), (1, 2))]
    d = lcm(*(v.denominator for v in upper))
    a, b, c = (v.numerator * (d // v.denominator) for v in upper)
    t = ((0, a, b), (-a, 0, c), (-b, -c, 0))
    den = d * d + a * a + b * b + c * c
    return tuple(
        tuple(
            Fraction(
                (den if i == j else 0)
                + 2 * (d * t[i][j] + sum(t[i][k] * t[k][j] for k in range(3))),
                den,
            )
            for j in range(3)
        )
        for i in range(3)
    )


def rationalize_matrix(m):
    return rat.matrix([[rat.rationalize(float(v)) for v in row] for row in np.asarray(m, dtype=float)])


def sample_chart_points(count, seed):
    """Seeded points in the exponential chart with norm between 0.15 and
    pi - 0.2, away from both the origin and the cut locus."""
    radius = np.pi - 0.2
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        p = rng.uniform(-radius, radius, size=3)
        r = float(np.linalg.norm(p))
        if 0.15 < r < radius:
            pts.append(p)
    return pts
