"""Rotation-group helpers for the numeric tier.

Exponential-chart plumbing (Rodrigues formula and the inverse left
Jacobian, with series fallbacks near zero) plus the Cayley bridge used to
freeze floating rotations into exactly orthogonal rational matrices.

``hat``, ``exp_rotation`` and ``left_jacobian_inv`` take a chart point
``(3,)``, giving a ``(3, 3)`` matrix, or a stack of points ``(..., 3)``,
giving the stack of matrices ``(..., 3, 3)``.  Each stacked matrix is the
single-point one bit for bit: the angle is the square root of a matmul dot
product, which is a point's ``np.linalg.norm`` bit for bit, each point
picks its small-angle series by ``np.where``, and the closed forms are
elementwise.  The angle's square goes through Python's float power, the C
``pow``, element by element: numpy's array square and ``np.power`` round
some angles' squares differently, and the closed forms divide by it.

The bridge rounds the Cayley preimage of the rotation, a skew matrix S
with axis vector q, and maps it back by the closed form

    R = I + 2 (S + S^2) / (1 + |q|^2),

which equals the inverse form (I - S)^{-1} (I + S) because
S^3 = -|q|^2 S, and is evaluated over one integer denominator with no
matrix inversion.
"""

from __future__ import annotations

import math

import numpy as np

from . import rational as rat


def hat(x):
    """The skew matrix of a point ``(3,)``, or of each point of a stack
    ``(..., 3)``."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1] + (3, 3))
    out[..., 0, 1], out[..., 0, 2] = -x[..., 2], x[..., 1]
    out[..., 1, 0], out[..., 1, 2] = x[..., 2], -x[..., 0]
    out[..., 2, 0], out[..., 2, 1] = -x[..., 1], x[..., 0]
    return out


def _angle(x):
    """|x| of each point of ``x`` ``(..., 3)``, shaped ``(..., 1, 1)`` to
    scale its matrix: the square root of ``x . x`` as a matmul."""
    return np.sqrt(np.matmul(x[..., None, :], x[..., :, None]))


def _squared(theta):
    """``theta ** 2`` entry by entry through Python's float power."""
    return np.array([t**2 for t in theta.ravel().tolist()]).reshape(theta.shape)


def _unselected_branch():
    """Silence the closed forms where a point takes its series instead:
    ``np.where`` evaluates both, and at a small angle the closed forms
    divide ``0 / 0`` (theta = 0) or overflow (a subnormal square, theta
    below about 1e-154), and go on to ``inf * 0``."""
    return np.errstate(divide="ignore", invalid="ignore", over="ignore")


def exp_rotation(x):
    """Rodrigues rotation of a chart point, or of each point of a stack."""
    x = np.asarray(x, dtype=float)
    theta = _angle(x)
    h = hat(x)
    hh = np.matmul(h, h)
    with _unselected_branch():
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / _squared(theta)
        return np.where(theta < 1e-8, np.eye(3) + h + 0.5 * hh, np.eye(3) + a * h + b * hh)


def left_jacobian_inv(x):
    """Inverse left Jacobian of a chart point, or of each point of a stack."""
    x = np.asarray(x, dtype=float)
    theta = _angle(x)
    h = hat(x)
    hh = np.matmul(h, h)
    with _unselected_branch():
        c = 1.0 / _squared(theta) - (1.0 + np.cos(theta)) / (2.0 * theta * np.sin(theta))
        return np.where(theta < 1e-6, np.eye(3) - 0.5 * h + hh / 12.0, np.eye(3) - 0.5 * h + c * hh)


def rationalize_rotation(r):
    """Exactly orthogonal rational matrix near the rotation ``r`` ``(3, 3)``,
    as integer rows over one positive denominator, ``(rows, den)``; for a
    stack of rotations ``(P, 3, 3)``, the list of their ``P`` pairs, each
    the single-rotation one.

    Round the Cayley preimage S (a skew matrix, kept exactly skew by
    mirroring the strict upper triangle) and map back; requires the rotation
    angle to stay away from a half turn, where the Cayley chart blows up.
    The preimages of a stack come from one stacked ``np.linalg.solve``,
    which runs the single-matrix LAPACK solve on each, bit for bit.  Entries
    are rounded by ``rational.rationalize_rows`` onto the grid of multiples
    of 2^-52, each within 2^-53, so they share a power-of-two denominator.

    The map back is the closed form R = I + 2 (S + S^2) / (1 + |q|^2), q
    being the axis vector of S, evaluated over one integer denominator: with
    S = T / D for an integer skew T, R = I + 2 (D T + T^2) / (D^2 + |T|^2).
    It is the same rational as (I - S)^{-1} (I + S): S^2 = q q^T - |q|^2 I
    gives S^3 = -|q|^2 S, so (I - S)(I + c (S + S^2)) = I + (c (1 + |q|^2)
    - 1) S, which is I + S exactly when c = 2 / (1 + |q|^2).
    """
    r = np.asarray(r, dtype=float)
    stack = r.reshape(-1, 3, 3)
    eye = np.eye(3)
    s = np.linalg.solve(np.swapaxes(stack + eye, -1, -2), np.swapaxes(stack - eye, -1, -2))
    # s is the stack of S^T: its (j, i) entry is S's (i, j)
    upper = 0.5 * (s[:, (1, 2, 2), (0, 0, 1)] - s[:, (0, 0, 1), (1, 2, 2)])
    out = []
    for q in upper.tolist():
        ((a, b, c),), d = rat.rationalize_rows([q])
        t = ((0, a, b), (-a, 0, c), (-b, -c, 0))
        den = d * d + a * a + b * b + c * c
        rows = [
            [
                (den if i == j else 0)
                + 2 * (d * t[i][j] + sum(t[i][k] * t[k][j] for k in range(3)))
                for j in range(3)
            ]
            for i in range(3)
        ]
        out.append((rows, den))
    return out if r.ndim > 2 else out[0]


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _hasher(const, mult):
    """numpy ``SeedSequence``'s 32-bit hash of one word, its constant
    advancing by ``mult`` on every word hashed."""

    def hashmix(v):
        nonlocal const
        v ^= const
        const = const * mult & _M32
        v = v * const & _M32
        return v ^ v >> 16

    return hashmix


def uniform_stream(seed, low, high):
    """The floats of ``np.random.default_rng(seed).uniform(low, high, size)``
    in order, bit for bit and without end.

    numpy's generator is PCG64 seeded through ``SeedSequence``, all integer
    arithmetic, so it is written out here rather than imported: importing
    ``numpy.random`` costs a process 7-10 ms, while an example at 50
    samples draws 150 to about 300 numbers here at about 1 us each.
    Tier-1 compares this stream with numpy's byte for byte.
    """
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> k & _M32 for k in range(0, max(seed.bit_length(), 1), 32)]
    # SeedSequence(seed): hash the first four words into a pool, mix each
    # pool word into the others, then each word past four into all of them
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in (words + [0] * 3)[:4]]
    for i in range(max(len(words), 4)):
        for j in range(4):
            if i != j:
                r = (0xCA01F9DD * pool[j] - 0x4973F715 * hashmix(pool[i] if i < 4 else words[i])) & _M32
                pool[j] = r ^ r >> 16
    # generate_state(4, uint64): eight 32-bit words, paired little end first
    out = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool * 2))
    s0, s1, s2, s3 = (out[k] | out[k + 1] << 32 for k in range(0, 8, 2))
    # PCG64's srandom, then the 128-bit LCG with its XSL-RR output
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    inc = ((s2 << 64 | s3) << 1 | 1) & _M128
    state = ((inc + (s0 << 64 | s1)) * mult + inc) & _M128
    scale = high - low

    def draws(state):
        while True:
            state = (state * mult + inc) & _M128
            x, rot = (state >> 64 ^ state) & _M64, state >> 122
            x = (x >> rot | x << (64 - rot)) & _M64
            yield low + scale * ((x >> 11) * 2.0**-53)

    return draws(state)


def sample_chart_points(count, seed):
    """Seeded points in the exponential chart with norm between 0.15 and
    pi - 0.2, away from both the origin and the cut locus: fresh ``(3,)``
    arrays, each three draws of ``uniform_stream``, a draw outside the shell
    being rejected.  That is numpy's ``default_rng(seed).uniform`` bit for
    bit (tier-1 pins it) without the 7-10 ms import of ``numpy.random``."""
    radius = np.pi - 0.2
    stream = uniform_stream(seed, -radius, radius)
    pts = []
    while len(pts) < count:
        p = np.fromiter(stream, float, 3)
        # numpy's norm of a 1-D float vector is sqrt(x . x), bit for bit
        r = math.sqrt(p.dot(p))
        if 0.15 < r < radius:
            pts.append(p)
    return pts
