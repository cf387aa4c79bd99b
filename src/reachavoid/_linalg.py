"""Fixed-size vector and linear-system helpers on plain float tuples.

The interception solver and the simulation loop evaluate these thousands of
times per simulated game; at size 3, tuple arithmetic beats array
libraries by an order of magnitude.  ``Vec`` is the package's one vector
type: every module computes on it and the public helpers return it, so the
package has no runtime dependency and converts between no vector types.
"""

from __future__ import annotations

import math

Vec = tuple[float, float, float]


def as_vec(value) -> Vec:
    """Coerce a length-3 sequence into a float tuple, rejecting non-finite entries."""
    try:
        a, b, c = value
    except (TypeError, ValueError) as exc:
        raise ValueError(f"expected a length-3 vector, got {value!r}") from exc
    vec = (float(a), float(b), float(c))
    if not (math.isfinite(vec[0]) and math.isfinite(vec[1]) and math.isfinite(vec[2])):
        raise ValueError(f"vector components must be finite, got {value!r}")
    return vec


def add(a: Vec, b: Vec) -> Vec:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def sub(a: Vec, b: Vec) -> Vec:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def scale(a: Vec, s: float) -> Vec:
    return (a[0] * s, a[1] * s, a[2] * s)


def dot(a: Vec, b: Vec) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a: Vec, b: Vec) -> Vec:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def norm(a: Vec) -> float:
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


def dist(a: Vec, b: Vec) -> float:
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    dz = a[2] - b[2]
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def gauss_solve(matrix: list[list[float]], rhs: list[float]) -> list[float]:
    """Solve a small dense linear system by Gaussian elimination.

    Mutates its arguments.  Partial pivoting; raises ValueError when the
    system is numerically singular.  Intended for n <= 8.
    """
    n = len(rhs)
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(matrix[r][col]))
        pivot = matrix[pivot_row][col]
        if abs(pivot) < 1e-300:
            raise ValueError("singular linear system")
        if pivot_row != col:
            matrix[col], matrix[pivot_row] = matrix[pivot_row], matrix[col]
            rhs[col], rhs[pivot_row] = rhs[pivot_row], rhs[col]
        inv = 1.0 / matrix[col][col]
        for row in range(col + 1, n):
            factor = matrix[row][col] * inv
            if factor == 0.0:
                continue
            matrix[row][col] = 0.0
            for k in range(col + 1, n):
                matrix[row][k] -= factor * matrix[col][k]
            rhs[row] -= factor * rhs[col]
    out = [0.0] * n
    for row in range(n - 1, -1, -1):
        acc = rhs[row]
        m_row = matrix[row]
        for k in range(row + 1, n):
            acc -= m_row[k] * out[k]
        out[row] = acc / m_row[row]
    return out
