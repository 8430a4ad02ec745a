"""2D affine transform between LiDAR (meters) and image (pixels) frames."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AffineTransform2D", "fit_least_squares"]


@dataclass(frozen=True)
class AffineTransform2D:
    """Maps (x, y) -> (a*x + b*y + tx, c*x + d*y + ty)."""

    a: float
    b: float
    c: float
    d: float
    tx: float
    ty: float

    def __post_init__(self):
        if not np.isfinite([self.a, self.b, self.c, self.d, self.tx, self.ty]).all():
            raise ValueError("transform coefficients must be finite")
        if abs(self.a * self.d - self.b * self.c) < 1e-15:
            raise ValueError("transform is singular (zero determinant)")

    @classmethod
    def identity(cls) -> "AffineTransform2D":
        return cls(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    def apply(self, points) -> np.ndarray:
        """Apply to a single (x, y) pair or an (N, 2) array."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        m = np.array([[self.a, self.b], [self.c, self.d]])
        out = pts @ m.T + np.array([self.tx, self.ty])
        return out[0] if single else out

    def to_line(self) -> str:
        return " ".join(
            repr(float(v)) for v in (self.a, self.b, self.c, self.d, self.tx, self.ty)
        )

    @classmethod
    def from_line(cls, line: str) -> "AffineTransform2D":
        parts = line.split()
        if len(parts) != 6:
            raise ValueError(f"transform line must have 6 numbers, got {len(parts)}")
        return cls(*(float(p) for p in parts))


def fit_least_squares(pairs) -> AffineTransform2D:
    """Fit the affine map minimizing squared target residuals.

    `pairs` is a sequence of (source, target) point pairs; at least three
    non-collinear sources are required.
    """
    src = np.asarray([p[0] for p in pairs], dtype=float)
    dst = np.asarray([p[1] for p in pairs], dtype=float)
    if len(src) < 3:
        raise ValueError("need at least 3 correspondences")
    if not (np.isfinite(src).all() and np.isfinite(dst).all()):
        raise ValueError("correspondences must be finite")
    design = np.column_stack([src[:, 0], src[:, 1], np.ones(len(src))])
    if np.linalg.matrix_rank(design) < 3:
        raise ValueError("correspondences are collinear; system is rank-deficient")
    coef_x, *_ = np.linalg.lstsq(design, dst[:, 0], rcond=None)
    coef_y, *_ = np.linalg.lstsq(design, dst[:, 1], rcond=None)
    return AffineTransform2D(
        a=float(coef_x[0]),
        b=float(coef_x[1]),
        c=float(coef_y[0]),
        d=float(coef_y[1]),
        tx=float(coef_x[2]),
        ty=float(coef_y[2]),
    )
