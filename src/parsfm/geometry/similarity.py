"""Closed-form similarity (scale, rotation, translation) between point sets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ransac import DegenerateGeometryError


@dataclass
class SimilarityTransform:
    """x' = scale * rotation @ x + translation."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float)
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @classmethod
    def identity(cls) -> "SimilarityTransform":
        return cls(1.0, np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = self.scale * (pts @ self.rotation.T) + self.translation
        return out.reshape(np.shape(points))

    def apply_each(self, points: np.ndarray) -> np.ndarray:
        """`apply` on each row of points (n,3) as a single point, bit for
        bit, in one stacked product (a plain (n,3) product rounds
        differently)."""
        return self.scale * np.matmul(points[:, None, :], self.rotation.T)[:, 0] + self.translation

    def inverse(self) -> "SimilarityTransform":
        Rinv = self.rotation.T
        return SimilarityTransform(
            1.0 / self.scale, Rinv, -Rinv @ self.translation / self.scale
        )


def umeyama_similarity(src, dst):
    """Least-squares similarity aligning src onto dst.

    Returns (SimilarityTransform, mse) where mse is the mean squared residual
    of the aligned source points. Raises DegenerateGeometryError for fewer
    than 3 pairs or a collinear source set.
    """
    src = np.atleast_2d(np.asarray(src, dtype=float))
    dst = np.atleast_2d(np.asarray(dst, dtype=float))
    if src.shape != dst.shape:
        raise ValueError("src and dst must have the same shape")
    n = len(src)
    if n < 3:
        raise DegenerateGeometryError("need at least 3 point pairs")

    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    ds = src - mu_s
    dd = dst - mu_d
    cov = dd.T @ ds / n
    var_s = (ds**2).sum() / n

    U, d, Vt = np.linalg.svd(cov)
    if d[1] < 1e-12 * max(d[0], 1.0) or var_s < 1e-24:
        raise DegenerateGeometryError("source points are collinear or coincident")
    S = np.eye(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        S[2, 2] = -1.0
    R = U @ S @ Vt
    scale = float((d * np.diag(S)).sum() / var_s)
    if scale <= 0:
        raise DegenerateGeometryError("non-positive scale")
    t = mu_d - scale * R @ mu_s

    T = SimilarityTransform(scale, R, t)
    mse = float(((T.apply(src) - dst) ** 2).sum() / n)
    return T, mse
