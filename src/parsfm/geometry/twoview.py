"""Two-view geometry: DLT triangulation and essential-matrix relative pose."""

from __future__ import annotations

import numpy as np

from .camera import CameraIntrinsics, CameraPose, project_rotation
from .ransac import DegenerateGeometryError, EstimationFailure, adaptive_ransac

DEFAULT_MIN_TRI_ANGLE_DEG = 2.0


def _svd(A: np.ndarray):
    """SVD of a design matrix: thin when tall, full when wide so Vt[-1] is null."""
    return np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])


def triangulation_angle(observations) -> float:
    """Maximum pairwise angle (radians) between viewing rays."""
    n = np.ones((len(observations), 3))
    R = np.empty((len(observations), 3, 3))
    for k, (intr, pose, px) in enumerate(observations):
        n[k, :2] = intr.normalize(px)
        R[k] = pose.rotation
    rays = np.einsum("kji,kj->ki", R, n)  # world direction R^T n of each ray
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    # the widest pair has the smallest |cos|; the diagonal pairs a ray with itself
    gram = np.abs(rays @ rays.T)
    np.fill_diagonal(gram, 1.0)
    return float(np.arccos(min(gram.min(), 1.0)))


def triangulate(observations, min_tri_angle_deg: float = DEFAULT_MIN_TRI_ANGLE_DEG):
    """Linear least-squares intersection of >=2 viewing rays.

    observations: list of (CameraIntrinsics, CameraPose, pixel 2-vector).
    Raises DegenerateGeometryError when the maximum pairwise ray angle is
    below ``min_tri_angle_deg`` and EstimationFailure when the solution lies
    behind any camera.
    """
    if len(observations) < 2:
        raise ValueError("need at least 2 observations")
    if triangulation_angle(observations) < np.deg2rad(min_tri_angle_deg):
        raise DegenerateGeometryError("triangulation angle below minimum")

    rows = []
    for intr, pose, px in observations:
        n = intr.normalize(np.asarray(px, dtype=float))
        P = np.hstack([pose.rotation, pose.translation.reshape(3, 1)])
        rows.append(n[0] * P[2] - P[0])
        rows.append(n[1] * P[2] - P[1])
    A = np.array(rows)
    _, _, Vt = _svd(A)
    Xh = Vt[-1]
    if abs(Xh[3]) < 1e-14:
        raise DegenerateGeometryError("point at infinity")
    X = Xh[:3] / Xh[3]
    for intr, pose, _ in observations:
        if pose.transform(X)[0, 2] <= 0:
            raise EstimationFailure("triangulated point behind a camera")
    return X


def _eight_point_essential(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Normalized eight-point estimate of E from normalized image coords."""

    def hartley(x):
        mean = x.mean(axis=0)
        d = np.sqrt(((x - mean) ** 2).sum(axis=1)).mean()
        s = np.sqrt(2.0) / max(d, 1e-12)
        T = np.array([[s, 0, -s * mean[0]], [0, s, -s * mean[1]], [0, 0, 1]])
        xh = np.hstack([x, np.ones((len(x), 1))]) @ T.T
        return xh, T

    a, T1 = hartley(x1)
    b, T2 = hartley(x2)
    # rows: b^T E a = 0
    A = np.einsum("ni,nj->nij", b, a).reshape(len(x1), 9)
    _, _, Vt = _svd(A)
    E = T2.T @ Vt[-1].reshape(3, 3) @ T1
    # enforce rank-2 with equal singular values
    U, _, Vt = np.linalg.svd(E)
    return U @ np.diag([1.0, 1.0, 0.0]) @ Vt


def _sampson_error(E: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Sampson distance in normalized coordinates."""
    h1 = np.hstack([x1, np.ones((len(x1), 1))])
    h2 = np.hstack([x2, np.ones((len(x2), 1))])
    Ex1 = h1 @ E.T
    Etx2 = h2 @ E
    num = np.einsum("ni,ni->n", h2, Ex1) ** 2
    den = Ex1[:, 0] ** 2 + Ex1[:, 1] ** 2 + Etx2[:, 0] ** 2 + Etx2[:, 1] ** 2
    return num / np.maximum(den, 1e-18)


def _decompose_essential(E: np.ndarray):
    U, _, Vt = np.linalg.svd(E)
    if np.linalg.det(U) < 0:
        U = -U
    if np.linalg.det(Vt) < 0:
        Vt = -Vt
    W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    R1 = U @ W @ Vt
    R2 = U @ W.T @ Vt
    t = U[:, 2]
    return [(R1, t), (R1, -t), (R2, t), (R2, -t)]


def _cheirality_counts(R, t, x1, x2):
    """Depth-positive count for pose candidate (R, t) of camera 2 w.r.t. camera 1."""
    P1 = np.hstack([np.eye(3), np.zeros((3, 1))])
    P = np.stack([P1, np.hstack([R, t.reshape(3, 1)])])  # (camera, 3, 4)
    x = np.stack([x1, x2], axis=1)[..., None]  # (N, camera, coordinate, 1)
    # rows x_k P[2] - P[k] of each point's 4x4 DLT system, all solved as one stack
    A = (x * P[:, 2:3] - P[:, :2]).reshape(-1, 4, 4)
    Xh = np.linalg.svd(A)[2][:, -1]
    Xh = Xh[np.abs(Xh[:, 3]) >= 1e-14]  # points at infinity never count
    X = Xh[:, :3] / Xh[:, 3:]
    # a batched matrix-vector product rounds exactly like R @ X per point
    z2 = np.matmul(R, X[:, :, None])[:, 2, 0] + t[2]
    return int(np.count_nonzero((X[:, 2] > 0) & (z2 > 0)))


def estimate_relative_pose(
    matches,
    intr1: CameraIntrinsics,
    intr2: CameraIntrinsics,
    threshold_px: float = 4.0,
    max_iterations: int = 1000,
    rng=None,
):
    """RANSAC eight-point relative pose of camera 2 w.r.t. camera 1.

    matches: (N,2,2) or list of (pixel1, pixel2) pairs, N >= 8.
    Returns (CameraPose with unit-norm translation, boolean inlier mask).
    """
    m = np.asarray(matches, dtype=float)
    if m.ndim != 3 or m.shape[1:] != (2, 2) or len(m) < 8:
        raise EstimationFailure("need at least 8 pixel-pair matches")
    rng = np.random.default_rng(rng)

    x1 = intr1.normalize(m[:, 0])
    x2 = intr2.normalize(m[:, 1])
    # Sampson threshold mapped from pixels to normalized coords
    f = 0.25 * (intr1.focal_x + intr1.focal_y + intr2.focal_x + intr2.focal_y)
    thr = (threshold_px / f) ** 2

    best_E, best_mask = adaptive_ransac(
        len(m),
        8,
        lambda idx: _eight_point_essential(x1[idx], x2[idx]),
        lambda E: _sampson_error(E, x1, x2) < thr,
        max_iterations,
        rng,
    )
    if best_mask is None or best_mask.sum() < 8:
        raise EstimationFailure("no essential-matrix consensus")

    # refit on inliers until the consensus stops growing
    for _ in range(5):
        E = _eight_point_essential(x1[best_mask], x2[best_mask])
        mask = _sampson_error(E, x1, x2) < thr
        if mask.sum() < 8:
            break
        grew = mask.sum() > best_mask.sum()
        best_E, best_mask = E, mask
        if not grew:
            break

    xi1, xi2 = x1[best_mask], x2[best_mask]
    best_pose = None
    best_good = -1
    for R, t in _decompose_essential(best_E):
        good = _cheirality_counts(R, t, xi1, xi2)
        if good > best_good:
            best_good, best_pose = good, (R, t)
    if best_pose is None or best_good < 0.5 * best_mask.sum():
        raise EstimationFailure("no decomposition passes the cheirality check")
    R, t = best_pose
    t = t / np.linalg.norm(t)
    return CameraPose(project_rotation(R), t), best_mask
