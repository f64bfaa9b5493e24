"""DLT camera resection (PnP) inside RANSAC with nonlinear refinement."""

from __future__ import annotations

import numpy as np
from scipy.optimize import least_squares

from .camera import (
    CameraIntrinsics,
    CameraPose,
    angle_axis_to_matrix,
    pinhole,
    project_points,
    project_rotation,
)
from .ransac import RANSAC_THRESHOLD_PX, EstimationFailure, adaptive_ransac
from .twoview import _svd

RESECTION_MAX_ITERATIONS = 500


def _dlt_pose(X: np.ndarray, xn: np.ndarray) -> CameraPose:
    """Direct linear transform from >=6 world/normalized-image correspondences."""
    A = np.zeros((2 * len(X), 12))
    A[0::2, 0:3] = X
    A[0::2, 3] = 1.0
    A[0::2, 8:11] = -xn[:, 0:1] * X
    A[0::2, 11] = -xn[:, 0]
    A[1::2, 4:7] = X
    A[1::2, 7] = 1.0
    A[1::2, 8:11] = -xn[:, 1:2] * X
    A[1::2, 11] = -xn[:, 1]
    _, s, Vt = _svd(A)
    if s[-2] < 1e-10 * max(s[0], 1.0):
        raise EstimationFailure("degenerate (coplanar/collinear) correspondence set")
    P = Vt[-1].reshape(3, 4)
    M = P[:, :3]
    # fix sign so depths come out positive for the majority
    depths = X @ M[2] + P[2, 3]
    if np.median(depths) < 0:
        P = -P
        M = P[:, :3]
    scale = np.linalg.det(M)
    if abs(scale) < 1e-14:
        raise EstimationFailure("singular projection matrix")
    s3 = np.cbrt(scale)
    M = M / s3
    t = P[:, 3] / s3
    return CameraPose(project_rotation(M), t)


def _homography(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Normalized 2D DLT homography mapping src (n,2) onto dst (n,2)."""

    def normalize(p):
        m = p.mean(axis=0)
        d = np.sqrt(((p - m) ** 2).sum(axis=1)).mean()
        s = np.sqrt(2.0) / max(d, 1e-12)
        T = np.array([[s, 0.0, -s * m[0]], [0.0, s, -s * m[1]], [0.0, 0.0, 1.0]])
        return (p - m) * s, T

    sp, Ts = normalize(src)
    dp, Td = normalize(dst)
    M = np.zeros((2 * len(src), 9))
    M[0::2, 0:2] = sp
    M[0::2, 2] = 1.0
    M[1::2, 3:5] = sp
    M[1::2, 5] = 1.0
    M[0::2, 6:8] = -dp[:, 0:1] * sp
    M[0::2, 8] = -dp[:, 0]
    M[1::2, 6:8] = -dp[:, 1:2] * sp
    M[1::2, 8] = -dp[:, 1]
    _, _, Vt = _svd(M)
    return np.linalg.inv(Td) @ Vt[-1].reshape(3, 3) @ Ts


def _planar_pose(X: np.ndarray, xn: np.ndarray) -> CameraPose:
    """Pose from >=4 (near-)coplanar correspondences.

    The 11-parameter DLT is rank-deficient for coplanar points; here the
    points are expressed in an orthonormal basis of their best-fit plane and
    the pose is recovered from the plane-to-image homography, whose first two
    columns are the rotated plane axes.
    """
    c = X.mean(axis=0)
    _, _, Vt = _svd(X - c)
    if np.linalg.det(Vt) < 0:
        Vt = Vt.copy()
        Vt[2] = -Vt[2]
    uv = (X - c) @ Vt[:2].T
    H = _homography(uv, xn)
    if np.median(uv @ H[2, :2] + H[2, 2]) < 0:
        H = -H  # choose the sign putting the points in front of the camera
    lam = 2.0 / (np.linalg.norm(H[:, 0]) + np.linalg.norm(H[:, 1]))
    r1 = lam * H[:, 0]
    r2 = lam * H[:, 1]
    R = project_rotation(np.stack([r1, r2, np.cross(r1, r2)], axis=1)) @ Vt
    t = lam * H[:, 2] - R @ c
    return CameraPose(R, t)


def _sample_pose(X: np.ndarray, xn: np.ndarray) -> CameraPose:
    """DLT pose, switching to the planar branch for flat correspondence sets.

    Raises EstimationFailure when the solve gives no valid rotation.
    """
    s = np.linalg.svd(X - X.mean(axis=0), compute_uv=False)
    try:
        if s[2] < 0.05 * s[0]:
            return _planar_pose(X, xn)
        return _dlt_pose(X, xn)
    except ValueError as exc:  # CameraPose rejects a non-finite rotation
        raise EstimationFailure(f"no valid rotation: {exc}") from exc


def _refine_pose(pose: CameraPose, X, px, intr: CameraIntrinsics) -> CameraPose:
    """Per-camera Levenberg-Marquardt on reprojection error."""
    R0, t0 = pose.rotation, pose.translation

    def residual(p):
        R = angle_axis_to_matrix(p[:3]) @ R0
        cam = X @ R.T + p[3:]
        cam[:, 2] = np.maximum(cam[:, 2], 1e-9)
        uv = pinhole(cam, *intr.pinhole_terms)[0] - px
        return np.concatenate([uv[:, 0], uv[:, 1]])

    sol = least_squares(residual, np.concatenate([np.zeros(3), t0]), method="lm")
    R = project_rotation(angle_axis_to_matrix(sol.x[:3]) @ R0)
    return CameraPose(R, sol.x[3:])


def resect_camera(correspondences, intr: CameraIntrinsics, rng=None):
    """Estimate a camera pose from 3D-point/pixel correspondences.

    correspondences: list of (point3, pixel2). Returns (CameraPose, inlier mask).
    Raises EstimationFailure for <6 correspondences or no consensus.
    """
    if len(correspondences) < 6:
        raise EstimationFailure("need at least 6 correspondences")
    X = np.array([np.asarray(p, dtype=float).reshape(3) for p, _ in correspondences])
    px = np.array([np.asarray(q, dtype=float).reshape(2) for _, q in correspondences])
    xn = intr.normalize(px)
    rng = np.random.default_rng(rng)

    def inliers(pose):
        proj, z = project_points(intr, pose, X)
        err = np.hypot(proj[:, 0] - px[:, 0], proj[:, 1] - px[:, 1])
        return (err < RANSAC_THRESHOLD_PX) & (z > 0)

    sample_pose, best_mask = adaptive_ransac(
        len(X),
        6,
        lambda idx: _sample_pose(X[idx], xn[idx]),
        inliers,
        RESECTION_MAX_ITERATIONS,
        rng,
    )
    if best_mask is None or best_mask.sum() < 6:
        raise EstimationFailure("no resection consensus")

    # the refit on every inlier can take the ill-conditioned DLT branch on a
    # nearly flat set and land far off; refine from the sample's pose then
    pose = sample_pose
    try:
        refit = _sample_pose(X[best_mask], xn[best_mask])
        if inliers(refit).sum() >= best_mask.sum():
            pose = refit
    except (EstimationFailure, np.linalg.LinAlgError):
        pass
    pose = _refine_pose(pose, X[best_mask], px[best_mask], intr)
    mask = inliers(pose)
    if mask.sum() < 6:
        raise EstimationFailure("refined pose lost consensus")
    return pose, mask
