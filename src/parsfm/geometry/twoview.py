"""Two-view geometry: DLT triangulation and essential-matrix relative pose."""

from __future__ import annotations

import numpy as np

from .camera import CameraIntrinsics, CameraPose, pinhole, project_rotation
from .ransac import RANSAC_THRESHOLD_PX, DegenerateGeometryError, EstimationFailure, adaptive_ransac

DEFAULT_MIN_TRI_ANGLE_DEG = 2.0


def _svd(A: np.ndarray):
    """SVD of a design matrix: thin when tall, full when wide so Vt[-1] is null."""
    return np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])


# triangulate_tracks status: accepted, or the first check failed in this
# order: widest ray angle below the gate, point at infinity, a non-positive
# depth in some camera, a reprojection error above the bound
TRI_OK, TRI_NARROW, TRI_AT_INFINITY, TRI_BEHIND, TRI_REPROJECTION = range(5)


def widest_ray_angle(n, R):
    """Widest angle (radians) between the world rays R^T (n, 1) of each
    track: normalized pixels n (T,k,2), rotations R (T,k,3,3)."""
    rays = np.einsum("...ji,...j->...i", R, np.concatenate([n, np.ones_like(n[..., :1])], -1))
    rays /= np.linalg.norm(rays, axis=-1, keepdims=True)
    # the widest pair has the smallest |cos|; the diagonal pairs a ray with itself
    gram = np.abs(rays @ rays.swapaxes(-1, -2))
    d = np.arange(n.shape[-2])
    gram[..., d, d] = 1.0
    return np.arccos(np.minimum(gram.min(axis=(-1, -2)), 1.0))


def triangulate_tracks(
    lengths, K, R, t, px, min_tri_angle_deg=DEFAULT_MIN_TRI_ANGLE_DEG, max_error_px=np.inf
):
    """Linear least-squares (DLT) points of many tracks at once.

    Track j owns lengths[j] >= 2 consecutive rows of the pinhole terms K
    (m,4), rotations R (m,3,3), translations t (m,3) and pixels px (m,2);
    the tracks of one length are one stack of SVDs. Returns (points (T,3),
    status (T,)), the status TRI_OK or the first check the point failed.
    """
    lengths = np.asarray(lengths)
    X, status = np.full((len(lengths), 3), np.nan), np.zeros(len(lengths), dtype=np.int8)
    start = np.cumsum(lengths) - lengths
    n_all = (px - K[:, 2:]) / K[:, :2]
    for k in np.unique(lengths):
        tracks = np.flatnonzero(lengths == k)
        rows = start[tracks, None] + np.arange(k)  # (T,k)
        n, Rk, tk = n_all[rows], R[rows], t[rows]
        P = np.concatenate([Rk, tk[..., None]], axis=-1)  # [R | t]
        # rows x P[2] - P[0] and y P[2] - P[1] of each view
        A = (n[..., None] * P[..., 2:3, :] - P[..., :2, :]).reshape(len(tracks), 2 * k, 4)
        Xh = np.linalg.svd(A, full_matrices=False)[2][:, -1]
        infinite = np.abs(Xh[:, 3]) < 1e-14
        X[tracks] = Xh[:, :3] / np.where(infinite, 1.0, Xh[:, 3])[:, None]
        cam = np.matmul(Rk, X[tracks][:, None, :, None])[..., 0] + tk
        proj, z = pinhole(cam, *np.moveaxis(K[rows], -1, 0))
        err = np.linalg.norm(proj - px[rows], axis=-1)
        failed = [widest_ray_angle(n, Rk) < np.deg2rad(min_tri_angle_deg), infinite,
                  (z <= 0).any(axis=1), (err > max_error_px).any(axis=1)]
        status[tracks] = np.select(failed, [TRI_NARROW, TRI_AT_INFINITY, TRI_BEHIND,
                                            TRI_REPROJECTION])
    return X, status


def triangulate(observations, min_tri_angle_deg: float = DEFAULT_MIN_TRI_ANGLE_DEG):
    """triangulate_tracks of one track of >=2 (CameraIntrinsics, CameraPose,
    pixel 2-vector) observations.

    Raises DegenerateGeometryError when the maximum pairwise ray angle is
    below ``min_tri_angle_deg`` or the point is at infinity, and
    EstimationFailure when it lies behind any camera.
    """
    if len(observations) < 2:
        raise ValueError("need at least 2 observations")
    intr, poses, px = zip(*observations)
    K = np.array([i.pinhole_terms for i in intr], dtype=float)
    R, t = np.array([p.rotation for p in poses]), np.array([p.translation for p in poses])
    X, status = triangulate_tracks([len(px)], K, R, t, np.array(px, dtype=float), min_tri_angle_deg)
    if status[0] == TRI_BEHIND:
        raise EstimationFailure("triangulated point behind a camera")
    if status[0] == TRI_AT_INFINITY:
        raise DegenerateGeometryError("point at infinity")
    if status[0] == TRI_NARROW:
        raise DegenerateGeometryError("triangulation angle below minimum")
    return X[0]


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
    """Depth-positive count for pose candidate (R, t) of camera 2 w.r.t. camera
    1 over matches of normalized points x1, x2.

    The depths d1, d2 of a match solve d1 a - d2 b = -t in least squares,
    a = R (x1, 1) and b = (x2, 1), through the 2x2 normal equations; since
    both rays have unit z they are the depths in cameras 1 and 2. Matches
    whose rays are parallel (determinant at rounding level) count as at
    infinity.
    """
    a = np.hstack([x1, np.ones((len(x1), 1))]) @ R.T
    b = np.hstack([x2, np.ones((len(x2), 1))])
    aa, bb, ab = (a * a).sum(axis=1), (b * b).sum(axis=1), (a * b).sum(axis=1)
    at, bt = a @ t, b @ t
    det = aa * bb - ab * ab
    # where det > 0, the numerators of Cramer's rule carry the depths' signs
    d1, d2 = ab * bt - bb * at, aa * bt - ab * at
    return int(np.count_nonzero((det > 1e-12 * aa * bb) & (d1 > 0) & (d2 > 0)))


def estimate_relative_pose(
    matches,
    intr1: CameraIntrinsics,
    intr2: CameraIntrinsics,
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
    thr = (RANSAC_THRESHOLD_PX / f) ** 2

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
