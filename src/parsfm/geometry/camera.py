"""Pinhole camera model: intrinsics, pose, projection, rotation helpers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class BehindCameraError(Exception):
    """Raised when a point has non-positive depth in the camera frame."""


def _check_rotation(R: np.ndarray, tol: float = 1e-9) -> None:
    if R.shape != (3, 3):
        raise ValueError("rotation must be 3x3")
    if not np.allclose(R.T @ R, np.eye(3), atol=tol * 10):
        raise ValueError("rotation is not orthonormal")
    if abs(np.linalg.det(R) - 1.0) > 1e-6:
        raise ValueError("rotation determinant is not +1")


@dataclass(frozen=True)
class CameraIntrinsics:
    """Calibrated pinhole intrinsics in pixels, fixed during optimization."""

    focal_x: float
    focal_y: float
    principal_x: float
    principal_y: float
    image_width: int
    image_height: int

    def __post_init__(self):
        if self.focal_x <= 0 or self.focal_y <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.principal_x <= self.image_width):
            raise ValueError("principal_x outside image bounds")
        if not (0 <= self.principal_y <= self.image_height):
            raise ValueError("principal_y outside image bounds")

    @property
    def pinhole_terms(self):
        """(fx, fy, cx, cy), the arguments of `pinhole`."""
        return self.focal_x, self.focal_y, self.principal_x, self.principal_y

    def normalize(self, pixels: np.ndarray) -> np.ndarray:
        """Pixel coordinates -> normalized camera-plane coordinates."""
        px = np.asarray(pixels, dtype=float)
        return (px - (self.principal_x, self.principal_y)) / (self.focal_x, self.focal_y)


@dataclass
class CameraPose:
    """World-to-camera rigid transform: x_cam = rotation @ x_world + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float)
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)
        _check_rotation(self.rotation)

    @classmethod
    def identity(cls) -> "CameraPose":
        return cls(np.eye(3), np.zeros(3))

    def center(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return -self.rotation.T @ self.translation

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Map world points (N,3) into the camera frame."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ self.rotation.T + self.translation

    def copy(self) -> "CameraPose":
        return CameraPose(self.rotation.copy(), self.translation.copy())


def pinhole(cam, fx, fy, cx, cy):
    """Pinhole projection of camera-frame points (..., 3).

    The intrinsics broadcast against the points. Returns (pixels (..., 2),
    depths (...)); a point at non-positive depth gets a meaningless pixel,
    so callers filter on the depth sign.
    """
    z = cam[..., 2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        px = np.stack([fx * cam[..., 0] / z + cx, fy * cam[..., 1] / z + cy], axis=-1)
    return px, z


def project(intr: CameraIntrinsics, pose: CameraPose, point) -> np.ndarray:
    """Perspective projection of one world point into pixel coordinates.

    Raises BehindCameraError if the point has non-positive depth.
    """
    p = pose.rotation @ np.asarray(point, dtype=float).reshape(3) + pose.translation
    if p[2] <= 0:
        raise BehindCameraError(f"depth {p[2]:.6g} <= 0")
    return pinhole(p, *intr.pinhole_terms)[0]


def project_points(intr: CameraIntrinsics, pose: CameraPose, points: np.ndarray):
    """Vectorized projection of (N,3) world points.

    Returns (pixels (N,2), depths (N,)); callers filter on depth sign.
    """
    return pinhole(pose.transform(points), *intr.pinhole_terms)


def skew(w: np.ndarray) -> np.ndarray:
    """Cross-product matrices [w]x of (..., 3) vectors: [w]x @ u = w x u."""
    x, y, z = w[..., 0], w[..., 1], w[..., 2]
    zero = np.zeros_like(x)
    K = np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=-1)
    return K.reshape(w.shape[:-1] + (3, 3))


def angle_axis_to_matrix(omega: np.ndarray) -> np.ndarray:
    """Rodrigues formula over (..., 3) angle-axis vectors, stable near zero angle."""
    omega = np.asarray(omega, dtype=float)
    K = skew(omega)
    # the squared angle as a dot product rounds like np.linalg.norm of one vector
    theta = np.sqrt(omega[..., None, :] @ omega[..., :, None])
    small = theta < 1e-12
    theta = np.where(small, 1.0, theta)
    a = np.where(small, 1.0, np.sin(theta) / theta)
    b = np.where(small, 0.0, (1.0 - np.cos(theta)) / (theta * theta))
    return np.eye(3) + a * K + b * (K @ K)


def matrix_to_quaternion(R: np.ndarray) -> np.ndarray:
    """Rotation matrix -> unit quaternion (w, x, y, z), w >= 0."""
    from scipy.spatial.transform import Rotation

    q = Rotation.from_matrix(R).as_quat()  # (x, y, z, w)
    q = np.array([q[3], q[0], q[1], q[2]])
    if q[0] < 0:
        q = -q
    return q


def quaternion_to_matrix(q: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) -> rotation matrix."""
    from scipy.spatial.transform import Rotation

    q = np.asarray(q, dtype=float).reshape(4)
    return Rotation.from_quat([q[1], q[2], q[3], q[0]]).as_matrix()


def project_rotation(R: np.ndarray) -> np.ndarray:
    """Nearest orthonormal matrix with det +1 (SVD projection), over (..., 3, 3).

    Raises LinAlgError on a non-finite input, on which the SVD may never return.
    """
    R = np.asarray(R, dtype=float)
    if not np.isfinite(R).all():
        raise np.linalg.LinAlgError("cannot project a non-finite matrix onto a rotation")
    U, _, Vt = np.linalg.svd(R)
    U[..., 2] *= np.sign(np.linalg.det(U @ Vt))[..., None]
    return U @ Vt
