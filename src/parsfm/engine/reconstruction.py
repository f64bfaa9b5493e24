"""Reconstruction container, consistency checks, bundle wrapper, text IO."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from ..geometry import (
    BaOptions,
    BaReport,
    CameraIntrinsics,
    CameraPose,
    matrix_to_quaternion,
    pinhole,
    quaternion_to_matrix,
    solve_bundle,
)
from .tracks import Track

_F = "%.17g"


@dataclass
class Reconstruction:
    """Registered cameras plus triangulated points of one image subset."""

    recon_id: int = 0
    cameras: dict = field(default_factory=dict)  # image_id -> (intr, CameraPose)
    points: dict = field(default_factory=dict)  # point_id -> (xyz, Track)
    registered_order: list = field(default_factory=list)

    def num_cameras(self) -> int:
        return len(self.cameras)

    def num_points(self) -> int:
        return len(self.points)

    def image_ids(self):
        return set(self.cameras)

    def next_point_id(self) -> int:
        return max(self.points, default=-1) + 1

    def observations(self, features):
        """Flat (image_id, point_id, pixel) list over all point tracks."""
        out = []
        for pid, (_, track) in sorted(self.points.items()):
            for img, kp in track.observations:
                out.append((img, pid, features[img].keypoints[kp, :2]))
        return out

    def copy(self) -> "Reconstruction":
        return Reconstruction(
            self.recon_id,
            {i: (intr, pose.copy()) for i, (intr, pose) in self.cameras.items()},
            {
                p: (xyz.copy(), Track(t.point_id, list(t.observations)))
                for p, (xyz, t) in self.points.items()
            },
            list(self.registered_order),
        )


def observation_arrays(recon: Reconstruction, pids):
    """Every observation of the points pids, in that order, as int64 arrays:
    (index into pids of the owning point, image ids, keypoint indices)."""
    tracks = [recon.points[pid][1].observations for pid in pids]
    length = np.fromiter(map(len, tracks), dtype=np.int64, count=len(tracks))
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(tracks)), np.int64, 2 * length.sum())
    return np.repeat(np.arange(len(tracks)), length), flat[0::2], flat[1::2]


def observation_geometry(recon: Reconstruction, pids, features):
    """Every observation of the points pids, in that order: (index into pids
    (m,), camera rotations (m,3,3), translations (m,3), pinhole terms fx fy
    cx cy (m,4), keypoint pixels (m,2))."""
    owner, image, keypoint = observation_arrays(recon, pids)
    images, slot = np.unique(image, return_inverse=True)
    cams = [recon.cameras[img] for img in images.tolist()]
    R = np.array([pose.rotation for _, pose in cams]).reshape(-1, 3, 3)[slot]
    t = np.array([pose.translation for _, pose in cams]).reshape(-1, 3)[slot]
    K = np.array([intr.pinhole_terms for intr, _ in cams]).reshape(-1, 4)[slot]
    px = np.empty((len(image), 2))
    rows = np.split(np.argsort(slot, kind="stable"), np.cumsum(np.bincount(slot))[:-1])
    for img, r in zip(images.tolist(), rows):
        px[r] = features[img].keypoints[keypoint[r], :2]
    return owner, R, t, K, px


def mean_reprojection_error(recon: Reconstruction, features) -> float:
    """Mean per-observation reprojection error in pixels (inf if any point
    sits behind its camera)."""
    owner, R, t, K, px = observation_geometry(recon, recon.points, features)
    X = np.array([xyz for xyz, _ in recon.points.values()]).reshape(-1, 3)[owner]
    proj, z = pinhole(np.matmul(R, X[:, :, None])[:, :, 0] + t, *K.T)
    err = np.linalg.norm(proj - px, axis=1)
    err[z <= 0] = np.inf
    return float(err.mean()) if len(err) else 0.0


def validate_reconstruction(recon: Reconstruction, features=None) -> None:
    """Raise ValueError on any violated structural invariant."""
    for pid, (xyz, track) in recon.points.items():
        if not np.all(np.isfinite(xyz)):
            raise ValueError(f"point {pid} has non-finite coordinates")
        if len(track.observations) < 2:
            raise ValueError(f"point {pid} has fewer than 2 observations")
        images = [img for img, _ in track.observations]
        if len(set(images)) != len(images):
            raise ValueError(f"point {pid} observes an image twice")
        for img in images:
            if img not in recon.cameras:
                raise ValueError(f"point {pid} observed by unregistered image {img}")
    if set(recon.registered_order) != set(recon.cameras):
        raise ValueError("registered_order does not match the camera set")
    if features is not None:
        if not np.isfinite(mean_reprojection_error(recon, features)):
            raise ValueError("mean reprojection error is not finite")


def bundle_adjust(recon: Reconstruction, features, opts: BaOptions = None) -> BaReport:
    """Refine all poses and points of the reconstruction in place."""
    opts = opts or BaOptions()
    cameras = {i: pose for i, (_, pose) in recon.cameras.items()}
    intrinsics = {i: intr for i, (intr, _) in recon.cameras.items()}
    points = {p: xyz for p, (xyz, _) in recon.points.items()}
    report = solve_bundle(
        cameras, intrinsics, points, recon.observations(features), opts
    )
    for i, pose in cameras.items():
        recon.cameras[i] = (intrinsics[i], pose)
    for p, xyz in points.items():
        recon.points[p] = (np.asarray(xyz, dtype=float), recon.points[p][1])
    return report


def write_reconstruction(path, recon: Reconstruction) -> None:
    """Plain-text dump: CAMERA rows then POINT rows with their observations."""
    lines = []
    for img in sorted(recon.cameras):
        _, pose = recon.cameras[img]
        q = matrix_to_quaternion(pose.rotation)
        vals = " ".join(_F % v for v in (*q, *pose.translation))
        lines.append(f"CAMERA {img} {vals}")
    for pid in sorted(recon.points):
        xyz, track = recon.points[pid]
        obs = " ".join(f"{img} {kp}" for img, kp in track.observations)
        coords = " ".join(_F % v for v in xyz)
        lines.append(f"POINT {pid} {coords} {len(track.observations)} {obs}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_reconstruction(path, intrinsics, recon_id: int = 0) -> Reconstruction:
    """Inverse of write_reconstruction; intrinsics looked up per image id."""
    recon = Reconstruction(recon_id=recon_id)
    with open(path) as fh:
        for line in fh:
            tok = line.split()
            if not tok:
                continue
            if tok[0] == "CAMERA":
                img = int(tok[1])
                q = np.array([float(v) for v in tok[2:6]])
                t = np.array([float(v) for v in tok[6:9]])
                pose = CameraPose(quaternion_to_matrix(q), t)
                recon.cameras[img] = (intrinsics[img], pose)
                recon.registered_order.append(img)
            elif tok[0] == "POINT":
                pid = int(tok[1])
                xyz = np.array([float(v) for v in tok[2:5]])
                n_obs = int(tok[5])
                obs = [
                    (int(tok[6 + 2 * k]), int(tok[7 + 2 * k]))
                    for k in range(n_obs)
                ]
                recon.points[pid] = (xyz, Track(pid, obs))
            else:
                raise ValueError(f"unknown record {tok[0]!r}")
    return recon
