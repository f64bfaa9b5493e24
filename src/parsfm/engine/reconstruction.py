"""Reconstruction container, consistency checks, bundle wrapper, text IO."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from ..geometry import (
    BaReport,
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


def keypoint_pixels(features, image, keypoint):
    """(m,2) pixels of the keypoints (image ids, keypoint indices), one
    gather per image."""
    images, slot = np.unique(image, return_inverse=True)
    px = np.empty((len(image), 2))
    rows = np.split(np.argsort(slot, kind="stable"), np.cumsum(np.bincount(slot))[:-1])
    for img, r in zip(images.tolist(), rows):
        px[r] = features[img].keypoints[keypoint[r], :2]
    return px


def camera_arrays(recon: Reconstruction, images):
    """Rotations (n,3,3), translations (n,3) and pinhole terms fx fy cx cy
    (n,4) of the cameras of the image ids."""
    cams = [recon.cameras[img] for img in images]
    return (
        np.array([pose.rotation for _, pose in cams]).reshape(-1, 3, 3),
        np.array([pose.translation for _, pose in cams]).reshape(-1, 3),
        np.array([intr.pinhole_terms for intr, _ in cams]).reshape(-1, 4),
    )


def observation_geometry(recon: Reconstruction, pids, features):
    """Every observation of the points pids, in that order: (index into pids
    (m,), camera rotations (m,3,3), translations (m,3), pinhole terms fx fy
    cx cy (m,4), keypoint pixels (m,2))."""
    owner, image, keypoint = observation_arrays(recon, pids)
    images, slot = np.unique(image, return_inverse=True)
    R, t, K = camera_arrays(recon, images.tolist())
    return owner, R[slot], t[slot], K[slot], keypoint_pixels(features, image, keypoint)


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


def bundle_adjust(recon: Reconstruction, features, anchors=()) -> BaReport:
    """Refine all poses and points of the reconstruction in place.

    anchors: extra points (point id, xyz, [(image id, pixel)]), such as
    ground control, held fixed; they join the problem with their
    observations in registered images. Their ids are negative, so in id
    order they come before every point.
    """
    images, pids = sorted(recon.cameras), sorted(recon.points)
    R, t, K = camera_arrays(recon, images)
    fixed = np.argsort(np.argsort([pid for pid, _, _ in anchors]))  # row of each anchor
    X = np.empty((len(anchors) + len(pids), 3))
    X[fixed] = np.reshape([xyz for _, xyz, _ in anchors], (-1, 3))
    X[len(anchors) :] = np.reshape([recon.points[p][0] for p in pids], (-1, 3))
    # the observations are passed without a name here, so under CPython
    # 3.11+ (which hands the arguments over to the callee) nothing per
    # observation is left from this call once solve_bundle has sorted its
    # copies; 3.10 keeps them on the caller's stack until the call returns
    report = solve_bundle(
        R, t, K, X, _ba_observations(recon, features, images, pids, anchors, fixed),
        fixed_points=fixed,
    )
    for k, img in enumerate(images):
        recon.cameras[img] = (recon.cameras[img][0], CameraPose(R[k], t[k]))
    for p, xyz in zip(pids, X[len(anchors) :]):
        recon.points[p] = (xyz, recon.points[p][1])
    return report


def _ba_observations(recon, features, images, pids, anchors, rows):
    """The observations of the points pids, then those of the anchors (at
    X rows `rows`) in registered images, as solve_bundle's (camera index,
    point index, pixel) arrays; points count from len(anchors)."""
    extra = [(img, row, *px) for row, (_, _, obs) in zip(rows, anchors) for img, px in obs]
    extra = [e for e in extra if e[0] in recon.cameras]  # image, point row, pixel
    extra = np.array(extra, dtype=float).reshape(-1, 4)
    owner, image, keypoint = observation_arrays(recon, pids)
    return (
        np.searchsorted(images, np.concatenate([image, extra[:, 0].astype(np.int64)])),
        np.concatenate([len(anchors) + owner, extra[:, 1].astype(np.int64)]),
        np.vstack([keypoint_pixels(features, image, keypoint), extra[:, 2:]]),
    )


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
    """Inverse of write_reconstruction; intrinsics looked up per image id. A
    malformed record raises ValueError starting with its 'path:line'."""
    recon = Reconstruction(recon_id=recon_id)
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            tok = line.split()
            if not tok:
                continue
            kind, where = tok[0], f"{path}:{lineno}"
            xyz = None
            try:
                if kind == "POINT" and len(tok) >= 6 and len(tok) == 6 + 2 * int(tok[5]):
                    pid, ids = int(tok[1]), [int(v) for v in tok[6:]]
                    xyz = np.array([float(v) for v in tok[2:5]])
                if kind == "CAMERA" and len(tok) == 9:
                    img, q = int(tok[1]), np.array([float(v) for v in tok[2:6]])
                    xyz = np.array([float(v) for v in tok[6:9]])
            except ValueError:
                raise ValueError(f"{where}: non-numeric field in {kind} record") from None
            if kind not in ("CAMERA", "POINT"):
                raise ValueError(f"{where}: unknown record type {kind!r}")
            if xyz is None:
                rule = ", not 5 + 2 * n_obs" if kind == "POINT" else ""
                raise ValueError(f"{where}: {kind} record with {len(tok) - 1} fields{rule}")
            if not np.isfinite(xyz).all():
                raise ValueError(f"{where}: non-finite coordinate in {kind} record")
            if kind == "POINT":
                if pid in recon.points:
                    raise ValueError(f"{where}: repeated POINT {pid}")
                recon.points[pid] = (xyz, Track(pid, list(zip(ids[0::2], ids[1::2]))))
                continue
            if img not in intrinsics:
                raise ValueError(f"{where}: CAMERA of image {img} with no intrinsics")
            if img in recon.cameras:
                raise ValueError(f"{where}: repeated CAMERA of image {img}")
            if not (np.isfinite(q).all() and q.any()):
                raise ValueError(f"{where}: CAMERA quaternion is zero or not finite")
            recon.cameras[img] = (intrinsics[img], CameraPose(quaternion_to_matrix(q), xyz))
            recon.registered_order.append(img)
    return recon
