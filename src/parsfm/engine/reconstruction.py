"""Reconstruction container, consistency checks, bundle wrapper, text IO."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
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
from ..textio import field_count, layout, parse_group, parses, read_records
from .tracks import Track

_F = "%.17g"
_CAMERA_ROW = "CAMERA %s" + f" {_F}" * 7
_CAMERA = layout("CAMERA", 1, 7)
# a POINT row as read: id, coordinates, observation count and field count
_POINT_HEAD = np.dtype([("pid", "<i8"), ("xyz", "<f8", (3,)), ("n_obs", "<i8"), ("fields", "<i8")])


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


def observation_geometry(recon, image, keypoint, features):
    """Per observation (image id, keypoint index): camera rotation (m,3,3),
    translation (m,3) and pinhole terms fx fy cx cy (m,4) from
    `recon.cameras`, and keypoint pixels (m,2)."""
    images, slot = np.unique(image, return_inverse=True)
    R, t, K = camera_arrays(recon, images.tolist())
    return R[slot], t[slot], K[slot], keypoint_pixels(features, image, keypoint)


def mean_reprojection_error(recon: Reconstruction, features) -> float:
    """Mean per-observation reprojection error in pixels (inf if any point
    sits behind its camera)."""
    owner, image, keypoint = observation_arrays(recon, recon.points)
    X = np.array([xyz for xyz, _ in recon.points.values()]).reshape(-1, 3)[owner]
    R, t, K, px = observation_geometry(recon, image, keypoint, features)
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
        lines.append(_CAMERA_ROW % (img, *q, *pose.translation))
    point_row = {}  # observation count -> format of the row
    for pid in sorted(recon.points):
        xyz, track = recon.points[pid]
        n = len(track.observations)
        if n not in point_row:
            point_row[n] = f"POINT %s {_F} {_F} {_F} %s " + " ".join(["%s %s"] * n)
        lines.append(point_row[n] % (pid, *xyz, n, *chain.from_iterable(track.observations)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_reconstruction(path, intrinsics, recon_id: int = 0) -> Reconstruction:
    """Inverse of write_reconstruction; intrinsics looked up per image id. A
    malformed record raises ValueError starting with its 'path:line'.

    Records may come in any order, and blank lines are skipped. The file is
    read once and parsed one tag group at a time (see `parsfm.textio`); the
    first bad record in file order raises: an unknown tag, a wrong field
    count (a POINT needs 5 + 2 * n_obs), a non-numeric field, a non-finite
    coordinate, a CAMERA of an image without intrinsics, a repeated CAMERA
    or POINT, or a zero or non-finite CAMERA quaternion.
    """
    parsers = {"CAMERA": partial(parse_group, dtype=_CAMERA), "POINT": _parse_points}
    records, rows, errors = read_records(path, parsers, _bad_model_record, _kept)
    cameras, (head, obs) = rows["CAMERA"] or (), rows["POINT"] or (None, None)

    def bad(tag, row, message):
        errors.append((records[tag].line(row), message))

    recon = Reconstruction(recon_id=recon_id)
    for row, (img, f) in enumerate(zip(*(column.tolist() for column in cameras))):
        q, t = f[:4], f[4:]
        if not np.isfinite(t).all():
            bad("CAMERA", row, "non-finite coordinate in CAMERA record")
        elif img not in intrinsics:
            bad("CAMERA", row, f"CAMERA of image {img} with no intrinsics")
        elif img in recon.cameras:
            bad("CAMERA", row, f"repeated CAMERA of image {img}")
        elif not (np.isfinite(q).all() and any(q)):
            bad("CAMERA", row, "CAMERA quaternion is zero or not finite")
        else:
            pose = CameraPose(quaternion_to_matrix(np.array(q)), np.array(t))
            recon.cameras[img] = (intrinsics[img], pose)
            recon.registered_order.append(img)
            continue
        break
    if head is not None:
        pid, xyz, n_obs = head["pid"], head["xyz"], head["n_obs"]
        half, odd = np.divmod(head["fields"] - 5, 2)  # 2 * n_obs could overflow
        miscounted = odd.astype(bool) | (n_obs != half)
        infinite = ~np.isfinite(xyz).all(axis=1)
        order = np.argsort(pid, kind="stable")
        repeated = np.zeros(len(pid), bool)
        repeated[order[1:][pid[order[1:]] == pid[order[:-1]]]] = True
        wrong = np.flatnonzero(miscounted | infinite | repeated)
        if wrong.size:
            row = int(wrong[0])
            if miscounted[row]:
                fields = head["fields"][row]
                bad("POINT", row, f"POINT record with {fields} fields, not 5 + 2 * n_obs")
            elif infinite[row]:
                bad("POINT", row, "non-finite coordinate in POINT record")
            else:
                bad("POINT", row, f"repeated POINT {pid[row]}")
    if errors:
        line, message = min(errors)
        raise ValueError(f"{path}:{line}: {message}")
    if head is not None:
        # one list of (image, keypoint) tuples, sliced per point
        observations = list(zip(obs[0::2].tolist(), obs[1::2].tolist()))
        ends = np.cumsum(n_obs)
        slices = map(slice, (ends - n_obs).tolist(), ends.tolist())
        pids = pid.tolist()
        tracks = map(Track, pids, map(observations.__getitem__, slices))
        recon.points = dict(zip(pids, zip(np.ascontiguousarray(xyz), tracks)))
    return recon


def _kept(tag, rows):
    """A chunk's CAMERA rows as their image ids and values; POINT rows as
    `_parse_points` gives them."""
    return rows if tag == "POINT" else (rows["i"][:, 0], rows["f"])


def _parse_points(lines):
    """POINT records as ((heads, observations), bad), the shape of
    `parse_group`'s result: a `_POINT_HEAD` row per record and the flat
    (image, keypoint) ids of all, up to the first bad record. The records
    are parsed in groups of one field count."""
    fields = np.fromiter(map(len, map(str.split, lines)), np.int64, len(lines)) - 1
    short = np.flatnonzero(fields < 5)  # not even id, coordinates and count
    bad = int(short[0]) if short.size else len(lines)
    width = np.maximum(fields - 5, 0)
    start = np.r_[0, np.cumsum(width)]
    head = np.zeros(len(lines), _POINT_HEAD)
    obs = np.zeros(start[-1], np.int64)
    head["fields"] = fields
    for count in np.unique(fields[fields >= 5]).tolist():
        sel = np.flatnonzero(fields == count)
        rows, k = parse_group([lines[i] for i in sel.tolist()], layout("POINT", 1, 3, count - 4))
        if k is not None:
            bad = min(bad, int(sel[k]))
        sel = sel[: len(rows)]
        head["pid"][sel] = rows["i"][:, 0]
        head["xyz"][sel] = rows["f"]
        head["n_obs"][sel] = rows["j"][:, 0]
        obs[start[sel][:, None] + np.arange(count - 5)] = rows["j"][:, 1:]
    return (head[:bad], obs[: start[bad]]), (None if bad == len(lines) else bad)


def _bad_model_record(tag, text):
    """Why the record `text`, which its group's layout rejects, is bad."""
    tok = text.split()
    if tag == "POINT" and len(tok) >= 6 and parses([tok[5]], np.dtype(np.int64)):
        if len(tok) != 6 + 2 * int(tok[5]):
            return f"POINT record with {len(tok) - 1} fields, not 5 + 2 * n_obs"
    elif tag == "POINT" and len(tok) < 6:
        return f"POINT record with {len(tok) - 1} fields, not 5 + 2 * n_obs"
    elif tag == "CAMERA" and len(tok) - 1 != field_count(_CAMERA):
        return f"CAMERA record with {len(tok) - 1} fields"
    return f"non-numeric field in {tag} record"
