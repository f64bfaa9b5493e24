"""Deterministic synthetic aerial datasets with known ground truth.

Scene: random points on a flat ground patch plus box-shaped "buildings".
Camera patterns: serpentine nadir survey, a 5-view oblique rig (one nadir
view plus four views pitched outward), or an orbit circle. Matches are
emitted directly (keypoint index pairs of co-visible world points), so the
downstream pipeline skips retrieval/verification for generated data; per-
point descriptors can optionally be emitted to exercise the retrieval path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import CameraIntrinsics, CameraPose, matrix_to_quaternion, project_points
from ..matchgraph import FeatureSet, ImageMeta, MatchPair
from ..matchgraph.dataset import Dataset, write_dataset
from ..merge import GcpRecord, write_gcps

_F = "%.17g"
# tokens of each ground-truth record, its name included
_GT_TOKENS = {"GTCAM": 9, "GTPOINT": 5}
FLYING_HEIGHT = 80.0  # meters above the ground patch
RIG_PITCH_DEG = 45.0  # outward pitch of the four oblique views of a rig
IMAGE_WIDTH, IMAGE_HEIGHT = 1200, 900  # pixels
FOCAL_PX = 1100.0
DESCRIPTOR_DIM = 16
MIN_SHARED_POINTS = 15  # co-visible points an image pair needs to be matched


@dataclass
class SynthConfig:
    image_count: int = 40
    pattern: str = "nadir"  # nadir | oblique | orbit
    grid_extent: float = 100.0  # square ground patch side, meters
    building_count: int = 8
    point_count: int = 2000
    pixel_noise: float = 0.0
    outlier_rate: float = 0.0
    gcp_count: int = 0
    seed: int = 0
    emit_descriptors: bool = False
    # keep the match graph sparse, like real aerial blocks: images pair up
    # only with nearby stations, and very dense overlaps are subsampled
    max_pair_distance: float = None  # meters between camera centers
    max_matches_per_pair: int = 400

    def __post_init__(self):
        if self.image_count < 2:
            raise ValueError("image_count must be >= 2")
        if self.pattern not in ("nadir", "oblique", "orbit"):
            raise ValueError(f"unknown camera pattern {self.pattern!r}")
        if not (0.0 <= self.outlier_rate < 1.0):
            raise ValueError("outlier_rate must lie in [0, 1)")


def _scene_points(cfg: SynthConfig, rng) -> np.ndarray:
    half = cfg.grid_extent / 2.0
    n_ground = int(cfg.point_count * 0.6)
    n_building = cfg.point_count - n_ground
    ground = np.column_stack(
        [
            rng.uniform(-half, half, n_ground),
            rng.uniform(-half, half, n_ground),
            np.zeros(n_ground),
        ]
    )
    boxes = []
    for _ in range(cfg.building_count):
        cx, cy = rng.uniform(-0.8 * half, 0.8 * half, 2)
        sx, sy = rng.uniform(5.0, 15.0, 2)
        h = rng.uniform(6.0, 25.0)
        boxes.append((cx, cy, sx, sy, h))
    pts = [ground]
    if cfg.building_count and n_building:
        per = np.full(cfg.building_count, n_building // cfg.building_count)
        per[: n_building % cfg.building_count] += 1
        for (cx, cy, sx, sy, h), k in zip(boxes, per):
            face = rng.integers(0, 5, k)  # 0 roof, 1..4 walls
            u = rng.uniform(-0.5, 0.5, k)
            v = rng.uniform(0.0, 1.0, k)
            x = np.empty(k)
            y = np.empty(k)
            z = np.empty(k)
            roof = face == 0
            x[roof] = cx + u[roof] * sx
            y[roof] = cy + (v[roof] - 0.5) * sy
            z[roof] = h
            for f, (dx, dy) in zip(range(1, 5), [(1, 0), (-1, 0), (0, 1), (0, -1)]):
                m = face == f
                x[m] = cx + (dx * 0.5) * sx + (dy != 0) * u[m] * sx
                y[m] = cy + (dy * 0.5) * sy + (dx != 0) * u[m] * sy
                z[m] = v[m] * h
            pts.append(np.column_stack([x, y, z]))
    return np.vstack(pts)


def _look_at(eye, target, up=(0.0, 1.0, 0.0)):
    eye = np.asarray(eye, dtype=float)
    fwd = np.asarray(target, dtype=float) - eye
    fwd = fwd / np.linalg.norm(fwd)
    up = np.asarray(up, dtype=float)
    right = np.cross(fwd, up)
    if np.linalg.norm(right) < 1e-9:
        right = np.cross(fwd, np.array([1.0, 0.0, 0.0]))
    right /= np.linalg.norm(right)
    down = np.cross(fwd, right)
    R = np.stack([right, down, fwd])
    return CameraPose(R, -R @ eye)


def _serpentine_positions(n, extent, height):
    """Back-and-forth survey rows over the patch."""
    rows = max(1, int(np.ceil(np.sqrt(n * 0.75))))
    cols = int(np.ceil(n / rows))
    xs = np.linspace(-0.45 * extent, 0.45 * extent, cols)
    ys = np.linspace(-0.45 * extent, 0.45 * extent, rows)
    out = []
    for r, y in enumerate(ys):
        order = xs if r % 2 == 0 else xs[::-1]
        for x in order:
            out.append(np.array([x, y, height]))
            if len(out) == n:
                return out
    return out


def _camera_poses(cfg: SynthConfig):
    n = cfg.image_count
    h = FLYING_HEIGHT
    if cfg.pattern == "nadir":
        return [
            _look_at(p, p - np.array([0.0, 0.0, h]))
            for p in _serpentine_positions(n, cfg.grid_extent, h)
        ]
    if cfg.pattern == "orbit":
        r = 0.7 * cfg.grid_extent
        poses = []
        for k in range(n):
            a = 2 * np.pi * k / n
            eye = np.array([r * np.cos(a), r * np.sin(a), h])
            poses.append(_look_at(eye, np.zeros(3), up=(0.0, 0.0, 1.0)))
        return poses
    # oblique: 5-view rig (nadir + 4 views pitched outward) per station
    stations = _serpentine_positions(
        int(np.ceil(n / 5)), cfg.grid_extent, h
    )
    reach = h * np.tan(np.deg2rad(RIG_PITCH_DEG))
    offsets = [
        np.zeros(3),
        np.array([reach, 0.0, 0.0]),
        np.array([-reach, 0.0, 0.0]),
        np.array([0.0, reach, 0.0]),
        np.array([0.0, -reach, 0.0]),
    ]
    poses = []
    for p in stations:
        for off in offsets:
            target = p - np.array([0.0, 0.0, h]) + off
            poses.append(_look_at(p, target))
            if len(poses) == n:
                return poses
    return poses


def generate_synthetic(cfg: SynthConfig):
    """Build the dataset in memory.

    Returns (Dataset, ground_truth dict, gcps, visibility) where ground_truth
    holds poses/points, and visibility maps image_id -> {point id: kp idx}.
    """
    rng = np.random.default_rng(cfg.seed)
    points = _scene_points(cfg, rng)
    poses = _camera_poses(cfg)
    intr = CameraIntrinsics(
        FOCAL_PX, FOCAL_PX, IMAGE_WIDTH / 2.0, IMAGE_HEIGHT / 2.0, IMAGE_WIDTH, IMAGE_HEIGHT
    )
    desc_world = rng.normal(size=(len(points), DESCRIPTOR_DIM))
    desc_world /= np.linalg.norm(desc_world, axis=1, keepdims=True)

    dataset = Dataset()
    visibility = {}
    gt_poses = {}
    for img, pose in enumerate(poses):
        uv, z = project_points(intr, pose, points)
        vis = (
            (z > 1.0)
            & (uv[:, 0] >= 0)
            & (uv[:, 0] < IMAGE_WIDTH)
            & (uv[:, 1] >= 0)
            & (uv[:, 1] < IMAGE_HEIGHT)
        )
        ids = np.nonzero(vis)[0]
        px = uv[ids]
        if cfg.pixel_noise:
            px = px + rng.normal(0.0, cfg.pixel_noise, px.shape)
        scales = rng.uniform(1.0, 4.0, len(ids))
        kp = np.column_stack([px, scales])
        if cfg.emit_descriptors:
            desc = desc_world[ids] + rng.normal(0.0, 0.02, (len(ids), DESCRIPTOR_DIM))
            desc /= np.linalg.norm(desc, axis=1, keepdims=True)
        else:
            desc = np.zeros((len(ids), 0))
        dataset.metas[img] = ImageMeta(img, IMAGE_WIDTH, IMAGE_HEIGHT)
        dataset.features[img] = FeatureSet(img, kp, desc)
        dataset.intrinsics[img] = intr
        visibility[img] = {int(p): k for k, p in enumerate(ids)}
        gt_poses[img] = pose

    centers = [pose.center() for pose in poses]
    for a in range(len(poses)):
        for b in range(a + 1, len(poses)):
            if (
                cfg.max_pair_distance is not None
                and np.linalg.norm(centers[a] - centers[b]) > cfg.max_pair_distance
            ):
                continue
            shared = sorted(set(visibility[a]) & set(visibility[b]))
            if len(shared) < MIN_SHARED_POINTS:
                continue
            if len(shared) > cfg.max_matches_per_pair:
                keep = rng.choice(
                    len(shared), cfg.max_matches_per_pair, replace=False
                )
                shared = [shared[k] for k in sorted(keep)]
            m = np.array(
                [[visibility[a][p], visibility[b][p]] for p in shared], dtype=int
            )
            if cfg.outlier_rate:
                n_bad = int(round(cfg.outlier_rate * len(m)))
                if n_bad:
                    bad = rng.choice(len(m), n_bad, replace=False)
                    m[bad, 1] = rng.integers(
                        0, len(dataset.features[b]), n_bad
                    )
            dataset.pairs.append(MatchPair(a, b, m))

    gcps = []
    if cfg.gcp_count:
        half = cfg.grid_extent / 2.0
        marks = np.column_stack(
            [
                rng.uniform(-0.7 * half, 0.7 * half, cfg.gcp_count),
                rng.uniform(-0.7 * half, 0.7 * half, cfg.gcp_count),
                np.zeros(cfg.gcp_count),
            ]
        )
        for gid, world in enumerate(marks):
            obs = []
            for img, pose in gt_poses.items():
                uv, z = project_points(intr, pose, world)
                if z[0] <= 1.0:
                    continue
                u, v = uv[0]
                if 0 <= u < IMAGE_WIDTH and 0 <= v < IMAGE_HEIGHT:
                    px = uv[0]
                    if cfg.pixel_noise:
                        px = px + rng.normal(0.0, cfg.pixel_noise, 2)
                    obs.append((img, px))
            role = "control" if gid < 3 else "check"
            gcps.append(GcpRecord(gid, world, obs, role))

    ground_truth = {
        "poses": gt_poses,
        "points": {int(i): points[i] for i in range(len(points))},
    }
    return dataset, ground_truth, gcps, visibility


def write_ground_truth(path, ground_truth) -> None:
    lines = []
    for img in sorted(ground_truth["poses"]):
        pose = ground_truth["poses"][img]
        q = matrix_to_quaternion(pose.rotation)
        vals = " ".join(_F % v for v in (*q, *pose.translation))
        lines.append(f"GTCAM {img} {vals}")
    for pid in sorted(ground_truth["points"]):
        coords = " ".join(_F % v for v in ground_truth["points"][pid])
        lines.append(f"GTPOINT {pid} {coords}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_ground_truth(path):
    """Inverse of write_ground_truth. A malformed record raises ValueError
    starting with its 'path:line'."""
    from ..geometry import quaternion_to_matrix

    poses, points = {}, {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            tok = line.split()
            if not tok:
                continue
            kind, where = tok[0], f"{path}:{lineno}"
            if kind not in _GT_TOKENS:
                raise ValueError(f"{where}: unknown record type {kind!r}")
            if len(tok) != _GT_TOKENS[kind]:
                raise ValueError(f"{where}: {kind} record with {len(tok) - 1} fields")
            try:
                key, values = int(tok[1]), np.array([float(v) for v in tok[2:]])
            except ValueError:
                raise ValueError(f"{where}: non-numeric field in {kind} record") from None
            if kind == "GTCAM":
                poses[key] = CameraPose(quaternion_to_matrix(values[:4]), values[4:])
            else:
                points[key] = values
    return {"poses": poses, "points": points}


def write_synthetic(cfg: SynthConfig, dataset_path, ground_truth_path, gcp_path=None):
    """Generate and dump the dataset, ground truth, and optional GCP file."""
    dataset, ground_truth, gcps, _ = generate_synthetic(cfg)
    write_dataset(dataset_path, dataset)
    write_ground_truth(ground_truth_path, ground_truth)
    if gcp_path is not None and gcps:
        write_gcps(gcp_path, gcps)
    return dataset, ground_truth, gcps
