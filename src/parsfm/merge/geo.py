"""Geo-referencing with surveyed ground control points.

Control points pin the model to the survey frame (similarity alignment plus
a constrained BA); check points are held out and report per-axis residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..engine import Reconstruction, bundle_adjust
from ..geometry import (
    BaOptions,
    DegenerateGeometryError,
    EstimationFailure,
    triangulate,
    umeyama_similarity,
)
from .merging import transform_pose

_F = "%.17g"


@dataclass
class GcpRecord:
    gcp_id: int
    world: np.ndarray  # survey-frame coordinate, meters
    observations: list = field(default_factory=list)  # (image_id, pixel)
    role: str = "control"

    def __post_init__(self):
        self.world = np.asarray(self.world, dtype=float).reshape(3)
        if self.role not in ("control", "check"):
            raise ValueError(f"unknown GCP role {self.role!r}")


def write_gcps(path, gcps) -> None:
    lines = []
    for g in gcps:
        coords = " ".join(_F % v for v in g.world)
        lines.append(f"GCP {g.gcp_id} {coords} {g.role}")
    for g in gcps:
        for img, px in g.observations:
            vals = " ".join(_F % v for v in np.asarray(px, dtype=float))
            lines.append(f"GCPOBS {g.gcp_id} {img} {vals}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_gcps(path):
    gcps = {}
    with open(path) as fh:
        for line in fh:
            tok = line.split()
            if not tok:
                continue
            if tok[0] == "GCP":
                gid = int(tok[1])
                gcps[gid] = GcpRecord(
                    gid, [float(v) for v in tok[2:5]], [], tok[5]
                )
            elif tok[0] == "GCPOBS":
                gid = int(tok[1])
                gcps[gid].observations.append(
                    (int(tok[2]), np.array([float(tok[3]), float(tok[4])]))
                )
            else:
                raise ValueError(f"unknown record {tok[0]!r}")
    return [gcps[g] for g in sorted(gcps)]


@dataclass
class GeoReport:
    """Per-check-point absolute residuals (meters) and per-axis statistics."""

    residuals: list = field(default_factory=list)  # (gcp_id, |dx|, |dy|, |dz|)
    stats: dict = field(default_factory=dict)  # 'max'|'mean'|'std' -> 3-vector

    def format_table(self) -> str:
        rows = [f"{'CP':>6} {'|X| (m)':>12} {'|Y| (m)':>12} {'|Z| (m)':>12}"]
        for gid, dx, dy, dz in self.residuals:
            rows.append(f"{gid:>6} {dx:>12.6f} {dy:>12.6f} {dz:>12.6f}")
        for name in ("max", "mean", "std"):
            v = self.stats[name]
            rows.append(
                f"{name.capitalize():>6} {v[0]:>12.6f} {v[1]:>12.6f} {v[2]:>12.6f}"
            )
        return "\n".join(rows)


def triangulate_gcp(model: Reconstruction, gcp: GcpRecord, min_tri_angle_deg=1.0):
    """GCP position in the model frame from its image observations."""
    data = []
    for img, px in gcp.observations:
        if img in model.cameras:
            intr, pose = model.cameras[img]
            data.append((intr, pose, np.asarray(px, dtype=float)))
    if len(data) < 2:
        return None
    try:
        return triangulate(data, min_tri_angle_deg)
    except (DegenerateGeometryError, EstimationFailure):
        return None


def georeference(model: Reconstruction, gcps, features, ba_opts: BaOptions = None):
    """Map the model into the survey frame and refine with fixed controls.

    Returns (geo-referenced Reconstruction, GeoReport over check points).
    Raises ValueError with fewer than 3 triangulable control points and
    DegenerateGeometryError if they are collinear.
    """
    controls = [g for g in gcps if g.role == "control"]
    checks = [g for g in gcps if g.role == "check"]
    model_pos = {}
    for g in controls:
        X = triangulate_gcp(model, g)
        if X is not None:
            model_pos[g.gcp_id] = X
    usable = [g for g in controls if g.gcp_id in model_pos]
    if len(usable) < 3:
        raise ValueError(
            f"need >=3 triangulable control points, have {len(usable)}"
        )
    src = np.array([model_pos[g.gcp_id] for g in usable])
    dst = np.array([g.world for g in usable])
    T, _ = umeyama_similarity(src, dst)

    geo = model.copy()
    for img, (intr, pose) in geo.cameras.items():
        geo.cameras[img] = (intr, transform_pose(pose, T))
    for pid, (xyz, track) in geo.points.items():
        geo.points[pid] = (T.apply(xyz).reshape(3), track)

    # constrained BA: control coordinates are fixed anchors with their own
    # image observations; negative ids keep them clear of scene points
    anchors = [(-1 - g.gcp_id, g.world.copy(), g.observations) for g in usable]
    fixed = {pid for pid, _, _ in anchors}
    opts = replace(ba_opts or BaOptions(), fixed_point_ids=fixed, fixed_camera_ids=set())
    bundle_adjust(geo, features, opts, anchors)

    report = GeoReport()
    for g in checks:
        X = triangulate_gcp(geo, g)
        if X is not None:
            report.residuals.append((g.gcp_id, *np.abs(X - g.world).tolist()))
    d = np.array([r[1:] for r in report.residuals]).reshape(-1, 3)
    for name, stat in (("max", np.max), ("mean", np.mean), ("std", np.std)):
        report.stats[name] = stat(d, axis=0) if len(d) else np.zeros(3)
    return geo, report
