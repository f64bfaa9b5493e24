"""Geo-referencing with surveyed ground control points.

Control points pin the model to the survey frame (similarity alignment plus
a constrained BA); check points are held out and report per-axis residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..engine import Reconstruction, bundle_adjust
from ..geometry import (
    DegenerateGeometryError,
    EstimationFailure,
    triangulate,
    umeyama_similarity,
)
from .merging import transform_pose

_F = "%.17g"
# narrowest ray angle a GCP position is triangulated from, degrees
GCP_MIN_TRI_ANGLE_DEG = 1.0
# tokens of each record, its name included
_GCP_TOKENS = {"GCP": 6, "GCPOBS": 5}


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
    """Parse a GCP file; a GCPOBS follows the GCP record it names. A
    malformed record raises ValueError starting with its 'path:line'."""
    gcps = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            tok = line.split()
            if not tok:
                continue
            kind, where = tok[0], f"{path}:{lineno}"
            if kind not in _GCP_TOKENS:
                raise ValueError(f"{where}: unknown record type {kind!r}")
            if len(tok) != _GCP_TOKENS[kind]:
                raise ValueError(f"{where}: {kind} record with {len(tok) - 1} fields")
            try:
                gid, values = int(tok[1]), [float(v) for v in tok[2:5]]
                img = int(tok[2]) if kind == "GCPOBS" else None
            except ValueError:
                raise ValueError(f"{where}: non-numeric field in {kind} record") from None
            if kind == "GCP":
                if gid in gcps:
                    raise ValueError(f"{where}: repeated GCP id {gid}")
                try:
                    gcps[gid] = GcpRecord(gid, values, [], tok[5])
                except ValueError as exc:  # an unknown role
                    raise ValueError(f"{where}: {exc}") from None
            elif gid not in gcps:
                raise ValueError(f"{where}: GCPOBS of GCP {gid} with no GCP record before it")
            else:
                gcps[gid].observations.append((img, np.array(values[1:])))
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


def triangulate_gcp(model: Reconstruction, gcp: GcpRecord):
    """GCP position in the model frame from its image observations."""
    data = []
    for img, px in gcp.observations:
        if img in model.cameras:
            intr, pose = model.cameras[img]
            data.append((intr, pose, np.asarray(px, dtype=float)))
    if len(data) < 2:
        return None
    try:
        return triangulate(data, GCP_MIN_TRI_ANGLE_DEG)
    except (DegenerateGeometryError, EstimationFailure):
        return None


def georeference(model: Reconstruction, gcps, features):
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
    bundle_adjust(geo, features, anchors)

    report = GeoReport()
    for g in checks:
        X = triangulate_gcp(geo, g)
        if X is not None:
            report.residuals.append((g.gcp_id, *np.abs(X - g.world).tolist()))
    d = np.array([r[1:] for r in report.residuals]).reshape(-1, 3)
    for name, stat in (("max", np.max), ("mean", np.mean), ("std", np.std)):
        report.stats[name] = stat(d, axis=0) if len(d) else np.zeros(3)
    return geo, report
