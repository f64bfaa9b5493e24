"""Cluster merging ordered by common-point count, plus the final global BA."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..engine import Track, bundle_adjust, mean_reprojection_error
from ..geometry import CameraPose, SimilarityTransform
from .common import feature_point_index, find_common_points
from .correspond import MatchTable, build_correspondence_graph, strategy_match_counts
from .ransac import DEFAULT_MERGE_THRESHOLD_PX, MergeFailure, ransac_similarity


@dataclass
class MergeOptions:
    threshold_px: float = DEFAULT_MERGE_THRESHOLD_PX
    rng_seed: int = 0


@dataclass
class MergeStep:
    cluster_index: int
    common_count: int
    inlier_count: int
    inlier_ratio: float
    mse: float
    loaded_match_counts: dict = field(default_factory=dict)


@dataclass
class MergeReport:
    steps: list = field(default_factory=list)
    dropped: list = field(default_factory=list)
    error_before_final_ba: float = 0.0
    error_after_final_ba: float = 0.0

    def summary(self) -> str:
        lines = ["merge order (cluster: common/inliers, mse):"]
        for s in self.steps:
            lines.append(
                f"  cluster {s.cluster_index}: {s.common_count}/{s.inlier_count}"
                f" (ratio {s.inlier_ratio:.3f}, mse {s.mse:.6g})"
            )
        if self.dropped:
            lines.append(f"dropped clusters: {sorted(self.dropped)}")
        lines.append(
            f"final BA mean reprojection: {self.error_before_final_ba:.6g}"
            f" -> {self.error_after_final_ba:.6g} px"
        )
        return "\n".join(lines)


def transform_pose(pose: CameraPose, T: SimilarityTransform) -> CameraPose:
    """Camera pose re-expressed after the world similarity x' = sRx + t."""
    R = pose.rotation @ T.rotation.T
    t = T.scale * pose.translation - R @ T.translation
    return CameraPose(R, t)


def merge_pair(global_model, cluster, T, inlier_pairs):
    """Fold one cluster into the global model (in place) through transform T.

    inlier_pairs: (cluster point_id, global point_id) fusions; the global
    point keeps its position and absorbs the cluster observations. Cameras
    already registered globally stay as they are.
    """
    fused = dict(inlier_pairs)
    for img in cluster.registered_order:
        if img in global_model.cameras:
            continue
        intr, pose = cluster.cameras[img]
        global_model.cameras[img] = (intr, transform_pose(pose, T))
        global_model.registered_order.append(img)

    next_pid = global_model.next_point_id()
    for spid in sorted(cluster.points):
        xyz, track = cluster.points[spid]
        if spid in fused:
            gxyz, gtrack = global_model.points[fused[spid]]
            have = {img for img, _ in gtrack.observations}
            extra = [
                (img, kp)
                for img, kp in track.observations
                if img not in have and img in global_model.cameras
            ]
            if extra:
                gtrack.observations = sorted(gtrack.observations + extra)
        else:
            obs = [
                (img, kp)
                for img, kp in track.observations
                if img in global_model.cameras
            ]
            if len(obs) < 2:
                continue
            global_model.points[next_pid] = (
                T.apply(xyz).reshape(3),
                Track(next_pid, sorted(obs)),
            )
            next_pid += 1
    return global_model


def _evaluate_cluster(model, model_index, cluster, table):
    """Common points of a cluster against the model, with the smaller
    reconstruction as traversal source. model_index is the model's
    `feature_point_index`. Returns (common, cluster_is_source, strategy
    counts)."""
    if cluster.num_cameras() <= model.num_cameras():
        source, reference, forward = cluster, model, True
    else:
        source, reference, forward = model, cluster, False
    cg = build_correspondence_graph(source, reference, table)
    common = find_common_points(cg, source, reference, model_index if forward else None)
    counts = strategy_match_counts(source, reference, table)
    assert cg.loaded_match_count == counts["on_demand"]
    return common, forward, counts


def merge_all(global_model, clusters, features, match_pairs, opts: MergeOptions = None):
    """Merge every cluster into the global model, largest common count first.

    Clusters that fail alignment are retried after the model grows; when a
    whole pass yields no merge the remainder is dropped and reported.
    Returns (merged Reconstruction, MergeReport); the input model is copied.
    """
    opts = opts or MergeOptions()
    model = global_model.copy()
    rng = np.random.default_rng(opts.rng_seed)
    remaining = dict(enumerate(clusters))
    report = MergeReport()
    table = MatchTable.from_pairs(match_pairs)

    while remaining:
        # the model changes only when a cluster merges, so once per pass
        model_index = feature_point_index(model)
        candidates = []
        for idx in sorted(remaining):
            common, forward, counts = _evaluate_cluster(
                model, model_index, remaining[idx], table
            )
            candidates.append((idx, common, forward, counts))
        candidates.sort(key=lambda c: (-len(c[1]), c[0]))
        merged = False
        for idx, common, forward, counts in candidates:
            cluster = remaining[idx]
            source, reference = (cluster, model) if forward else (model, cluster)
            try:
                T, mask, mse = ransac_similarity(
                    common,
                    source,
                    reference,
                    features,
                    threshold_px=opts.threshold_px,
                    rng=rng,
                )
            except MergeFailure:
                continue
            inliers = [p for p, keep in zip(common.pairs, mask) if keep]
            if not forward:
                T = T.inverse()
                inliers = [(r, s) for s, r in inliers]
            merge_pair(model, cluster, T, inliers)
            report.steps.append(
                MergeStep(
                    cluster_index=idx,
                    common_count=len(common),
                    inlier_count=int(mask.sum()),
                    inlier_ratio=float(mask.sum()) / max(len(common), 1),
                    mse=mse,
                    loaded_match_counts=counts,
                )
            )
            del remaining[idx]
            merged = True
            break
        if not merged:
            report.dropped = sorted(remaining)
            break

    del table  # the final BA sets the peak memory
    report.error_before_final_ba = mean_reprojection_error(model, features)
    bundle_adjust(model, features)
    report.error_after_final_ba = mean_reprojection_error(model, features)
    return model, report
