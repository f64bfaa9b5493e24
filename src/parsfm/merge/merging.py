"""Cluster merging ordered by common-point count, plus the final global BA."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..engine import Reconstruction, Track, bundle_adjust, mean_reprojection_error
from ..geometry import CameraPose, SimilarityTransform
from .columns import Columns
from .common import find_common_points
from .correspond import MatchTable, build_correspondence_graph, pair_masks, strategy_match_counts
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


class Model(Columns):
    """The growing merge model as columns, with copies of the input's
    cameras and registered order."""

    def __init__(self, recon):
        super().__init__(recon)
        self.cameras, self.registered_order = dict(self.cameras), list(self.registered_order)
        self.recon_id = recon.recon_id

    def merge(self, cluster: Columns, T, inlier_pairs):
        """Fold a cluster into the model through the similarity T, taking
        the cluster points in id order.

        inlier_pairs: (cluster point id, model point id) fusions, the last
        pair of a cluster point counting. A fused model point keeps its
        position and takes the cluster point's observations in registered
        images it does not see yet. Each other cluster point with two or
        more observations in registered images becomes a new point, with the
        next free id. Cameras the model holds stay as they are. A track that
        grows is sorted, and so is a new one.
        """
        for img in cluster.registered_order:
            if img not in self.cameras:
                intr, pose = cluster.cameras[img]
                self.cameras[img] = (intr, transform_pose(pose, T))
                self.registered_order.append(img)
        fused = dict(inlier_pairs)
        target = np.full(len(cluster.pids), -1)
        target[cluster.rows_of(list(fused))] = self.rows_of(list(fused.values()))
        rank = np.argsort(np.argsort(cluster.pids))  # of each row in id order
        seen = np.flatnonzero(np.isin(cluster.image, np.fromiter(self.cameras, np.int64)))
        seen = seen[np.argsort(rank[cluster.row[seen]], kind="stable")]
        row, image, keypoint = cluster.row[seen], cluster.image[seen], cluster.keypoint[seen]
        to = target[row]
        fuse = to >= 0

        # per (model point, image), the first cluster observation, unless
        # the model point sees that image already
        targets = np.unique(to[fuse])
        owner, have, _ = self.observations(targets)
        key = to[fuse] << 32 | image[fuse]
        first = np.unique(key, return_index=True)[1]
        first = first[~np.isin(key[first], targets[owner] << 32 | have)]
        extra = [col[fuse][first] for col in (to, image, keypoint)]

        # the other cluster points with two or more such observations
        n_obs = np.bincount(row[~fuse], minlength=len(cluster.pids))
        new = np.flatnonzero(n_obs >= 2)
        new = new[np.argsort(rank[new])]
        new_row = np.full(len(cluster.pids), -1)
        new_row[new] = len(self.pids) + np.arange(len(new))
        add = ~fuse & (n_obs[row] >= 2)
        added = [new_row[row[add]], image[add], keypoint[add]]

        # the tracks that grow are sorted with their new observations
        grows = np.zeros(len(self.pids), bool)
        grows[extra[0]] = True
        keep = ~grows[self.row]
        columns = self.row, self.image, self.keypoint
        moved = [np.r_[col[~keep], e, a] for col, e, a in zip(columns, extra, added)]
        by_track = np.lexsort(moved[::-1])
        obs = [np.r_[col[keep], m[by_track]] for col, m in zip(columns, moved)]
        by_row = np.argsort(obs[0], kind="stable")
        self.pids = np.r_[self.pids, self.pids.max(initial=-1) + 1 + np.arange(len(new))]
        self.xyz = np.vstack([self.xyz, T.apply_each(cluster.xyz[new])])
        self.set_observations(*(col[by_row] for col in obs))

    def reconstruction(self) -> Reconstruction:
        """The model as a dict Reconstruction, points in row order."""
        images, at = np.unique(self.image, return_inverse=True)
        images = images.tolist()  # one int object per image id and keypoint
        keypoints = list(range(self.keypoint.max(initial=-1) + 1))
        obs = list(zip(
            map(images.__getitem__, at.tolist()),
            map(keypoints.__getitem__, self.keypoint.tolist()),
        ))
        pids, ends = self.pids.tolist(), self.start.tolist()
        tracks = map(Track, pids, map(obs.__getitem__, map(slice, ends[:-1], ends[1:])))
        points = dict(zip(pids, zip(self.xyz, tracks)))
        return Reconstruction(self.recon_id, self.cameras, points, self.registered_order)


def _evaluate(model, cluster, table):
    """Common points of a cluster against the model, with the smaller
    reconstruction as traversal source. Returns (common, cluster_is_source,
    strategy counts)."""
    if cluster.num_cameras() <= model.num_cameras():
        source, reference, forward = cluster, model, True
    else:
        source, reference, forward = model, cluster, False
    masks = pair_masks(source, reference, table)
    cg = build_correspondence_graph(table, masks)
    common = find_common_points(cg, source, reference)
    return common, forward, strategy_match_counts(masks)


def _merge_next(model, remaining, table, features, opts, rng):
    """One pass: evaluate every remaining cluster, then merge the first one
    that aligns, largest common count first, and drop it from `remaining`.
    Returns its MergeStep, or None when no cluster aligns."""
    candidates = [(idx, *_evaluate(model, remaining[idx], table)) for idx in sorted(remaining)]
    candidates.sort(key=lambda c: (-len(c[1]), c[0]))
    for idx, common, forward, counts in candidates:
        cluster = remaining[idx]
        source, reference = (cluster, model) if forward else (model, cluster)
        try:
            T, mask, mse = ransac_similarity(
                common, source, reference, features, threshold_px=opts.threshold_px, rng=rng
            )
        except MergeFailure:
            continue
        inliers = [p for p, keep in zip(common.pairs, mask) if keep]
        if not forward:
            T = T.inverse()
            inliers = [(r, s) for s, r in inliers]
        model.merge(cluster, T, inliers)
        del remaining[idx]
        return MergeStep(
            cluster_index=idx,
            common_count=len(common),
            inlier_count=int(mask.sum()),
            inlier_ratio=float(mask.sum()) / max(len(common), 1),
            mse=mse,
            loaded_match_counts=counts,
        )
    return None


def merge_all(global_model, clusters, features, match_pairs, opts: MergeOptions = None):
    """Merge every cluster into the global model, largest common count first.

    Clusters that fail alignment are retried after the model grows; when a
    whole pass yields no merge the remainder is dropped and reported. The
    model and clusters are merged as columns (`Model`, `Columns`), and the
    merged model becomes a dict Reconstruction before the final BA.
    Returns (merged Reconstruction, MergeReport); the inputs stay as they are.
    """
    opts = opts or MergeOptions()
    model = Model(global_model)
    rng = np.random.default_rng(opts.rng_seed)
    table = MatchTable.from_pairs(match_pairs)
    remaining = {idx: Columns(cluster) for idx, cluster in enumerate(clusters)}
    report = MergeReport()
    while remaining:
        step = _merge_next(model, remaining, table, features, opts, rng)
        if step is None:
            break
        report.steps.append(step)
    report.dropped = sorted(remaining)

    del table, remaining
    merged = model.reconstruction()
    del model  # the final BA sets the peak memory
    report.error_before_final_ba = mean_reprojection_error(merged, features)
    bundle_adjust(merged, features)
    report.error_after_final_ba = mean_reprojection_error(merged, features)
    return merged, report
