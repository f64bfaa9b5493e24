"""Incremental reconstruction: seed selection, registration loop, BA cadence."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import (
    BaOptions,
    CameraPose,
    DegenerateGeometryError,
    EstimationFailure,
    estimate_relative_pose,
    project_points,
    resect_camera,
    solve_bundle,
    triangulate,
)
from .reconstruction import Reconstruction
from .tracks import Track, build_tracks


@dataclass
class EngineOptions:
    min_tri_angle_deg: float = 2.0
    seed_min_angle_deg: float = 4.0
    min_resection_corrs: int = 15
    growth_ratio: float = 1.1
    ransac_threshold_px: float = 4.0
    max_reprojection_px: float = 4.0
    local_ba_iterations: int = 15
    global_ba_iterations: int = 30
    max_seed_attempts: int = 5
    rng_seed: int = 0

    def __post_init__(self):
        if self.growth_ratio <= 1.0:
            raise ValueError("growth_ratio must be > 1")
        if self.min_resection_corrs < 6:
            raise ValueError("resection needs at least 6 correspondences")


class SeedFailure(Exception):
    """Raised when no usable initial image pair exists."""


def _pair_pixels(pair, features):
    """(M,2,2) pixel pairs ordered (lower image id, higher image id)."""
    a, b = pair.key()
    m = pair.oriented(a)
    return np.stack(
        [features[a].keypoints[m[:, 0], :2], features[b].keypoints[m[:, 1], :2]],
        axis=1,
    )


def _median_angle_deg(pose2, intr1, intr2, pixels):
    """Median ray intersection angle of matches under (identity, pose2)."""
    n1 = intr1.normalize(pixels[:, 0])
    n2 = intr2.normalize(pixels[:, 1])
    d1 = np.hstack([n1, np.ones((len(n1), 1))])
    d1 /= np.linalg.norm(d1, axis=1, keepdims=True)
    d2 = np.hstack([n2, np.ones((len(n2), 1))]) @ pose2.rotation
    d2 /= np.linalg.norm(d2, axis=1, keepdims=True)
    cos = np.clip(np.abs(np.einsum("ni,ni->n", d1, d2)), 0.0, 1.0)
    return float(np.degrees(np.median(np.arccos(cos))))


def select_seed_pair(
    graph, features, intrinsics, opts: EngineOptions = None, rng=None, exclude=frozenset()
):
    """Pick the initial image pair and its relative pose.

    Candidates are edges ranked by inlier count (descending, ties by pair id);
    the first whose relative pose gives a median triangulation angle >=
    seed_min_angle wins. Pairs listed in `exclude` (previously tried seeds)
    are skipped. When every candidate is degenerate, the best-ranked one with
    a relative pose is returned anyway. Returns ((a, b), pose of b relative
    to a); raises SeedFailure when no candidate yields a relative pose.
    """
    opts = opts or EngineOptions()
    rng = np.random.default_rng(rng)
    if not graph.edges:
        raise SeedFailure("match graph has no edges")
    ranked = sorted(graph.edges, key=lambda k: (-graph.pair(*k).inlier_count, k))
    ranked = [k for k in ranked if tuple(k) not in exclude]
    if not ranked:
        raise SeedFailure("every seed candidate is excluded")
    fallback = None
    for a, b in ranked:
        pair = graph.pair(a, b)
        if pair.inlier_count < 8:
            continue
        pixels = _pair_pixels(pair, features)
        try:
            pose2, mask = estimate_relative_pose(
                pixels,
                intrinsics[a],
                intrinsics[b],
                threshold_px=opts.ransac_threshold_px,
                rng=rng,
            )
        except EstimationFailure:
            continue
        angle = _median_angle_deg(pose2, intrinsics[a], intrinsics[b], pixels[mask])
        if angle >= opts.seed_min_angle_deg:
            return (a, b), pose2
        if fallback is None:
            fallback = (a, b), pose2
    if fallback is None:
        raise SeedFailure("no seed candidate yields a relative pose")
    return fallback


class _Builder:
    """Mutable state of one incremental run."""

    def __init__(self, subset, features, pairs, intrinsics, opts, recon_id):
        self.features = features
        self.intrinsics = intrinsics
        self.opts = opts
        self.subset = set(subset)
        self.pairs = [
            p
            for p in pairs
            if p.image_id_a in self.subset and p.image_id_b in self.subset
        ]
        self.tracks = build_tracks(self.pairs)
        # active observations survive pruning; tracks themselves are immutable
        self.active = {t.point_id: list(t.observations) for t in self.tracks}
        self.by_image = {}
        for t in self.tracks:
            for img, kp in t.observations:
                self.by_image.setdefault(img, []).append((t.point_id, kp))
        self.poses = {}  # image_id -> CameraPose
        self.order = []
        self.X = {}  # track id -> xyz
        self.rng = np.random.default_rng(opts.rng_seed)
        self.recon_id = recon_id
        self.seed_key = None  # set once a seed pair is chosen

    # -- helpers ---------------------------------------------------------

    def _pixel(self, img, kp):
        return self.features[img].keypoints[kp, :2]

    def _registered_obs(self, tid):
        return [(i, k) for i, k in self.active[tid] if i in self.poses]

    def _try_triangulate(self, tid):
        obs = self._registered_obs(tid)
        if len(obs) < 2:
            return False
        data = [
            (self.intrinsics[i], self.poses[i], self._pixel(i, k)) for i, k in obs
        ]
        try:
            X = triangulate(data, self.opts.min_tri_angle_deg)
        except (DegenerateGeometryError, EstimationFailure):
            return False
        for intr, pose, px in data:
            proj, z = project_points(intr, pose, X.reshape(1, 3))
            if z[0] <= 0 or np.linalg.norm(proj[0] - px) > self.opts.max_reprojection_px:
                return False
        self.X[tid] = X
        return True

    def _visible_count(self, img):
        return sum(1 for tid, _ in self.by_image.get(img, []) if tid in self.X)

    def _ba(self, camera_ids, point_ids, fixed_cameras, max_iterations):
        cams = {i: self.poses[i] for i in camera_ids}
        intr = {i: self.intrinsics[i] for i in camera_ids}
        pts = {t: self.X[t] for t in point_ids}
        obs = []
        for tid in point_ids:
            for img, kp in self._registered_obs(tid):
                if img in cams:
                    obs.append((img, tid, self._pixel(img, kp)))
        opts = BaOptions(
            max_iterations=max_iterations, fixed_camera_ids=set(fixed_cameras)
        )
        solve_bundle(cams, intr, pts, obs, opts)
        self.poses.update(cams)
        self.X.update(pts)

    def _local_ba(self, new_img):
        pts = [tid for tid, _ in self.by_image.get(new_img, []) if tid in self.X]
        if not pts:
            return
        cams = {i for tid in pts for i, _ in self._registered_obs(tid)}
        self._ba(cams, pts, cams - {new_img}, self.opts.local_ba_iterations)

    def _global_ba(self):
        self._ba(set(self.poses), list(self.X), (), self.opts.global_ba_iterations)
        self._prune()
        # failed/pruned tracks get another chance once the geometry improved
        for t in self.tracks:
            if t.point_id not in self.X:
                self._try_triangulate(t.point_id)

    def _prune(self):
        thr = self.opts.max_reprojection_px
        if not self.X:
            return
        per_img = {}
        for tid in self.X:
            for img, kp in self.active[tid]:
                if img in self.poses:
                    per_img.setdefault(img, []).append((tid, kp))
        drop = set()
        for img, items in per_img.items():
            kps = np.array([k for _, k in items], dtype=int)
            Xs = np.array([self.X[t] for t, _ in items])
            proj, z = project_points(self.intrinsics[img], self.poses[img], Xs)
            px = self.features[img].keypoints[kps, :2]
            err = np.linalg.norm(proj - px, axis=1)
            for i in np.nonzero((z <= 0) | (err > thr))[0]:
                drop.add((items[i][0], img, int(kps[i])))
        for tid in {t for t, _, _ in drop}:
            self.active[tid] = [
                (i, k) for i, k in self.active[tid] if (tid, i, k) not in drop
            ]
        for tid in list(self.X):
            if len(self._registered_obs(tid)) < 2:
                del self.X[tid]

    # -- main loop -------------------------------------------------------

    def initialize(self, exclude=frozenset()):
        from ..matchgraph import MatchGraph

        g = MatchGraph()
        for p in self.pairs:
            if p.inlier_count >= 8:
                g.add_edge(*p.key(), 0.5, p)
        if not g.edges:
            raise SeedFailure("no image pair has enough matches to initialize")
        (a, b), pose2 = select_seed_pair(
            g, self.features, self.intrinsics, self.opts, rng=self.rng, exclude=exclude
        )
        self.seed_key = (a, b)
        self.poses[a] = CameraPose.identity()
        self.poses[b] = pose2
        self.order = [a, b]
        for t in self.tracks:
            self._try_triangulate(t.point_id)
        if len(self.X) < self.opts.min_resection_corrs:
            raise SeedFailure("seed pair yields too few triangulated points")
        self._ba(
            {a, b}, list(self.X), (), self.opts.global_ba_iterations
        )
        self._prune()

    def run(self, exclude=frozenset()):
        self.initialize(exclude)
        last_global = len(self.poses)
        failed_at = {}  # image -> visible count when registration last failed
        while True:
            best = None
            for img in sorted(self.subset - set(self.poses)):
                visible = self._visible_count(img)
                if visible < self.opts.min_resection_corrs:
                    continue
                if failed_at.get(img, -1) >= visible:
                    continue  # nothing changed since the last failure
                if best is None or visible > best[1]:
                    best = (img, visible)
            if best is None:
                break
            img, visible = best
            corrs = [
                (self.X[tid], self._pixel(img, kp))
                for tid, kp in self.by_image[img]
                if tid in self.X
            ]
            try:
                pose, _ = resect_camera(
                    corrs,
                    self.intrinsics[img],
                    threshold_px=self.opts.ransac_threshold_px,
                    rng=self.rng,
                )
            except EstimationFailure:
                failed_at[img] = visible
                continue
            self.poses[img] = pose
            self.order.append(img)
            for tid, _ in self.by_image[img]:
                if tid not in self.X:
                    self._try_triangulate(tid)
            self._local_ba(img)
            if len(self.poses) >= self.opts.growth_ratio * last_global:
                self._global_ba()
                last_global = len(self.poses)
        self._global_ba()
        return self._finish()

    def _finish(self):
        recon = Reconstruction(recon_id=self.recon_id)
        for img in self.poses:
            recon.cameras[img] = (self.intrinsics[img], self.poses[img])
        recon.registered_order = list(self.order)
        for tid in sorted(self.X):
            obs = sorted(self._registered_obs(tid))
            if len(obs) >= 2:
                recon.points[tid] = (self.X[tid], Track(tid, obs))
        return recon


def incremental_reconstruct(
    subset,
    metas,
    features,
    pairs,
    intrinsics,
    opts: EngineOptions = None,
    recon_id: int = 0,
) -> Reconstruction:
    """Reconstruct one image subset from its verified matches.

    A weakly conditioned seed pair can pass the angle gate yet triangulate
    points too loose to resect any further camera, stalling the run, or
    triangulate too few points to start at all; in either case the
    next-ranked seed pair is tried (up to max_seed_attempts), keeping the
    best result.

    Raises SeedFailure when no candidate pair is left or every attempt
    failed; images that repeatedly fail resection simply stay unregistered.
    """
    if not subset:
        raise ValueError("empty image subset")
    opts = opts or EngineOptions()
    tried = set()
    best = failure = None
    for _ in range(max(1, opts.max_seed_attempts)):
        builder = _Builder(subset, features, pairs, intrinsics, opts, recon_id)
        try:
            recon = builder.run(exclude=frozenset(tried))
        except SeedFailure as exc:
            if builder.seed_key is None:  # no candidate pair is left
                failure = failure or exc
                break
            failure = exc
            tried.add(builder.seed_key)
            continue
        if best is None or (recon.num_cameras(), recon.num_points()) > (
            best.num_cameras(),
            best.num_points(),
        ):
            best = recon
        reachable = len(builder.by_image)  # images holding at least one track
        if recon.num_cameras() >= min(reachable, max(3, 0.5 * reachable)):
            break
        tried.add(builder.seed_key)
    if best is None:
        raise failure
    return best
