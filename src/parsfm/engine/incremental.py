"""Incremental reconstruction: seed selection, registration loop, BA cadence."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import (
    BaOptions,
    CameraPose,
    EstimationFailure,
    estimate_relative_pose,
    pinhole,
    resect_camera,
    solve_bundle,
)
from ..geometry.twoview import TRI_OK, triangulate_tracks, widest_ray_angle
from .reconstruction import Reconstruction, keypoint_pixels
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
    n = np.stack([intr1.normalize(pixels[:, 0]), intr2.normalize(pixels[:, 1])], axis=1)
    R = np.broadcast_to([np.eye(3), pose2.rotation], (len(n), 2, 3, 3))
    return float(np.degrees(np.median(widest_ray_angle(n, R))))


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
    """Mutable state of one incremental run.

    Tracks live in one observation table, a row per observation sorted by
    track, then image: track id, camera (index into `images`), keypoint,
    pixel, and the `active` flag that pruning clears. `by_image` lists the
    rows by camera, track order within one, camera c's from image_start[c].
    A track's point is X[track] where `valid` is set; `seq` numbers the
    points in the order they were triangulated, the order of the
    observations in a full BA.
    """

    def __init__(self, subset, features, pairs, intrinsics, opts, recon_id):
        self.features, self.intrinsics, self.opts = features, intrinsics, opts
        members = set(subset)
        self.images = np.array(sorted(members), dtype=np.int64)
        self.pairs = [p for p in pairs if p.image_id_a in members and p.image_id_b in members]
        tracks = build_tracks(self.pairs)
        self.obs_track = np.repeat(np.arange(len(tracks)), [len(t.observations) for t in tracks])
        flat = np.array([obs for t in tracks for obs in t.observations], dtype=np.int64)
        image, self.obs_kp = flat.reshape(-1, 2).T
        self.obs_cam = np.searchsorted(self.images, image)
        self.obs_px = keypoint_pixels(features, image, self.obs_kp)
        self.active = np.ones(len(image), dtype=bool)
        self.by_image = np.argsort(self.obs_cam, kind="stable")
        n = len(self.images)
        self.image_start = np.searchsorted(self.obs_cam[self.by_image], np.arange(n + 1))
        self.reachable = np.count_nonzero(np.diff(self.image_start))  # images holding a track
        self.registered = np.zeros(n, dtype=bool)
        self.K, self.R, self.t = np.zeros((n, 4)), np.zeros((n, 3, 3)), np.zeros((n, 3))
        self.X = np.zeros((len(tracks), 3))
        self.valid = np.zeros(len(tracks), dtype=bool)
        self.seq = np.zeros(len(tracks), dtype=np.int64)
        self.poses = {}  # image_id -> CameraPose
        self.order = []
        self.rng = np.random.default_rng(opts.rng_seed)
        self.recon_id = recon_id
        self.seed_key = None  # set once a seed pair is chosen

    # -- helpers ---------------------------------------------------------

    def _set_poses(self, poses):
        self.poses.update(poses)
        cam = np.searchsorted(self.images, list(poses))
        self.registered[cam] = True
        self.K[cam] = [self.intrinsics[i].pinhole_terms for i in poses]
        self.R[cam] = [pose.rotation for pose in poses.values()]
        self.t[cam] = [pose.translation for pose in poses.values()]

    def _image_rows(self, cam):
        return self.by_image[self.image_start[cam] : self.image_start[cam + 1]]

    def _seen_by(self, cam):
        """Mask of the tracks with a row in camera cam."""
        mask = np.zeros(len(self.valid), dtype=bool)
        mask[self.obs_track[self._image_rows(cam)]] = True
        return mask

    def _usable_rows(self, tracks):
        """Active rows in registered cameras of the tracks in the mask."""
        return np.flatnonzero(tracks[self.obs_track] & self.active & self.registered[self.obs_cam])

    def _triangulate(self, tracks):
        """Triangulate the tracks of the mask (none has a point) that have two
        or more usable rows; those that pass every check get a point."""
        rows = self._usable_rows(tracks)
        tid, count = np.unique(self.obs_track[rows], return_counts=True)
        rows = rows[np.repeat(count >= 2, count)]
        tid, count = tid[count >= 2], count[count >= 2]
        cam = self.obs_cam[rows]
        X, status = triangulate_tracks(
            count, self.K[cam], self.R[cam], self.t[cam], self.obs_px[rows],
            self.opts.min_tri_angle_deg, self.opts.max_reprojection_px,
        )
        new = tid[status == TRI_OK]
        self.X[new] = X[status == TRI_OK]
        self.valid[new] = True
        self.seq[new] = self.seq.max(initial=0) + 1 + np.arange(len(new))

    def _ba(self, cams, rows, fixed_cameras, max_iterations):
        """BA of the cameras cams over the observation rows and their points."""
        images = self.images[cams].tolist()
        tracks = np.unique(self.obs_track[rows])
        cameras = {i: self.poses[i] for i in images}
        points = dict(zip(tracks.tolist(), self.X[tracks]))
        obs = (self.images[self.obs_cam[rows]], self.obs_track[rows], self.obs_px[rows])
        opts = BaOptions(max_iterations=max_iterations, fixed_camera_ids=set(fixed_cameras))
        solve_bundle(cameras, {i: self.intrinsics[i] for i in images}, points, obs, opts)
        self._set_poses(cameras)
        self.X[tracks] = list(points.values())

    def _local_ba(self, cam):
        rows = self._usable_rows(self._seen_by(cam) & self.valid)
        if len(rows):
            cams = np.unique(self.obs_cam[rows])
            fixed = self.images[cams[cams != cam]].tolist()
            self._ba(cams, rows, fixed, self.opts.local_ba_iterations)

    def _full_ba(self):
        """Every registered camera and every point, the observations in the
        order their points were triangulated."""
        rows = self._usable_rows(self.valid)
        rows = rows[np.argsort(self.seq[self.obs_track[rows]], kind="stable")]
        self._ba(np.flatnonzero(self.registered), rows, (), self.opts.global_ba_iterations)

    def _global_ba(self):
        self._full_ba()
        self._prune()
        # failed/pruned tracks get another chance once the geometry improved
        self._triangulate(~self.valid)

    def _prune(self):
        """Deactivate the usable rows that reproject badly, then drop the
        points left with fewer than two usable rows."""
        rows = self._usable_rows(self.valid)
        cam = self.obs_cam[rows]
        world = self.X[self.obs_track[rows], :, None]
        proj, z = pinhole(np.matmul(self.R[cam], world)[..., 0] + self.t[cam], *self.K[cam].T)
        err = np.linalg.norm(proj - self.obs_px[rows], axis=1)
        self.active[rows[(z <= 0) | (err > self.opts.max_reprojection_px)]] = False
        tracks = self.obs_track[self._usable_rows(self.valid)]
        self.valid &= np.bincount(tracks, minlength=len(self.valid)) >= 2

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
        self._set_poses({a: CameraPose.identity(), b: pose2})
        self.order = [a, b]
        self._triangulate(np.ones(len(self.valid), dtype=bool))
        if self.valid.sum() < self.opts.min_resection_corrs:
            raise SeedFailure("seed pair yields too few triangulated points")
        self._full_ba()
        self._prune()

    def run(self, exclude=frozenset()):
        self.initialize(exclude)
        last_global = len(self.poses)
        n = len(self.images)
        failed_at = np.full(n, -1)  # visible count at the last failure
        while True:
            visible = np.bincount(self.obs_cam[self.valid[self.obs_track]], minlength=n)
            # skip a camera whose visible count has not grown since it failed
            ready = (visible >= self.opts.min_resection_corrs) & (visible > failed_at)
            ready &= ~self.registered
            if not ready.any():
                break
            cam = int(np.argmax(np.where(ready, visible, -1)))  # lowest image id on a tie
            img = int(self.images[cam])
            rows = self._image_rows(cam)
            rows = rows[self.valid[self.obs_track[rows]]]
            try:
                pose, _ = resect_camera(
                    list(zip(self.X[self.obs_track[rows]], self.obs_px[rows])),
                    self.intrinsics[img],
                    threshold_px=self.opts.ransac_threshold_px,
                    rng=self.rng,
                )
            except EstimationFailure:
                failed_at[cam] = visible[cam]
                continue
            self._set_poses({img: pose})
            self.order.append(img)
            self._triangulate(self._seen_by(cam) & ~self.valid)
            self._local_ba(cam)
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
        rows = self._usable_rows(self.valid)
        tid, start, count = np.unique(self.obs_track[rows], return_index=True, return_counts=True)
        obs = list(zip(self.images[self.obs_cam[rows]].tolist(), self.obs_kp[rows].tolist()))
        for t, lo, n in zip(tid.tolist(), start.tolist(), count.tolist()):
            if n >= 2:
                recon.points[t] = (self.X[t].copy(), Track(t, obs[lo : lo + n]))
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
        reachable = builder.reachable
        if recon.num_cameras() >= min(reachable, max(3, 0.5 * reachable)):
            break
        tried.add(builder.seed_key)
    if best is None:
        raise failure
    return best
