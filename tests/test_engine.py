import numpy as np
import pytest

from parsfm.engine import (
    EngineOptions,
    Reconstruction,
    Track,
    build_tracks,
    bundle_adjust,
    incremental_reconstruct,
    mean_reprojection_error,
    read_reconstruction,
    select_seed_pair,
    validate_reconstruction,
    write_reconstruction,
)
import parsfm.engine.incremental as incremental
from parsfm.engine.incremental import (
    SEED_MIN_ANGLE_DEG,
    SeedFailure,
    _median_angle_deg,
    _pair_pixels,
)
from parsfm.geometry import BehindCameraError, project, umeyama_similarity
from parsfm.matchgraph import FeatureSet, MatchPair

from helpers import default_intrinsics, look_at_pose, make_scene


def brute_force_closure(pairs):
    """Transitive closure by BFS over the explicit match graph."""
    adj = {}
    for p in pairs:
        for ia, ib in p.matches:
            a = (p.image_id_a, int(ia))
            b = (p.image_id_b, int(ib))
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    seen = set()
    groups = []
    for node in sorted(adj):
        if node in seen:
            continue
        queue = [node]
        seen.add(node)
        comp = []
        while queue:
            cur = queue.pop()
            comp.append(cur)
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        groups.append(sorted(comp))
    out = []
    for comp in groups:
        if len(comp) < 2:
            continue
        images = [img for img, _ in comp]
        if len(set(images)) != len(images):
            continue
        out.append(tuple(comp))
    return sorted(out)


class TestBuildTracks:
    def test_chain_closure(self):
        pairs = [
            MatchPair(0, 1, [(3, 7)]),
            MatchPair(1, 2, [(7, 5)]),
        ]
        tracks = build_tracks(pairs)
        assert len(tracks) == 1
        assert tracks[0].observations == [(0, 3), (1, 7), (2, 5)]

    def test_conflicting_track_discarded(self):
        # two keypoints of image 0 collapse onto one keypoint of image 1
        pairs = [MatchPair(0, 1, [(0, 0), (1, 0)])]
        assert build_tracks(pairs) == []

    def test_short_tracks_discarded(self):
        # no pairs at all -> nothing
        assert build_tracks([]) == []

    def test_matches_brute_force_closure(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n_img = int(rng.integers(3, 6))
            pairs = []
            for a in range(n_img):
                for b in range(a + 1, n_img):
                    if rng.random() < 0.6:
                        k = int(rng.integers(1, 8))
                        m = rng.integers(0, 6, size=(k, 2))
                        pairs.append(MatchPair(a, b, m))
            got = sorted(tuple(t.observations) for t in build_tracks(pairs))
            assert got == brute_force_closure(pairs)

    def test_observation_invariants(self):
        rng = np.random.default_rng(5)
        m = rng.integers(0, 20, size=(30, 2))
        tracks = build_tracks([MatchPair(0, 1, m), MatchPair(1, 2, m)])
        for t in tracks:
            assert len(t.observations) >= 2
            images = [img for img, _ in t.observations]
            assert len(set(images)) == len(images)


def seed_angle_deg(pairs, key, pose, features, intrinsics):
    """Median ray angle of the seed pair's matches under its returned pose."""
    a, b = key
    pixels = _pair_pixels(next(p for p in pairs if p.key() == key), features)
    return _median_angle_deg(pose, intrinsics[a], intrinsics[b], pixels)


class TestSeedSelection:
    def test_single_edge(self):
        scene = make_scene(n_cams=2, n_pts=40, ring_k=1)
        pairs = scene["pairs"]
        (a, b), pose = select_seed_pair(
            pairs, scene["features"], scene["intrinsics"], rng=0
        )
        assert (a, b) == (0, 1)
        angle = seed_angle_deg(pairs, (a, b), pose, scene["features"], scene["intrinsics"])
        assert angle >= SEED_MIN_ANGLE_DEG

    def test_prefers_wide_baseline_over_near_rotation(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-3, 3, size=(60, 3))
        intr = default_intrinsics()
        # images 0/1: almost the same center (near-pure rotation, tiny angle)
        p0 = look_at_pose([10.0, 0.0, 4.0], [0, 0, 0])
        p1 = look_at_pose([10.0, 1e-4, 4.0], [0, 0, 0])
        # images 2/3: wide baseline
        p2 = look_at_pose([10.0, 0.0, 4.0], [0, 0, 0])
        p3 = look_at_pose([0.0, 10.0, 4.0], [0, 0, 0])
        features = {}
        intrinsics = {}
        for img, pose in enumerate([p0, p1, p2, p3]):
            px = np.array([project(intr, pose, p) for p in pts])
            kp = np.hstack([px, np.ones((len(pts), 1))])
            features[img] = FeatureSet(img, kp, np.zeros((len(pts), 2)))
            intrinsics[img] = intr
        all_idx = np.stack([np.arange(60), np.arange(60)], axis=1)
        pairs = [
            MatchPair(0, 1, all_idx),  # more inliers, ranked first
            MatchPair(2, 3, all_idx[:50]),
        ]
        (a, b), pose = select_seed_pair(pairs, features, intrinsics, rng=0)
        assert (a, b) == (2, 3)
        angle = seed_angle_deg(pairs, (a, b), pose, features, intrinsics)
        assert angle >= SEED_MIN_ANGLE_DEG

    def test_all_degenerate_falls_back(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-3, 3, size=(40, 3))
        intr = default_intrinsics()
        p0 = look_at_pose([10.0, 0.0, 4.0], [0, 0, 0])
        p1 = look_at_pose([10.0, 1e-4, 4.0], [0, 0, 0])
        features = {}
        for img, pose in enumerate([p0, p1]):
            px = np.array([project(intr, pose, p) for p in pts])
            kp = np.hstack([px, np.ones((len(pts), 1))])
            features[img] = FeatureSet(img, kp, np.zeros((len(pts), 2)))
        idx = np.stack([np.arange(40), np.arange(40)], axis=1)
        pairs = [MatchPair(0, 1, idx)]
        intrinsics = {0: intr, 1: intr}
        pair, pose = select_seed_pair(pairs, features, intrinsics, rng=0)
        assert pair == (0, 1)
        # the gate failed, and the pose returned is the one it was checked on
        angle = seed_angle_deg(pairs, pair, pose, features, intrinsics)
        assert angle < SEED_MIN_ANGLE_DEG

    def test_empty_graph_raises(self):
        with pytest.raises(SeedFailure):
            select_seed_pair([], {}, {})


def align_to_ground_truth(recon, gt_poses):
    """Similarity aligning estimated camera centers to ground truth; returns
    (position rmse, max rotation angle in radians)."""
    ids = sorted(recon.cameras)
    est = np.array([recon.cameras[i][1].center() for i in ids])
    gt = np.array([gt_poses[i].center() for i in ids])
    T, _ = umeyama_similarity(est, gt)
    aligned = T.apply(est)
    rmse = float(np.sqrt(((aligned - gt) ** 2).sum(axis=1).mean()))
    max_angle = 0.0
    for i in ids:
        R_est = recon.cameras[i][1].rotation @ T.rotation.T
        R_gt = gt_poses[i].rotation
        c = np.clip((np.trace(R_gt @ R_est.T) - 1.0) / 2.0, -1.0, 1.0)
        max_angle = max(max_angle, float(np.arccos(c)))
    return rmse, max_angle


class TestIncrementalReconstruct:
    def test_noiseless_ring_recovers_ground_truth(self):
        scene = make_scene(n_cams=10, n_pts=80, noise=0.0, seed=1)
        recon = incremental_reconstruct(
            scene["images"],
            {},
            scene["features"],
            scene["pairs"],
            scene["intrinsics"],
        )
        assert set(recon.cameras) == set(scene["images"])
        validate_reconstruction(recon, scene["features"])
        err = mean_reprojection_error(recon, scene["features"])
        assert err < 1e-6
        gt_centers = np.array([p.center() for p in scene["gt_poses"].values()])
        diameter = float(
            np.linalg.norm(gt_centers.max(axis=0) - gt_centers.min(axis=0))
        )
        rmse, max_angle = align_to_ground_truth(recon, scene["gt_poses"])
        assert rmse < 1e-6 * diameter
        assert max_angle < 1e-6

    def test_noisy_ring_error_at_noise_level(self):
        scene = make_scene(n_cams=10, n_pts=80, noise=0.5, seed=2)
        recon = incremental_reconstruct(
            scene["images"],
            {},
            scene["features"],
            scene["pairs"],
            scene["intrinsics"],
        )
        assert set(recon.cameras) == set(scene["images"])
        validate_reconstruction(recon, scene["features"])
        err = mean_reprojection_error(recon, scene["features"])
        assert 0.2 <= err <= 0.8

    def test_disconnected_components(self):
        big = make_scene(n_cams=6, n_pts=80, seed=3)
        small = make_scene(
            n_cams=4, n_pts=40, seed=4, offset=(1000.0, 0.0, 0.0), id_offset=10
        )
        features = {**big["features"], **small["features"]}
        intrinsics = {**big["intrinsics"], **small["intrinsics"]}
        recon = incremental_reconstruct(
            big["images"] + small["images"],
            {},
            features,
            big["pairs"] + small["pairs"],
            intrinsics,
        )
        # only the component containing the seed can be registered
        assert set(recon.cameras) == set(big["images"])
        validate_reconstruction(recon, features)

    def test_deterministic(self):
        scene = make_scene(n_cams=8, n_pts=60, noise=0.3, seed=5)
        runs = [
            incremental_reconstruct(
                scene["images"],
                {},
                scene["features"],
                scene["pairs"],
                scene["intrinsics"],
                EngineOptions(rng_seed=7),
            )
            for _ in range(2)
        ]
        assert runs[0].registered_order == runs[1].registered_order
        e0 = mean_reprojection_error(runs[0], scene["features"])
        e1 = mean_reprojection_error(runs[1], scene["features"])
        assert abs(e0 - e1) < 1e-9
        assert sorted(runs[0].points) == sorted(runs[1].points)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            incremental_reconstruct([], {}, {}, [], {})

    def test_no_matches_raises_seed_failure(self):
        scene = make_scene(n_cams=3, n_pts=30, seed=6)
        with pytest.raises(SeedFailure):
            incremental_reconstruct(
                scene["images"], {}, scene["features"], [], scene["intrinsics"]
            )

    @staticmethod
    def _scene_seed_7_block():
        """12-image nadir block, scene seed 7, sigma 0.4 px, images 0-3."""
        from parsfm.pipeline import SynthConfig, generate_synthetic

        ds, _, _, _ = generate_synthetic(
            SynthConfig(image_count=12, point_count=600, seed=7)
        )
        rng = np.random.default_rng(7)
        for img in sorted(ds.features):
            kp = ds.features[img].keypoints
            kp[:, :2] += rng.normal(0.0, 0.4, (len(kp), 2))
        subset = [0, 1, 2, 3]
        return subset, ds, (subset, {}, ds.features, ds.pairs, ds.intrinsics)

    @staticmethod
    def _far_points_scene():
        """Four nadir cameras 30 m up on a 10 m square, noise-free.

        Pair (0, 1) has the most matches: 14 nearby points and 13 points
        100 km away. Pairs (0, 2), (0, 3) match 20 nearby points that image
        1 does not see, pairs (1, 2), (1, 3) 20 that image 0 does not see.
        Keypoint k of every image observes world point k.
        """
        rng = np.random.default_rng(3)
        near = rng.uniform((-5.0, -5.0, -3.0), (15.0, 15.0, 3.0), size=(54, 3))
        far = np.column_stack(
            [rng.uniform(-2e4, 2e4, size=(13, 2)), np.full(13, -1e5)]
        )
        pts = np.vstack([near[:14], far, near[14:]])
        intr = default_intrinsics()
        features, intrinsics = {}, {}
        for img, (x, y) in enumerate([(0, 0), (10, 0), (0, 10), (10, 10)]):
            pose = look_at_pose((x, y, 30.0), (x, y, 0.0))
            px = np.array([project(intr, pose, p) for p in pts])
            kp = np.hstack([px, np.ones((len(pts), 1))])
            features[img] = FeatureSet(img, kp, np.zeros((len(pts), 2)))
            intrinsics[img] = intr

        def matches(lo, hi):
            return np.repeat(np.arange(lo, hi)[:, None], 2, axis=1)

        pairs = [
            MatchPair(0, 1, matches(0, 27)),
            MatchPair(0, 2, matches(27, 47)),
            MatchPair(0, 3, matches(27, 47)),
            MatchPair(1, 2, matches(47, 67)),
            MatchPair(1, 3, matches(47, 67)),
        ]
        return [0, 1, 2, 3], features, pairs, intrinsics

    def test_failed_seed_pair_falls_through_to_next(self, monkeypatch):
        # the best-ranked pair (0, 1) passes the angle gate on its nearby
        # points, the median match, but its points at infinity do not
        # triangulate: 14 points are fewer than MIN_RESECTION_CORRS
        images, features, pairs, intrinsics = self._far_points_scene()
        args = (images, {}, features, pairs, intrinsics)
        for seed in (0, 1, 7):  # whatever the RANSAC draws
            with monkeypatch.context() as m:
                m.setattr(incremental, "MAX_SEED_ATTEMPTS", 1)
                with pytest.raises(SeedFailure, match="too few triangulated"):
                    incremental_reconstruct(*args, EngineOptions(rng_seed=seed))
            recon = incremental_reconstruct(*args, EngineOptions(rng_seed=seed))
            assert set(recon.cameras) == set(images)
            assert recon.registered_order[:2] == [0, 2]
            validate_reconstruction(recon, features)

    def test_seed_pose_checked_by_the_gate_is_reused(self, monkeypatch):
        # run_pipeline reconstructs this subset with engine seed 15838; a
        # second estimate of the seed pair's pose used to come out wrong and
        # triangulate too few points, so the run fell through to another pair
        calls = []
        real = incremental.estimate_relative_pose

        def counting(*a, **kw):
            calls.append(1)
            return real(*a, **kw)

        monkeypatch.setattr(incremental, "estimate_relative_pose", counting)
        subset, ds, args = self._scene_seed_7_block()
        recon = incremental_reconstruct(*args, EngineOptions(rng_seed=15838))
        assert len(calls) == 1  # the best-ranked pair passes the gate and seeds
        assert recon.registered_order[:2] == [1, 2]
        assert set(recon.cameras) == set(subset)
        validate_reconstruction(recon, ds.features)

    def test_every_seed_attempt_failing_raises(self, monkeypatch):
        scene = make_scene(n_cams=3, n_pts=30, seed=6)
        monkeypatch.setattr(incremental, "MIN_RESECTION_CORRS", 1000)
        with pytest.raises(SeedFailure, match="too few triangulated"):
            incremental_reconstruct(
                scene["images"], {}, scene["features"], scene["pairs"],
                scene["intrinsics"],
            )


def reprojection_reference(recon, features):
    """Mean reprojection error one observation at a time, inf when any
    point sits behind its camera."""
    errors = []
    for pid in sorted(recon.points):
        X, track = recon.points[pid]
        for img, kp in track.observations:
            intr, pose = recon.cameras[img]
            try:
                px = project(intr, pose, X)
            except BehindCameraError:
                return np.inf
            errors.append(np.linalg.norm(px - features[img].keypoints[kp, :2]))
    return float(np.mean(errors)) if errors else 0.0


@pytest.mark.parametrize(
    "record, message",
    [
        ("FRAME 0 1 0 0 0 0 0 0", "unknown record type 'FRAME'"),
        ("POINT 0 1 2", "POINT record with 3 fields, not 5 + 2 * n_obs"),
        ("POINT 0 1 2 3 3 0 5 1 6", "POINT record with 9 fields, not 5 + 2 * n_obs"),
        # 6 + 2 * n_obs is 10 in int64 arithmetic
        ("POINT 0 1 2 3 -9223372036854775806 0 5 1 6",
         "POINT record with 9 fields, not 5 + 2 * n_obs"),
        ("CAMERA 0 1 0 0 0 0 0", "CAMERA record with 7 fields"),
        ("POINT 0 1 2 x 2 0 5 1 6", "non-numeric field in POINT record"),
        ("POINT 0 1 2 3 two 0 5 1 6", "non-numeric field in POINT record"),
        ("CAMERA 0 1 0 0 0 0 0 zero", "non-numeric field in CAMERA record"),
        ("CAMERA 7 1 0 0 0 0 0 0", "CAMERA of image 7 with no intrinsics"),
        ("CAMERA 1 0 0 0 0 0 0 0", "CAMERA quaternion is zero or not finite"),
        ("CAMERA 1 nan 0 0 0 0 0 0", "CAMERA quaternion is zero or not finite"),
        ("CAMERA 1 1 0 0 0 0 inf 0", "non-finite coordinate in CAMERA record"),
        ("POINT 0 1 nan 3 2 0 5 1 6", "non-finite coordinate in POINT record"),
        ("CAMERA 0 1 0 0 0 0 0 0", "repeated CAMERA of image 0"),
        ("POINT 4 1 2 3 2 0 5 1 6", "repeated POINT 4"),
    ],
)
def test_malformed_model_record_names_its_line(tmp_path, record, message):
    path = tmp_path / "model.txt"
    path.write_text(
        f"CAMERA 0 1 0 0 0 0 0 0\nPOINT 4 0 0 5 2 0 1 1 1\n\n{record}\nPOINT 1 0 0 5 2 0 1 1 1\n"
    )
    with pytest.raises(ValueError) as err:
        read_reconstruction(path, {0: default_intrinsics(), 1: default_intrinsics()})
    assert str(err.value) == f"{path}:4: {message}"


class TestMeanReprojectionError:
    def test_equals_per_observation_loop(self):
        scene = make_scene(n_cams=8, n_pts=60, noise=0.7, seed=41)
        rng = np.random.default_rng(41)
        recon = Reconstruction()
        for img in scene["images"]:
            recon.cameras[img] = (scene["intrinsics"][img], scene["gt_poses"][img])
        recon.registered_order = list(scene["images"])
        # point ids out of order, tracks of 2-8 random images
        for k in rng.permutation(len(scene["points"])).tolist():
            images = rng.choice(scene["images"], size=rng.integers(2, 9), replace=False)
            obs = sorted((int(img), k) for img in images)
            X = scene["points"][k] + rng.normal(0.0, 0.01, 3)
            recon.points[100 + k] = (X, Track(100 + k, obs))
        expect = reprojection_reference(recon, scene["features"])
        got = mean_reprojection_error(recon, scene["features"])
        assert expect > 0.5
        assert got == pytest.approx(expect, rel=1e-12)

        # a point behind one of its cameras makes the mean infinite
        img, _ = recon.points[100][1].observations[0]
        pose = recon.cameras[img][1]
        recon.points[100] = (pose.center() - pose.rotation[2], recon.points[100][1])
        assert reprojection_reference(recon, scene["features"]) == np.inf
        assert mean_reprojection_error(recon, scene["features"]) == np.inf

        assert mean_reprojection_error(Reconstruction(), scene["features"]) == 0.0


class TestReconstructionContainer:
    def _small_recon(self):
        scene = make_scene(n_cams=4, n_pts=30, seed=8, ring_k=3)
        recon = incremental_reconstruct(
            scene["images"],
            {},
            scene["features"],
            scene["pairs"],
            scene["intrinsics"],
        )
        return scene, recon

    def test_io_round_trip(self, tmp_path):
        scene, recon = self._small_recon()
        path = tmp_path / "recon.txt"
        write_reconstruction(path, recon)
        back = read_reconstruction(path, scene["intrinsics"])
        assert set(back.cameras) == set(recon.cameras)
        for img in recon.cameras:
            p0 = recon.cameras[img][1]
            p1 = back.cameras[img][1]
            assert np.allclose(p0.rotation, p1.rotation, atol=1e-12)
            assert np.allclose(p0.translation, p1.translation, atol=1e-15)
        assert set(back.points) == set(recon.points)
        for pid in recon.points:
            x0, t0 = recon.points[pid]
            x1, t1 = back.points[pid]
            assert np.array_equal(x0, x1)  # %.17g round-trips doubles exactly
            assert t0.observations == t1.observations
        validate_reconstruction(back, scene["features"])

    def test_validator_rejects_unregistered_observation(self):
        _, recon = self._small_recon()
        pid = next(iter(recon.points))
        recon.points[pid][1].observations.append((9999, 0))
        with pytest.raises(ValueError):
            validate_reconstruction(recon)

    def test_validator_rejects_short_track(self):
        _, recon = self._small_recon()
        pid = next(iter(recon.points))
        del recon.points[pid][1].observations[1:]
        with pytest.raises(ValueError):
            validate_reconstruction(recon)

    def test_bundle_adjust_wrapper_reduces_error(self):
        scene, recon = self._small_recon()
        rng = np.random.default_rng(9)
        for pid in recon.points:
            xyz, track = recon.points[pid]
            recon.points[pid] = (xyz + rng.normal(0, 0.01, 3), track)
        before = mean_reprojection_error(recon, scene["features"])
        report = bundle_adjust(recon, scene["features"])
        after = mean_reprojection_error(recon, scene["features"])
        assert after < before
        assert abs(report.final_mean_error - after) < 1e-9
