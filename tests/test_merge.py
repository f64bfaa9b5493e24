import numpy as np
import pytest

from parsfm.engine import (
    Reconstruction,
    Track,
    mean_reprojection_error,
    validate_reconstruction,
    write_reconstruction,
)
from parsfm.geometry import SimilarityTransform
from parsfm.matchgraph import FeatureSet, MatchPair
from parsfm.merge import (
    BidirectionalResiduals,
    CorrespondenceGraph,
    GcpRecord,
    MatchTable,
    MergeFailure,
    build_correspondence_graph,
    find_common_points,
    georeference,
    merge_all,
    pair_masks,
    ransac_similarity,
    read_gcps,
    strategy_match_counts,
    transform_pose,
    write_gcps,
)
from parsfm.merge import merging
from parsfm.merge.columns import Columns
from parsfm.merge.correspond import feature_keys
from parsfm.merge.merging import Model

from helpers import (
    common_points_reference,
    feature_point_index_reference,
    make_scene,
    merge_all_reference,
    merge_pair_reference,
    random_rotation,
)


def gt_reconstruction(scene, images=None, recon_id=0):
    """Exact reconstruction straight from the generating configuration."""
    images = scene["images"] if images is None else list(images)
    recon = Reconstruction(recon_id=recon_id)
    for img in images:
        recon.cameras[img] = (scene["intrinsics"][img], scene["gt_poses"][img].copy())
    recon.registered_order = list(images)
    for k in range(len(scene["points"])):
        obs = sorted((img, k) for img in images)
        recon.points[k] = (scene["points"][k].copy(), Track(k, obs))
    return recon


def correspondence_graph(source, reference, pairs):
    """The correspondence graph of two reconstructions over the match pairs."""
    table = MatchTable.from_pairs(pairs)
    return build_correspondence_graph(table, pair_masks(source, reference, table))


def transform_recon(recon, T):
    out = recon.copy()
    for img, (intr, pose) in out.cameras.items():
        out.cameras[img] = (intr, transform_pose(pose, T))
    for pid, (xyz, track) in out.points.items():
        out.points[pid] = (T.apply(xyz).reshape(3), track)
    return out


def random_similarity(rng, scale_range=(0.5, 2.0)):
    return SimilarityTransform(
        float(rng.uniform(*scale_range)),
        random_rotation(rng),
        rng.uniform(-5, 5, 3),
    )


class TestCorrespondenceGraph:
    def test_no_cross_matches_empty(self):
        a = make_scene(n_cams=4, n_pts=30, seed=0)
        b = make_scene(n_cams=4, n_pts=30, seed=1, id_offset=10, offset=(100, 0, 0))
        src = gt_reconstruction(b)
        ref = gt_reconstruction(a)
        cg = correspondence_graph(src, ref, a["pairs"] + b["pairs"])
        assert cg.loaded_match_count == 0
        assert cg.source_keys.size == cg.reference_keys.size == 0

    def test_loads_only_cross_pairs(self):
        scene = make_scene(n_cams=8, n_pts=40, seed=2)
        src = gt_reconstruction(scene, images=[0, 1, 2, 3], recon_id=1)
        ref = gt_reconstruction(scene, images=[4, 5, 6, 7], recon_id=2)
        cg = correspondence_graph(src, ref, scene["pairs"])
        expect = sum(
            1
            for p in scene["pairs"]
            if (p.image_id_a in {0, 1, 2, 3}) != (p.image_id_b in {0, 1, 2, 3})
        )
        assert cg.loaded_match_count == expect
        assert set((cg.source_keys >> 32).tolist()) <= {0, 1, 2, 3}
        assert set((cg.reference_keys >> 32).tolist()) <= {4, 5, 6, 7}

    def test_strategy_count_ordering(self):
        scene = make_scene(n_cams=10, n_pts=40, seed=3)
        src = gt_reconstruction(scene, images=[0, 1, 2])
        ref = gt_reconstruction(scene, images=[3, 4, 5, 6])
        table = MatchTable.from_pairs(scene["pairs"])
        counts = strategy_match_counts(pair_masks(src, ref, table))
        assert counts["on_demand"] <= counts["pairwise"] <= counts["all_dataset"]
        assert counts["on_demand"] < counts["pairwise"]
        cg = build_correspondence_graph(table, pair_masks(src, ref, table))
        assert cg.loaded_match_count == counts["on_demand"]


class TestFindCommonPoints:
    def test_identity_pairs_every_point(self):
        scene = make_scene(n_cams=6, n_pts=30, seed=4)
        recon = gt_reconstruction(scene)
        cg = correspondence_graph(recon, recon, scene["pairs"])
        common = find_common_points(cg, recon, recon)
        assert sorted(common.pairs) == [(k, k) for k in range(30)]

    def test_overlapping_subsets(self):
        scene = make_scene(n_cams=12, n_pts=40, seed=5)
        src = gt_reconstruction(scene, images=range(6, 12))
        ref = gt_reconstruction(scene, images=range(0, 8))
        cg = correspondence_graph(src, ref, scene["pairs"])
        common = find_common_points(cg, src, ref)
        assert sorted(common.pairs) == [(k, k) for k in range(40)]

    def test_conflict_resolved_by_majority(self):
        src = Reconstruction()
        src.points[0] = (np.zeros(3), Track(0, [(0, 0), (1, 0)]))
        ref = Reconstruction()
        ref.points[10] = (np.zeros(3), Track(10, [(2, 0), (3, 0)]))
        ref.points[11] = (np.zeros(3), Track(11, [(2, 1), (3, 1)]))
        # links (0, 0) -> (2, 0); (1, 0) -> (3, 0) and (2, 1)
        cg = CorrespondenceGraph(
            source_keys=feature_keys([0, 1, 1], [0, 0, 0]),
            reference_keys=feature_keys([2, 3, 2], [0, 0, 1]),
            loaded_match_count=3,
        )
        common = find_common_points(cg, src, ref)
        assert common.pairs == [(0, 10)]  # 2 links vs 1
        assert common.support == [2]

    def test_tie_keeps_lower_reference_id(self):
        src = Reconstruction()
        src.points[0] = (np.zeros(3), Track(0, [(0, 0), (1, 0)]))
        ref = Reconstruction()
        ref.points[10] = (np.zeros(3), Track(10, [(2, 0)]))
        ref.points[11] = (np.zeros(3), Track(11, [(2, 1)]))
        # links (0, 0) -> (2, 0); (1, 0) -> (2, 1)
        cg = CorrespondenceGraph(
            source_keys=feature_keys([0, 1], [0, 0]),
            reference_keys=feature_keys([2, 2], [0, 1]),
        )
        common = find_common_points(cg, src, ref)
        assert common.pairs == [(0, 10)]


def random_join_case(rng, n_kp=25):
    """Source and reference over random image ids, half of them >= 1000,
    four images in both and one in neither. Tracks pick random keypoints, so
    a feature can sit in two reference tracks, and point ids are inserted
    out of order. Every match pair repeats up to two of its rows."""
    ids = rng.choice(np.r_[0:40, 1000:1040], size=12, replace=False).tolist()

    def recon(images, n_pts, first_pid):
        r = Reconstruction(cameras=dict.fromkeys(images))
        for pid in (rng.permutation(n_pts) + first_pid).tolist():
            chosen = rng.choice(images, size=rng.integers(1, 4), replace=False)
            obs = sorted((img, int(rng.integers(n_kp))) for img in chosen.tolist())
            r.points[pid] = (np.zeros(3), Track(pid, obs))
        return r

    source, reference = recon(ids[:7], 40, 0), recon(ids[3:11], 60, 500)
    pairs = []
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if rng.random() < 0.6:
                m = rng.integers(n_kp, size=(int(rng.integers(1, 12)), 2))
                pairs.append(MatchPair(a, b, np.vstack([m, m[: rng.integers(3)]])))
    return source, reference, pairs


class TestCommonPointsOracle:
    def test_join_equals_dict_reference(self):
        rng = np.random.default_rng(31)
        seen = {"both_ways": 0, "unlinked": 0, "feature_in_two_tracks": 0, "id_1000": 0}
        for _ in range(30):
            source, reference, pairs = random_join_case(rng)
            table = MatchTable.from_pairs(pairs)
            for src, ref in ((source, reference), (reference, source)):
                cg = build_correspondence_graph(table, pair_masks(src, ref, table))
                common = find_common_points(cg, src, ref)
                expect, support, loaded = common_points_reference(src, ref, pairs)
                assert (common.pairs, common.support) == (expect, support)
                assert cg.loaded_match_count == loaded
                assert strategy_match_counts(pair_masks(src, ref, table))["on_demand"] == loaded
                seen["unlinked"] += len(common) < src.num_points()
            both = source.cameras.keys() & reference.cameras.keys()
            seen["both_ways"] += any({p.image_id_a, p.image_id_b} <= both for p in pairs)
            feats = [o for _, t in reference.points.values() for o in t.observations]
            seen["feature_in_two_tracks"] += len(set(feats)) < len(feats)
            seen["id_1000"] += max(both) >= 1000
        assert all(seen.values()), seen


def transform_residual(pair, T, source, reference, features):
    """Reference: bi-directional RMS reprojection error of one common point
    pair, one point and one camera at a time."""
    spid, rpid = pair

    def side_error_sq(recon, pid, X):
        total = 0.0
        for img, kp in recon.points[pid][1].observations:
            intr, pose = recon.cameras[img]
            cam = pose.rotation @ X + pose.translation
            if cam[2] <= 0:
                return np.inf
            u = intr.focal_x * cam[0] / cam[2] + intr.principal_x
            v = intr.focal_y * cam[1] / cam[2] + intr.principal_y
            px = features[img].keypoints[kp, :2]
            total += (u - px[0]) ** 2 + (v - px[1]) ** 2
        return total

    fwd = side_error_sq(reference, rpid, T.apply(source.points[spid][0]))
    bwd = side_error_sq(source, spid, T.inverse().apply(reference.points[rpid][0]))
    total = fwd + bwd
    if not np.isfinite(total):
        return np.inf
    m = len(reference.points[rpid][1].observations)
    l = len(source.points[spid][1].observations)
    return float(np.sqrt(total / (m + l)))


def pair_residual(pair, T, source, reference, features):
    """The batched scorer evaluated on a single pair."""
    return BidirectionalResiduals([pair], source, reference, features)(T)[0]


def noisy_features(features, rng, sigma=0.5):
    return {
        img: FeatureSet(
            img,
            np.hstack(
                [
                    fs.keypoints[:, :2] + rng.normal(0, sigma, (len(fs), 2)),
                    fs.keypoints[:, 2:],
                ]
            ),
            fs.descriptors,
        )
        for img, fs in features.items()
    }


class TestTransformResidual:
    def test_identity_equals_own_rms(self):
        scene = make_scene(n_cams=5, n_pts=20, seed=6)
        recon = gt_reconstruction(scene)
        noisy = noisy_features(scene["features"], np.random.default_rng(7))
        T = SimilarityTransform.identity()
        for pid in [0, 5, 19]:
            r = pair_residual((pid, pid), T, recon, recon, noisy)
            errs = []
            for img, kp in recon.points[pid][1].observations:
                intr, pose = recon.cameras[img]
                from parsfm.geometry import project

                errs.append(
                    np.sum(
                        (
                            project(intr, pose, recon.points[pid][0])
                            - noisy[img].keypoints[kp, :2]
                        )
                        ** 2
                    )
                )
            expect = float(np.sqrt(np.mean(errs)))
            assert abs(r - expect) < 1e-9

    def test_generating_transform_near_zero(self):
        scene = make_scene(n_cams=6, n_pts=30, seed=8)
        src = gt_reconstruction(scene)
        T = random_similarity(np.random.default_rng(9))
        ref = transform_recon(src, T)
        for pid in range(0, 30, 5):
            r = pair_residual((pid, pid), T, src, ref, scene["features"])
            assert r < 1e-9

    def test_wrong_scale_large(self):
        scene = make_scene(n_cams=6, n_pts=30, seed=10)
        src = gt_reconstruction(scene)
        T_true = SimilarityTransform(2.0, np.eye(3), np.zeros(3))
        ref = transform_recon(src, T_true)
        r = pair_residual((0, 0), SimilarityTransform.identity(), src, ref,
                          scene["features"])
        assert r > 10.0

    def test_symmetry_under_role_swap(self):
        scene = make_scene(n_cams=6, n_pts=30, seed=11)
        src = gt_reconstruction(scene)
        T = random_similarity(np.random.default_rng(12))
        ref = transform_recon(src, T)
        for pid in range(0, 30, 7):
            fwd = pair_residual((pid, pid), T, src, ref, scene["features"])
            bwd = pair_residual(
                (pid, pid), T.inverse(), ref, src, scene["features"]
            )
            assert abs(fwd - bwd) < 1e-9

    def test_behind_camera_infinite(self):
        scene = make_scene(n_cams=4, n_pts=20, seed=13)
        recon = gt_reconstruction(scene)
        # push the mapped point far behind every camera
        T = SimilarityTransform(1.0, np.eye(3), np.array([0.0, 0.0, 1e6]))
        r = pair_residual((0, 0), T, recon, recon, scene["features"])
        assert np.isinf(r)


    def test_batched_matches_per_point_reference(self):
        scene = make_scene(n_cams=12, n_pts=40, seed=31, noise=0.5)
        rng = np.random.default_rng(32)
        src = gt_reconstruction(scene, images=range(0, 8))
        T_true = random_similarity(rng)
        ref = transform_recon(gt_reconstruction(scene, images=range(3, 12)), T_true)
        features = noisy_features(scene["features"], rng)
        # reversed pairing so pairs and point ids do not line up
        pairs = [(k, k) for k in range(40)] + [(k, 39 - k) for k in range(0, 40, 3)]
        scorer = BidirectionalResiduals(pairs, src, ref, features)
        # the true transform, random ones, and one pushing points behind
        behind = SimilarityTransform(1.0, np.eye(3), np.array([0.0, 0.0, 1e6]))
        transforms = [T_true, behind] + [random_similarity(rng) for _ in range(6)]
        seen_inf = seen_finite = False
        for T in transforms:
            got = scorer(T)
            expect = np.array(
                [transform_residual(p, T, src, ref, features) for p in pairs]
            )
            finite = np.isfinite(expect)
            assert np.array_equal(np.isfinite(got), finite)
            np.testing.assert_allclose(got[finite], expect[finite], rtol=1e-12)
            seen_inf |= not finite.all()
            seen_finite |= finite.any()
        assert seen_inf and seen_finite


class TestRansacSimilarity:
    def _aligned_pair(self, seed, n_pts=50):
        scene = make_scene(n_cams=6, n_pts=n_pts, seed=seed)
        src = gt_reconstruction(scene)
        T = random_similarity(np.random.default_rng(seed + 100))
        ref = transform_recon(src, T)
        cg = correspondence_graph(src, ref, scene["pairs"])
        common = find_common_points(cg, src, ref)
        return scene, src, ref, T, common

    def test_exact_recovery(self):
        scene, src, ref, T, common = self._aligned_pair(14)
        assert len(common) == 50
        Te, mask, mse = ransac_similarity(common, src, ref, scene["features"], rng=0)
        assert mask.all()
        assert abs(Te.scale - T.scale) < 1e-9
        assert np.allclose(Te.rotation, T.rotation, atol=1e-9)
        assert np.allclose(Te.translation, T.translation, atol=1e-8)
        assert mse < 1e-16

    def test_planted_outliers_classified(self):
        scene, src, ref, T, common = self._aligned_pair(15)
        rng = np.random.default_rng(16)
        n = len(common.pairs)
        bad = rng.choice(n, int(0.3 * n), replace=False)
        truth = np.ones(n, dtype=bool)
        for i in bad:
            s, r = common.pairs[i]
            # re-pair with a different reference point: a gross mismatch
            common.pairs[i] = (s, (r + 7) % n)
            truth[i] = False
        _, mask, _ = ransac_similarity(common, src, ref, scene["features"], rng=1)
        accuracy = float((mask == truth).mean())
        assert accuracy >= 0.95

    def test_too_few_pairs(self):
        scene, src, ref, T, common = self._aligned_pair(17)
        common.pairs = common.pairs[:2]
        common.support = common.support[:2]
        with pytest.raises(MergeFailure):
            ransac_similarity(common, src, ref, scene["features"], rng=0)


def merge_columns(model, cluster, T, inlier_pairs):
    """One column merge of a cluster into a copy of the model, as a dict
    Reconstruction."""
    merged = Model(model)
    merged.merge(Columns(cluster), T, inlier_pairs)
    return merged.reconstruction()


def assert_same_model(got, expect):
    """Equal dict models: cameras, registered order, point ids in dict
    order, coordinates bit for bit and every track in order."""
    assert list(got.cameras) == list(expect.cameras)
    for img, (intr, pose) in expect.cameras.items():
        assert got.cameras[img][0] == intr
        assert np.array_equal(got.cameras[img][1].rotation, pose.rotation)
        assert np.array_equal(got.cameras[img][1].translation, pose.translation)
    assert got.registered_order == expect.registered_order
    assert list(got.points) == list(expect.points)
    for pid, (xyz, track) in expect.points.items():
        assert np.array_equal(got.points[pid][0], xyz)
        assert got.points[pid][1] == track


class TestMergePair:
    def test_self_merge_identity_idempotent(self):
        scene = make_scene(n_cams=5, n_pts=30, seed=18)
        recon = gt_reconstruction(scene)
        before_cams = dict(recon.cameras)
        before_obs = {
            pid: list(t.observations) for pid, (_, t) in recon.points.items()
        }
        pairs = [(k, k) for k in recon.points]
        T = SimilarityTransform.identity()
        merged = merge_columns(recon, recon.copy(), T, pairs)
        assert set(merged.cameras) == set(before_cams)
        assert set(merged.points) == set(before_obs)
        for pid, (_, t) in merged.points.items():
            assert t.observations == before_obs[pid]
        assert_same_model(merged, merge_pair_reference(recon.copy(), recon, T, pairs))

    def test_two_half_scenes_fused(self):
        scene = make_scene(n_cams=10, n_pts=40, seed=19)
        left = gt_reconstruction(scene, images=range(0, 6))
        T = random_similarity(np.random.default_rng(20))
        right = transform_recon(
            gt_reconstruction(scene, images=range(4, 10)), T
        )
        pairs = [(k, k) for k in range(40)]
        merged = merge_columns(left, right, T.inverse(), pairs)
        assert set(merged.cameras) == set(range(10))
        assert merged.num_points() == 40
        for pid, (_, t) in merged.points.items():
            assert {img for img, _ in t.observations} == set(range(10))
        validate_reconstruction(merged, scene["features"])
        assert mean_reprojection_error(merged, scene["features"]) < 1e-9
        assert_same_model(merged, merge_pair_reference(left.copy(), right, T.inverse(), pairs))

    def test_feature_in_two_tracks_goes_to_the_later_point(self):
        scene = make_scene(n_cams=4, n_pts=10, seed=33)
        model = gt_reconstruction(scene, images=[0, 1, 2])
        cluster = gt_reconstruction(scene, images=[1, 2, 3], recon_id=1)
        # cluster point 5 is not fused, so it becomes a new point on the
        # features (1, 5) and (2, 5) that model point 5 owns
        pairs = [(k, k) for k in range(10) if k != 5]
        merged = Model(model)
        merged.merge(Columns(cluster), SimilarityTransform.identity(), pairs)
        keys, pids = feature_point_index_reference(merged.reconstruction())
        assert merged.owners(keys).tolist() == merged.rows_of(pids).tolist()
        twice = feature_keys([1, 2], [5, 5])
        assert merged.pids[merged.owners(twice)].tolist() == [10, 10]


class TestMergeAll:
    def test_clusters_merge_into_skeleton(self):
        scene = make_scene(n_cams=12, n_pts=60, seed=21)
        rng = np.random.default_rng(22)
        skeleton = gt_reconstruction(scene, images=[0, 3, 6, 9], recon_id=0)
        clusters = [
            transform_recon(
                gt_reconstruction(scene, images=r, recon_id=i + 1),
                random_similarity(rng),
            )
            for i, r in enumerate([range(0, 4), range(4, 8), range(8, 12)])
        ]
        merged, report = merge_all(
            skeleton, clusters, scene["features"], scene["pairs"]
        )
        assert set(merged.cameras) == set(range(12))
        assert not report.dropped
        assert len(report.steps) == 3
        # every cluster point was common with the skeleton: nothing new
        assert merged.num_points() == 60
        assert report.error_after_final_ba <= report.error_before_final_ba + 1e-12
        assert report.error_after_final_ba < 1e-6
        validate_reconstruction(merged, scene["features"])
        for step in report.steps:
            c = step.loaded_match_counts
            assert c["on_demand"] <= c["pairwise"] <= c["all_dataset"]

    def test_unconnected_cluster_dropped(self):
        scene = make_scene(n_cams=8, n_pts=40, seed=23)
        far = make_scene(
            n_cams=4, n_pts=30, seed=24, id_offset=20, offset=(500, 0, 0)
        )
        skeleton = gt_reconstruction(scene, images=range(0, 4))
        good = gt_reconstruction(scene, images=range(3, 8), recon_id=1)
        lost = gt_reconstruction(far, recon_id=2)
        features = {**scene["features"], **far["features"]}
        merged, report = merge_all(
            skeleton,
            [good, lost],
            features,
            scene["pairs"] + far["pairs"],
        )
        assert report.dropped == [1]  # cluster index of `lost`
        assert set(merged.cameras) == set(range(8))

    def test_model_index_reused_only_where_the_model_is_the_reference(self, monkeypatch):
        scene = make_scene(n_cams=12, n_pts=60, seed=25)
        skeleton = gt_reconstruction(scene, images=range(0, 4))
        clusters = []
        for k, images in enumerate([range(2, 8), range(7, 12)], start=1):
            recon = gt_reconstruction(scene, images=images, recon_id=k)
            # distinct point ids, so a lookup in the wrong index shows
            recon.points = {
                1000 * k + pid: (xyz, Track(1000 * k + pid, track.observations))
                for pid, (xyz, track) in recon.points.items()
            }
            clusters.append(recon)
        calls = []

        def spy(cg, source, reference):
            common = find_common_points(cg, source, reference)
            # the model's feature index answers only where it is the reference
            calls.append(
                (isinstance(reference, Model), common.pairs, common.support, cg.loaded_match_count)
            )
            return common

        monkeypatch.setattr(merging, "find_common_points", spy)
        merged, report = merge_all(skeleton, clusters, scene["features"], scene["pairs"])
        _, _, log = merge_all_reference(skeleton, clusters, scene["features"], scene["pairs"])
        expect = [entry[2:] for entry in log if entry[0] == "evaluate"]
        assert calls == expect
        assert set(merged.cameras) == set(range(12))
        # the 6-image cluster is the reference against the 4-image skeleton
        assert any(not forward for forward, *_ in calls)
        assert any(forward for forward, *_ in calls)

    def test_merge_order_by_common_count(self):
        scene = make_scene(n_cams=12, n_pts=60, seed=25)
        skeleton = gt_reconstruction(scene, images=range(0, 4))
        # cluster 0 overlaps the skeleton heavily, cluster 1 barely
        big = gt_reconstruction(scene, images=range(2, 8), recon_id=1)
        small = gt_reconstruction(scene, images=range(7, 12), recon_id=2)
        merged, report = merge_all(
            skeleton, [big, small], scene["features"], scene["pairs"]
        )
        assert [s.cluster_index for s in report.steps] == [0, 1]
        assert set(merged.cameras) == set(range(12))


def shuffled_model(scene, images, tracks, rng, recon_id=0, T=None, pid_base=0):
    """A model over `images` of a ring scene, moved by T. tracks maps each
    world point to the images that observe it; observations, cameras,
    registered order and points all come in shuffled order, and point ids
    are a shuffled `pid_base + range`, so rows, ids and orders differ."""
    T = T or SimilarityTransform.identity()
    recon = Reconstruction(recon_id=recon_id)
    for img in rng.permutation(images).tolist():
        recon.cameras[img] = (scene["intrinsics"][img], transform_pose(scene["gt_poses"][img], T))
    recon.registered_order = rng.permutation(images).tolist()
    ids = dict(zip(tracks, (pid_base + rng.permutation(len(tracks))).tolist()))
    for k in rng.permutation(list(tracks)).tolist():
        obs = [(img, k) for img in rng.permutation(tracks[k]).tolist()]
        pid = ids[k]
        recon.points[pid] = (T.apply(scene["points"][k]).reshape(3), Track(pid, obs))
    return recon


def random_merge_case(rng):
    """A noisy ring split into a skeleton arc and overlapping cluster arcs,
    some of them larger than the skeleton. Each model observes each of its
    points in a random subset of its images; a cluster may have a fifth of
    its points moved far off (so they stay unfused and become new points on
    features the model owns), and a far block with no cross pairs may join
    as a cluster that is dropped. Each cluster also holds three ghosts of
    its points: copies with one observation on a new keypoint at the same
    pixel, which fuse into the model point of the original, so which cluster
    point's observation a model point takes matters."""
    n = int(rng.integers(10, 14))
    scene = make_scene(n_cams=n, n_pts=40, noise=0.3, seed=int(rng.integers(1 << 30)))
    features, pairs = dict(scene["features"]), list(scene["pairs"])

    def model(images, recon_id, pid_base, T=None):
        tracks = {}
        for k in range(40):
            if rng.random() < 0.9:
                size = int(rng.integers(2, len(images) + 1))
                tracks[k] = rng.choice(images, size=size, replace=False).tolist()
        return shuffled_model(scene, images, tracks, rng, recon_id, T, pid_base)

    skeleton = model([0, 1, 2], 0, 0)
    clusters, first = [], 2 - int(rng.integers(0, 2))
    while first < n:
        images = [(first + j) % n for j in range(int(rng.integers(3, 6)))]
        k = len(clusters) + 1
        cluster = model(images, k, 1000 * k, random_similarity(rng))
        if rng.random() < 0.5:
            for pid in rng.choice(list(cluster.points), size=8, replace=False).tolist():
                xyz, track = cluster.points[pid]
                cluster.points[pid] = (xyz + rng.normal(0.0, 20.0, 3), track)
        for pid in rng.choice(list(cluster.points), size=3, replace=False).tolist():
            # a ghost: the same point, one observation on a new keypoint at
            # the same pixel, so two cluster points fuse into one model point
            xyz, track = cluster.points[pid]
            (img, kp), *rest = track.observations
            fs = features[img]
            features[img] = FeatureSet(img, np.vstack([fs.keypoints, fs.keypoints[kp]]),
                                       np.vstack([fs.descriptors, fs.descriptors[kp]]))
            cluster.points[pid + 50] = (xyz.copy(), Track(pid + 50, [(img, len(fs))] + rest))
        clusters.append(cluster)
        first += len(images) - int(rng.integers(0, 3))
    if rng.random() < 0.3:
        far = make_scene(n_cams=4, n_pts=20, seed=int(rng.integers(1 << 30)), id_offset=100,
                         offset=(500, 0, 0))
        features.update(far["features"])
        pairs += far["pairs"]
        at = int(rng.integers(len(clusters) + 1))
        tracks = {k: far["images"] for k in range(20)}
        clusters.insert(at, shuffled_model(far, far["images"], tracks, rng, 9, None, 900))
    return skeleton, clusters, features, pairs


def retry_case(rng):
    """A cluster X that is tried first and fails, then merges once Z has.

    X observes its points 20..59, moved far off, only in images 10 and 11
    next to the skeleton, and its points 0..19 only in images 6 and 7 next
    to Z, which holds points 0..19. X's 40 common points with the skeleton
    are all outliers; after Z merges, a third of X's common points fit.
    X has more cameras than the skeleton, so the model is its source in the
    first pass and its reference in the second.
    """
    scene = make_scene(n_cams=12, n_pts=60, noise=0.3, seed=41)
    skeleton = shuffled_model(scene, [0, 1, 2], {k: [0, 1, 2] for k in range(60)}, rng)
    z = shuffled_model(scene, [3, 4, 5], {k: [3, 4, 5] for k in range(20)}, rng, 1,
                       random_similarity(rng), 100)
    tracks = {k: [6, 7] if k < 20 else [10, 11] for k in range(60)}
    x = shuffled_model(scene, [6, 7, 10, 11], tracks, rng, 2, random_similarity(rng), 200)
    for pid, (xyz, track) in x.points.items():
        if track.observations[0][0] >= 10:
            x.points[pid] = (xyz + rng.normal(0.0, 20.0, 3), track)
    return skeleton, [x, z], scene["features"], scene["pairs"]


class TestMergeOracle:
    """`merge_all` on columns against the dict merge loop it replaced."""

    def check(self, case, tmp_path, monkeypatch):
        skeleton, clusters, features, pairs = case
        owners_checked, shared = [], []
        merge = Model.merge

        def checked_merge(model, cluster, T, inlier_pairs):
            targets = list(dict(inlier_pairs).values())
            shared.append(len(set(targets)) < len(targets))
            merge(model, cluster, T, inlier_pairs)
            keys, pids = feature_point_index_reference(model.reconstruction())
            assert model.pids[model.owners(keys)].tolist() == pids.tolist()
            owners_checked.append(len(keys))

        monkeypatch.setattr(Model, "merge", checked_merge)
        got, report = merge_all(skeleton, clusters, features, pairs)
        expect, expect_report, log = merge_all_reference(skeleton, clusters, features, pairs)
        write_reconstruction(tmp_path / "got.txt", got)
        write_reconstruction(tmp_path / "expect.txt", expect)
        assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "expect.txt").read_bytes()
        assert_same_model(got, expect)
        assert report.steps == expect_report.steps
        assert report.dropped == expect_report.dropped
        assert report.error_before_final_ba == expect_report.error_before_final_ba
        assert report.error_after_final_ba == expect_report.error_after_final_ba
        assert len(owners_checked) == len(report.steps)
        return got, report, log, any(shared)

    def test_random_scenes_equal_the_dict_merge(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(51)
        seen = dict.fromkeys(
            ["overlap", "model_is_source", "dropped", "retried", "feature_in_two_tracks",
             "two_fuse_into_one"],
            0,
        )
        cases = [retry_case(rng)] + [random_merge_case(rng) for _ in range(12)]
        for case in cases:
            skeleton, clusters = case[:2]
            merged, report, log, shared = self.check(case, tmp_path, monkeypatch)
            seen["two_fuse_into_one"] += shared
            done = [entry[1] for entry in log if entry[0] == "merge"]
            seen["overlap"] += any(
                skeleton.cameras.keys() & clusters[idx].cameras.keys() for idx in done
            )
            flips = {e[1] for e in log if e[0] == "evaluate" and not e[2]}
            seen["model_is_source"] += bool(flips & set(done))
            seen["dropped"] += bool(report.dropped)
            failed = {e[1] for e in log if e[0] == "fail"}
            seen["retried"] += bool(failed & set(done))
            feats = [o for _, t in merged.points.values() for o in t.observations]
            seen["feature_in_two_tracks"] += len(set(feats)) < len(feats)
        assert all(seen.values()), seen


class TestGeoreference:
    def _geo_setup(self, seed=26, noise=0.0):
        scene = make_scene(n_cams=8, n_pts=60, seed=seed, noise=noise)
        rng = np.random.default_rng(seed + 1)
        # model lives in an arbitrary frame; survey frame is another one
        model = transform_recon(gt_reconstruction(scene), random_similarity(rng))
        survey = random_similarity(rng, scale_range=(1.5, 2.5))
        gcps = []
        for j, k in enumerate(range(0, 30, 3)):
            world = survey.apply(scene["points"][k]).reshape(3)
            obs = [
                (img, scene["features"][img].keypoints[k, :2].copy())
                for img in scene["images"][:5]
            ]
            role = "control" if j < 3 else "check"
            gcps.append(GcpRecord(j, world, obs, role))
        return scene, model, gcps, survey

    def test_noiseless_check_residuals_vanish(self):
        scene, model, gcps, survey = self._geo_setup()
        geo, report = georeference(model, gcps, scene["features"])
        assert len(report.residuals) == 7
        for _, dx, dy, dz in report.residuals:
            assert max(dx, dy, dz) < 1e-9
        # scene points land on their surveyed positions too
        for k in range(60):
            expect = survey.apply(scene["points"][k]).reshape(3)
            assert np.allclose(geo.points[k][0], expect, atol=1e-6)

    def test_too_few_controls(self):
        scene, model, gcps, _ = self._geo_setup(seed=28)
        gcps = [g for g in gcps if g.role == "check"] + [
            g for g in gcps if g.role == "control"
        ][:2]
        with pytest.raises(ValueError):
            georeference(model, gcps, scene["features"])

    def test_residual_table_layout(self):
        scene, model, gcps, _ = self._geo_setup(seed=29)
        _, report = georeference(model, gcps, scene["features"])
        table = report.format_table()
        lines = table.splitlines()
        assert "|X| (m)" in lines[0] and "|Z| (m)" in lines[0]
        assert lines[-3].lstrip().startswith("Max")
        assert lines[-2].lstrip().startswith("Mean")
        assert lines[-1].lstrip().startswith("Std")
        for name in ("max", "mean", "std"):
            assert report.stats[name].shape == (3,)

    def test_gcp_file_round_trip(self, tmp_path):
        _, _, gcps, _ = self._geo_setup(seed=30)
        path = tmp_path / "gcps.txt"
        write_gcps(path, gcps)
        back = read_gcps(path)
        assert len(back) == len(gcps)
        for g0, g1 in zip(gcps, back):
            assert g0.gcp_id == g1.gcp_id
            assert g0.role == g1.role
            assert np.array_equal(g0.world, g1.world)
            assert len(g0.observations) == len(g1.observations)
            for (i0, p0), (i1, p1) in zip(g0.observations, g1.observations):
                assert i0 == i1
                assert np.array_equal(np.asarray(p0, dtype=float), p1)


@pytest.mark.parametrize(
    "record, message",
    [
        ("SURVEY 1 0 0 0", "unknown record type 'SURVEY'"),
        ("GCP 1 0 0", "GCP record with 3 fields"),
        ("GCPOBS 0 1 2", "GCPOBS record with 3 fields"),
        ("GCP 1 0 north 0 control", "non-numeric field in GCP record"),
        ("GCPOBS 0 1 2 y", "non-numeric field in GCPOBS record"),
        ("GCPOBS 5 1 2 3", "GCPOBS of GCP 5 with no GCP record before it"),
        ("GCP 1 0 0 0 survey", "unknown GCP role 'survey'"),
        ("GCP 0 4 5 6 check", "repeated GCP id 0"),
    ],
)
def test_malformed_gcp_record_names_its_line(tmp_path, record, message):
    path = tmp_path / "gcps.txt"
    path.write_text(f"GCP 0 1 2 3 control\n\n{record}\nGCPOBS 0 1 2 3\n")
    with pytest.raises(ValueError) as err:
        read_gcps(path)
    assert str(err.value) == f"{path}:3: {message}"
