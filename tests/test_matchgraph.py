from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from parsfm.geometry import CameraIntrinsics, project
from parsfm.matchgraph import (
    FeatureSet,
    ImageMeta,
    MatchPair,
    build_match_graph,
    build_vocabulary,
    convex_hull_area,
    edge_weight,
    retrieve_pairs,
    verify_matches,
)
from parsfm.matchgraph.dataset import Dataset, read_dataset, write_dataset
from parsfm.matchgraph.matching import mutual_nearest_matches
from parsfm.matchgraph.retrieval import _rank_pairs
from parsfm.pipeline import SynthConfig, generate_synthetic

from helpers import default_intrinsics, look_at_pose, quantize_reference


def brute_force_hull_area(points):
    """O(n^3) half-plane hull: an ordered edge (i,j) is on the hull iff all
    other points lie strictly on its left or on the segment."""
    pts = np.unique(np.asarray(points, float).reshape(-1, 2), axis=0)
    n = len(pts)
    if n < 3:
        return 0.0
    verts = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = pts[j] - pts[i]
            rel = pts - pts[i]
            side = d[0] * rel[:, 1] - d[1] * rel[:, 0]
            if (side >= -1e-12).all():
                verts.add(i)
                verts.add(j)
    if len(verts) < 3:
        return 0.0
    hull = pts[sorted(verts)]
    c = hull.mean(axis=0)
    ang = np.arctan2(hull[:, 1] - c[1], hull[:, 0] - c[0])
    hull = hull[np.argsort(ang)]
    x, y = hull[:, 0], hull[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


class TestConvexHull:
    def test_unit_square(self):
        assert convex_hull_area([(0, 0), (1, 0), (1, 1), (0, 1)]) == pytest.approx(1.0)

    def test_triangle(self):
        assert convex_hull_area([(0, 0), (4, 0), (0, 3)]) == pytest.approx(6.0)

    def test_collinear_zero(self):
        assert convex_hull_area([(0, 0), (1, 1), (2, 2)]) == 0.0
        assert convex_hull_area([(0, 0), (1, 1)]) == 0.0

    def test_random_against_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = rng.integers(3, 13)
            pts = rng.uniform(0, 100, size=(n, 2))
            assert convex_hull_area(pts) == pytest.approx(
                brute_force_hull_area(pts), abs=1e-6
            )
        # spans from 0.01 to 10^4, some with repeated positions
        rng = np.random.default_rng(29)
        for k in range(240):
            n = int(rng.integers(3, 30))
            pts = rng.uniform(0.0, 10.0 ** rng.uniform(-2, 4), size=(n, 2))
            if k % 3 == 0:  # a keypoint matched twice repeats its position
                pts = np.vstack([pts, pts[: n // 2 + 1]])
            assert convex_hull_area(pts) == pytest.approx(
                brute_force_hull_area(pts), rel=1e-9
            )

    def test_degenerate_sets_have_zero_area(self):
        cases = [
            [],
            [(3.0, 4.0)],
            [(0.0, 0.0), (5.0, 5.0)],
            [(0.0, 0.0), (1.0, 2.0), (2.0, 4.0), (3.0, 6.0)],  # collinear
            [(1.0, 1.0), (1.0, 1.0), (4.0, 4.0)],  # duplicate, collinear
            [(0.0, 0.0), (0.0, 0.0), (0.0, 5.0), (0.0, 5.0)],  # duplicates on a line
            [(7.0, 3.0)] * 5,  # all identical
        ]
        for pts in cases:
            assert brute_force_hull_area(pts) == 0.0
            assert convex_hull_area(pts) == 0.0

    def test_100_random_points(self):
        rng = np.random.default_rng(19)
        pts = rng.uniform(0, 50, size=(100, 2))
        assert convex_hull_area(pts) == pytest.approx(brute_force_hull_area(pts))


def _fs(image_id, kps, descs=None):
    kps = np.asarray(kps, float)
    if descs is None:
        descs = np.zeros((len(kps), 0))
    return FeatureSet(image_id, kps, descs)


class TestEdgeWeight:
    def _full_cover_pair(self):
        meta = ImageMeta(0, 100, 100), ImageMeta(1, 100, 100)
        corners = [(0, 0, 1), (100, 0, 1), (100, 100, 1), (0, 100, 1)]
        feats = {0: _fs(0, corners), 1: _fs(1, corners)}
        pair = MatchPair(0, 1, [(i, i) for i in range(4)])
        return pair, meta, feats

    def test_both_terms_one(self):
        pair, (ma, mb), feats = self._full_cover_pair()
        for r in (0.0, 0.3, 0.5, 1.0):
            assert edge_weight(pair, ma, mb, 4, feats, r_ew=r) == pytest.approx(1.0)

    def test_arithmetic_half(self):
        # 0.5*(log100/log10000) + 0.5*0.5 = 0.5
        ma = ImageMeta(0, 200, 200)
        mb = ImageMeta(1, 200, 200)
        rng = np.random.default_rng(23)
        # hull = 200x100 rectangle = half the image area, on both images
        base = [(0, 0), (200, 0), (200, 100), (0, 100)]
        inner = rng.uniform([1, 1], [199, 99], size=(96, 2))
        kps = np.hstack([np.vstack([base, inner]), np.ones((100, 1))])
        feats = {0: _fs(0, kps), 1: _fs(1, kps)}
        pair = MatchPair(0, 1, [(i, i) for i in range(100)])
        w = edge_weight(pair, ma, mb, 10000, feats, r_ew=0.5)
        assert w == pytest.approx(0.5, abs=1e-12)

    def test_r_ew_one_is_pure_inlier_term(self):
        pair, (ma, mb), feats = self._full_cover_pair()
        w = edge_weight(pair, ma, mb, 16, feats, r_ew=1.0)
        assert w == pytest.approx(np.log(4) / np.log(16))

    def test_symmetry(self):
        pair, (ma, mb), feats = self._full_cover_pair()
        swapped = MatchPair(1, 0, pair.matches[:, ::-1])
        assert edge_weight(pair, ma, mb, 8, feats) == pytest.approx(
            edge_weight(swapped, mb, ma, 8, feats)
        )

    def test_monotone_in_inlier_count(self):
        ma = ImageMeta(0, 100, 100)
        mb = ImageMeta(1, 100, 100)
        rng = np.random.default_rng(29)
        kps = np.hstack([rng.uniform(10, 90, size=(50, 2)), np.ones((50, 1))])
        feats = {0: _fs(0, kps), 1: _fs(1, kps)}
        prev = -1.0
        for n in (5, 10, 20, 40, 50):
            pair = MatchPair(0, 1, [(i, i) for i in range(n)])
            w = edge_weight(pair, ma, mb, 100, feats)
            assert w >= prev
            prev = w

    def test_invalid_n_max(self):
        pair, (ma, mb), feats = self._full_cover_pair()
        with pytest.raises(ValueError):
            edge_weight(pair, ma, mb, 1, feats)


class TestBuildMatchGraph:
    def _chain(self, counts):
        metas = {}
        feats = {}
        pairs = []
        rng = np.random.default_rng(31)
        n_img = len(counts) + 1
        for i in range(n_img):
            metas[i] = ImageMeta(i, 500, 400)
            kps = np.hstack(
                [rng.uniform([0, 0], [500, 400], size=(130, 2)), np.ones((130, 1))]
            )
            feats[i] = _fs(i, kps)
        for i, c in enumerate(counts):
            pairs.append(MatchPair(i, i + 1, [(k, k) for k in range(c)]))
        return metas, feats, pairs

    def test_threshold_boundary_inclusive_at_50(self):
        metas, feats, pairs = self._chain([49, 50, 120])
        g = build_match_graph(pairs, metas, feats)
        assert len(g.edges) == 2
        assert (0, 1) not in g.edges
        assert (1, 2) in g.edges and (2, 3) in g.edges

    def test_empty_pairs(self):
        metas, feats, _ = self._chain([])
        g = build_match_graph([], metas, feats)
        assert len(g.vertices) == 1
        assert len(g.edges) == 0

    def test_chain_weights_match_independent_recomputation(self):
        metas, feats, pairs = self._chain([60, 80, 100, 120])
        g = build_match_graph(pairs, metas, feats)
        assert sorted(g.edges) == [(0, 1), (1, 2), (2, 3), (3, 4)]
        n_max = 120
        for p in pairs:
            w = edge_weight(
                p, metas[p.image_id_a], metas[p.image_id_b], n_max, feats
            )
            assert g.edges[p.key()][0] == pytest.approx(w)

    def test_weights_in_bounds(self):
        metas, feats, pairs = self._chain([55, 70, 90])
        g = build_match_graph(pairs, metas, feats)
        for w, _ in g.edges.values():
            assert 0.0 <= w <= 1.0


class TestVocabulary:
    def test_leaf_count_512(self):
        rng = np.random.default_rng(37)
        desc = rng.normal(size=(600, 8))
        tree = build_vocabulary(desc, branching=8, depth=3, rng_seed=0)
        assert tree.num_words == 512
        words = tree.quantize(desc)
        assert words.min() >= 0 and words.max() < 512

    def test_depth_zero_identity_quantizer(self):
        rng = np.random.default_rng(39)
        desc = rng.normal(size=(5, 4))
        tree = build_vocabulary(desc, branching=8, depth=0)
        assert tree.num_words == 1
        assert (tree.quantize(desc) == 0).all()

    def test_two_cluster_centroids_match_flat_kmeans(self):
        from scipy.cluster.vq import kmeans2

        rng = np.random.default_rng(41)
        a = rng.normal(loc=(-5, 0), scale=0.1, size=(50, 2))
        b = rng.normal(loc=(5, 0), scale=0.1, size=(50, 2))
        desc = np.vstack([a, b])
        tree = build_vocabulary(desc, branching=2, depth=1, rng_seed=1)
        centers = np.array(sorted(tree.root.centers.tolist()))
        oracle, _ = kmeans2(desc, 2, minit="++", seed=7)
        oracle = np.array(sorted(oracle.tolist()))
        assert np.allclose(centers, oracle, atol=0.1)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(43)
        desc = rng.normal(size=(100, 4))
        t1 = build_vocabulary(desc, 3, 2, rng_seed=5)
        t2 = build_vocabulary(desc, 3, 2, rng_seed=5)
        assert np.array_equal(t1.quantize(desc), t2.quantize(desc))

    def test_insufficient_samples(self):
        with pytest.raises(ValueError):
            build_vocabulary(np.zeros((3, 4)), branching=2, depth=2)

    def test_quantize_equals_per_descriptor_walk(self):
        rng = np.random.default_rng(44)
        for _ in range(30):
            b, depth, dim = int(rng.integers(2, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 17))
            samples = rng.normal(size=(int(rng.integers(b**depth, 3 * b**depth + 20)), dim))
            tree = build_vocabulary(samples, b, depth, rng_seed=int(rng.integers(100)))
            queries = np.vstack([samples, rng.normal(scale=2.0, size=(200, dim))])
            assert np.array_equal(tree.quantize(queries), quantize_reference(tree, queries))

    def test_quantize_ties_at_duplicated_centers(self):
        # 3 distinct rows for 8 branches: _split repeats centers, and integer
        # queries sit at equal distances from distinct centers too
        rng = np.random.default_rng(46)
        base = rng.integers(0, 3, size=(3, 4)).astype(float)
        samples = base[rng.integers(0, 3, size=600)]
        tree = build_vocabulary(samples, 8, 2, rng_seed=3)
        assert len(np.unique(tree.root.centers, axis=0)) < 8
        queries = rng.integers(-1, 4, size=(500, 4)).astype(float)
        words = tree.quantize(queries)
        assert np.array_equal(words, quantize_reference(tree, queries))
        assert np.array_equal(tree.quantize(samples), quantize_reference(tree, samples))

    def test_quantize_depth_zero_and_empty_input(self):
        rng = np.random.default_rng(48)
        desc = rng.normal(size=(7, 5))
        flat = build_vocabulary(desc, 4, 0)
        assert np.array_equal(flat.quantize(desc), quantize_reference(flat, desc))
        tree = build_vocabulary(desc, 2, 2, rng_seed=1)
        for t in (flat, tree):
            words = t.quantize(np.zeros((0, 5)))
            assert words.shape == (0,)
            assert np.array_equal(words, quantize_reference(t, np.zeros((0, 5))))


def _random_unit(rng, n, d=16):
    v = rng.normal(size=(n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _rank_pairs_sorted(sim, ids, top_k):
    """Python-sorted ranking: key (-similarity, image id) per image."""
    pairs = set()
    for qi, qid in enumerate(ids):
        order = sorted(
            (j for j in range(len(ids)) if j != qi), key=lambda j: (-sim[qi, j], ids[j])
        )
        for j in order[:top_k]:
            pairs.add((min(qid, ids[j]), max(qid, ids[j])))
    return sorted(pairs)


class TestRetrieval:
    def test_ranking_equals_sorted_keys_under_ties(self):
        rng = np.random.default_rng(61)
        for n in (2, 3, 9, 40):
            ids = sorted(rng.choice(1000, size=n, replace=False).tolist())
            # a coarse grid of values makes many equal similarities
            sim = np.round(rng.uniform(0, 1, size=(n, n)), 1)
            sim = np.maximum(sim, sim.T)
            sim[np.diag_indices(n)] = 1.0
            sim[0] = 0.0  # a row of ties only, against every image
            for top_k in (1, 2, 5, n):
                assert _rank_pairs(sim, ids, top_k) == _rank_pairs_sorted(sim, ids, top_k)

    def _corpus(self, rng, groups):
        """groups: list of lists of word-descriptor pools per image."""
        features = {}
        for iid, pool in enumerate(groups):
            kps = np.hstack(
                [rng.uniform(0, 500, size=(len(pool), 2)), rng.uniform(1, 4, size=(len(pool), 1))]
            )
            features[iid] = FeatureSet(iid, kps, np.asarray(pool))
        return features

    def test_three_images_exhaustive(self):
        rng = np.random.default_rng(47)
        pool = _random_unit(rng, 30)
        feats = self._corpus(rng, [pool[:20], pool[5:25], pool[10:30]])
        tree = build_vocabulary(pool, 2, 3, rng_seed=0)
        pairs = retrieve_pairs(feats, tree, top_k=2)
        assert pairs == [(0, 1), (0, 2), (1, 2)]

    def test_duplicate_image_rank_one(self):
        rng = np.random.default_rng(53)
        base = _random_unit(rng, 200)
        imgs = [base[i * 20 : i * 20 + 40] for i in range(8)]
        imgs.append(imgs[0].copy())  # duplicate of image 0
        feats = self._corpus(rng, imgs)
        tree = build_vocabulary(base, 4, 2, rng_seed=0)
        pairs = retrieve_pairs(feats, tree, top_k=1)
        assert (0, 8) in pairs

    def test_disjoint_blocks_rank_below_within_block(self):
        rng = np.random.default_rng(59)
        pool_a = _random_unit(rng, 120)
        pool_b = _random_unit(rng, 120)
        imgs = [pool_a[i * 20 : i * 20 + 60] for i in range(3)]
        imgs += [pool_b[i * 20 : i * 20 + 60] for i in range(3)]
        feats = self._corpus(rng, imgs)
        tree = build_vocabulary(np.vstack([pool_a, pool_b]), 4, 2, rng_seed=0)
        pairs = retrieve_pairs(feats, tree, top_k=2)
        within = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}
        # at top_k=2 every emitted pair should be a within-block pair
        assert set(pairs) <= within

    def test_topk_superset_of_overlaps(self):
        rng = np.random.default_rng(61)
        pool = _random_unit(rng, 100)
        imgs = [pool[i * 10 : i * 10 + 30] for i in range(7)]
        feats = self._corpus(rng, imgs)
        tree = build_vocabulary(pool, 4, 2, rng_seed=0)
        pairs = set(retrieve_pairs(feats, tree, top_k=len(imgs) - 1))
        truth = {
            (i, j)
            for i in range(7)
            for j in range(i + 1, 7)
            if 10 * j < 10 * i + 30  # descriptor ranges overlap
        }
        assert truth <= pairs


def _mutual_nearest_loop(desc_a, desc_b, ratio=0.8):
    """Per-descriptor oracle for mutual_nearest_matches."""
    if len(desc_a) == 0 or len(desc_b) == 0:
        return np.zeros((0, 2), dtype=int)
    d2 = (
        (desc_a**2).sum(axis=1)[:, None]
        + (desc_b**2).sum(axis=1)[None, :]
        - 2.0 * desc_a @ desc_b.T
    )
    nn_ab = d2.argmin(axis=1)
    nn_ba = d2.argmin(axis=0)
    out = []
    for i, j in enumerate(nn_ab):
        if nn_ba[j] != i:
            continue
        if d2.shape[1] >= 2:
            row = d2[i].copy()
            best = row[j]
            row[j] = np.inf
            if best > (ratio**2) * row.min():
                continue
        out.append((i, int(j)))
    return np.array(out, dtype=int).reshape(-1, 2)


class TestMutualNearestMatches:
    def _check(self, a, b, ratio=0.8):
        got = mutual_nearest_matches(a, b, ratio)
        want = _mutual_nearest_loop(a, b, ratio)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        return got

    def test_random_descriptors_match_loop(self):
        rng = np.random.default_rng(83)
        for na, nb, ratio in ((50, 60, 0.8), (200, 150, 0.9), (7, 3, 0.6)):
            a = _random_unit(rng, na)
            b = np.vstack([a[: nb // 2], _random_unit(rng, nb - nb // 2)])
            b[: nb // 2] += rng.normal(scale=0.05, size=b[: nb // 2].shape)
            assert len(self._check(a, b, ratio)) > 0

    def test_equal_distance_ties_rejected(self):
        # integer descriptors give exact distances; b rows 0 and 1 tie for a[0]
        a = np.array([[0.0, 0.0], [5.0, 5.0]])
        b = np.array([[1.0, 0.0], [-1.0, 0.0], [5.0, 5.0]])
        got = self._check(a, b)
        assert got.tolist() == [[1, 2]]
        rng = np.random.default_rng(89)
        for _ in range(20):
            a = rng.integers(0, 3, size=(30, 4)).astype(float)
            b = rng.integers(0, 3, size=(25, 4)).astype(float)
            self._check(a, b)

    def test_single_column_and_empty(self):
        rng = np.random.default_rng(97)
        a = _random_unit(rng, 10)
        got = self._check(a, a[3:4])
        assert got.tolist() == [[3, 0]]  # no second neighbour: no ratio test
        self._check(a[3:4], a)
        for x, y in ((a[:0], a), (a, a[:0]), (a[:0], a[:0])):
            assert self._check(x, y).shape == (0, 2)


class TestVerifyMatches:
    def _pair_scene(self, rng, n_pts=80, outlier_frac=0.0):
        intr = default_intrinsics()
        p0 = look_at_pose((-1.0, -8.0, 2.0), (0, 0, 0))
        p1 = look_at_pose((1.5, -8.0, 2.5), (0, 0, 0))
        pts = rng.uniform([-4, -2, -1], [4, 2, 1], size=(n_pts, 3))
        desc = _random_unit(rng, n_pts)
        kp0, kp1, d0, d1 = [], [], [], []
        truth = []
        for i, X in enumerate(pts):
            a = project(intr, p0, X)
            b = project(intr, p1, X)
            kp0.append((*a, 1.0))
            kp1.append((*b, 1.0))
            d0.append(desc[i])
            d1.append(desc[i] + rng.normal(scale=0.01, size=desc.shape[1]))
            truth.append(i)
        kp0, kp1 = np.array(kp0), np.array(kp1)
        d1 = np.array(d1)
        d1 /= np.linalg.norm(d1, axis=1, keepdims=True)
        n_out = int(outlier_frac * n_pts)
        if n_out:
            # corrupt geometry, keep descriptors: planted false matches
            kp1[:n_out, :2] = rng.uniform([0, 0], [1000, 800], size=(n_out, 2))
        feats = {
            0: FeatureSet(0, kp0, np.array(d0)),
            1: FeatureSet(1, kp1, d1),
        }
        return feats, {0: intr, 1: intr}, n_out

    def test_noiseless_all_true_matches_retained(self):
        rng = np.random.default_rng(67)
        feats, intr, _ = self._pair_scene(rng)
        out = verify_matches([(0, 1)], feats, intr, rng_seed=1)
        assert len(out) == 1
        pair = out[0]
        assert pair.inlier_count >= 0.98 * len(feats[0])
        assert (pair.matches[:, 0] == pair.matches[:, 1]).all()

    def test_disjoint_content_dropped(self):
        rng = np.random.default_rng(71)
        f0 = FeatureSet(
            0,
            np.hstack([rng.uniform(0, 500, (40, 2)), np.ones((40, 1))]),
            _random_unit(rng, 40),
        )
        f1 = FeatureSet(
            1,
            np.hstack([rng.uniform(0, 500, (40, 2)), np.ones((40, 1))]),
            _random_unit(rng, 40),
        )
        intr = default_intrinsics()
        out = verify_matches([(0, 1)], {0: f0, 1: f1}, {0: intr, 1: intr}, rng_seed=2)
        assert out == []

    def test_planted_outliers_mostly_rejected(self):
        rng = np.random.default_rng(73)
        feats, intr, n_out = self._pair_scene(rng, n_pts=120, outlier_frac=0.6)
        out = verify_matches([(0, 1)], feats, intr, rng_seed=3)
        assert len(out) == 1
        kept = out[0].matches
        true_kept = (kept[:, 0] >= n_out).sum()
        assert true_kept / len(kept) >= 0.9


class TestVerifyOnPool:
    def test_pool_returns_the_serial_list(self):
        dataset, _, _, _ = generate_synthetic(
            SynthConfig(image_count=10, pattern="orbit", point_count=300,
                        pixel_noise=1.0, seed=21, emit_descriptors=True)
        )  # noise at which the kept matches depend on the RANSAC draws
        rng = np.random.default_rng(31)
        ids = sorted(dataset.features)
        # image 99 has too few keypoints to verify: its pairs are dropped
        dataset.features[99] = FeatureSet(
            99, np.hstack([rng.uniform(0, 900, (6, 2)), np.ones((6, 1))]),
            _random_unit(rng, 6, 16),
        )
        dataset.intrinsics[99] = dataset.intrinsics[0]
        candidates = [(b, a) if (a + b) % 2 else (a, b) for a in ids for b in ids if a < b]
        candidates[::7] = [(99, b) for _, b in candidates[::7]]
        args = (candidates, dataset.features, dataset.intrinsics)
        serial = verify_matches(*args, rng_seed=5)
        with ProcessPoolExecutor(max_workers=2) as pool:
            pooled = verify_matches(*args, rng_seed=5, pool=pool)
        assert 0 < len(serial) < len(candidates)
        assert [(p.image_id_a, p.image_id_b) for p in pooled] == [
            (p.image_id_a, p.image_id_b) for p in serial
        ]
        for p, q in zip(pooled, serial):
            assert np.array_equal(p.matches, q.matches)


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(79)
        metas = {0: ImageMeta(0, 640, 480), 1: ImageMeta(1, 640, 480)}
        feats = {
            i: FeatureSet(
                i,
                np.hstack([rng.uniform(0, 480, (10, 2)), rng.uniform(1, 3, (10, 1))]),
                _random_unit(rng, 10, 4),
            )
            for i in range(2)
        }
        pairs = [MatchPair(0, 1, [(0, 1), (2, 3)])]

        intr = {
            i: CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480) for i in range(2)
        }
        ds = Dataset(metas=metas, features=feats, pairs=pairs, intrinsics=intr)
        path = tmp_path / "data.txt"
        write_dataset(path, ds)
        back = read_dataset(path)
        assert set(back.metas) == {0, 1}
        assert back.metas[0].width == 640
        for i in range(2):
            assert np.allclose(back.features[i].keypoints, feats[i].keypoints)
            assert np.allclose(back.features[i].descriptors, feats[i].descriptors)
        assert len(back.pairs) == 1
        assert np.array_equal(back.pairs[0].matches, pairs[0].matches)
        assert back.intrinsics[1].focal_x == 500.0

    def test_image_without_keypoints_gets_empty_feature_set(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text(
            "INTRINSICS 500 500 320 240\n"
            "IMAGE 0 640 480\nIMAGE 1 640 480\nIMAGE 2 640 480\n"
            "KEYPOINT 0 1 2 1\nKEYPOINT 2 3 4 1\n"
            "DESC 0 0 1 0 0 0\nDESC 2 0 0 1 0 0\n"
        )
        back = read_dataset(path)
        assert sorted(back.features) == [0, 1, 2]
        assert back.features[1].keypoints.shape == (0, 3)
        assert back.features[1].descriptors.shape == (0, 4)
        assert back.has_descriptors

    def test_match_orientation_normalized(self, tmp_path):
        ds = Dataset(
            metas={0: ImageMeta(0, 10, 10), 1: ImageMeta(1, 10, 10)},
            features={i: FeatureSet(i, np.ones((8, 3)), np.zeros((8, 0))) for i in (0, 1)},
            pairs=[MatchPair(1, 0, [(5, 7)])],
            intrinsics={i: CameraIntrinsics(10.0, 10.0, 5.0, 5.0, 10, 10) for i in (0, 1)},
        )
        path = tmp_path / "d.txt"
        write_dataset(path, ds)
        back = read_dataset(path)
        pair = back.pairs[0]
        assert (pair.image_id_a, pair.image_id_b) == (0, 1)
        assert np.array_equal(pair.oriented(1), [[5, 7]])

    @pytest.mark.parametrize(
        "bad, line, message",
        [
            ("MATCH 0 1 0 2", 8, "MATCH keypoint 2 not in image 1"),
            ("MATCH 1 0 3 0", 8, "MATCH keypoint 3 not in image 1"),
            ("MATCH 0 5 0 0", 8, "MATCH names image 5 with no IMAGE record"),
            ("MATCH 0 1 -1 0", 8, "MATCH keypoint -1 not in image 0"),
            ("MATCH 1 -3 0 0", 8, "MATCH names image -3 with no IMAGE record"),
            ("IMAGE -2 640 480", 8, "negative or duplicate IMAGE id -2"),
            ("IMAGE 1 640 480", 8, "negative or duplicate IMAGE id 1"),
            ("FEATURE 0 1 2", 8, "unknown record type 'FEATURE'"),
            ("IMAGE 2 640", 8, "IMAGE record with 2 fields"),
            ("KEYPOINT 0 1 2", 8, "KEYPOINT record with 3 fields"),
            ("DESC 0 0", 8, "DESC record with 2 fields"),
            ("MATCH 0 1 a 0", 8, "non-numeric field in MATCH record"),
            ("KEYPOINT 0 1 2 1e", 8, "non-numeric field in KEYPOINT record"),
            ("DESC 1 2 1 0", 8, "DESC keypoint 2 not in image 1"),
            ("DESC 0 0 1 0\nDESC 0 1 1 0 0", 9, "DESC of dimension 3, not 2"),
            ("DESC 0 0 1 0", 5, "KEYPOINT 1 of image 0 has no DESC"),
            ("IMAGE 2 640 480", 2, "IMAGE records with no INTRINSICS record"),
            ("IMAGE 2 0 480", 8, "image dimensions must be positive"),
            ("IMAGE 2 300 480", 8, "principal_x outside image bounds"),
            ("INTRINSICS 500 -500 320 240", 8, "focal lengths must be positive"),
            ("INTRINSICS nan 500 320 240", 8, "non-finite value in INTRINSICS record"),
            ("INTRINSICS 900 900 320 240", 8, "repeated INTRINSICS record"),
            ("KEYPOINT 0 1 inf 1", 8, "non-finite value in KEYPOINT record"),
            ("KEYPOINT 2 1 2 1", 8, "KEYPOINT of image 2 with no IMAGE record"),
            ("MATCH 0 0 0 1", 8, "MATCH of image 0 with itself"),
            ("DESC 0 0 1 0\nDESC 0 0 5 5", 9, "repeated DESC 0 0"),
            # the lower image's keypoints of a pair are checked first
            ("MATCH 0 1 0 9\nMATCH 0 1 5 0", 9, "MATCH keypoint 5 not in image 0"),
        ],
    )
    def test_bad_record_rejected_with_its_line(self, tmp_path, bad, line, message):
        path = tmp_path / "d.txt"
        # the missing-INTRINSICS case leaves the shared record out
        intrinsics = "" if "no INTRINSICS" in message else "INTRINSICS 500 500 320 240"
        path.write_text(
            f"{intrinsics}\n"
            "IMAGE 0 640 480\nIMAGE 1 640 480\n"
            "KEYPOINT 0 1 2 1\nKEYPOINT 0 3 4 1\nKEYPOINT 1 1 2 1\nKEYPOINT 1 5 6 1\n"
            f"{bad}\n"
            "MATCH 0 1 1 1\n"
        )
        with pytest.raises(ValueError) as err:
            read_dataset(path)
        assert str(err.value) == f"{path}:{line}: {message}"
