import numpy as np
import pytest

from parsfm.geometry import (
    RANSAC_CONFIDENCE,
    BehindCameraError,
    CameraIntrinsics,
    CameraPose,
    DegenerateGeometryError,
    EstimationFailure,
    SimilarityTransform,
    adaptive_ransac,
    estimate_relative_pose,
    pinhole,
    project,
    resect_camera,
    triangulate,
    umeyama_similarity,
)
from parsfm.geometry import resection
from parsfm.geometry.camera import angle_axis_to_matrix, project_rotation
from parsfm.geometry.resection import _dlt_pose, _homography
from parsfm.geometry.twoview import (
    TRI_OK,
    triangulate_tracks,
    widest_ray_angle,
    _cheirality_counts,
    _decompose_essential,
    _eight_point_essential,
)

from helpers import (
    call_with_deadline,
    default_intrinsics,
    look_at_pose,
    random_rotation,
    ring_cameras,
    triangulate_reference,
)


class TestProject:
    def test_optical_axis(self):
        intr = CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 2, 2)
        assert np.allclose(project(intr, CameraPose.identity(), (0, 0, 1)), (0, 0))

    def test_simple_offset(self):
        intr = CameraIntrinsics(2.0, 2.0, 100.0, 100.0, 200, 200)
        # f*x/z + pp = 2*1/2 + 100 = 101
        px = project(intr, CameraPose.identity(), (1, 1, 2))
        assert np.allclose(px, (101, 101))

    def test_behind_camera_raises(self):
        intr = default_intrinsics()
        with pytest.raises(BehindCameraError):
            project(intr, CameraPose.identity(), (0, 0, -1))

    def test_matches_stepwise_oracle(self):
        # independent re-implementation: rotate, translate, divide, scale
        rng = np.random.default_rng(7)
        intr = default_intrinsics()
        for _ in range(50):
            R = random_rotation(rng)
            t = rng.normal(size=3)
            X = rng.normal(size=3) * 3
            p = R @ X + t
            if p[2] <= 1e-6:
                continue
            expect = np.array(
                [
                    intr.focal_x * (p[0] / p[2]) + intr.principal_x,
                    intr.focal_y * (p[1] / p[2]) + intr.principal_y,
                ]
            )
            got = project(intr, CameraPose(R, t), X)
            assert np.allclose(got, expect, atol=1e-12)


class TestTriangulate:
    def test_exact_two_view(self):
        intr = default_intrinsics()
        p1 = look_at_pose((-1, 0, 0), (0, 0, 5))
        p2 = look_at_pose((1, 0, 0), (0, 0, 5))
        X = np.array([0.0, 0.0, 5.0])
        obs = [(intr, p1, project(intr, p1, X)), (intr, p2, project(intr, p2, X))]
        assert np.allclose(triangulate(obs), X, atol=1e-9)

    def test_identical_poses_degenerate(self):
        intr = default_intrinsics()
        p = look_at_pose((0, -5, 0), (0, 0, 0))
        X = np.array([0.3, 0.1, 0.2])
        obs = [(intr, p, project(intr, p, X))] * 2
        with pytest.raises(DegenerateGeometryError):
            triangulate(obs)

    def test_noise_error_within_monte_carlo_bound(self):
        # Monte-Carlo bound computed with an independent nonlinear two-view
        # oracle (scipy least_squares on ray intersection), frozen below.
        from scipy.optimize import least_squares

        intr = default_intrinsics()
        p1 = look_at_pose((-1, 0, 0), (0, 0, 5))
        p2 = look_at_pose((1, 0, 0), (0, 0, 5))
        rng = np.random.default_rng(11)
        X = np.array([0.2, -0.1, 5.0])
        errs_lin = []
        errs_nl = []
        for _ in range(100):
            obs = []
            for pose in (p1, p2):
                px = project(intr, pose, X) + rng.normal(scale=0.5, size=2)
                obs.append((intr, pose, px))
            Xl = triangulate(obs)
            errs_lin.append(np.linalg.norm(Xl - X))

            def res(Y):
                return np.concatenate(
                    [project(intr, pose, Y) - px for intr_, pose, px in obs]
                )

            Xn = least_squares(res, Xl).x
            errs_nl.append(np.linalg.norm(Xn - X))
        bound = 3.0 * np.mean(errs_nl)
        assert np.mean(errs_lin) < bound

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        intr = default_intrinsics()
        poses = ring_cameras(4)
        for _ in range(30):
            X = rng.normal(size=3) * 2
            obs = [(intr, p, project(intr, p, X)) for p in poses]
            assert np.allclose(triangulate(obs), X, atol=1e-9)


class TestBatchedTriangulation:
    """triangulate_tracks against the per-track scalar path in helpers."""

    def _special_tracks(self, intr):
        X = np.array([0.5, -0.2, 0.3])
        eye = X + np.array([0.0, 0.0, 8.0])
        # two centres 1 cm apart: rays far below the 2 degree gate
        narrow = [look_at_pose(eye, X), look_at_pose(eye + (0.01, 0.0, 0.0), X)]
        narrow = [(intr, p, project(intr, p, X)) for p in narrow]
        # equal rotations and the principal point in both: parallel rays
        axis = np.array([0.0, 0.3, -1.0])
        parallel = [look_at_pose(e, e + axis) for e in (eye, eye + (2.0, 0.0, 0.0))]
        infinity = [(intr, p, np.array([intr.principal_x, intr.principal_y])) for p in parallel]
        # a third camera facing away from the point sees it from behind
        away = look_at_pose(X + (1.0, 1.0, 5.0), X + (2.0, 2.0, 10.0))
        behind = [(intr, p, project(intr, p, X)) for p in ring_cameras(2, 6.0, 4.0, X)]
        behind.append((intr, away, pinhole(away.transform(X)[0], *intr.pinhole_terms)[0]))
        # one view 30 px off
        outlier = [(intr, p, project(intr, p, X)) for p in ring_cameras(3, 6.0, 4.0, X)]
        outlier[1] = (intr, outlier[1][1], outlier[1][2] + (30.0, 0.0))
        return [narrow, infinity, behind, outlier]

    @pytest.mark.parametrize(
        "gate, max_px, expected", [(2.0, 4.0, [1, 1, 3, 4]), (0.0, np.inf, [0, 2, 3, 0])]
    )
    def test_batch_equals_per_track_loop(self, gate, max_px, expected):
        rng = np.random.default_rng(29)
        intr = default_intrinsics()
        tracks = []
        for views in (2, 3, 6) * 40:
            X = rng.normal(size=3)
            poses = [
                look_at_pose(X + rng.normal(size=3) * 3 + (0, 0, 8), X) for _ in range(views)
            ]
            tracks.append(
                [(intr, p, project(intr, p, X) + rng.normal(scale=2.0, size=2)) for p in poses]
            )
        special = self._special_tracks(intr)
        tracks += special
        order = rng.permutation(len(tracks))
        flat = [obs for j in order for obs in tracks[j]]
        X, status = triangulate_tracks(
            np.array([len(tracks[j]) for j in order]),
            np.array([i.pinhole_terms for i, _, _ in flat]),
            np.array([p.rotation for _, p, _ in flat]),
            np.array([p.translation for _, p, _ in flat]),
            np.array([px for _, _, px in flat]),
            gate,
            max_px,
        )
        ref = [triangulate_reference(tracks[j], gate, max_px) for j in order]
        assert status.tolist() == [code for _, code in ref]
        by_track = dict(zip(order.tolist(), [code for _, code in ref]))
        assert [by_track[len(tracks) - 4 + k] for k in range(4)] == expected
        assert 0 < (status == TRI_OK).sum() < len(tracks)
        for (Xr, code), Xk in zip(ref, X):
            if code == TRI_OK:
                assert np.abs(Xk - Xr).max() <= 1e-12 * np.abs(Xr).max()

    def test_empty_batch(self):
        X, status = triangulate_tracks(
            np.zeros(0, dtype=int), np.zeros((0, 4)), np.zeros((0, 3, 3)), np.zeros((0, 3)),
            np.zeros((0, 2)),
        )
        assert X.shape == (0, 3) and status.shape == (0,)


class TestRelativePose:
    def _synth_pair(self, rng, n=60, outlier_frac=0.0, baseline=(1.0, 0.0, 0.0)):
        intr = default_intrinsics()
        pose1 = CameraPose.identity()
        eye2 = np.asarray(baseline)
        R2 = angle_axis_to_matrix(rng.normal(scale=0.05, size=3))
        pose2 = CameraPose(R2, -R2 @ eye2)
        pts = rng.uniform([-3, -3, 6], [3, 3, 12], size=(n, 3))
        matches, labels = [], []
        for X in pts:
            try:
                a = project(intr, pose1, X)
                b = project(intr, pose2, X)
            except BehindCameraError:
                continue
            matches.append((a, b))
            labels.append(True)
        n_out = int(outlier_frac * len(matches))
        for i in range(n_out):
            matches[i] = (matches[i][0], rng.uniform([0, 0], [1000, 800]))
            labels[i] = False
        return intr, pose1, pose2, np.array(matches), np.array(labels)

    def test_exact_recovery(self):
        rng = np.random.default_rng(5)
        intr, p1, p2, matches, _ = self._synth_pair(rng)
        pose, mask = estimate_relative_pose(matches, intr, intr, rng=1)
        # ground-truth relative pose of cam2 w.r.t. cam1 (cam1 = identity)
        rot_err = np.arccos(
            np.clip((np.trace(pose.rotation @ p2.rotation.T) - 1) / 2, -1, 1)
        )
        t_true = p2.translation / np.linalg.norm(p2.translation)
        t_err = np.arccos(np.clip(abs(np.dot(pose.translation, t_true)), -1, 1))
        assert rot_err < 1e-6
        assert t_err < 1e-6

    def test_outlier_mask(self):
        rng = np.random.default_rng(9)
        intr, _, _, matches, labels = self._synth_pair(rng, n=120, outlier_frac=0.2)
        _, mask = estimate_relative_pose(matches, intr, intr, rng=2)
        recovered = (mask & labels).sum() / labels.sum()
        assert recovered >= 0.95

    def test_too_few_matches(self):
        intr = default_intrinsics()
        with pytest.raises(EstimationFailure):
            estimate_relative_pose(np.zeros((5, 2, 2)), intr, intr)

    def test_degenerate_zero_baseline(self):
        # pure rotation: epipolar geometry undefined; expect failure or tiny t
        rng = np.random.default_rng(13)
        intr = default_intrinsics()
        R2 = angle_axis_to_matrix([0.0, 0.1, 0.0])
        pts = rng.uniform([-3, -3, 6], [3, 3, 12], size=(40, 3))
        matches = []
        for X in pts:
            a = project(intr, CameraPose.identity(), X)
            b = project(intr, CameraPose(R2, np.zeros(3)), X)
            matches.append((a, b))
        try:
            pose, mask = estimate_relative_pose(np.array(matches), intr, intr, rng=3)
        except EstimationFailure:
            return
        # if it returns, the answer cannot be trusted; it must at least flag
        # near-total consensus breakdown or recover the rotation
        rot_err = np.arccos(np.clip((np.trace(pose.rotation @ R2.T) - 1) / 2, -1, 1))
        assert rot_err < 0.2 or mask.mean() < 0.5


class TestResection:
    def _scene(self, rng, n=40):
        intr = default_intrinsics()
        pose = look_at_pose((2.0, -8.0, 3.0), (0, 0, 0))
        pts = rng.uniform([-4, -4, -1], [4, 4, 2], size=(n, 3))
        corr = []
        for X in pts:
            try:
                corr.append((X, project(intr, pose, X)))
            except BehindCameraError:
                pass
        return intr, pose, corr

    def test_exact_recovery(self):
        rng = np.random.default_rng(21)
        intr, pose, corr = self._scene(rng)
        est, mask = resect_camera(corr, intr, rng=4)
        assert np.allclose(est.rotation, pose.rotation, atol=1e-6)
        assert np.allclose(est.translation, pose.translation, atol=1e-6)
        assert mask.all()

    def test_outlier_classification(self):
        rng = np.random.default_rng(23)
        intr, pose, corr = self._scene(rng, n=80)
        labels = np.ones(len(corr), bool)
        n_out = int(0.3 * len(corr))
        for i in range(n_out):
            corr[i] = (corr[i][0], rng.uniform([0, 0], [1000, 800]))
            labels[i] = False
        _, mask = resect_camera(corr, intr, rng=5)
        acc = (mask == labels).mean()
        assert acc >= 0.95

    def test_too_few(self):
        intr = default_intrinsics()
        with pytest.raises(EstimationFailure):
            resect_camera([(np.zeros(3), np.zeros(2))] * 5, intr)

    def test_refit_far_off_refines_from_sample_pose(self, monkeypatch):
        # on a nearly flat inlier set the all-inlier DLT refit can land far
        # off the best sample's pose; refining from it then loses consensus
        rng = np.random.default_rng(21)
        intr, pose, corr = self._scene(rng)
        flip = np.diag([1.0, -1.0, -1.0])  # every point behind the camera
        real = resection._sample_pose

        def far_off_refit(X, xn):
            est = real(X, xn)
            if len(X) == len(corr):
                return CameraPose(flip @ est.rotation, flip @ est.translation)
            return est

        monkeypatch.setattr(resection, "_sample_pose", far_off_refit)
        est, mask = resect_camera(corr, intr, rng=4)
        assert mask.all()
        assert np.allclose(est.rotation, pose.rotation, atol=1e-6)
        assert np.allclose(est.translation, pose.translation, atol=1e-6)


# Per-correspondence loop versions of the array kernels in parsfm.geometry,
# kept as oracles: the kernels must reproduce them bit for bit.


def _cheirality_counts_loop(R, t, x1, x2):
    good = 0
    for i in range(len(x1)):
        A = np.empty((4, 4))
        P1 = np.hstack([np.eye(3), np.zeros((3, 1))])
        P2 = np.hstack([R, t.reshape(3, 1)])
        A[0] = x1[i, 0] * P1[2] - P1[0]
        A[1] = x1[i, 1] * P1[2] - P1[1]
        A[2] = x2[i, 0] * P2[2] - P2[0]
        A[3] = x2[i, 1] * P2[2] - P2[1]
        _, _, Vt = np.linalg.svd(A)
        Xh = Vt[-1]
        if abs(Xh[3]) < 1e-14:
            continue
        X = Xh[:3] / Xh[3]
        if X[2] > 0 and (R @ X + t)[2] > 0:
            good += 1
    return good


def _hartley(x):
    mean = x.mean(axis=0)
    d = np.sqrt(((x - mean) ** 2).sum(axis=1)).mean()
    s = np.sqrt(2.0) / max(d, 1e-12)
    T = np.array([[s, 0, -s * mean[0]], [0, s, -s * mean[1]], [0, 0, 1]])
    return np.hstack([x, np.ones((len(x), 1))]) @ T.T, T


def _eight_point_essential_full_svd(x1, x2):
    a, T1 = _hartley(x1)
    b, T2 = _hartley(x2)
    A = np.einsum("ni,nj->nij", b, a).reshape(len(x1), 9)
    _, _, Vt = np.linalg.svd(A)
    E = T2.T @ Vt[-1].reshape(3, 3) @ T1
    U, _, Vt = np.linalg.svd(E)
    return U @ np.diag([1.0, 1.0, 0.0]) @ Vt


def _dlt_design_loop(X, xn):
    n = len(X)
    A = np.zeros((2 * n, 12))
    for i in range(n):
        x, y = xn[i]
        A[2 * i, 0:3] = X[i]
        A[2 * i, 3] = 1.0
        A[2 * i, 8:11] = -x * X[i]
        A[2 * i, 11] = -x
        A[2 * i + 1, 4:7] = X[i]
        A[2 * i + 1, 7] = 1.0
        A[2 * i + 1, 8:11] = -y * X[i]
        A[2 * i + 1, 11] = -y
    return A


def _homography_design_loop(sp, dp):
    n = len(sp)
    M = np.zeros((2 * n, 9))
    for i in range(n):
        u, v = sp[i]
        x, y = dp[i]
        M[2 * i] = [u, v, 1.0, 0.0, 0.0, 0.0, -x * u, -x * v, -x]
        M[2 * i + 1] = [0.0, 0.0, 0.0, u, v, 1.0, -y * u, -y * v, -y]
    return M


def _homography_loop(src, dst):
    """(homography, design matrix)"""

    def normalize(p):
        m = p.mean(axis=0)
        d = np.sqrt(((p - m) ** 2).sum(axis=1)).mean()
        s = np.sqrt(2.0) / max(d, 1e-12)
        T = np.array([[s, 0.0, -s * m[0]], [0.0, s, -s * m[1]], [0.0, 0.0, 1.0]])
        return (p - m) * s, T

    sp, Ts = normalize(src)
    dp, Td = normalize(dst)
    M = _homography_design_loop(sp, dp)
    _, _, Vt = np.linalg.svd(M)
    return np.linalg.inv(Td) @ Vt[-1].reshape(3, 3) @ Ts, M


def _spy_svd(monkeypatch):
    """Record every design matrix that resection hands to its SVD."""
    seen = []
    real = resection._svd

    def spy(A):
        seen.append(A.copy())
        return real(A)

    monkeypatch.setattr(resection, "_svd", spy)
    return seen


def _triangulation_angle_loop(observations):
    """Reference: widest ray pair by an explicit double loop."""
    rays = []
    for intr, pose, px in observations:
        n = intr.normalize(np.asarray(px, dtype=float))
        d = pose.rotation.T @ np.array([n[0], n[1], 1.0])
        rays.append(d / np.linalg.norm(d))
    best = 0.0
    for i in range(len(rays)):
        for j in range(i + 1, len(rays)):
            c = np.clip(abs(np.dot(rays[i], rays[j])), -1.0, 1.0)
            best = max(best, np.arccos(c))
    return best


class TestKernelOracles:
    def test_triangulation_angle_matches_loop(self):
        rng = np.random.default_rng(117)
        intr = default_intrinsics()

        def stacked(tracks):  # widest_ray_angle of tracks of equal length at once
            n = np.array([[intr.normalize(px) for _, _, px in obs] for obs in tracks])
            R = np.array([[pose.rotation for _, pose, _ in obs] for obs in tracks])
            return widest_ray_angle(n, R)

        for views in (2, 3, 6):
            tracks = []
            for _ in range(20):
                X = rng.normal(size=3)
                poses = [
                    look_at_pose(X + rng.normal(size=3) * 3 + (0, 0, 8), X)
                    for _ in range(views)
                ]
                tracks.append([(intr, p, project(intr, p, X)) for p in poses])
            for obs, angle in zip(tracks, stacked(tracks)):
                expect = _triangulation_angle_loop(obs)
                assert expect > 1e-3
                assert abs(angle - expect) < 1e-12
        # parallel rays: both report no angle at all
        p = look_at_pose((0, -5, 0), (0, 0, 0))
        obs = [(intr, p, project(intr, p, (0.3, 0.1, 0.2)))] * 3
        assert stacked([obs])[0] == _triangulation_angle_loop(obs) == 0.0

    def _two_view(self, rng, n, noise=1e-3):
        R = angle_axis_to_matrix(rng.normal(scale=0.3, size=3))
        t = rng.normal(size=3)
        X = rng.uniform([-3, -3, -2], [3, 3, 10], size=(n, 3))
        Y = X @ R.T + t
        x1 = X[:, :2] / X[:, 2:] + rng.normal(scale=noise, size=(n, 2))
        x2 = Y[:, :2] / Y[:, 2:] + rng.normal(scale=noise, size=(n, 2))
        return R, t, x1, x2

    def test_cheirality_counts_match_loop(self):
        rng = np.random.default_rng(101)
        for n in (1, 2, 8, 37, 250):
            R, t, x1, x2 = self._two_view(rng, n)
            E = np.cross(np.eye(3), t) @ R  # [t]x R
            for Rc, tc in _decompose_essential(E):
                assert _cheirality_counts(Rc, tc, x1, x2) == _cheirality_counts_loop(
                    Rc, tc, x1, x2
                )

    def test_cheirality_infinity_and_behind(self):
        rng = np.random.default_rng(103)
        R, t = np.eye(3), np.array([1.0, 0.0, 0.0])
        # parallel rays meet at infinity; points at negative depth are behind
        far = rng.uniform(-0.5, 0.5, size=(20, 2))
        behind = rng.uniform([-3, -3, -9], [3, 3, -1], size=(15, 3))
        near = rng.uniform([-3, -3, 4], [3, 3, 9], size=(10, 3))
        pts = np.vstack([behind, near])
        x1 = np.vstack([far, pts[:, :2] / pts[:, 2:]])
        x2 = np.vstack([far, (pts + t)[:, :2] / (pts + t)[:, 2:]])
        for a, b in ((x1, x2), (x1[:35], x2[:35]), (x1[:20], x2[:20])):
            for Rc, tc in ((R, t), (R, -t)):
                assert _cheirality_counts(Rc, tc, a, b) == _cheirality_counts_loop(
                    Rc, tc, a, b
                )
        assert _cheirality_counts(R, t, x1, x2) == 10
        assert _cheirality_counts(R, t, x1[:35], x2[:35]) == 0
        empty = np.zeros((0, 2))
        assert _cheirality_counts(R, t, empty, empty) == 0

    def test_eight_point_matches_full_svd(self):
        rng = np.random.default_rng(107)
        for n in (8, 9, 30, 640):
            _, _, x1, x2 = self._two_view(rng, n)
            assert np.array_equal(
                _eight_point_essential(x1, x2), _eight_point_essential_full_svd(x1, x2)
            )

    def test_dlt_design_matrix_matches_loop(self, monkeypatch):
        seen = _spy_svd(monkeypatch)
        rng = np.random.default_rng(109)
        for n in (6, 7, 40):
            X = rng.uniform(-4, 4, size=(n, 3))
            xn = rng.normal(size=(n, 2))
            try:
                _dlt_pose(X, xn)
            except EstimationFailure:
                pass
            assert np.array_equal(seen.pop(), _dlt_design_loop(X, xn))
        # coplanar points: a rank-deficient system is still built the same way
        X[:, 2] = 0.0
        with pytest.raises(EstimationFailure):
            _dlt_pose(X, xn)
        assert np.array_equal(seen.pop(), _dlt_design_loop(X, xn))

    def test_homography_matches_loop(self, monkeypatch):
        seen = _spy_svd(monkeypatch)
        rng = np.random.default_rng(113)
        H_true = np.eye(3) + rng.normal(scale=0.1, size=(3, 3))
        for n in (4, 5, 60):
            src = rng.uniform(-1, 1, size=(n, 2))
            dst_h = np.hstack([src, np.ones((n, 1))]) @ H_true.T
            dst = dst_h[:, :2] / dst_h[:, 2:]
            H = _homography(src, dst)
            H_loop, M_loop = _homography_loop(src, dst)
            assert np.array_equal(H, H_loop)
            assert np.array_equal(seen.pop(), M_loop)
            mapped = np.hstack([src, np.ones((n, 1))]) @ H.T
            assert np.allclose(mapped[:, :2] / mapped[:, 2:], dst, atol=1e-9)
        # collinear source points: degenerate, but built and solved identically
        src[:, 1] = 0.5 * src[:, 0]
        H_loop, M_loop = _homography_loop(src, dst)
        assert np.array_equal(_homography(src, dst), H_loop)
        assert np.array_equal(seen.pop(), M_loop)


class TestAdaptiveRansac:
    def _run(self, n, k, inlier_count, max_iterations=10000, fail=()):
        """Run the loop on a fixed consensus; returns (model, mask, samples)."""
        samples = []

        def fit(idx):
            samples.append(idx)
            if len(samples) in fail:
                raise EstimationFailure("degenerate sample")
            return len(samples)

        def inliers(model):
            return np.arange(n) < inlier_count

        model, mask = adaptive_ransac(
            n, k, fit, inliers, max_iterations, np.random.default_rng(5)
        )
        return model, mask, samples

    def test_all_inliers_stop_after_first_hypothesis(self):
        model, mask, samples = self._run(50, 3, 50)
        assert len(samples) == 1
        assert model == 1 and mask.all()

    def test_known_ratio_stops_at_confidence_bound(self):
        for n, k, c in ((100, 3, 50), (200, 6, 150), (300, 8, 240)):
            ratio = c / n
            expect = int(np.ceil(np.log(1 - RANSAC_CONFIDENCE) / np.log(1 - ratio**k)))
            assert RANSAC_CONFIDENCE == 0.999 and expect > 1
            _, mask, samples = self._run(n, k, c)
            assert len(samples) == expect
            assert mask.sum() == c
            # the bound never exceeds the caller's cap
            _, _, capped = self._run(n, k, c, max_iterations=expect - 1)
            assert len(capped) == expect - 1

    def test_sample_that_raises_is_skipped(self):
        model, mask, samples = self._run(40, 3, 40, fail={1})
        # the first sample raised, the second one is the model
        assert len(samples) == 2 and model == 2 and mask.all()
        # every sample draws from the generator, skipped ones too
        rng = np.random.default_rng(5)
        for idx in samples:
            assert np.array_equal(idx, rng.choice(40, 3, replace=False))

    def test_no_usable_sample(self):
        model, mask, samples = self._run(20, 3, 20, max_iterations=7, fail=range(1, 8))
        assert model is None and mask is None
        assert len(samples) == 7
        model, mask, samples = self._run(20, 3, 0, max_iterations=7)
        assert model is None and mask is None and len(samples) == 7


class TestUmeyama:
    def test_identity(self):
        rng = np.random.default_rng(31)
        pts = rng.normal(size=(10, 3))
        T, mse = umeyama_similarity(pts, pts)
        assert abs(T.scale - 1) < 1e-12
        assert np.allclose(T.rotation, np.eye(3), atol=1e-12)
        assert np.allclose(T.translation, 0, atol=1e-12)
        assert mse < 1e-18

    def test_constructed_transform(self):
        rng = np.random.default_rng(33)
        src = rng.normal(size=(10, 3))
        Rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        dst = 2.0 * src @ Rz.T + np.array([1.0, 2.0, 3.0])
        T, mse = umeyama_similarity(src, dst)
        assert abs(T.scale - 2.0) < 1e-9
        assert np.allclose(T.rotation, Rz, atol=1e-9)
        assert np.allclose(T.translation, (1, 2, 3), atol=1e-9)
        assert mse < 1e-18

    def test_collinear_degenerate(self):
        src = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], float)
        with pytest.raises(DegenerateGeometryError):
            umeyama_similarity(src, src)

    def test_too_few(self):
        with pytest.raises(DegenerateGeometryError):
            umeyama_similarity(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_optimality_against_perturbations(self):
        rng = np.random.default_rng(37)
        src = rng.normal(size=(15, 3))
        dst = rng.normal(size=(15, 3))
        T, mse = umeyama_similarity(src, dst)
        n = len(src)
        for _ in range(1000):
            s = T.scale * np.exp(rng.normal(scale=0.05))
            R = angle_axis_to_matrix(rng.normal(scale=0.05, size=3)) @ T.rotation
            t = T.translation + rng.normal(scale=0.05, size=3)
            cand = SimilarityTransform(s, R, t)
            mse_c = ((cand.apply(src) - dst) ** 2).sum() / n
            assert mse <= mse_c + 1e-12

    def test_inverse_composition_identity(self):
        rng = np.random.default_rng(41)
        T = SimilarityTransform(1.7, random_rotation(rng), rng.normal(size=3))
        I = T.compose(T.inverse())
        assert abs(I.scale - 1) < 1e-9
        assert np.allclose(I.rotation, np.eye(3), atol=1e-9)
        assert np.allclose(I.translation, 0, atol=1e-9)


class TestRotationClosure:
    def test_produced_rotations_orthonormal(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            R = angle_axis_to_matrix(rng.normal(size=3))
            assert np.allclose(R.T @ R, np.eye(3), atol=1e-9)
            assert abs(np.linalg.det(R) - 1) < 1e-9

    def test_batched_rotations_equal_one_at_a_time(self):
        rng = np.random.default_rng(44)
        omega = rng.normal(size=(200, 3)) * 10.0 ** rng.uniform(-14, 1, size=(200, 1))
        omega[0] = 0.0
        stacked = angle_axis_to_matrix(omega)
        assert stacked.shape == (200, 3, 3)
        for w, R in zip(omega, stacked):
            assert np.array_equal(R, angle_axis_to_matrix(w))
        M = stacked + rng.normal(scale=0.1, size=stacked.shape)
        M[1] = -M[1]  # det < 0 before projection
        projected = project_rotation(M)
        for m, R in zip(M, projected):
            assert np.array_equal(R, project_rotation(m))
            assert abs(np.linalg.det(R) - 1) < 1e-9

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_project_rotation_rejects_non_finite(self, bad):
        single = np.eye(3)
        single[1, 2] = bad
        stack = np.stack([np.eye(3), single])
        for M in (np.full((3, 3), bad), single, stack):
            box = call_with_deadline(lambda: project_rotation(M))
            assert isinstance(box.get("raised"), np.linalg.LinAlgError)
