import numpy as np
import pytest

from parsfm.geometry import BaOptions, BaReport, CameraPose, project, solve_bundle
from parsfm.geometry.ba import _Problem
from parsfm.geometry.camera import angle_axis_to_matrix

from helpers import default_intrinsics, ring_cameras


def make_scene(n_cams=6, n_pts=40, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    intr = default_intrinsics()
    poses = ring_cameras(n_cams, radius=10.0, height=4.0)
    pts = rng.uniform([-3, -3, -1], [3, 3, 1], size=(n_pts, 3))
    cameras = {i: poses[i] for i in range(n_cams)}
    intrinsics = {i: intr for i in range(n_cams)}
    points = {j: pts[j].copy() for j in range(n_pts)}
    obs = []
    for i in range(n_cams):
        for j in range(n_pts):
            px = project(intr, poses[i], pts[j])
            if noise:
                px = px + rng.normal(scale=noise, size=2)
            obs.append((i, j, px))
    return cameras, intrinsics, points, obs


def mean_reproj(cameras, intrinsics, points, obs):
    errs = []
    for c, p, xy in obs:
        errs.append(np.linalg.norm(project(intrinsics[c], cameras[c], points[p]) - xy))
    return float(np.mean(errs))


class TestJacobian:
    def test_analytic_matches_central_differences(self):
        cameras, intrinsics, points, obs = make_scene(seed=3)
        rng = np.random.default_rng(5)
        pick = rng.choice(len(obs), 20, replace=False)
        opts = BaOptions()
        prob = _Problem(cameras, intrinsics, points, obs, opts)
        r, valid, _, v, p = prob.residuals(prob.R, prob.t, prob.X)
        A, B = prob.jacobians(v, p, valid)
        h = 1e-6
        for k in pick:
            ci = prob.obs_cam[k]
            pi = prob.obs_pt[k]
            # camera params: angle-axis increment (3) + translation (3)
            J_fd = np.zeros((2, 9))
            for d in range(9):
                for sgn, col in ((1.0, 0), (-1.0, 1)):
                    dc = np.zeros(6)
                    dX = np.zeros(3)
                    if d < 6:
                        dc[d] = sgn * h
                    else:
                        dX[d - 6] = sgn * h
                    R = angle_axis_to_matrix(dc[:3]) @ prob.R[ci]
                    t = prob.t[ci] + dc[3:]
                    X = prob.X[pi] + dX
                    pc = R @ X + t
                    uv = np.array(
                        [
                            prob.fx[ci] * pc[0] / pc[2] + prob.cx[ci],
                            prob.fy[ci] * pc[1] / pc[2] + prob.cy[ci],
                        ]
                    )
                    if sgn > 0:
                        plus = uv
                    else:
                        minus = uv
                J_fd[:, d] = (plus - minus) / (2 * h)
            J_an = np.hstack([A[k], B[k]])
            scale = np.abs(J_fd).max()
            rel = np.abs(J_an - J_fd).max() / max(scale, 1.0)
            assert rel < 1e-5


class TestSolveBundle:
    def test_noiseless_optimum_is_fixed_point(self):
        cameras, intrinsics, points, obs = make_scene()
        report = solve_bundle(cameras, intrinsics, points, obs, BaOptions())
        assert report.final_mean_error < 1e-9
        assert report.iterations <= 1
        assert report.converged

    def test_perturbation_recovery(self):
        cameras, intrinsics, points, obs = make_scene(seed=1)
        rng = np.random.default_rng(2)
        for i in list(cameras):
            if i == 0:
                continue
            dR = angle_axis_to_matrix(rng.normal(scale=1e-3, size=3))
            cameras[i] = CameraPose(dR @ cameras[i].rotation,
                                    cameras[i].translation + rng.normal(scale=1e-3, size=3))
        report = solve_bundle(cameras, intrinsics, points, obs,
                              BaOptions(max_iterations=100))
        assert report.final_mean_error < 1e-6

    def test_cost_never_increases(self):
        cameras, intrinsics, points, obs = make_scene(seed=4, noise=1.0)
        report = solve_bundle(cameras, intrinsics, points, obs, BaOptions())
        assert report.final_cost <= report.initial_cost + 1e-9

    def test_empty_problem_noop(self):
        report = solve_bundle({}, {}, {}, [], BaOptions())
        assert isinstance(report, BaReport)
        assert report.iterations == 0

    def test_fixed_points_untouched(self):
        cameras, intrinsics, points, obs = make_scene(seed=6, noise=0.5)
        frozen = {0, 1, 2}
        before = {j: points[j].copy() for j in frozen}
        solve_bundle(cameras, intrinsics, points, obs,
                     BaOptions(fixed_point_ids=frozen))
        for j in frozen:
            assert np.array_equal(points[j], before[j])

    def test_first_camera_and_baseline_gauge(self):
        cameras, intrinsics, points, obs = make_scene(seed=7, noise=0.5)
        pose0 = cameras[0].copy()
        d0 = np.linalg.norm(cameras[1].center() - cameras[0].center())
        solve_bundle(cameras, intrinsics, points, obs, BaOptions())
        assert np.allclose(cameras[0].rotation, pose0.rotation)
        assert np.allclose(cameras[0].translation, pose0.translation)
        d1 = np.linalg.norm(cameras[1].center() - cameras[0].center())
        assert abs(d1 - d0) < 1e-9 * max(d0, 1.0)

    def test_unknown_reference_raises(self):
        cameras, intrinsics, points, obs = make_scene(n_cams=2, n_pts=4)
        obs.append((99, 0, np.zeros(2)))
        with pytest.raises(KeyError):
            solve_bundle(cameras, intrinsics, points, obs, BaOptions())

    def test_report_mean_error_matches_independent_computation(self):
        cameras, intrinsics, points, obs = make_scene(seed=8, noise=0.8)
        report = solve_bundle(cameras, intrinsics, points, obs, BaOptions())
        assert abs(report.final_mean_error
                   - mean_reproj(cameras, intrinsics, points, obs)) < 1e-9


class TestBaOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            BaOptions(max_iterations=0)
        with pytest.raises(ValueError):
            BaOptions(gradient_tolerance=0.0)
