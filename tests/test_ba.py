import tracemalloc

import numpy as np
import pytest
from scipy import sparse as sp_sparse
from scipy.linalg import block_diag

from parsfm.geometry import BaOptions, BaReport, CameraPose, project, solve_bundle
from parsfm.geometry import ba
from parsfm.geometry.ba import _inv_sym3, _Problem, _reduced_system, _solve_schur
from parsfm.geometry.camera import angle_axis_to_matrix

from helpers import ba_arrays, call_with_deadline, default_intrinsics, ring_cameras


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


def add_point_behind_camera(cameras, intrinsics, points, obs, cam=0):
    """A new point 3 units behind `cam`, observed by it and by every camera
    that sees it in front."""
    pose = cameras[cam]
    X = pose.center() - 3.0 * pose.rotation[2]
    pid = max(points) + 1
    points[pid] = X
    obs.append((cam, pid, np.array([500.0, 400.0])))
    for c, other in cameras.items():
        if c != cam and (other.rotation @ X + other.translation)[2] > 0:
            obs.append((c, pid, project(intrinsics[c], other, X)))
    return pid


def schur_reference(prob, A, B, r, lam):
    """Per-observation np.add.at accumulation and a scalar-CSR W V^-1 W^T,
    solved densely: the Schur step as computed before the block-sparse
    solver, kept as its oracle."""
    nc = len(prob.free_cams)
    npt = len(prob.free_pts)
    cslot = prob.cam_slot[prob.obs_cam]
    pslot = prob.pt_slot[prob.obs_pt]
    cam_free = cslot >= 0
    pt_free = pslot >= 0

    U = np.zeros((nc, 6, 6))
    gc = np.zeros((nc, 6))
    np.add.at(U, cslot[cam_free], np.einsum("nij,nik->njk", A[cam_free], A[cam_free]))
    np.add.at(gc, cslot[cam_free], -np.einsum("nij,ni->nj", A[cam_free], r[cam_free]))
    V = np.zeros((npt, 3, 3))
    gp = np.zeros((npt, 3))
    np.add.at(V, pslot[pt_free], np.einsum("nij,nik->njk", B[pt_free], B[pt_free]))
    np.add.at(gp, pslot[pt_free], -np.einsum("nij,ni->nj", B[pt_free], r[pt_free]))

    d6 = np.arange(6)
    U[:, d6, d6] += lam * np.maximum(U[:, d6, d6], 1e-12)
    d3 = np.arange(3)
    V[:, d3, d3] += lam * np.maximum(V[:, d3, d3], 1e-12)
    Vinv = np.linalg.inv(V)

    S = np.zeros((6 * nc, 6 * nc))
    for i in range(nc):
        S[6 * i : 6 * i + 6, 6 * i : 6 * i + 6] = U[i]
    b = gc.reshape(-1).copy()
    sel = np.nonzero(cam_free & pt_free)[0]
    m = len(sel)
    W = np.einsum("nij,nik->njk", A[sel], B[sel])
    ps = pslot[sel]
    cs = cslot[sel]
    Y = W @ Vinv[ps]
    rows = np.broadcast_to((6 * cs)[:, None, None] + np.arange(6)[None, :, None], (m, 6, 3))
    cols = np.broadcast_to((3 * ps)[:, None, None] + np.arange(3)[None, None, :], (m, 6, 3))
    shape = (6 * nc, 3 * npt)
    Wsp = sp_sparse.csr_matrix((W.ravel(), (rows.ravel(), cols.ravel())), shape=shape)
    Ysp = sp_sparse.csr_matrix((Y.ravel(), (rows.ravel(), cols.ravel())), shape=shape)
    S -= (Ysp @ Wsp.T).toarray()
    b -= Ysp @ gp.reshape(-1)

    dc = np.linalg.solve(S, b).reshape(nc, 6)
    rhs = gp - (Wsp.T @ dc.reshape(-1)).reshape(npt, 3)
    dp = np.einsum("nij,nj->ni", Vinv, rhs)
    return dc, dp, S


def linearized(cameras, intrinsics, points, obs, opts):
    prob = _Problem(cameras, intrinsics, points, ba_arrays(obs), opts)
    r, valid, _, v, p = prob.residuals(prob.R, prob.t, prob.X)
    return prob, r, valid, v, p


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
        prob = _Problem(cameras, intrinsics, points, ba_arrays(obs), opts)
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
        report = solve_bundle(cameras, intrinsics, points, ba_arrays(obs), BaOptions())
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
        report = solve_bundle(cameras, intrinsics, points, ba_arrays(obs),
                              BaOptions(max_iterations=100))
        assert report.final_mean_error < 1e-6

    def test_cost_never_increases(self):
        cameras, intrinsics, points, obs = make_scene(seed=4, noise=1.0)
        report = solve_bundle(cameras, intrinsics, points, ba_arrays(obs), BaOptions())
        assert report.final_cost <= report.initial_cost + 1e-9

    def test_empty_problem_noop(self):
        report = solve_bundle({}, {}, {}, ba_arrays([]), BaOptions())
        assert isinstance(report, BaReport)
        assert report.iterations == 0

    def test_fixed_points_untouched(self):
        cameras, intrinsics, points, obs = make_scene(seed=6, noise=0.5)
        frozen = {0, 1, 2}
        before = {j: points[j].copy() for j in frozen}
        solve_bundle(cameras, intrinsics, points, ba_arrays(obs),
                     BaOptions(fixed_point_ids=frozen))
        for j in frozen:
            assert np.array_equal(points[j], before[j])

    def test_first_camera_and_baseline_gauge(self):
        cameras, intrinsics, points, obs = make_scene(seed=7, noise=0.5)
        pose0 = cameras[0].copy()
        d0 = np.linalg.norm(cameras[1].center() - cameras[0].center())
        solve_bundle(cameras, intrinsics, points, ba_arrays(obs), BaOptions())
        assert np.allclose(cameras[0].rotation, pose0.rotation)
        assert np.allclose(cameras[0].translation, pose0.translation)
        d1 = np.linalg.norm(cameras[1].center() - cameras[0].center())
        assert abs(d1 - d0) < 1e-9 * max(d0, 1.0)

    def test_unknown_reference_raises(self):
        cameras, intrinsics, points, obs = make_scene(n_cams=2, n_pts=4)
        obs.append((99, 0, np.zeros(2)))
        obs.append((0, 77, np.zeros(2)))
        with pytest.raises(KeyError, match=r"unknown camera/point \(99, 0\)"):
            solve_bundle(cameras, intrinsics, points, ba_arrays(obs), BaOptions())

    def test_report_mean_error_matches_independent_computation(self):
        cameras, intrinsics, points, obs = make_scene(seed=8, noise=0.8)
        report = solve_bundle(cameras, intrinsics, points, ba_arrays(obs), BaOptions())
        assert abs(report.final_mean_error
                   - mean_reproj(cameras, intrinsics, points, obs)) < 1e-9


class TestChunks:
    def test_one_camera_per_chunk_equals_one_chunk(self, monkeypatch):
        """Residuals and Jacobians walked a camera at a time give the same
        bits as one chunk over all rows, with fixed cameras and points."""
        opts = dict(fixed_camera_ids={0, 3}, fixed_point_ids={2, 7, 11})
        outputs = []
        for rows in (1, 10**9):
            monkeypatch.setattr(ba, "CHUNK_ROWS", rows)
            cameras, intrinsics, points, obs = make_scene(n_cams=9, seed=14, noise=0.8)
            rng = np.random.default_rng(15)
            for i in cameras:
                dR = angle_axis_to_matrix(rng.normal(scale=1e-2, size=3))
                cameras[i] = CameraPose(dR @ cameras[i].rotation, cameras[i].translation)
            prob = _Problem(cameras, intrinsics, points, ba_arrays(obs), BaOptions(**opts))
            assert len(prob.chunks) == (1 if rows > len(obs) else prob.cam_rows[0] // 2 + 7)
            report = solve_bundle(cameras, intrinsics, points, ba_arrays(obs), BaOptions(**opts))
            assert report.iterations > 1
            outputs.append((report, cameras, points))
        (rep1, cams1, pts1), (rep2, cams2, pts2) = outputs
        assert rep1 == rep2
        for c in cams1:
            assert np.array_equal(cams1[c].rotation, cams2[c].rotation)
            assert np.array_equal(cams1[c].translation, cams2[c].translation)
        for j in pts1:
            assert np.array_equal(pts1[j], pts2[j])

    @pytest.mark.parametrize(
        "cam_obs, size, bounds",
        [
            ([5, 9, 9, 20], 4, [(0, 4, 0, 0), (4, 5, 0, 0), (5, 9, 0, 1), (9, 20, 1, 3)]),
            ([5, 9, 9, 20], 100, [(0, 20, 0, 3)]),
            ([0, 3, 6, 6], 6, [(0, 6, 0, 3)]),
            ([0, 3, 6, 6], 1, [(0, 3, 0, 1), (3, 6, 1, 3)]),
            ([4, 4], 3, [(0, 3, 0, 0), (3, 4, 0, 1)]),
        ],
    )
    def test_chunk_bounds(self, cam_obs, size, bounds):
        """Fixed rows split anywhere, free cameras only whole; a camera
        without rows at the end is in the last chunk."""
        assert ba._chunks(np.array(cam_obs), size) == [
            (slice(lo, hi), slice(c0, c1)) for lo, hi, c0, c1 in bounds
        ]


ORACLE_SCENES = {
    "gauge": BaOptions(),
    "fixed_cameras": BaOptions(fixed_camera_ids={0, 3}),
    "fixed_points": BaOptions(fixed_point_ids={0, 1, 2, 5}),
}


def assert_step_matches_reference(n_cams, opts, lam):
    """The Schur step on a ring scene with a point behind camera 0 equals
    schur_reference; returns the linearized problem."""
    cameras, intrinsics, points, obs = make_scene(n_cams=n_cams, seed=11, noise=0.7)
    add_point_behind_camera(cameras, intrinsics, points, obs)
    prob, r, valid, v, p = linearized(cameras, intrinsics, points, obs, opts)
    assert not valid.all()
    A, B = prob.jacobians(v, p, valid)
    dc_ref, dp_ref, _ = schur_reference(prob, A, B, r, lam)
    dc, dp = _solve_schur(prob.normal_equations(r, v, p, valid), lam)
    assert dc.shape == dc_ref.shape and dp.shape == dp_ref.shape
    assert np.abs(dc_ref).max() > 0 and np.abs(dp_ref).max() > 0
    np.testing.assert_allclose(dc, dc_ref, rtol=1e-9, atol=1e-9 * np.abs(dc_ref).max())
    np.testing.assert_allclose(dp, dp_ref, rtol=1e-9, atol=1e-9 * np.abs(dp_ref).max())
    return prob


class TestSchurOracle:
    @pytest.mark.parametrize("lam", [1e-4, 10.0])
    @pytest.mark.parametrize("scene", sorted(ORACLE_SCENES))
    def test_block_sparse_step_matches_reference(self, scene, lam):
        assert_step_matches_reference(6, ORACLE_SCENES[scene], lam)

    @pytest.mark.parametrize("lam", [1e-4, 10.0])
    def test_step_over_several_bands_matches_reference(self, lam):
        prob = assert_step_matches_reference(70, BaOptions(fixed_camera_ids={10, 64}), lam)
        assert len(prob.free_cams) > ba.SCHUR_BAND_CAMERAS

    def test_upper_triangle_equals_full_product(self):
        """Each band multiplies only the block rows of W from its first
        camera on; S's upper triangle and b equal the full product's."""
        opts = BaOptions(fixed_camera_ids={3}, fixed_point_ids={0, 1})
        cameras, intrinsics, points, obs = make_scene(n_cams=40, seed=11, noise=0.7)
        prob, r, valid, v, p = linearized(cameras, intrinsics, points, obs, opts)
        ne = prob.normal_equations(r, v, p, valid)
        assert len(ne.U) > 2 * ba.SCHUR_BAND_CAMERAS
        Vinv = _inv_sym3(ne.V + 0.1 * np.eye(3))
        S, b = _reduced_system(ne, ne.U, Vinv)
        W = ne.W
        Y = sp_sparse.bsr_matrix((W.data @ Vinv[W.indices], W.indices, W.indptr), shape=W.shape)
        full = block_diag(*ne.U) - (W @ Y.T).T.toarray()
        assert np.array_equal(np.triu(S), np.triu(full))
        assert np.array_equal(b, ne.gc.reshape(-1) - Y @ ne.gp.reshape(-1))

    def test_indefinite_reduced_system_falls_back_to_least_squares(self, monkeypatch):
        cameras, intrinsics, points, obs = make_scene(seed=12, noise=0.7)
        prob, r, valid, v, p = linearized(cameras, intrinsics, points, obs, BaOptions())
        A, B = prob.jacobians(v, p, valid)
        lam = -1.5  # negative damping makes the reduced system indefinite
        dc_ref, dp_ref, S = schur_reference(prob, A, B, r, lam)
        assert np.linalg.eigvalsh(S).min() < 0
        solved = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: solved.append(1) or lstsq(*a, **k))
        dc, dp = _solve_schur(prob.normal_equations(r, v, p, valid), lam)
        assert solved
        np.testing.assert_allclose(dc, dc_ref, rtol=1e-9, atol=1e-9 * np.abs(dc_ref).max())
        np.testing.assert_allclose(dp, dp_ref, rtol=1e-9, atol=1e-9 * np.abs(dp_ref).max())

    def test_solve_without_cholesky_gives_finite_report(self, monkeypatch):
        def not_positive_definite(*args, **kwargs):
            raise np.linalg.LinAlgError("not positive definite")

        cameras, intrinsics, points, obs = make_scene(seed=4, noise=1.0)
        monkeypatch.setattr(ba, "cho_factor", not_positive_definite)
        report = solve_bundle(cameras, intrinsics, points, ba_arrays(obs), BaOptions())
        assert report.iterations > 0
        assert np.isfinite([report.final_cost, report.final_mean_error]).all()
        assert report.final_cost < report.initial_cost


def spd_blocks(rng, n, log10_cond):
    """n random symmetric positive definite 3x3 blocks with condition numbers
    10**log10_cond[0] .. 10**log10_cond[1] and scales 1e-3 .. 1e3."""
    Q = np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]
    cond = 10.0 ** rng.uniform(*log10_cond, size=n)
    s = np.stack([np.ones(n), cond, np.exp(rng.uniform(0, np.log(cond)))], axis=1)
    V = Q @ (s[:, :, None] * Q.transpose(0, 2, 1)) * 10.0 ** rng.uniform(-3, 3, (n, 1, 1))
    return (V + V.transpose(0, 2, 1)) / 2


class TestPointBlockInverse:
    @pytest.mark.parametrize("log10_cond", [(0, 3), (6, 12)], ids=["spd", "near_singular"])
    def test_equals_lapack_inverse(self, log10_cond):
        V = spd_blocks(np.random.default_rng(21), 2000, log10_cond)
        ref = np.linalg.inv(V)
        err = np.abs(_inv_sym3(V) - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
        # any double-precision inverse is off by about eps * cond
        assert (err <= np.maximum(1e-12, 1e-15 * np.linalg.cond(V))).all()

    def test_zero_observation_point(self):
        """A point whose only observation lies behind its camera has a zero
        block, which the damping makes invertible."""
        cameras, intrinsics, points, obs = make_scene(seed=11, noise=0.7)
        pid = add_point_behind_camera(cameras, intrinsics, points, obs)
        obs = [o for o in obs if o[1] != pid or o[0] == 0]
        prob, r, valid, v, p = linearized(cameras, intrinsics, points, obs, BaOptions())
        V = prob.normal_equations(r, v, p, valid).V
        assert not V[prob.pt_slot[prob.pt_ids.index(pid)]].any()
        d3 = np.arange(3)
        for lam in (1e-4, 10.0):
            damped = V.copy()
            damped[:, d3, d3] += lam * np.maximum(damped[:, d3, d3], 1e-12)
            np.testing.assert_allclose(_inv_sym3(damped), np.linalg.inv(damped), rtol=1e-12)

    def test_blocks_without_positive_determinant_are_pseudo_inverted(self):
        rng = np.random.default_rng(22)
        good = spd_blocks(rng, 3, (0, 2))
        singular = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        zero_row = np.diag([2.0, 0.0, 3.0])
        indefinite = np.diag([1.0, -1.0, 2.0])
        infinite = np.diag([np.inf, 1.0, 1.0])
        V = np.stack([good[0], singular, good[1], zero_row, indefinite, infinite, good[2]])
        inv = call_with_deadline(lambda: _inv_sym3(V))["returned"]  # an SVD of inf spins
        for k in (0, 2, 6):  # each block on its own path
            np.testing.assert_allclose(inv[k], np.linalg.inv(V[k]), rtol=1e-12)
        for k in (1, 3, 4):
            np.testing.assert_array_equal(inv[k], np.linalg.pinv(V[k]))
        assert np.isnan(inv[5]).all()


# traced peak of one iteration per observation, 25% over the 464 B measured
# with residuals and Jacobians computed a chunk of cameras at a time; the
# full-length per-observation stacks they replaced measured 578 B
PEAK_BYTES_PER_OBSERVATION = 464 * 1.25


class TestMemory:
    def test_one_iteration_peak_per_observation(self):
        cameras, intrinsics, points, obs = make_scene(n_cams=40, n_pts=500, seed=13, noise=0.5)
        arrays = ba_arrays(obs)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            solve_bundle(cameras, intrinsics, points, arrays, BaOptions(max_iterations=1))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(obs) == 20000
        assert peak / len(obs) < PEAK_BYTES_PER_OBSERVATION


class TestNonFiniteStep:
    def test_stepped_rejects_nan_without_hanging(self):
        cameras, intrinsics, points, obs = make_scene(seed=2)
        prob = _Problem(cameras, intrinsics, points, ba_arrays(obs), BaOptions())
        dc = np.full((len(prob.free_cams), 6), np.nan)
        dp = np.zeros((len(prob.free_pts), 3))
        R, t, X = prob.R.copy(), prob.t.copy(), prob.X.copy()
        for step in ((dc, dp), (np.zeros_like(dc), np.full_like(dp, np.nan))):
            box = call_with_deadline(lambda: prob.stepped(*step))
            assert isinstance(box.get("raised"), np.linalg.LinAlgError)
        assert np.array_equal(prob.R, R) and np.array_equal(prob.t, t)
        assert np.array_equal(prob.X, X)

    def test_nan_step_is_a_rejected_damping_try(self, monkeypatch):
        lams, states = [], []
        stepped = _Problem.stepped

        def nan_first_step(ne, lam):
            lams.append(lam)
            dc, dp = _solve_schur(ne, lam)
            return (np.full_like(dc, np.nan) if len(lams) == 1 else dc), dp

        def spy(self, dc, dp):
            states.append([x.copy() for x in (self.R, self.t, self.X)])
            return stepped(self, dc, dp)

        monkeypatch.setattr(ba, "_solve_schur", nan_first_step)
        monkeypatch.setattr(_Problem, "stepped", spy)
        cameras, intrinsics, points, obs = make_scene(seed=4, noise=1.0)
        box = call_with_deadline(
            lambda: solve_bundle(cameras, intrinsics, points, ba_arrays(obs), BaOptions())
        )
        report = box["returned"]
        assert lams[1] == pytest.approx(10.0 * lams[0])  # damping went up
        for before, after in zip(states[0], states[1]):  # state untouched
            assert np.array_equal(before, after)
        assert np.isfinite([report.final_cost, report.final_mean_error]).all()
        assert report.final_cost < report.initial_cost


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "kind, expected", [("point", "point 3"), ("translation", "camera 2")]
    )
    def test_first_non_finite_id_named_before_any_work(self, monkeypatch, kind, expected):
        cameras, intrinsics, points, obs = make_scene(seed=4, noise=1.0)
        if kind == "point":
            points[3][1] = np.nan
            points[9][0] = np.inf
        else:
            cameras[2].translation[0] = np.nan
            cameras[4].translation[2] = np.inf

        def residuals(self, *args):
            raise AssertionError("residuals computed before the input check")

        monkeypatch.setattr(_Problem, "residuals", residuals)
        box = call_with_deadline(
            lambda: solve_bundle(cameras, intrinsics, points, ba_arrays(obs), BaOptions())
        )
        assert isinstance(box.get("raised"), ValueError)
        assert str(box["raised"]) == f"{expected} is not finite"


class TestBaOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            BaOptions(max_iterations=0)
