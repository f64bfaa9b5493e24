"""Levenberg-Marquardt bundle adjustment with sparse Schur elimination.

Points are eliminated through the camera/point Schur complement, its coupling
W V^-1 W^T formed as a sparse block product, and the reduced camera system is
solved densely; intrinsics stay fixed. Gauge is fixed by holding the first
camera constant and, when no points are held fixed, restoring the length of
the first camera baseline (a pure gauge transform, so it never changes the
cost).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse as sp_sparse

from .camera import CameraPose, angle_axis_to_matrix, pinhole, project_rotation

# penalty cost for an observation whose point falls behind the camera
_BEHIND_PENALTY = 1e12


@dataclass
class BaOptions:
    max_iterations: int = 50
    gradient_tolerance: float = 1e-12
    parameter_tolerance: float = 1e-12
    function_tolerance: float = 1e-8  # relative cost decrease per iteration
    fixed_point_ids: set = field(default_factory=set)
    fixed_camera_ids: set = field(default_factory=set)

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if (
            self.gradient_tolerance <= 0
            or self.parameter_tolerance <= 0
            or self.function_tolerance <= 0
        ):
            raise ValueError("tolerances must be positive")


@dataclass
class BaReport:
    initial_mean_error: float = 0.0
    final_mean_error: float = 0.0
    initial_cost: float = 0.0
    final_cost: float = 0.0
    iterations: int = 0
    converged: bool = True


class _Problem:
    def __init__(self, cameras, intrinsics, points, observations, opts: BaOptions):
        self.cam_ids = sorted(cameras)
        self.pt_ids = sorted(points)
        self.cam_index = {c: i for i, c in enumerate(self.cam_ids)}
        self.pt_index = {p: i for i, p in enumerate(self.pt_ids)}
        self.R = np.array([cameras[c].rotation for c in self.cam_ids])
        self.t = np.array([cameras[c].translation for c in self.cam_ids])
        self.X = np.array([np.asarray(points[p], dtype=float) for p in self.pt_ids])
        K = [intrinsics[c] for c in self.cam_ids]
        self.fx = np.array([k.focal_x for k in K])
        self.fy = np.array([k.focal_y for k in K])
        self.cx = np.array([k.principal_x for k in K])
        self.cy = np.array([k.principal_y for k in K])

        self.obs_cam = np.array([self.cam_index[c] for c, _, _ in observations], dtype=int)
        self.obs_pt = np.array([self.pt_index[p] for _, p, _ in observations], dtype=int)
        self.obs_xy = np.array([np.asarray(xy, dtype=float) for _, _, xy in observations])

        fixed_cams = set(opts.fixed_camera_ids)
        if self.cam_ids and not fixed_cams and not opts.fixed_point_ids:
            fixed_cams.add(self.cam_ids[0])  # gauge
        self.free_cams = np.array(
            [i for i, c in enumerate(self.cam_ids) if c not in fixed_cams], dtype=int
        )
        self.free_pts = np.array(
            [i for i, p in enumerate(self.pt_ids) if p not in opts.fixed_point_ids],
            dtype=int,
        )
        # dense slot of each camera/point in the parameter vector, -1 if fixed
        self.cam_slot = np.full(len(self.cam_ids), -1, dtype=int)
        self.cam_slot[self.free_cams] = np.arange(len(self.free_cams))
        self.pt_slot = np.full(len(self.pt_ids), -1, dtype=int)
        self.pt_slot[self.free_pts] = np.arange(len(self.free_pts))

    def residuals(self, R, t, X):
        """Per-observation 2-vector residuals plus validity mask and cost."""
        c = self.obs_cam
        v = np.einsum("nij,nj->ni", R[c], X[self.obs_pt])
        p = v + t[c]
        px, z = pinhole(p, self.fx[c], self.fy[c], self.cx[c], self.cy[c])
        valid = z > 1e-9
        r = px - self.obs_xy
        r[~valid] = 0.0  # priced by the penalty instead
        cost = float((r[valid] ** 2).sum()) + _BEHIND_PENALTY * int((~valid).sum())
        return r, valid, cost, v, p

    def mean_error(self, R=None, t=None, X=None):
        R = self.R if R is None else R
        t = self.t if t is None else t
        X = self.X if X is None else X
        r, valid, _, _, _ = self.residuals(R, t, X)
        if not valid.any():
            return 0.0
        return float(np.linalg.norm(r[valid], axis=1).mean())

    def jacobians(self, v, p, valid):
        """Camera (N,2,6) and point (N,2,3) residual Jacobian blocks."""
        n = len(self.obs_cam)
        z = np.where(valid, p[:, 2], 1.0)
        fx = self.fx[self.obs_cam]
        fy = self.fy[self.obs_cam]
        Jp = np.zeros((n, 2, 3))
        Jp[:, 0, 0] = fx / z
        Jp[:, 0, 2] = -fx * p[:, 0] / z**2
        Jp[:, 1, 1] = fy / z
        Jp[:, 1, 2] = -fy * p[:, 1] / z**2
        Jp[~valid] = 0.0

        skew = np.zeros((n, 3, 3))
        skew[:, 0, 1] = -v[:, 2]
        skew[:, 0, 2] = v[:, 1]
        skew[:, 1, 0] = v[:, 2]
        skew[:, 1, 2] = -v[:, 0]
        skew[:, 2, 0] = -v[:, 1]
        skew[:, 2, 1] = v[:, 0]

        A = np.zeros((n, 2, 6))
        A[:, :, :3] = -np.einsum("nij,njk->nik", Jp, skew)
        A[:, :, 3:] = Jp
        B = np.einsum("nij,njk->nik", Jp, self.R[self.obs_cam][:, :, :])
        return A, B


def _solve_schur(prob: _Problem, A, B, r, lam):
    """Solve the damped normal equations for (camera step, point step)."""
    nc = len(prob.free_cams)
    npt = len(prob.free_pts)
    cslot = prob.cam_slot[prob.obs_cam]
    pslot = prob.pt_slot[prob.obs_pt]
    cam_free = cslot >= 0
    pt_free = pslot >= 0

    # camera blocks
    U = np.zeros((nc, 6, 6))
    gc = np.zeros((nc, 6))
    if cam_free.any():
        np.add.at(U, cslot[cam_free], np.einsum("nij,nik->njk", A[cam_free], A[cam_free]))
        np.add.at(gc, cslot[cam_free], -np.einsum("nij,ni->nj", A[cam_free], r[cam_free]))

    V = np.zeros((npt, 3, 3))
    gp = np.zeros((npt, 3))
    if pt_free.any():
        np.add.at(V, pslot[pt_free], np.einsum("nij,nik->njk", B[pt_free], B[pt_free]))
        np.add.at(gp, pslot[pt_free], -np.einsum("nij,ni->nj", B[pt_free], r[pt_free]))

    # damping on block diagonals
    d6 = np.arange(6)
    U[:, d6, d6] += lam * np.maximum(U[:, d6, d6], 1e-12)
    d3 = np.arange(3)
    Vd = V.copy()
    Vd[:, d3, d3] += lam * np.maximum(Vd[:, d3, d3], 1e-12)
    try:
        Vinv = np.linalg.inv(Vd) if npt else Vd
    except np.linalg.LinAlgError:
        Vinv = np.linalg.pinv(Vd)

    S = np.zeros((6 * nc, 6 * nc))
    for i in range(nc):
        S[6 * i : 6 * i + 6, 6 * i : 6 * i + 6] = U[i]
    b = gc.reshape(-1).copy()

    # observations with both ends free form the W V^-1 W^T coupling, built
    # as a sparse block-matrix product
    both = cam_free & pt_free
    Wsp = None
    if both.any() and nc:
        sel = np.nonzero(both)[0]
        m = len(sel)
        W = np.einsum("nij,nik->njk", A[sel], B[sel])  # 6x3 per obs
        ps = pslot[sel]
        cs = cslot[sel]
        Y = W @ Vinv[ps]
        rows = np.broadcast_to(
            (6 * cs)[:, None, None] + np.arange(6)[None, :, None], (m, 6, 3)
        )
        cols = np.broadcast_to(
            (3 * ps)[:, None, None] + np.arange(3)[None, None, :], (m, 6, 3)
        )
        shape = (6 * nc, 3 * npt)
        Wsp = sp_sparse.csr_matrix((W.ravel(), (rows.ravel(), cols.ravel())), shape=shape)
        Ysp = sp_sparse.csr_matrix((Y.ravel(), (rows.ravel(), cols.ravel())), shape=shape)
        S -= (Ysp @ Wsp.T).toarray()
        b -= Ysp @ gp.reshape(-1)

    if nc:
        try:
            dc = np.linalg.solve(S, b).reshape(nc, 6)
        except np.linalg.LinAlgError:
            dc = np.linalg.lstsq(S, b, rcond=None)[0].reshape(nc, 6)
    else:
        dc = np.zeros((0, 6))

    # back-substitute points: dp = Vinv (gp - W^T dc)
    dp = np.zeros((npt, 3))
    if npt:
        rhs = gp.copy()
        if Wsp is not None:
            rhs -= (Wsp.T @ dc.reshape(-1)).reshape(npt, 3)
        dp = np.einsum("nij,nj->ni", Vinv, rhs)
    return dc, dp


def solve_bundle(cameras, intrinsics, points, observations, opts: BaOptions) -> BaReport:
    """Jointly refine camera poses and 3D points in place.

    cameras: dict image_id -> CameraPose (mutated)
    intrinsics: dict image_id -> CameraIntrinsics (never touched)
    points: dict point_id -> 3-vector (mutated)
    observations: iterable of (image_id, point_id, pixel 2-vector)
    """
    observations = list(observations)
    if not observations or not cameras or not points:
        return BaReport()
    for c, p, _ in observations:
        if c not in cameras or p not in points:
            raise KeyError(f"observation references unknown camera/point ({c}, {p})")

    prob = _Problem(cameras, intrinsics, points, observations, opts)
    r, valid, cost, v, p = prob.residuals(prob.R, prob.t, prob.X)
    report = BaReport(
        initial_mean_error=prob.mean_error(),
        initial_cost=cost,
        converged=False,
    )

    if len(prob.free_cams) == 0 and len(prob.free_pts) == 0:
        report.final_mean_error = report.initial_mean_error
        report.final_cost = cost
        report.converged = True
        return report

    # remember the gauge baseline before optimizing; callers that fix
    # cameras/points themselves have anchored the gauge already
    fix_scale = (
        not opts.fixed_point_ids
        and not opts.fixed_camera_ids
        and len(prob.cam_ids) >= 2
    )
    if fix_scale:
        c0 = -prob.R[0].T @ prob.t[0]
        c1 = -prob.R[1].T @ prob.t[1]
        baseline0 = float(np.linalg.norm(c1 - c0))
        fix_scale = baseline0 > 1e-12

    lam = 1e-4
    it = 0
    while it < opts.max_iterations:
        it += 1
        A, B = prob.jacobians(v, p, valid)
        # gradient inf-norm over free parameters
        gnorm = 0.0
        cf = prob.cam_slot[prob.obs_cam] >= 0
        pf = prob.pt_slot[prob.obs_pt] >= 0
        if cf.any():
            gc = np.zeros((len(prob.free_cams), 6))
            np.add.at(gc, prob.cam_slot[prob.obs_cam][cf], np.einsum("nij,ni->nj", A[cf], r[cf]))
            gnorm = max(gnorm, float(np.abs(gc).max()) if gc.size else 0.0)
        if pf.any():
            gp = np.zeros((len(prob.free_pts), 3))
            np.add.at(gp, prob.pt_slot[prob.obs_pt][pf], np.einsum("nij,ni->nj", B[pf], r[pf]))
            gnorm = max(gnorm, float(np.abs(gp).max()) if gp.size else 0.0)
        if gnorm < opts.gradient_tolerance:
            report.converged = True
            it -= 1
            break

        accepted = False
        for _ in range(8):
            dc, dp = _solve_schur(prob, A, B, r, lam)
            Rn = prob.R.copy()
            tn = prob.t.copy()
            Xn = prob.X.copy()
            for k, ci in enumerate(prob.free_cams):
                Rn[ci] = project_rotation(angle_axis_to_matrix(dc[k, :3]) @ prob.R[ci])
                tn[ci] = prob.t[ci] + dc[k, 3:]
            if len(prob.free_pts):
                Xn[prob.free_pts] += dp
            rn, validn, costn, vn, pn = prob.residuals(Rn, tn, Xn)
            if costn <= cost:
                step = float(np.sqrt((dc**2).sum() + (dp**2).sum()))
                pnorm = float(
                    np.sqrt((prob.t**2).sum() + (prob.X**2).sum())
                )
                prob.R, prob.t, prob.X = Rn, tn, Xn
                r, valid, v, p = rn, validn, vn, pn
                converged_step = step < opts.parameter_tolerance * (pnorm + opts.parameter_tolerance)
                cost_drop = cost - costn
                cost = costn
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                if converged_step or cost_drop <= opts.function_tolerance * cost:
                    report.converged = True
                break
            lam = min(lam * 10.0, 1e10)
        if not accepted:
            report.converged = True  # no decreasing step exists at any damping
            break
        if report.converged:
            break

    # restore the gauge scale by an exact similarity (cost-invariant)
    if fix_scale:
        c0 = -prob.R[0].T @ prob.t[0]
        c1 = -prob.R[1].T @ prob.t[1]
        d = float(np.linalg.norm(c1 - c0))
        if d > 1e-12:
            s = baseline0 / d
            if abs(s - 1.0) > 1e-15:
                prob.X = c0 + s * (prob.X - c0)
                for i in range(len(prob.cam_ids)):
                    ci = -prob.R[i].T @ prob.t[i]
                    ci = c0 + s * (ci - c0)
                    prob.t[i] = -prob.R[i] @ ci

    report.iterations = it
    report.final_cost = cost if not fix_scale else prob.residuals(prob.R, prob.t, prob.X)[2]
    report.final_mean_error = prob.mean_error()

    for i, cid in enumerate(prob.cam_ids):
        cameras[cid] = CameraPose(prob.R[i], prob.t[i])
    for i, pid in enumerate(prob.pt_ids):
        points[pid] = prob.X[i].copy()
    return report
