"""Levenberg-Marquardt bundle adjustment with block-sparse Schur elimination.

Each linearization builds the normal-equation blocks once (per camera U and
g_c, per point V and g_p, the 6x3 block-sparse coupling W = A^T B), and its
damping retries reuse them. Points are eliminated through the Schur
complement S = U - W V^-1 W^T, a product of 6x3 block-sparse matrices, and
the reduced camera system is solved by Cholesky (least squares if S is not
numerically positive definite); intrinsics stay fixed. Gauge is fixed by
holding the first camera constant and, when no points are held fixed,
restoring the length of the first camera baseline (a pure gauge transform,
so it never changes the cost).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse as sp_sparse
from scipy.linalg import cho_factor, cho_solve

from .camera import CameraPose, angle_axis_to_matrix, pinhole, project_rotation, skew

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


@dataclass
class _Normal:
    """Normal equations of one linearization over the free parameters."""

    U: np.ndarray  # (cameras, 6, 6) camera blocks of J^T J
    V: np.ndarray  # (points, 3, 3) point blocks of J^T J
    gc: np.ndarray  # (cameras, 6) camera part of -J^T r
    gp: np.ndarray  # (points, 3) point part of -J^T r
    W: sp_sparse.bsr_matrix  # camera/point coupling, 6x3 blocks
    WT: sp_sparse.bsr_matrix

    def gradient_norm(self) -> float:
        return max(np.abs(self.gc).max(initial=0.0), np.abs(self.gp).max(initial=0.0))


class _Problem:
    def __init__(self, cameras, intrinsics, points, observations, opts: BaOptions):
        self.cam_ids = sorted(cameras)
        self.pt_ids = sorted(points)
        obs_img, obs_pt, obs_xy = observations
        cam_ids, pt_ids = np.array(self.cam_ids), np.array(self.pt_ids)
        self.obs_cam = np.minimum(np.searchsorted(cam_ids, obs_img), len(cam_ids) - 1)
        self.obs_pt = np.minimum(np.searchsorted(pt_ids, obs_pt), len(pt_ids) - 1)
        unknown = (cam_ids[self.obs_cam] != obs_img) | (pt_ids[self.obs_pt] != obs_pt)
        if unknown.any():
            k = int(np.argmax(unknown))
            raise KeyError(
                f"observation references unknown camera/point ({obs_img[k]}, {obs_pt[k]})"
            )
        self.obs_xy = np.asarray(obs_xy, dtype=float).reshape(-1, 2)
        self.R = np.array([cameras[c].rotation for c in self.cam_ids])
        self.t = np.array([cameras[c].translation for c in self.cam_ids])
        self.X = np.array([points[p] for p in self.pt_ids], dtype=float)
        cams = np.hstack([self.R.reshape(-1, 9), self.t])
        for kind, ids, values in (("camera", self.cam_ids, cams), ("point", self.pt_ids, self.X)):
            finite = np.isfinite(values).all(axis=1)
            if not finite.all():
                raise ValueError(f"{kind} {ids[int(np.argmin(finite))]} is not finite")
        K = np.array([intrinsics[c].pinhole_terms for c in self.cam_ids], dtype=float)
        self.fx, self.fy, self.cx, self.cy = K.reshape(-1, 4).T

        fixed_cams = set(opts.fixed_camera_ids)
        if self.cam_ids and not fixed_cams and not opts.fixed_point_ids:
            fixed_cams.add(self.cam_ids[0])  # gauge
        self.free_cams, self.cam_slot = _free_slots(self.cam_ids, fixed_cams)
        self.free_pts, self.pt_slot = _free_slots(self.pt_ids, opts.fixed_point_ids)

        cslot = self.cam_slot[self.obs_cam]
        pslot = self.pt_slot[self.obs_pt]
        # observations of free cameras/points and the sums over their slots
        self.cam_obs, self.cam_sum = _slot_sum(cslot, len(self.free_cams))
        self.pt_obs, self.pt_sum = _slot_sum(pslot, len(self.free_pts))
        # observations with both ends free couple a camera to a point; in
        # (camera, point) order they are the block rows of W
        both = np.nonzero((cslot >= 0) & (pslot >= 0))[0]
        self.coupled = both[np.lexsort((pslot[both], cslot[both]))]
        self.coupled_pt = pslot[self.coupled]
        self.coupled_indptr = np.searchsorted(
            cslot[self.coupled], np.arange(len(self.free_cams) + 1)
        )

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

    def mean_error(self):
        r, valid = self.residuals(self.R, self.t, self.X)[:2]
        return float(np.linalg.norm(r[valid], axis=1).mean()) if valid.any() else 0.0

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

        A = np.zeros((n, 2, 6))
        A[:, :, :3] = -(Jp @ skew(v))
        A[:, :, 3:] = Jp
        B = Jp @ self.R[self.obs_cam]
        return A, B

    def normal_equations(self, r, v, p, valid) -> _Normal:
        """Blocks of J^T J and -J^T r over the free cameras and points."""
        A, B = self.jacobians(v, p, valid)
        At = A.transpose(0, 2, 1)
        k = self.coupled
        W = sp_sparse.bsr_matrix(
            (At[k] @ B[k], self.coupled_pt, self.coupled_indptr),
            shape=(6 * len(self.free_cams), 3 * len(self.free_pts)),
        )
        A, At, r_c = A[self.cam_obs], At[self.cam_obs], r[self.cam_obs]
        B, r_p = B[self.pt_obs], r[self.pt_obs]
        return _Normal(
            U=(self.cam_sum @ (At @ A).reshape(-1, 36)).reshape(-1, 6, 6),
            V=(self.pt_sum @ (B.transpose(0, 2, 1) @ B).reshape(-1, 9)).reshape(-1, 3, 3),
            gc=-(self.cam_sum @ np.einsum("nij,ni->nj", A, r_c)),
            gp=-(self.pt_sum @ np.einsum("nij,ni->nj", B, r_p)),
            W=W,
            WT=W.T,
        )

    def stepped(self, dc, dp):
        """(R, t, X) after the camera step dc (free cameras, 6) and the point
        step dp (free points, 3). Raises LinAlgError on a non-finite step."""
        if not (np.isfinite(dc).all() and np.isfinite(dp).all()):
            raise np.linalg.LinAlgError("non-finite bundle adjustment step")
        R, t, X = self.R.copy(), self.t.copy(), self.X.copy()
        f = self.free_cams
        R[f] = project_rotation(angle_axis_to_matrix(dc[:, :3]) @ self.R[f])
        t[f] += dc[:, 3:]
        X[self.free_pts] += dp
        return R, t, X


def _free_slots(ids, fixed):
    """Indices of the ids not in `fixed`, and the dense slot of each id in
    the parameter vector (-1 if fixed)."""
    free = np.flatnonzero(~np.isin(ids, list(fixed)))
    slot = np.full(len(ids), -1, dtype=int)
    slot[free] = np.arange(len(free))
    return free, slot


def _slot_sum(slot, rows):
    """The observations with a slot (not -1), and the CSR matrix that sums
    their per-observation rows into the slot rows."""
    obs = np.nonzero(slot >= 0)[0]
    n = len(obs)
    return obs, sp_sparse.csr_matrix(
        (np.ones(n), (slot[obs], np.arange(n))), shape=(rows, n)
    )


def _centers(R, t):
    """Camera centres -R^T t of (N,3,3) rotations and (N,3) translations."""
    return -np.einsum("nji,nj->ni", R, t)


def _solve_schur(ne: _Normal, lam):
    """Solve the normal equations damped by lam for (camera step, point step)."""
    nc, npt = len(ne.U), len(ne.V)
    d6, d3 = np.arange(6), np.arange(3)
    U = ne.U.copy()
    U[:, d6, d6] += lam * np.maximum(U[:, d6, d6], 1e-12)
    V = ne.V.copy()
    V[:, d3, d3] += lam * np.maximum(V[:, d3, d3], 1e-12)
    try:
        Vinv = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        Vinv = np.linalg.pinv(V)

    # S = blockdiag(U) - Y W^T with Y = W V^-1, both 6x3 block-sparse
    W = ne.W
    Y = sp_sparse.bsr_matrix((W.data @ Vinv[W.indices], W.indices, W.indptr), shape=W.shape)
    S = -(Y @ ne.WT).toarray()
    diag = 6 * np.arange(nc)[:, None, None]
    S[diag + d6[:, None], diag + d6] += U
    b = ne.gc.reshape(-1) - Y @ ne.gp.reshape(-1)
    try:
        dc = cho_solve(cho_factor(S), b)
    except np.linalg.LinAlgError:  # S is not numerically positive definite
        dc = np.linalg.lstsq(S, b, rcond=None)[0]

    # back-substitute points: dp = Vinv (gp - W^T dc)
    dp = np.einsum("nij,nj->ni", Vinv, ne.gp - (ne.WT @ dc).reshape(npt, 3))
    return dc.reshape(nc, 6), dp


def solve_bundle(cameras, intrinsics, points, observations, opts: BaOptions) -> BaReport:
    """Jointly refine camera poses and 3D points in place.

    cameras: dict image_id -> CameraPose (mutated)
    intrinsics: dict image_id -> CameraIntrinsics (never touched)
    points: dict point_id -> 3-vector (mutated)
    observations: three aligned arrays, image ids (m,), point ids (m,) and
    pixels (m,2)
    An observation naming an unknown camera or point raises KeyError, and a
    pose or point that is not finite ValueError, naming the id.
    """
    if not len(observations[2]) or not cameras or not points:
        return BaReport()
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
        C = _centers(prob.R[:2], prob.t[:2])
        baseline0 = float(np.linalg.norm(C[1] - C[0]))
        fix_scale = baseline0 > 1e-12

    lam = 1e-4
    it = 0
    while it < opts.max_iterations:
        it += 1
        ne = prob.normal_equations(r, v, p, valid)
        if ne.gradient_norm() < opts.gradient_tolerance:
            report.converged = True
            it -= 1
            break

        accepted = False
        for _ in range(8):
            dc, dp = _solve_schur(ne, lam)
            try:
                Rn, tn, Xn = prob.stepped(dc, dp)
            except np.linalg.LinAlgError:  # a non-finite step is rejected
                costn = np.inf
            else:
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
        C = _centers(prob.R, prob.t)
        d = float(np.linalg.norm(C[1] - C[0]))
        if d > 1e-12:
            s = baseline0 / d
            if abs(s - 1.0) > 1e-15:
                prob.X = C[0] + s * (prob.X - C[0])
                prob.t = -np.einsum("nij,nj->ni", prob.R, C[0] + s * (C - C[0]))

    report.iterations = it
    report.final_cost = cost if not fix_scale else prob.residuals(prob.R, prob.t, prob.X)[2]
    report.final_mean_error = prob.mean_error()

    for i, cid in enumerate(prob.cam_ids):
        cameras[cid] = CameraPose(prob.R[i], prob.t[i])
    for i, pid in enumerate(prob.pt_ids):
        points[pid] = prob.X[i].copy()
    return report
