"""Levenberg-Marquardt bundle adjustment with block-sparse Schur elimination.

Observations are ordered once by (camera, point), so each free camera's
Jacobian rows are one slice and the observations coupling a free camera to a
free point are the block rows of W in order. Residuals and Jacobians are
computed a chunk of whole cameras at a time, and the Jacobians recompute the
chunk's projections rather than keep them from the residuals, so no
per-observation stack of rotations, projections or Jacobian products exists
beyond one chunk. Each linearization builds the normal-equation blocks once
(per camera U = A_c^T A_c and g_c from that slice, per point V and g_p, the
6x3 block-sparse coupling W = A^T B), and its damping retries reuse them.
Points are eliminated through the Schur complement S = U - W V^-1 W^T, whose
upper triangle is assembled a band of cameras at a time, and the reduced
camera system is factored by Cholesky in place (least squares if S is not
numerically positive definite); intrinsics stay fixed. The point step needs
W^T dc, which gathers W's blocks a chunk of whole points at a time, so no
transpose of all of W is made. At its peak a step holds W, S, the residuals
and one band or chunk. Gauge is
fixed by holding the first camera constant and, when no points are held
fixed, restoring the length of the first camera baseline (a pure gauge
transform, so it never changes the cost).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse as sp_sparse
from scipy.linalg import cho_factor, cho_solve

from .camera import angle_axis_to_matrix, pinhole, project_rotation, skew

# penalty cost for an observation whose point falls behind the camera
_BEHIND_PENALTY = 1e12
# convergence: largest gradient entry, step relative to the parameters, and
# relative cost decrease per iteration
GRADIENT_TOLERANCE = 1e-12
PARAMETER_TOLERANCE = 1e-12
FUNCTION_TOLERANCE = 1e-8
# free cameras per band of the Schur product: W V^-1 exists for one band of
# block rows at a time
SCHUR_BAND_CAMERAS = 16
# observations per chunk of the residual and Jacobian kernels; a chunk holds
# whole cameras, so one camera with more observations is a chunk of its own.
# The back-substitution's chunks of whole points hold as many blocks of W
CHUNK_ROWS = 4096


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
    # W's blocks in point-major order, camera order within each point: the
    # permutation, each block's camera, the blocks of each point and chunks
    # of whole points
    by_point: tuple

    def gradient_norm(self) -> float:
        return max(np.abs(self.gc).max(initial=0.0), np.abs(self.gp).max(initial=0.0))

    def wt_dot(self, x):
        """W^T x, one chunk of whole points at a time. W.T would copy all of
        W; each chunk's blocks are those of W.T in W.T's order, so every sum
        runs in the order of W.T @ x and gives the same bits."""
        order, cams, pt_blocks, chunks = self.by_point
        W = self.W
        blocks_t = W.data.transpose(0, 2, 1)
        y = np.zeros(W.shape[1])
        for rows, pts in chunks:
            Wt = sp_sparse.bsr_matrix(
                (
                    blocks_t[order[rows]],
                    cams[rows],
                    pt_blocks[pts.start : pts.stop + 1] - rows.start,
                ),
                shape=(3 * (pts.stop - pts.start), W.shape[0]),
            )
            y[3 * pts.start : 3 * pts.stop] = Wt @ x
        return y


class _Problem:
    def __init__(self, R, t, K, X, observations, fixed_cameras, fixed_points):
        obs_cam, obs_pt, obs_xy = (np.asarray(a) for a in observations)
        n, m = len(R), len(X)
        outside = (obs_cam < 0) | (obs_cam >= n) | (obs_pt < 0) | (obs_pt >= m)
        if outside.any():
            k = int(np.argmax(outside))
            c, p = obs_cam[k], obs_pt[k]
            raise IndexError(f"observation {k} names camera {c} of {n}, point {p} of {m}")
        self.R, self.t, self.X = R, t, X
        for kind, values in (("camera", np.hstack([R.reshape(-1, 9), t])), ("point", X)):
            finite = np.isfinite(values).all(axis=1)
            if not finite.all():
                raise ValueError(f"{kind} {int(np.argmin(finite))} is not finite")
        self.fx, self.fy, self.cx, self.cy = np.asarray(K, dtype=float).reshape(-1, 4).T

        if not len(fixed_cameras) and not len(fixed_points):
            fixed_cameras = [0]  # gauge
        self.free_cams, self.cam_slot = _free_slots(n, fixed_cameras)
        self.free_pts, self.pt_slot = _free_slots(m, fixed_points)

        # the one layout: observations in (camera slot, point slot) order, a
        # stable sort; fixed cameras (slot -1) come first
        cslot = self.cam_slot[obs_cam]
        pslot = self.pt_slot[obs_pt]
        order = np.lexsort((pslot, cslot))
        self.obs_cam, self.obs_pt = obs_cam[order], obs_pt[order]
        self.obs_xy = np.asarray(obs_xy, dtype=float).reshape(-1, 2)[order]
        cslot, pslot = cslot[order], pslot[order]
        # free camera c owns Jacobian rows cam_rows[c]:cam_rows[c + 1], two
        # per observation
        self.cam_rows = 2 * np.searchsorted(cslot, np.arange(len(self.free_cams) + 1))
        self.chunks = _chunks(self.cam_rows // 2, CHUNK_ROWS)
        # sums the per-observation rows of the free points into their slots
        free_pt = np.flatnonzero(pslot >= 0)
        self.pt_sum = sp_sparse.csr_matrix(
            (np.ones(len(free_pt)), (pslot[free_pt], free_pt)),
            shape=(len(self.free_pts), len(pslot)),
        )
        # observations with both ends free couple a camera to a point: the
        # block rows of W
        self.coupled = (cslot >= 0) & (pslot >= 0)
        self.coupled_pt = pslot[self.coupled].astype(np.int32)
        self.coupled_indptr = np.searchsorted(
            cslot[self.coupled], np.arange(len(self.free_cams) + 1)
        ).astype(np.int32)
        # the back-substitution reads W's blocks point by point; a stable
        # sort keeps each point's blocks in camera order
        pt_blocks = np.zeros(len(self.free_pts) + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.coupled_pt, minlength=len(self.free_pts)), out=pt_blocks[1:])
        by_point = np.argsort(self.coupled_pt, kind="stable").astype(np.int32)
        self.by_point = (
            by_point,
            cslot[self.coupled][by_point].astype(np.int32),
            pt_blocks,
            _chunks(pt_blocks, CHUNK_ROWS),
        )

    def _project(self, R, t, X, rows):
        """Cameras c, rotations R[c], v = R[c] X and p = v + t[c] of the
        observation rows (`take` gathers the same values as indexing, faster)."""
        c = self.obs_cam[rows]
        Rc = R.take(c, axis=0)
        v = np.einsum("nij,nj->ni", Rc, X.take(self.obs_pt[rows], axis=0))
        return c, Rc, v, v + t.take(c, axis=0)

    def residuals(self, R, t, X):
        """Per-observation 2-vector residuals plus validity mask and cost."""
        n = len(self.obs_cam)
        r = np.empty((n, 2))
        valid = np.empty(n, dtype=bool)
        for rows, _ in self.chunks:
            c, _, _, p = self._project(R, t, X, rows)
            px, z = pinhole(p, self.fx.take(c), self.fy.take(c), self.cx.take(c), self.cy.take(c))
            valid[rows] = z > 1e-9
            r[rows] = px - self.obs_xy[rows]
        r[~valid] = 0.0  # priced by the penalty instead
        cost = float((r[valid] ** 2).sum()) + _BEHIND_PENALTY * int((~valid).sum())
        return r, valid, cost

    def jacobians(self, valid, rows=slice(None), skip=0):
        """Camera (k - skip,2,6) blocks of the rows after the first `skip`
        and point (k,2,3) blocks of all k rows of the residual Jacobian at
        the current poses and points."""
        c, Rc, v, p = self._project(self.R, self.t, self.X, rows)
        valid = valid[rows]
        z = np.where(valid, p[:, 2], 1.0)
        fx = self.fx.take(c)
        fy = self.fy.take(c)
        Jp = np.zeros((len(c), 2, 3))
        Jp[:, 0, 0] = fx / z
        Jp[:, 0, 2] = -fx * p[:, 0] / z**2
        Jp[:, 1, 1] = fy / z
        Jp[:, 1, 2] = -fy * p[:, 1] / z**2
        Jp[~valid] = 0.0

        A = np.zeros((len(c) - skip, 2, 6))
        A[:, :, :3] = -(Jp[skip:] @ skew(v[skip:]))
        A[:, :, 3:] = Jp[skip:]
        B = Jp @ Rc
        return A, B

    def normal_equations(self, r, valid) -> _Normal:
        """Blocks of J^T J and -J^T r over the free cameras and points."""
        n, nc = len(self.obs_cam), len(self.free_cams)
        U, gc = np.empty((nc, 6, 6)), np.empty((nc, 6))
        W = np.empty((len(self.coupled_pt), 6, 3))
        BtB, Btr = np.empty((n, 9)), np.empty((n, 3))
        first = self.cam_rows[0] // 2  # rows of fixed cameras come first
        for rows, cams in self.chunks:
            # camera blocks only for the rows of free cameras
            free = slice(min(max(first, rows.start), rows.stop), rows.stop)
            skip = free.start - rows.start
            A, B = self.jacobians(valid, rows, skip)
            np.matmul(B.transpose(0, 2, 1), B, out=BtB[rows].reshape(-1, 3, 3))
            Btr[rows] = np.einsum("nij,ni->nj", B, r[rows])
            k = self.coupled[free]
            W[self.coupled_indptr[cams.start] : self.coupled_indptr[cams.stop]] = (
                A[k].transpose(0, 2, 1) @ B[skip:][k]
            )
            # camera blocks: the Gram matrix of each free camera's rows
            J, e = A.reshape(-1, 6), r[free].reshape(-1)
            lo = 2 * free.start
            for c in range(cams.start, cams.stop):
                a, b = self.cam_rows[c] - lo, self.cam_rows[c + 1] - lo
                U[c] = J[a:b].T @ J[a:b]
                gc[c] = -(e[a:b] @ J[a:b])
        return _Normal(
            U=U,
            V=(self.pt_sum @ BtB).reshape(-1, 3, 3),
            gc=gc,
            gp=-(self.pt_sum @ Btr),
            W=sp_sparse.bsr_matrix(
                (W, self.coupled_pt, self.coupled_indptr),
                shape=(6 * nc, 3 * len(self.free_pts)),
            ),
            by_point=self.by_point,
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


def _free_slots(n, fixed):
    """The indices below n not in `fixed`, and the dense slot of each index
    in the parameter vector (-1 if fixed)."""
    free = np.ones(n, dtype=bool)
    free[list(fixed)] = False
    return np.flatnonzero(free), np.where(free, np.cumsum(free) - 1, -1)


def _chunks(cam_obs, size):
    """(observation rows, free cameras) slices of chunks of up to `size`
    rows. cam_obs (free cameras + 1) bounds the rows of each free camera,
    which follow the rows of the fixed cameras: those split anywhere, free
    cameras only whole, and a camera with more rows is a chunk of its own."""
    bounds = np.union1d(np.arange(0, cam_obs[0], size), cam_obs)
    rows = [0]
    while rows[-1] < bounds[-1]:
        shortest = bounds[np.searchsorted(bounds, rows[-1], side="right")]
        longest = bounds[np.searchsorted(bounds, rows[-1] + size, side="right") - 1]
        rows.append(max(shortest, longest))
    cams = np.searchsorted(cam_obs[:-1], rows)
    cams[-1] = len(cam_obs) - 1  # cameras without rows at the end
    return [
        (slice(lo, hi), slice(c0, c1))
        for lo, hi, c0, c1 in zip(rows[:-1], rows[1:], cams[:-1], cams[1:])
    ]


def _mean_error(r, valid):
    """Mean reprojection error of the valid observations."""
    return float(np.linalg.norm(r[valid], axis=1).mean()) if valid.any() else 0.0


def _centers(R, t):
    """Camera centres -R^T t of (N,3,3) rotations and (N,3) translations."""
    return -np.einsum("nji,nj->ni", R, t)


def _inv_sym3(V):
    """Inverses of symmetric 3x3 blocks (n,3,3) from their closed-form
    factors V = L D L^T, as V^-1 = L^-T D^-1 L^-1; this is as accurate as LU,
    where the adjugate loses digits with the square of the condition number.
    A block whose determinant is not positive and finite is pseudo-inverted
    instead, and one that is not finite gives NaN."""
    a, b, c = V[:, 0, 0], V[:, 0, 1], V[:, 0, 2]
    d, e, f = V[:, 1, 1], V[:, 1, 2], V[:, 2, 2]
    inv = np.empty_like(V)
    with np.errstate(divide="ignore", invalid="ignore"):
        l21, l31 = b / a, c / a
        d2 = d - b * l21
        q = e - c * l21
        l32 = q / d2
        d3 = f - c * l31 - l32 * q
        m31 = l21 * l32 - l31  # L^-1 = [[1, 0, 0], [-l21, 1, 0], [m31, -l32, 1]]
        inv[:, 2, 2] = 1.0 / d3
        inv[:, 1, 2] = inv[:, 2, 1] = -l32 * inv[:, 2, 2]
        inv[:, 0, 2] = inv[:, 2, 0] = m31 * inv[:, 2, 2]
        inv[:, 1, 1] = 1.0 / d2 - l32 * inv[:, 1, 2]
        inv[:, 0, 1] = inv[:, 1, 0] = -l21 / d2 - l32 * inv[:, 0, 2]
        inv[:, 0, 0] = 1.0 / a + l21 * l21 / d2 + m31 * inv[:, 0, 2]
        det = a * d2 * d3
    ok = np.isfinite(det) & (det > 0)
    if not ok.all():
        bad = np.flatnonzero(~ok)
        finite = np.isfinite(V[bad]).all(axis=(1, 2))  # an SVD may not end on inf
        inv[bad] = np.nan
        inv[bad[finite]] = np.linalg.pinv(V[bad[finite]])
    return inv


def _reduced_system(ne: _Normal, U, Vinv):
    """The upper triangle of the reduced camera system S dc = b, with
    S = U - W V^-1 W^T and b = g_c - W V^-1 g_p, built SCHUR_BAND_CAMERAS
    block rows at a time so that no more than one band of Y = W V^-1 exists
    at once. Left of each band's first camera S holds zeros."""
    nc = len(U)
    W = ne.W
    S = np.zeros((6 * nc, 6 * nc))
    b = np.empty(6 * nc)
    for c0 in range(0, nc, SCHUR_BAND_CAMERAS):
        c1 = min(c0 + SCHUR_BAND_CAMERAS, nc)
        lo, hi = W.indptr[c0], W.indptr[c1]
        cols = W.indices[lo:hi]
        Y = sp_sparse.bsr_matrix(
            (W.data[lo:hi] @ Vinv[cols], cols, W.indptr[c0 : c1 + 1] - lo),
            shape=(6 * (c1 - c0), W.shape[1]),
        )
        rows = slice(6 * c0, 6 * c1)
        b[rows] = ne.gc[c0:c1].reshape(-1) - Y @ ne.gp.reshape(-1)
        # the band's blocks right of its first camera: (W_c0: Y^T)^T makes
        # the products and sums of Y W_c0:^T in the same order, and no
        # transpose of W is made
        W_right = sp_sparse.bsr_matrix(
            (W.data[lo:], W.indices[lo:], W.indptr[c0:] - lo),
            shape=(6 * (nc - c0), W.shape[1]),
        )
        np.negative((W_right @ Y.T).T.toarray(), out=S[rows, 6 * c0 :])
    d6 = np.arange(6)
    diag = 6 * np.arange(nc)[:, None, None]
    S[diag + d6[:, None], diag + d6] += U
    return S, b


def _solve_schur(ne: _Normal, lam):
    """Solve the normal equations damped by lam for (camera step, point step)."""
    nc, npt = len(ne.U), len(ne.V)
    d6, d3 = np.arange(6), np.arange(3)
    U = ne.U.copy()
    U[:, d6, d6] += lam * np.maximum(U[:, d6, d6], 1e-12)
    V = ne.V.copy()
    V[:, d3, d3] += lam * np.maximum(V[:, d3, d3], 1e-12)
    Vinv = _inv_sym3(V)

    S, b = _reduced_system(ne, U, Vinv)
    try:
        # S is filled by rows, so S.T is the F-ordered array LAPACK factors
        # in place; its lower triangle, the one read, is the upper triangle
        # of S
        dc = cho_solve(cho_factor(S.T, lower=True, overwrite_a=True), b)
    except np.linalg.LinAlgError:  # S is not numerically positive definite
        S, b = _reduced_system(ne, U, Vinv)  # the failed factorization wrote over S
        i, j = np.tril_indices(len(S), -1)
        S[i, j] = S[j, i]
        dc = np.linalg.lstsq(S, b, rcond=None)[0]
    del S  # S, or its factor, is freed before the back-substitution

    # back-substitute points: dp = Vinv (gp - W^T dc)
    dp = np.einsum("nij,nj->ni", Vinv, ne.gp - ne.wt_dot(dc).reshape(npt, 3))
    return dc.reshape(nc, 6), dp


def solve_bundle(
    R, t, K, X, observations, fixed_cameras=(), fixed_points=(), max_iterations=50
) -> BaReport:
    """Jointly refine camera poses and 3D points in place.

    R (n,3,3), t (n,3): camera poses, refined in place
    K (n,4): pinhole terms fx fy cx cy of each camera (never touched)
    X (m,3): points, refined in place
    observations: three aligned arrays, camera indices (k,), point indices
    (k,) and pixels (k,2)
    fixed_cameras, fixed_points: indices held constant
    An observation whose index is out of range raises IndexError naming the
    observation, and a pose or point that is not finite ValueError naming
    its index.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if not len(observations[2]) or not len(R) or not len(X):
        return BaReport()
    prob = _Problem(R, t, K, X, observations, fixed_cameras, fixed_points)
    # prob holds sorted copies; under CPython 3.11+ a caller that passes the
    # observations unnamed and unwrapped holds none, and these are freed
    del observations
    r, valid, cost = prob.residuals(prob.R, prob.t, prob.X)
    report = BaReport(
        initial_mean_error=_mean_error(r, valid),
        initial_cost=cost,
        converged=False,
    )

    # remember the gauge baseline before optimizing; callers that fix
    # cameras/points themselves have anchored the gauge already
    fix_scale = not len(fixed_points) and not len(fixed_cameras) and len(R) >= 2
    if fix_scale:
        C = _centers(prob.R[:2], prob.t[:2])
        baseline0 = float(np.linalg.norm(C[1] - C[0]))
        fix_scale = baseline0 > 1e-12

    lam = 1e-4
    it = 0
    while it < max_iterations:
        it += 1
        ne = None  # release the previous linearization before building the next
        ne = prob.normal_equations(r, valid)
        if ne.gradient_norm() < GRADIENT_TOLERANCE:
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
                rn, validn, costn = prob.residuals(Rn, tn, Xn)
            if costn <= cost:
                step = float(np.sqrt((dc**2).sum() + (dp**2).sum()))
                pnorm = float(
                    np.sqrt((prob.t**2).sum() + (prob.X**2).sum())
                )
                prob.R, prob.t, prob.X = Rn, tn, Xn
                r, valid = rn, validn
                converged_step = step < PARAMETER_TOLERANCE * (pnorm + PARAMETER_TOLERANCE)
                cost_drop = cost - costn
                cost = costn
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                if converged_step or cost_drop <= FUNCTION_TOLERANCE * cost:
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
                r, valid, cost = prob.residuals(prob.R, prob.t, prob.X)

    report.iterations = it
    report.final_cost = cost
    report.final_mean_error = _mean_error(r, valid)

    R[...], t[...], X[...] = prob.R, prob.t, prob.X
    return report
