"""Shared synthetic-scene helpers for the test suite."""

import threading

import numpy as np

from parsfm.geometry import CameraIntrinsics, CameraPose, solve_bundle
from parsfm.graphalgo import connected_components


def default_intrinsics(width=1000, height=800, focal=900.0):
    return CameraIntrinsics(focal, focal, width / 2.0, height / 2.0, width, height)


def look_at_pose(eye, target, up=(0.0, 0.0, 1.0)):
    """World-to-camera pose with +z looking from eye toward target."""
    eye = np.asarray(eye, dtype=float)
    fwd = np.asarray(target, dtype=float) - eye
    fwd = fwd / np.linalg.norm(fwd)
    up = np.asarray(up, dtype=float)
    right = np.cross(fwd, up)
    if np.linalg.norm(right) < 1e-9:
        right = np.cross(fwd, np.array([0.0, 1.0, 0.0]))
    right /= np.linalg.norm(right)
    down = np.cross(fwd, right)
    R = np.stack([right, down, fwd])  # rows: camera axes in world coords
    return CameraPose(R, -R @ eye)


def random_rotation(rng):
    A = rng.normal(size=(3, 3))
    Q, _ = np.linalg.qr(A)
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def ring_cameras(n, radius=10.0, height=4.0, target=(0.0, 0.0, 0.0)):
    poses = []
    target = np.asarray(target, dtype=float)
    for k in range(n):
        a = 2 * np.pi * k / n
        eye = target + np.array([radius * np.cos(a), radius * np.sin(a), height])
        poses.append(look_at_pose(eye, target))
    return poses


def make_scene(
    n_cams=10,
    n_pts=80,
    noise=0.0,
    seed=0,
    radius=10.0,
    ring_k=2,
    offset=(0.0, 0.0, 0.0),
    id_offset=0,
    pt_offset=0,
):
    """Ring of cameras around a point cloud; every camera sees every point.

    Keypoint index k of every image observes world point k + pt_offset, so
    ground-truth correspondences are trivial to emit.
    """
    from parsfm.geometry import project
    from parsfm.matchgraph import FeatureSet, MatchPair

    rng = np.random.default_rng(seed)
    pts = rng.uniform(-3.0, 3.0, size=(n_pts, 3))
    pts[:, 2] *= 0.5
    pts += np.asarray(offset, dtype=float)
    poses = ring_cameras(n_cams, radius=radius, target=offset)
    intr = default_intrinsics()
    features = {}
    intrinsics = {}
    gt_poses = {}
    for i, pose in enumerate(poses):
        img = i + id_offset
        px = np.array([project(intr, pose, p) for p in pts])
        px += rng.normal(0.0, noise, size=px.shape) if noise else 0.0
        kp = np.hstack([px, np.ones((n_pts, 1))])
        features[img] = FeatureSet(img, kp, np.zeros((n_pts, 2)))
        intrinsics[img] = intr
        gt_poses[img] = pose
    pairs = []
    for i in range(n_cams):
        for j in range(i + 1, n_cams):
            if min(j - i, n_cams - (j - i)) <= ring_k:
                m = np.stack([np.arange(n_pts), np.arange(n_pts)], axis=1)
                pairs.append(MatchPair(i + id_offset, j + id_offset, m))
    return {
        "images": [i + id_offset for i in range(n_cams)],
        "points": pts,
        "pt_offset": pt_offset,
        "features": features,
        "intrinsics": intrinsics,
        "gt_poses": gt_poses,
        "pairs": pairs,
    }


def mcds_reference(graph):
    """Independent neighbor-count-only greedy (same tie-breaking).

    Kept separate from extract_wcds so the r_vw = 1 reduction can be checked
    against code that never touches edge weights.
    """
    adj = {v: sorted(u for u, _ in edges) for v, edges in graph.adjacency().items()}
    selected_all = []
    for comp in connected_components(graph):
        if len(comp) == 1:
            selected_all.extend(comp)
            continue
        white = set(comp)
        gray = set()
        black = set()

        def n_white(v):
            return sum(1 for u in adj[v] if u in white)

        current = min(comp, key=lambda v: (-n_white(v), v))
        while True:
            white.discard(current)
            gray.discard(current)
            black.add(current)
            selected_all.append(current)
            for u in adj[current]:
                if u in white:
                    white.remove(u)
                    gray.add(u)
            if not white:
                break
            current = min(gray, key=lambda v: (-n_white(v), v))
    return selected_all


def cheirality_counts_loop(R, t, x1, x2):
    """Per-match DLT oracle of twoview._cheirality_counts: one 4x4 SVD per
    match of normalized points; a point at infinity does not count."""
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


def quantize_reference(tree, descriptors):
    """Per-descriptor walk down a VocabularyTree, kept separate from its
    node-wise quantize as an oracle: same distances, first minimum on ties."""
    desc = np.atleast_2d(np.asarray(descriptors, dtype=float))
    words = np.empty(len(desc), dtype=int)
    for i, d in enumerate(desc):
        node = tree.root
        while node.children is not None:
            dist = ((node.centers - d) ** 2).sum(axis=1)
            node = node.children[int(np.argmin(dist))]
        words[i] = node.word
    return words


def call_with_deadline(fn, seconds=10.0):
    """Run fn() in a daemon thread and return {"returned": value} or
    {"raised": exception}. Fails the calling test when fn has not finished
    within `seconds`, so a call that spins cannot stall the suite."""
    box = {}

    def target():
        try:
            box["returned"] = fn()
        except Exception as exc:
            box["raised"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"call still running after {seconds} s"
    return box


def common_points_reference(source, reference, pairs):
    """Dict-based common-point search, one match and one observation at a
    time: (pairs, support, loaded pair count) as `find_common_points` over
    `build_correspondence_graph` must give them.

    A pair with both images in both reconstructions loads once, as a -> b.
    Every (source observation, linked reference feature) is one vote; a
    source point keeps its most-voted reference point, the lower id on a
    tie. A feature in two reference tracks belongs to the later point in
    `reference.points` order.
    """
    src_images, ref_images = set(source.cameras), set(reference.cameras)
    mapping = {}
    loaded = 0
    for pair in pairs:
        a, b = pair.image_id_a, pair.image_id_b
        if a in src_images and b in ref_images:
            src_img, ref_img, m = a, b, pair.matches
        elif b in src_images and a in ref_images:
            src_img, ref_img, m = b, a, pair.matches[:, ::-1]
        else:
            continue
        loaded += 1
        for si, ri in m:
            mapping.setdefault((src_img, int(si)), []).append((ref_img, int(ri)))
    index = {
        (img, kp): pid
        for pid, (_, track) in reference.points.items()
        for img, kp in track.observations
    }
    out_pairs, support = [], []
    for spid in sorted(source.points):
        votes = {}
        for obs in source.points[spid][1].observations:
            for ref_feat in mapping.get(obs, []):
                rpid = index.get(ref_feat)
                if rpid is not None:
                    votes[rpid] = votes.get(rpid, 0) + 1
        if votes:
            rpid = min(votes, key=lambda r: (-votes[r], r))
            out_pairs.append((spid, rpid))
            support.append(votes[rpid])
    return out_pairs, support, loaded


def ba_arrays(cameras, intrinsics, points, observations, fixed_cameras=(), fixed_points=()):
    """A dict scene (image id -> CameraPose, image id -> CameraIntrinsics,
    point id -> xyz, a list of (image id, point id, pixel)) and id sets to
    fix, as the positional arguments of `solve_bundle` and `_Problem`: R, t,
    K, X in sorted-id order, the observations as (camera indices, point
    indices, pixels), and the fixed cameras' and points' indices."""
    cam_ids, pt_ids = sorted(cameras), sorted(points)
    cam_index = {c: k for k, c in enumerate(cam_ids)}
    pt_index = {p: k for k, p in enumerate(pt_ids)}
    R = np.array([cameras[c].rotation for c in cam_ids], dtype=float).reshape(-1, 3, 3)
    t = np.array([cameras[c].translation for c in cam_ids], dtype=float).reshape(-1, 3)
    K = np.array([intrinsics[c].pinhole_terms for c in cam_ids], dtype=float).reshape(-1, 4)
    X = np.array([points[p] for p in pt_ids], dtype=float).reshape(-1, 3)
    obs = (
        np.array([cam_index[c] for c, _, _ in observations], dtype=np.int64),
        np.array([pt_index[p] for _, p, _ in observations], dtype=np.int64),
        np.array([xy for _, _, xy in observations], dtype=float).reshape(-1, 2),
    )
    return (
        R, t, K, X, obs,
        sorted(cam_index[c] for c in fixed_cameras),
        sorted(pt_index[p] for p in fixed_points),
    )


def solve_dicts(cameras, intrinsics, points, observations, fixed_cameras=(), fixed_points=(),
                max_iterations=50):
    """`solve_bundle` on a dict scene through `ba_arrays`; the refined poses
    and points are written back into `cameras` and `points`."""
    args = ba_arrays(cameras, intrinsics, points, observations, fixed_cameras, fixed_points)
    report = solve_bundle(*args, max_iterations=max_iterations)
    R, t, _, X = args[:4]
    for k, c in enumerate(sorted(cameras)):
        cameras[c] = CameraPose(R[k], t[k])
    for k, p in enumerate(sorted(points)):
        points[p] = X[k]
    return report


def triangulate_reference(observations, min_tri_angle_deg, max_error_px=np.inf):
    """One track at a time, as the engine triangulated before the batched
    kernel: (point or None, triangulate_tracks status code). The checks run
    in the kernel's order: widest ray pair by a double loop against the
    angle gate, the DLT by one SVD, the point at infinity, the depth in
    every camera, then the reprojection error of every view."""
    from parsfm.geometry import project_points

    rays = []
    for intr, pose, px in observations:
        n = intr.normalize(np.asarray(px, dtype=float))
        d = pose.rotation.T @ np.array([n[0], n[1], 1.0])
        rays.append(d / np.linalg.norm(d))
    widest = max(
        np.arccos(min(abs(float(np.dot(rays[i], rays[j]))), 1.0))
        for i in range(len(rays))
        for j in range(i + 1, len(rays))
    )
    if widest < np.deg2rad(min_tri_angle_deg):
        return None, 1
    rows = []
    for intr, pose, px in observations:
        n = intr.normalize(np.asarray(px, dtype=float))
        P = np.hstack([pose.rotation, pose.translation.reshape(3, 1)])
        rows += [n[0] * P[2] - P[0], n[1] * P[2] - P[1]]
    Xh = np.linalg.svd(np.array(rows), full_matrices=False)[2][-1]
    if abs(Xh[3]) < 1e-14:
        return None, 2
    X = Xh[:3] / Xh[3]
    if any(pose.transform(X)[0, 2] <= 0 for _, pose, _ in observations):
        return None, 3
    for intr, pose, px in observations:
        proj, _ = project_points(intr, pose, X.reshape(1, 3))
        if np.linalg.norm(proj[0] - px) > max_error_px:
            return None, 4
    return X, 0


def linearize_reference(prob):
    """The bundle adjuster's linearization as it was while the residuals
    stored every observation's v = R X and p = v + t for the Jacobians to
    read, kept as the oracle of the one that recomputes them a chunk at a
    time: residuals, mask and cost, then the normal equations with B^T B and
    B^T r kept for every observation until pt_sum sums them. Returns
    (r, valid, cost, _Normal) at prob's current poses and points."""
    from parsfm.geometry import ba
    from parsfm.geometry.camera import pinhole, skew
    from scipy import sparse as sp_sparse

    n, nc = len(prob.obs_cam), len(prob.free_cams)
    r, v, p = np.empty((n, 2)), np.empty((n, 3)), np.empty((n, 3))
    valid = np.empty(n, dtype=bool)
    for rows, _ in prob.chunks:
        c = prob.obs_cam[rows]
        v[rows] = np.einsum("nij,nj->ni", prob.R[c], prob.X[prob.obs_pt[rows]])
        p[rows] = v[rows] + prob.t[c]
        px, z = pinhole(p[rows], prob.fx[c], prob.fy[c], prob.cx[c], prob.cy[c])
        valid[rows] = z > 1e-9
        r[rows] = px - prob.obs_xy[rows]
    r[~valid] = 0.0
    cost = float((r[valid] ** 2).sum()) + ba._BEHIND_PENALTY * int((~valid).sum())

    U, gc = np.empty((nc, 6, 6)), np.empty((nc, 6))
    W = np.empty((len(prob.coupled_pt), 6, 3))
    BtB, Btr = np.empty((n, 9)), np.empty((n, 3))
    first = prob.cam_rows[0] // 2
    for rows, cams in prob.chunks:
        free = slice(min(max(first, rows.start), rows.stop), rows.stop)
        skip = free.start - rows.start
        c = prob.obs_cam[rows]
        pr, vr, ok = p[rows], v[rows], valid[rows]
        z = np.where(ok, pr[:, 2], 1.0)
        Jp = np.zeros((len(c), 2, 3))
        Jp[:, 0, 0] = prob.fx[c] / z
        Jp[:, 0, 2] = -prob.fx[c] * pr[:, 0] / z**2
        Jp[:, 1, 1] = prob.fy[c] / z
        Jp[:, 1, 2] = -prob.fy[c] * pr[:, 1] / z**2
        Jp[~ok] = 0.0
        A = np.zeros((len(c) - skip, 2, 6))
        A[:, :, :3] = -(Jp[skip:] @ skew(vr[skip:]))
        A[:, :, 3:] = Jp[skip:]
        B = Jp @ prob.R[c]
        np.matmul(B.transpose(0, 2, 1), B, out=BtB[rows].reshape(-1, 3, 3))
        Btr[rows] = np.einsum("nij,ni->nj", B, r[rows])
        k = prob.coupled[free]
        W[prob.coupled_indptr[cams.start] : prob.coupled_indptr[cams.stop]] = (
            A[k].transpose(0, 2, 1) @ B[skip:][k]
        )
        J, e = A.reshape(-1, 6), r[free].reshape(-1)
        lo = 2 * free.start
        for cam in range(cams.start, cams.stop):
            a, b = prob.cam_rows[cam] - lo, prob.cam_rows[cam + 1] - lo
            U[cam] = J[a:b].T @ J[a:b]
            gc[cam] = -(e[a:b] @ J[a:b])
    ne = ba._Normal(
        U=U,
        V=(prob.pt_sum @ BtB).reshape(-1, 3, 3),
        gc=gc,
        gp=-(prob.pt_sum @ Btr),
        W=sp_sparse.bsr_matrix(
            (W, prob.coupled_pt, prob.coupled_indptr),
            shape=(6 * nc, 3 * len(prob.free_pts)),
        ),
        by_point=None,
    )
    return r, valid, cost, ne


def solve_schur_reference(ne, lam):
    """The damped Schur step with the point back-substitution through the
    transpose of all of W, W.T @ dc: the oracle of the chunked W^T dc."""
    from parsfm.geometry import ba
    from scipy.linalg import cho_factor, cho_solve

    d6, d3 = np.arange(6), np.arange(3)
    U = ne.U.copy()
    U[:, d6, d6] += lam * np.maximum(U[:, d6, d6], 1e-12)
    V = ne.V.copy()
    V[:, d3, d3] += lam * np.maximum(V[:, d3, d3], 1e-12)
    Vinv = ba._inv_sym3(V)
    S, b = ba._reduced_system(ne, U, Vinv)
    dc = cho_solve(cho_factor(S.T, lower=True, overwrite_a=True), b)
    dp = np.einsum("nij,nj->ni", Vinv, ne.gp - (ne.W.T @ dc).reshape(len(V), 3))
    return dc.reshape(len(U), 6), dp


def read_dataset_reference(path):
    """The line-at-a-time dataset reader the array reader replaced, as its
    oracle: every line is split and converted in Python, and the first bad
    record raises ValueError starting with its 'path:line'. Beyond that
    reader it rejects a MATCH of an image with itself and a repeated DESC,
    and it looks a KEYPOINT line up in the lines it read rather than by
    re-reading the file for the spelled-out image id."""
    from parsfm.matchgraph import FeatureSet, ImageMeta, MatchPair
    from parsfm.matchgraph.dataset import Dataset

    metas = {}
    keypoints = {}
    kp_lines = {}  # image id -> line of each of its KEYPOINT records
    descs = {}  # image id -> {keypoint index: (values, line)}
    matches = {}
    image_line = {}  # image id -> line of its IMAGE record
    shared_k = dim = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            tok = line.split()
            if not tok or tok[0].startswith("#"):
                continue
            kind = tok[0]
            record = None
            try:
                if kind == "MATCH" and len(tok) == 5:
                    record = int(tok[1]), int(tok[2]), int(tok[3]), int(tok[4])
                if kind == "KEYPOINT" and len(tok) == 5:
                    record = int(tok[1]), (float(tok[2]), float(tok[3]), float(tok[4]))
                if kind == "INTRINSICS" and len(tok) == 5:
                    record = tuple(float(v) for v in tok[1:])
                if kind == "IMAGE" and len(tok) == 4:
                    record = int(tok[1]), int(tok[2]), int(tok[3])
                elif kind == "DESC" and len(tok) > 3:
                    record = int(tok[1]), int(tok[2]), [float(v) for v in tok[3:]]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric field in {kind} record") from None
            if record is None:
                if kind not in ("INTRINSICS", "IMAGE", "KEYPOINT", "DESC", "MATCH"):
                    raise ValueError(f"{path}:{lineno}: unknown record type {kind!r}")
                raise ValueError(f"{path}:{lineno}: {kind} record with {len(tok) - 1} fields")
            if kind == "KEYPOINT":
                keypoints.setdefault(record[0], []).append(record[1])
                kp_lines.setdefault(record[0], []).append(lineno)
                continue
            try:
                if kind == "MATCH":
                    a, b, ia, ib = record
                    if a == b:
                        raise ValueError(f"MATCH of image {a} with itself")
                    if a < b:
                        matches.setdefault((a, b), []).append((ia, ib, lineno))
                    else:
                        matches.setdefault((b, a), []).append((ib, ia, lineno))
                elif kind == "INTRINSICS":
                    if not np.isfinite(record).all():
                        raise ValueError("non-finite value in INTRINSICS record")
                    CameraIntrinsics(*record, np.inf, np.inf)  # IMAGE records set the bounds
                    if shared_k is not None:
                        raise ValueError("repeated INTRINSICS record")
                    shared_k = record
                elif kind == "IMAGE":
                    iid = record[0]
                    if iid < 0 or iid in metas:
                        raise ValueError(f"negative or duplicate IMAGE id {iid}")
                    metas[iid] = ImageMeta(*record)
                    image_line[iid] = lineno
                else:
                    dim = len(record[2]) if dim is None else dim
                    if len(record[2]) != dim:
                        raise ValueError(f"DESC of dimension {len(record[2])}, not {dim}")
                    if record[1] in descs.get(record[0], {}):
                        raise ValueError(f"repeated DESC {record[0]} {record[1]}")
                    descs.setdefault(record[0], {})[record[1]] = (record[2], lineno)
            except ValueError as exc:  # a record these checks or ImageMeta reject
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    intrinsics = {}
    for iid, m in metas.items():  # in the order of their IMAGE records
        try:
            if shared_k is None:
                raise ValueError("IMAGE records with no INTRINSICS record")
            intrinsics[iid] = CameraIntrinsics(*shared_k, m.width, m.height)
        except ValueError as exc:
            raise ValueError(f"{path}:{image_line[iid]}: {exc}") from None

    features = {}
    for iid, dmap in descs.items():
        n = len(keypoints.get(iid, ()))
        for idx, (_, line) in dmap.items():
            if not 0 <= idx < n:
                raise ValueError(f"{path}:{line}: DESC keypoint {idx} not in image {iid}")
        if len(dmap) < n:
            idx = min(set(range(n)) - dmap.keys())
            line = kp_lines[iid][idx]
            raise ValueError(f"{path}:{line}: KEYPOINT {idx} of image {iid} has no DESC")
    for iid, kps in keypoints.items():
        if iid not in metas:
            line = kp_lines[iid][0]
            raise ValueError(f"{path}:{line}: KEYPOINT of image {iid} with no IMAGE record")
        kps = np.array(kps, dtype=float)
        finite = np.isfinite(kps).all(axis=1)
        if not finite.all():
            line = kp_lines[iid][int(np.argmin(finite))]
            raise ValueError(f"{path}:{line}: non-finite value in KEYPOINT record")
        desc = np.zeros((len(kps), dim if iid in descs else 0))
        for idx, (v, _) in descs.get(iid, {}).items():
            desc[idx] = v
        features[iid] = FeatureSet(iid, kps, desc)
    # an image without keypoints gets an empty feature set as wide as the rest
    for iid in sorted(metas.keys() - features.keys()):
        features[iid] = FeatureSet(iid, np.zeros((0, 3)), np.zeros((0, dim or 0)))

    pairs = []
    for (a, b), rows in sorted(matches.items()):
        m = np.array(rows, dtype=int)
        for img, col in ((a, 0), (b, 1)):
            if img not in metas:
                raise ValueError(f"{path}:{m[0, 2]}: MATCH names image {img} with no IMAGE record")
            bad = np.flatnonzero((m[:, col] < 0) | (m[:, col] >= len(keypoints.get(img, ()))))
            if bad.size:
                kp, line = m[bad[0], col], m[bad[0], 2]
                raise ValueError(f"{path}:{line}: MATCH keypoint {kp} not in image {img}")
        pairs.append(MatchPair(a, b, m[:, :2].copy()))

    return Dataset(metas=metas, features=features, pairs=pairs, intrinsics=intrinsics)


def read_reconstruction_reference(path, intrinsics, recon_id=0):
    """The line-at-a-time model reader the array reader replaced, as its
    oracle: every line is split and converted in Python, and the first bad
    record raises ValueError starting with its 'path:line'."""
    from parsfm.engine import Reconstruction, Track
    from parsfm.geometry import quaternion_to_matrix

    recon = Reconstruction(recon_id=recon_id)
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            tok = line.split()
            if not tok:
                continue
            kind, where = tok[0], f"{path}:{lineno}"
            xyz = None
            try:
                if kind == "POINT" and len(tok) >= 6 and len(tok) == 6 + 2 * int(tok[5]):
                    pid, ids = int(tok[1]), [int(v) for v in tok[6:]]
                    xyz = np.array([float(v) for v in tok[2:5]])
                if kind == "CAMERA" and len(tok) == 9:
                    img, q = int(tok[1]), np.array([float(v) for v in tok[2:6]])
                    xyz = np.array([float(v) for v in tok[6:9]])
            except ValueError:
                raise ValueError(f"{where}: non-numeric field in {kind} record") from None
            if kind not in ("CAMERA", "POINT"):
                raise ValueError(f"{where}: unknown record type {kind!r}")
            if xyz is None:
                rule = ", not 5 + 2 * n_obs" if kind == "POINT" else ""
                raise ValueError(f"{where}: {kind} record with {len(tok) - 1} fields{rule}")
            if not np.isfinite(xyz).all():
                raise ValueError(f"{where}: non-finite coordinate in {kind} record")
            if kind == "POINT":
                if pid in recon.points:
                    raise ValueError(f"{where}: repeated POINT {pid}")
                recon.points[pid] = (xyz, Track(pid, list(zip(ids[0::2], ids[1::2]))))
                continue
            if img not in intrinsics:
                raise ValueError(f"{where}: CAMERA of image {img} with no intrinsics")
            if img in recon.cameras:
                raise ValueError(f"{where}: repeated CAMERA of image {img}")
            if not (np.isfinite(q).all() and q.any()):
                raise ValueError(f"{where}: CAMERA quaternion is zero or not finite")
            recon.cameras[img] = (intrinsics[img], CameraPose(quaternion_to_matrix(q), xyz))
            recon.registered_order.append(img)
    return recon


def write_reconstruction_reference(path, recon):
    """The value-at-a-time model writer, as the oracle of the file's bytes."""
    from parsfm.geometry import matrix_to_quaternion

    lines = []
    for img in sorted(recon.cameras):
        _, pose = recon.cameras[img]
        q = matrix_to_quaternion(pose.rotation)
        vals = " ".join("%.17g" % v for v in (*q, *pose.translation))
        lines.append(f"CAMERA {img} {vals}")
    for pid in sorted(recon.points):
        xyz, track = recon.points[pid]
        obs = " ".join(f"{img} {kp}" for img, kp in track.observations)
        coords = " ".join("%.17g" % v for v in xyz)
        lines.append(f"POINT {pid} {coords} {len(track.observations)} {obs}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def feature_point_index_reference(recon):
    """(sorted feature keys, owning point ids) over every track of a
    reconstruction, as the dict merge built it on every pass. A feature in
    two tracks belongs to the point later in `recon.points` order."""
    from parsfm.engine.reconstruction import observation_arrays
    from parsfm.merge.correspond import feature_keys

    pids = np.fromiter(recon.points, dtype=np.int64, count=len(recon.points))
    owner, image, keypoint = observation_arrays(recon, recon.points)
    # np.unique keeps the first of equal keys, so look from the back
    keys, last = np.unique(feature_keys(image, keypoint)[::-1], return_index=True)
    return keys, pids[owner[::-1][last]]


def merge_pair_reference(global_model, cluster, T, inlier_pairs):
    """The dict merge step the column merge replaced, as its oracle: fold
    one cluster into the global model (in place) through transform T, one
    point and one observation at a time.

    inlier_pairs: (cluster point_id, global point_id) fusions; the global
    point keeps its position and absorbs the cluster observations. Cameras
    already registered globally stay as they are.
    """
    from parsfm.engine import Track
    from parsfm.merge import transform_pose

    fused = dict(inlier_pairs)
    for img in cluster.registered_order:
        if img in global_model.cameras:
            continue
        intr, pose = cluster.cameras[img]
        global_model.cameras[img] = (intr, transform_pose(pose, T))
        global_model.registered_order.append(img)

    next_pid = max(global_model.points, default=-1) + 1
    for spid in sorted(cluster.points):
        xyz, track = cluster.points[spid]
        if spid in fused:
            gxyz, gtrack = global_model.points[fused[spid]]
            have = {img for img, _ in gtrack.observations}
            extra = [
                (img, kp)
                for img, kp in track.observations
                if img not in have and img in global_model.cameras
            ]
            if extra:
                gtrack.observations = sorted(gtrack.observations + extra)
        else:
            obs = [(img, kp) for img, kp in track.observations if img in global_model.cameras]
            if len(obs) < 2:
                continue
            global_model.points[next_pid] = (T.apply(xyz).reshape(3), Track(next_pid, sorted(obs)))
            next_pid += 1
    return global_model


def merge_all_reference(global_model, clusters, features, match_pairs, opts=None):
    """The dict `merge_all` loop the column merge replaced, as its oracle.

    Each evaluation is `common_points_reference` with the smaller side as
    source, and each merge is `merge_pair_reference`. Returns (merged
    Reconstruction, MergeReport, log): the log lists ("evaluate", cluster
    index, cluster is source, common pairs, support, loaded pair count),
    ("fail", cluster index) and ("merge", cluster index) in the order they
    happened.
    """
    from parsfm.engine import bundle_adjust, mean_reprojection_error
    from parsfm.merge import (
        CommonPointSet,
        MergeFailure,
        MergeOptions,
        MergeReport,
        MergeStep,
        ransac_similarity,
    )

    opts = opts or MergeOptions()
    model = global_model.copy()
    rng = np.random.default_rng(opts.rng_seed)
    remaining = dict(enumerate(clusters))
    report, log = MergeReport(), []

    while remaining:
        candidates = []
        for idx in sorted(remaining):
            cluster = remaining[idx]
            forward = cluster.num_cameras() <= model.num_cameras()
            source, reference = (cluster, model) if forward else (model, cluster)
            pairs, support, loaded = common_points_reference(source, reference, match_pairs)
            src = set(source.cameras)
            counts = {
                "on_demand": loaded,
                "pairwise": sum(p.image_id_a in src or p.image_id_b in src for p in match_pairs),
                "all_dataset": len(match_pairs),
            }
            log.append(("evaluate", idx, forward, pairs, support, loaded))
            candidates.append((idx, CommonPointSet(pairs, support), forward, counts))
        candidates.sort(key=lambda c: (-len(c[1]), c[0]))
        merged = False
        for idx, common, forward, counts in candidates:
            cluster = remaining[idx]
            source, reference = (cluster, model) if forward else (model, cluster)
            try:
                T, mask, mse = ransac_similarity(
                    common, source, reference, features, threshold_px=opts.threshold_px, rng=rng
                )
            except MergeFailure:
                log.append(("fail", idx))
                continue
            inliers = [p for p, keep in zip(common.pairs, mask) if keep]
            if not forward:
                T = T.inverse()
                inliers = [(r, s) for s, r in inliers]
            merge_pair_reference(model, cluster, T, inliers)
            log.append(("merge", idx))
            report.steps.append(
                MergeStep(
                    cluster_index=idx,
                    common_count=len(common),
                    inlier_count=int(mask.sum()),
                    inlier_ratio=float(mask.sum()) / max(len(common), 1),
                    mse=mse,
                    loaded_match_counts=counts,
                )
            )
            del remaining[idx]
            merged = True
            break
        if not merged:
            report.dropped = sorted(remaining)
            break

    report.error_before_final_ba = mean_reprojection_error(model, features)
    bundle_adjust(model, features)
    report.error_after_final_ba = mean_reprojection_error(model, features)
    return model, report, log
