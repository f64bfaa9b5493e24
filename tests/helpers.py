"""Shared synthetic-scene helpers for the test suite."""

import threading

import numpy as np

from parsfm.geometry import CameraIntrinsics, CameraPose
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
    src_images, ref_images = source.image_ids(), reference.image_ids()
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


def ba_arrays(observations):
    """A list of (image id, point id, pixel) as the three aligned arrays that
    `solve_bundle` takes: image ids (m,), point ids (m,), pixels (m,2)."""
    image = np.array([c for c, _, _ in observations], dtype=np.int64)
    point = np.array([p for _, p, _ in observations], dtype=np.int64)
    pixels = np.array([xy for _, _, xy in observations], dtype=float).reshape(-1, 2)
    return image, point, pixels


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
