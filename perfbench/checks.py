"""Correctness checks on a final model, computed apart from the program.

Each check returns a list of failure messages; an empty list means it
passed. Projection, alignment and the visibility tests are written here from
the generator's ground truth instead of calling parsfm's own geometry, so a
fault shared by the program and its evaluation code cannot hide itself.
"""

from __future__ import annotations

import math

import numpy as np

MIN_REGISTERED_RATIO = 0.95
# A correct BA leaves a mean residual near sigma * sqrt(pi / 2) (the mean of
# a 2-D Gaussian's norm), a little less because the fitted parameters absorb
# part of the noise. These factors bound the measured mean on both sides.
REPROJ_LOW, REPROJ_HIGH = 0.75, 1.25
# Two-view verification cannot reject a false match that lies within its
# threshold of the epipolar line, so kept matches are held to a rate; the
# final model itself is held to exactness by check_tracks.
MAX_WRONG_MATCH_RATE = 1e-4


def expected_mean_residual(sigma):
    return sigma * math.sqrt(math.pi / 2.0)


def camera_center(pose):
    return -pose.rotation.T @ pose.translation


def similarity_align(src, dst):
    """Least-squares similarity (s, R, t) with dst ~ s R src + t (Umeyama)."""
    mu_s, mu_d = src.mean(axis=0), dst.mean(axis=0)
    a, b = src - mu_s, dst - mu_d
    cov = b.T @ a / len(src)
    U, D, Vt = np.linalg.svd(cov)
    S = np.eye(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        S[2, 2] = -1.0
    R = U @ S @ Vt
    var_s = (a**2).sum() / len(src)
    s = float(np.trace(np.diag(D) @ S) / var_s)
    t = mu_d - s * R @ mu_s
    return s, R, t


def position_rmse(model, truth):
    """Camera-centre RMSE after a similarity alignment to ground truth."""
    ids = sorted(model.cameras)
    if len(ids) < 3:
        return math.inf
    est = np.array([camera_center(model.cameras[i][1]) for i in ids])
    gt = np.array([truth.center(i) for i in ids])
    s, R, t = similarity_align(est, gt)
    aligned = s * est @ R.T + t
    return float(np.sqrt(((aligned - gt) ** 2).sum(axis=1).mean()))


def mean_reprojection(model, features):
    """Mean pixel distance between each observation and its projection."""
    errors = []
    for pid in sorted(model.points):
        X, track = model.points[pid]
        for img, kp in track.observations:
            intr, pose = model.cameras[img]
            x = pose.rotation @ X + pose.translation
            if x[2] <= 0:
                return math.inf
            u = intr.focal_x * x[0] / x[2] + intr.principal_x
            v = intr.focal_y * x[1] / x[2] + intr.principal_y
            px = features[img].keypoints[kp, :2]
            errors.append(math.hypot(u - px[0], v - px[1]))
    return float(np.mean(errors)) if errors else math.inf


def quality(model, features, truth):
    """The four end-to-end quality figures of a final model."""
    return {
        "registered_images": model.num_cameras(),
        "points_3d": model.num_points(),
        "mean_reproj_px": mean_reprojection(model, features),
        "position_rmse_m": position_rmse(model, truth),
    }


def check_quality(q, total_images, sigma, rmse_bound):
    out = []
    if q["registered_images"] < MIN_REGISTERED_RATIO * total_images:
        out.append(
            f"registered {q['registered_images']}/{total_images} images, "
            f"below {MIN_REGISTERED_RATIO:.0%}"
        )
    if not q["position_rmse_m"] <= rmse_bound:
        out.append(
            f"position RMSE {q['position_rmse_m']:.6g} m above the calibrated "
            f"bound {rmse_bound:.6g} m"
        )
    mu = expected_mean_residual(sigma)
    if not REPROJ_LOW * mu <= q["mean_reproj_px"] <= REPROJ_HIGH * mu:
        out.append(
            f"mean reprojection {q['mean_reproj_px']:.6g} px outside "
            f"[{REPROJ_LOW * mu:.4g}, {REPROJ_HIGH * mu:.4g}] px for sigma {sigma} px"
        )
    return out


def check_valid(model, features, validate):
    """The program's own structural validation must pass on the model."""
    try:
        validate(model, features)
    except ValueError as exc:
        return [f"validate_reconstruction: {exc}"]
    return []


def check_loaded_pairs(report):
    """Every merge step loads on-demand <= pairwise <= all-dataset pairs."""
    out = []
    for k, step in enumerate(report.steps):
        c = step.loaded_match_counts
        if not c["on_demand"] <= c["pairwise"] <= c["all_dataset"]:
            out.append(
                f"merge step {k}: loaded pairs {c['on_demand']} <= "
                f"{c['pairwise']} <= {c['all_dataset']} does not hold"
            )
    return out


def check_verified_matches(pairs, truth, max_wrong_rate=MAX_WRONG_MATCH_RATE):
    """Kept matches that join keypoints of two different world points stay
    below max_wrong_rate of all kept matches."""
    total = wrong = 0
    worst = None
    for pair in pairs:
        a, b = pair.image_id_a, pair.image_id_b
        pa = truth.kp_to_point[a][pair.matches[:, 0]]
        pb = truth.kp_to_point[b][pair.matches[:, 1]]
        n = int((pa != pb).sum())
        total += len(pair.matches)
        wrong += n
        if n and (worst is None or n > worst[2]):
            worst = (a, b, n)
    if wrong > max_wrong_rate * total:
        return [
            f"{wrong} of {total} verified matches join different world points "
            f"(worst pair {worst[:2]}: {worst[2]}), above {max_wrong_rate:g} of them"
        ]
    return []


def check_tracks(model, truth):
    """Every point of the model observes one and the same world point."""
    out = []
    for pid in sorted(model.points):
        _, track = model.points[pid]
        world = {int(truth.kp_to_point[img][kp]) for img, kp in track.observations}
        if len(world) > 1:
            out.append(f"point {pid} joins world points {sorted(world)[:5]}")
            if len(out) >= 10:
                break
    return out


def check_graph_edges(edges, truth, min_matches):
    """Every graph edge joins two images sharing >= min_matches world points."""
    out = []
    for a, b in edges:
        shared = len(truth.visible(a) & truth.visible(b))
        if shared < min_matches:
            out.append(f"edge ({a}, {b}): images share {shared} < {min_matches} points")
    return out


def check_clusters_merged(merged, clusters, report):
    """No cluster dropped, and every cluster camera in the merged model."""
    out = []
    if report.dropped:
        out.append(f"clusters dropped by the merge: {report.dropped}")
    for k, cluster in enumerate(clusters):
        missing = sorted(set(cluster.cameras) - set(merged.cameras))
        if missing:
            out.append(f"cluster {k}: cameras {missing[:10]} missing from the merged model")
    return out


def check_observations_from_inputs(merged, inputs):
    """Every merged observation exists in some input model."""
    known = set()
    for model in inputs:
        for _, track in model.points.values():
            known.update(track.observations)
    out = []
    for pid, (_, track) in merged.points.items():
        extra = [obs for obs in track.observations if obs not in known]
        if extra:
            out.append(f"merged point {pid}: observations {extra[:3]} in no input model")
            if len(out) >= 10:
                break
    return out
