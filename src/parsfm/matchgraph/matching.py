"""Descriptor matching and geometric verification of candidate pairs."""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace

import numpy as np

from ..geometry import EstimationFailure, estimate_relative_pose
from .types import MatchPair

RATIO_TEST = 0.8
MIN_VERIFY_MATCHES = 8
# a pool of one: ``map`` runs the jobs in this process, one after another
IN_PROCESS = SimpleNamespace(map=map)


def mutual_nearest_matches(desc_a: np.ndarray, desc_b: np.ndarray, ratio: float = RATIO_TEST):
    """Mutual nearest neighbours passing Lowe's ratio test, as (M,2) indices."""
    if len(desc_a) == 0 or len(desc_b) == 0:
        return np.zeros((0, 2), dtype=int)
    d2 = (
        (desc_a**2).sum(axis=1)[:, None]
        + (desc_b**2).sum(axis=1)[None, :]
        - 2.0 * desc_a @ desc_b.T
    )
    nn_ab = d2.argmin(axis=1)
    rows = np.arange(len(d2))
    keep = d2.argmin(axis=0)[nn_ab] == rows
    if d2.shape[1] >= 2:
        # a tie for nearest leaves the best distance as the second one
        second = np.partition(d2, 1, axis=1)[:, 1]
        keep &= ~(d2[rows, nn_ab] > (ratio**2) * second)
    return np.stack([rows[keep], nn_ab[keep]], axis=1)


def _verify_pair(job, rng_seed):
    """The verified MatchPair of one candidate job, or None."""
    a, b, fa, fb, intr_a, intr_b = job
    m = mutual_nearest_matches(fa.descriptors, fb.descriptors)
    if len(m) < MIN_VERIFY_MATCHES:
        return None
    pix = np.stack([fa.keypoints[m[:, 0], :2], fb.keypoints[m[:, 1], :2]], axis=1)
    # seeded by the pair, so the result does not depend on the process running it
    rng = np.random.default_rng((rng_seed, a, b))
    try:
        _, inliers = estimate_relative_pose(pix, intr_a, intr_b, max_iterations=5000, rng=rng)
    except EstimationFailure:
        return None
    return MatchPair(a, b, m[inliers]) if inliers.sum() >= MIN_VERIFY_MATCHES else None


def verify_matches(candidates, features, intrinsics, rng_seed: int = 0, pool=IN_PROCESS):
    """Match descriptors of candidate pairs and keep geometric inliers.

    candidates: iterable of (image_id_a, image_id_b); features/intrinsics are
    dicts keyed by image id. Pairs that cannot be verified are dropped, the
    rest keep the candidates' order. pool: anything with ``map`` to verify
    the pairs on, such as a process pool; by default this process.
    """
    jobs = [(a, b, features[a], features[b], intrinsics[a], intrinsics[b]) for a, b in candidates]
    verify = partial(_verify_pair, rng_seed=rng_seed)
    return [p for p in pool.map(verify, jobs) if p is not None]
