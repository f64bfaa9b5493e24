"""Similarity estimation between reconstructions with a bi-directional
reprojection residual."""

from __future__ import annotations

import numpy as np

from ..engine.reconstruction import observation_geometry
from ..geometry import (
    DegenerateGeometryError,
    adaptive_ransac,
    pinhole,
    umeyama_similarity,
)
from .columns import as_columns

DEFAULT_MERGE_THRESHOLD_PX = 1.8
MIN_INLIER_RATIO = 0.2
SIMILARITY_MAX_ITERATIONS = 10000


class MergeFailure(Exception):
    """Raised when two reconstructions cannot be aligned."""


class BidirectionalResiduals:
    """Scorer of common point pairs (source point id, reference point id).

    Calling it with a similarity T mapping source onto reference gives the
    bi-directional RMS reprojection error of every pair: the mapped source
    point is projected into the reference cameras that see its partner, the
    inverse-mapped reference point into the source cameras,
        r^2 = (sum_ref + sum_src) / (m + l),
    and r is +inf when any of these projections falls behind its camera.
    The point positions (src_pos, ref_pos) and the observations of every
    pair are gathered once; each call projects them all at once. source and
    reference are `Columns` or reconstructions.
    """

    def __init__(self, pairs, source, reference, features):
        n = self.n = len(pairs)

        def gather(recon, pids):
            recon = as_columns(recon)
            rows = recon.rows_of(np.array(pids, dtype=np.int64))
            owner, image, keypoint = recon.observations(rows)
            return recon.xyz[rows], owner, *observation_geometry(recon, image, keypoint, features)

        # reference observations score the mapped source points, and vice versa
        self.ref_pos, self.ref_owner, *ref_obs = gather(reference, [r for _, r in pairs])
        self.src_pos, self.src_owner, *src_obs = gather(source, [s for s, _ in pairs])
        self.R, self.t, self.K, self.px = (
            np.concatenate(parts) for parts in zip(ref_obs, src_obs)
        )
        # pair i sums its reference side into slot i and its source side into n + i
        self.slot = np.concatenate([self.ref_owner, n + self.src_owner])
        counts = np.bincount(self.slot, minlength=2 * n)
        self.count = counts[:n] + counts[n:]

    def __call__(self, T):
        n, slot = self.n, self.slot
        X = np.concatenate(
            [
                T.apply(self.src_pos)[self.ref_owner],
                T.inverse().apply(self.ref_pos)[self.src_owner],
            ]
        )
        cam = np.matmul(self.R, X[:, :, None])[:, :, 0] + self.t
        proj, z = pinhole(cam, *self.K.T)
        d = proj - self.px
        sq = np.bincount(slot, weights=d[:, 0] ** 2 + d[:, 1] ** 2, minlength=2 * n)
        behind = np.bincount(slot, weights=z <= 0, minlength=2 * n)
        total = sq[:n] + sq[n:]
        out = np.sqrt(total / self.count)
        out[(behind[:n] + behind[n:] > 0) | ~np.isfinite(total)] = np.inf
        return out


def ransac_similarity(
    common,
    source,
    reference,
    features,
    threshold_px: float = DEFAULT_MERGE_THRESHOLD_PX,
    rng=None,
):
    """Robust similarity from common point pairs.

    Minimal sample 3, model by closed-form alignment, scoring by the
    bi-directional residual. Returns (SimilarityTransform, inlier mask, mse).
    Raises MergeFailure when no acceptable consensus exists.
    """
    n = len(common.pairs)
    if n < 3:
        raise MergeFailure(f"only {n} common point pairs")
    rng = np.random.default_rng(rng)
    residuals = BidirectionalResiduals(common.pairs, source, reference, features)
    src_pos, ref_pos = residuals.src_pos, residuals.ref_pos

    def inliers(T):
        return residuals(T) <= threshold_px

    _, best_mask = adaptive_ransac(
        n,
        3,
        lambda idx: umeyama_similarity(src_pos[idx], ref_pos[idx])[0],
        inliers,
        SIMILARITY_MAX_ITERATIONS,
        rng,
    )
    if best_mask is None or best_mask.sum() < 3:
        raise MergeFailure("no similarity consensus")

    # final re-estimate on the inliers, then reclassify
    for _ in range(3):
        try:
            T, mse = umeyama_similarity(src_pos[best_mask], ref_pos[best_mask])
        except DegenerateGeometryError:
            raise MergeFailure("degenerate inlier set")
        mask = inliers(T)
        if mask.sum() < 3:
            raise MergeFailure("refined transform lost consensus")
        grew = mask.sum() > best_mask.sum()
        best_mask = mask
        if not grew:
            break
    if best_mask.sum() / n < MIN_INLIER_RATIO:
        raise MergeFailure(
            f"inlier ratio {best_mask.sum() / n:.3f} below {MIN_INLIER_RATIO}"
        )
    return T, best_mask, mse
