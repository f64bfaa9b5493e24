"""The adaptive RANSAC hypothesis loop shared by every robust estimator."""

from __future__ import annotations

import numpy as np

# probability that at least one all-inlier sample is drawn
RANSAC_CONFIDENCE = 0.999
# inlier bound of the two-view and resection estimators, pixels
RANSAC_THRESHOLD_PX = 4.0


class DegenerateGeometryError(Exception):
    """Raised for geometrically degenerate inputs (parallel rays, collinear sets)."""


class EstimationFailure(Exception):
    """Raised when a robust estimator cannot produce a model."""


# what a minimal sample may raise; such a sample is skipped
_SAMPLE_FAILURES = (EstimationFailure, DegenerateGeometryError, np.linalg.LinAlgError)


def adaptive_ransac(n, k, fit, inliers, max_iterations, rng):
    """Best hypothesis from minimal samples of ``k`` out of ``n`` data.

    ``fit(idx)`` builds a model from the sampled indices, ``inliers(model)``
    returns the boolean consensus mask. The iteration budget shrinks to the
    number of samples that draws an all-inlier one with RANSAC_CONFIDENCE,
    given the best inlier ratio so far, and never exceeds max_iterations.
    Returns (model, mask) of the largest consensus, or (None, None) when no
    sample gave any inlier.
    """
    best_model = best_mask = None
    best_count = 0
    iters = max_iterations
    it = 0
    while it < iters:
        it += 1
        idx = rng.choice(n, k, replace=False)
        try:
            model = fit(idx)
        except _SAMPLE_FAILURES:
            continue
        mask = inliers(model)
        c = int(mask.sum())
        if c > best_count:
            best_count, best_model, best_mask = c, model, mask
            denom = np.log(max(1e-12, 1.0 - (c / n) ** k))
            if denom < 0:
                iters = min(
                    max_iterations,
                    int(np.ceil(np.log(1 - RANSAC_CONFIDENCE) / denom)),
                )
    return best_model, best_mask
