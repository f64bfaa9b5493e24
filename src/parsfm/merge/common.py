"""Common 3D points of two reconstructions via the correspondence graph."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..engine.reconstruction import observation_arrays
from .correspond import CorrespondenceGraph, feature_keys


@dataclass
class CommonPointSet:
    """Deduplicated (source point_id, reference point_id) pairs with the
    number of feature links supporting each pair."""

    pairs: list = field(default_factory=list)
    support: list = field(default_factory=list)

    def __len__(self):
        return len(self.pairs)


def feature_point_index(recon):
    """(sorted feature keys, owning point ids) over every track of a
    reconstruction. A feature in two tracks belongs to the point later in
    `recon.points` order."""
    pids = np.fromiter(recon.points, dtype=np.int64, count=len(recon.points))
    owner, image, keypoint = observation_arrays(recon, recon.points)
    # np.unique keeps the first of equal keys, so look from the back
    keys, last = np.unique(feature_keys(image, keypoint)[::-1], return_index=True)
    return keys, pids[owner[::-1][last]]


def find_common_points(
    cg: CorrespondenceGraph, source, reference, reference_index=None
) -> CommonPointSet:
    """Join source observations -> linked reference features -> reference
    points.

    Every link is one vote. A source point voting for several reference
    points keeps the pair with the most votes (ties: lower reference point
    id). reference_index is `feature_point_index(reference)`, built here
    when not given.
    """
    ref_keys, ref_pids = reference_index or feature_point_index(reference)
    spids = sorted(source.points)
    owner, image, keypoint = observation_arrays(source, spids)
    keys = feature_keys(image, keypoint)
    lo = np.searchsorted(cg.source_keys, keys, side="left")
    n = np.searchsorted(cg.source_keys, keys, side="right") - lo
    # one row per (source observation, link)
    owner = np.repeat(owner, n)
    link = np.arange(n.sum()) + np.repeat(lo - np.cumsum(n) + n, n)
    target = cg.reference_keys[link]
    at = np.searchsorted(ref_keys, target)
    hit = at < len(ref_keys)
    hit[hit] = ref_keys[at[hit]] == target[hit]
    owner, rpid = owner[hit], ref_pids[at[hit]]

    rpids, rank = np.unique(rpid, return_inverse=True)
    cells, votes = np.unique(owner * len(rpids) + rank, return_counts=True)
    owner, rank = np.divmod(cells, max(len(rpids), 1))
    # stable: among equal votes the lower reference id stays first
    best = np.lexsort((-votes, owner))
    best = best[np.unique(owner[best], return_index=True)[1]]
    return CommonPointSet(
        list(zip(np.array(spids)[owner[best]].tolist(), rpids[rank[best]].tolist())),
        votes[best].tolist(),
    )
