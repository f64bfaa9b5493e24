"""Common 3D points of two reconstructions via the correspondence graph."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .columns import as_columns
from .correspond import CorrespondenceGraph


@dataclass
class CommonPointSet:
    """Deduplicated (source point_id, reference point_id) pairs with the
    number of feature links supporting each pair."""

    pairs: list = field(default_factory=list)
    support: list = field(default_factory=list)

    def __len__(self):
        return len(self.pairs)


def find_common_points(cg: CorrespondenceGraph, source, reference) -> CommonPointSet:
    """Join source observations -> linked reference features -> reference
    points.

    Every (source observation, link) is one vote; a linked feature in two
    reference tracks belongs to the later point (`Columns.owners`). A source
    point voting for several reference points keeps the pair with the most
    votes (ties: lower reference point id). source and reference are
    `Columns` or reconstructions.
    """
    source, reference = as_columns(source), as_columns(reference)
    link, srow = source.holders(cg.source_keys)
    rrow = reference.owners(cg.reference_keys[link])
    hit = rrow >= 0
    spids, owner = np.unique(source.pids[srow[hit]], return_inverse=True)
    rpids, rank = np.unique(reference.pids[rrow[hit]], return_inverse=True)
    cells, votes = np.unique(owner * len(rpids) + rank, return_counts=True)
    owner, rank = np.divmod(cells, max(len(rpids), 1))
    # stable: among equal votes the lower reference id stays first
    best = np.lexsort((-votes, owner))
    best = best[np.unique(owner[best], return_index=True)[1]]
    return CommonPointSet(
        list(zip(spids[owner[best]].tolist(), rpids[rank[best]].tolist())),
        votes[best].tolist(),
    )
