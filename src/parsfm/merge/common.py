"""Common 3D points of two reconstructions via the correspondence graph."""

from __future__ import annotations

from dataclasses import dataclass, field

from .correspond import CorrespondenceGraph


@dataclass
class CommonPointSet:
    """Deduplicated (source point_id, reference point_id) pairs with the
    number of feature links supporting each pair."""

    pairs: list = field(default_factory=list)
    support: list = field(default_factory=list)

    def __len__(self):
        return len(self.pairs)


def feature_point_index(recon) -> dict:
    """(image, keypoint) -> point id over every track of a reconstruction."""
    return {
        (img, kp): pid for pid, (_, track) in recon.points.items() for img, kp in track.observations
    }


def find_common_points(
    cg: CorrespondenceGraph, source, reference, reference_index=None
) -> CommonPointSet:
    """Traverse source observations -> mapped reference features -> reference
    tracks -> reference points.

    A source point mapping to several reference points keeps the pair with
    the most supporting feature links (ties: lower reference point id).
    reference_index is `feature_point_index(reference)`, built here when not
    given.
    """
    if reference_index is None:
        reference_index = feature_point_index(reference)

    out = CommonPointSet()
    for spid in sorted(source.points):
        _, track = source.points[spid]
        votes = {}
        for img, kp in track.observations:
            for ref_feat in cg.lookup(img, kp):
                rpid = reference_index.get(ref_feat)
                if rpid is not None:
                    votes[rpid] = votes.get(rpid, 0) + 1
        if not votes:
            continue
        rpid = min(votes, key=lambda r: (-votes[r], r))
        out.pairs.append((spid, rpid))
        out.support.append(votes[rpid])
    return out
