from .correspond import (
    CorrespondenceGraph,
    MatchTable,
    build_correspondence_graph,
    pair_masks,
    strategy_match_counts,
)
from .common import CommonPointSet, find_common_points
from .ransac import BidirectionalResiduals, MergeFailure, ransac_similarity
from .merging import (
    MergeOptions,
    MergeReport,
    MergeStep,
    merge_all,
    transform_pose,
)
from .geo import (
    GcpRecord,
    GeoReport,
    georeference,
    read_gcps,
    triangulate_gcp,
    write_gcps,
)

__all__ = [
    "BidirectionalResiduals",
    "CommonPointSet",
    "CorrespondenceGraph",
    "GcpRecord",
    "GeoReport",
    "MatchTable",
    "MergeFailure",
    "MergeOptions",
    "MergeReport",
    "MergeStep",
    "build_correspondence_graph",
    "find_common_points",
    "georeference",
    "merge_all",
    "pair_masks",
    "ransac_similarity",
    "read_gcps",
    "strategy_match_counts",
    "transform_pose",
    "triangulate_gcp",
    "write_gcps",
]
