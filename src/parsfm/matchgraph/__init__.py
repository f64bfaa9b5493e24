from .types import FeatureSet, ImageMeta, MatchGraph, MatchPair
from .hull import convex_hull_area
from .vocab import VocabularyTree, build_vocabulary
from .retrieval import retrieve_pairs
from .matching import verify_matches
from .graph import build_match_graph, edge_weight

__all__ = [
    "FeatureSet",
    "ImageMeta",
    "MatchGraph",
    "MatchPair",
    "VocabularyTree",
    "build_match_graph",
    "build_vocabulary",
    "convex_hull_area",
    "edge_weight",
    "retrieve_pairs",
    "verify_matches",
]
