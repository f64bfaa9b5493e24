"""Cross-reconstruction feature links built from a minimal set of matches.

A feature is keyed by one int64, image * 2**32 + keypoint. A MatchTable
flattens the match store once; a correspondence graph takes from it only the
pairs with one image in the source reconstruction and the other in the
reference reconstruction. loaded_match_count is the number of such pairs and
doubles as the memory-consumption proxy when the strategies are compared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def feature_keys(image, keypoint):
    """int64 key of each (image, keypoint) feature."""
    return np.asarray(image, dtype=np.int64) << 32 | np.asarray(keypoint, dtype=np.int64)


@dataclass
class MatchTable:
    """Every match of a store: per pair the two image ids and the match count,
    per match row the keys of both features, rows grouped by pair."""

    image_a: np.ndarray
    image_b: np.ndarray
    size: np.ndarray
    key_a: np.ndarray
    key_b: np.ndarray

    @classmethod
    def from_pairs(cls, match_pairs) -> "MatchTable":
        a, b, size = np.array(
            [(p.image_id_a, p.image_id_b, len(p.matches)) for p in match_pairs], dtype=np.int64
        ).reshape(-1, 3).T
        m = np.concatenate([p.matches for p in match_pairs] + [np.empty((0, 2), np.int64)])
        keys = feature_keys(np.repeat(np.stack([a, b], axis=1), size, axis=0), m)
        return cls(a, b, size, *np.ascontiguousarray(keys.T))


@dataclass
class CorrespondenceGraph:
    """One-directional source -> reference feature links as two parallel key
    arrays."""

    source_keys: np.ndarray
    reference_keys: np.ndarray
    loaded_match_count: int = 0


def pair_masks(source, reference, table: MatchTable):
    """Per pair of the table: loaded as a -> b, loaded as b -> a, touches a
    source image. A pair with both images in both reconstructions loads
    once, as a -> b."""
    src = np.fromiter(source.cameras, dtype=np.int64)
    ref = np.fromiter(reference.cameras, dtype=np.int64)
    a_src, b_src = np.isin(table.image_a, src), np.isin(table.image_b, src)
    forward = a_src & np.isin(table.image_b, ref)
    backward = ~forward & b_src & np.isin(table.image_a, ref)
    return forward, backward, a_src | b_src


def build_correspondence_graph(table: MatchTable, masks) -> CorrespondenceGraph:
    """Load exactly the pairs of the table that `pair_masks` loads."""
    forward, backward = masks[:2]
    rows_f = np.repeat(forward, table.size)
    rows_b = np.repeat(backward, table.size)
    src = np.concatenate([table.key_a[rows_f], table.key_b[rows_b]])
    ref = np.concatenate([table.key_b[rows_f], table.key_a[rows_b]])
    return CorrespondenceGraph(src, ref, int(forward.sum() + backward.sum()))


def strategy_match_counts(masks) -> dict:
    """Loaded-pair counts of the three loading strategies, from the masks of
    `pair_masks`.

    on_demand: only source-to-reference pairs; pairwise: every pair touching
    a source image; all_dataset: the entire match store.
    """
    forward, backward, touches_source = masks
    return {
        "on_demand": int(forward.sum() + backward.sum()),
        "pairwise": int(touches_source.sum()),
        "all_dataset": len(forward),
    }
