"""Data carriers for images, features, verified matches, and the match graph."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ImageMeta:
    image_id: int
    width: int
    height: int

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")

    @property
    def area(self) -> float:
        return float(self.width * self.height)


@dataclass
class FeatureSet:
    """Keypoints (N,3: x, y, scale) and unit descriptors (N,D) of one image."""

    image_id: int
    keypoints: np.ndarray
    descriptors: np.ndarray

    def __post_init__(self):
        self.keypoints = np.asarray(self.keypoints, dtype=float).reshape(-1, 3)
        self.descriptors = np.asarray(self.descriptors, dtype=float)
        if len(self.keypoints) != len(self.descriptors):
            raise ValueError("keypoints and descriptors must have equal length")

    def __len__(self):
        return len(self.keypoints)

    def top_scale_indices(self, count: int) -> np.ndarray:
        """Indices of the `count` largest-scale keypoints, ties by index."""
        order = np.lexsort((np.arange(len(self)), -self.keypoints[:, 2]))
        return order[:count]


@dataclass
class MatchPair:
    """Verified feature correspondences of one unordered image pair."""

    image_id_a: int
    image_id_b: int
    matches: np.ndarray  # (M, 2) keypoint indices in a and b

    def __post_init__(self):
        if self.image_id_a == self.image_id_b:
            raise ValueError("self-pair is not allowed")
        self.matches = np.asarray(self.matches, dtype=int).reshape(-1, 2)

    @property
    def inlier_count(self) -> int:
        return len(self.matches)

    def key(self):
        a, b = self.image_id_a, self.image_id_b
        return (a, b) if a < b else (b, a)

    def oriented(self, first: int) -> np.ndarray:
        """Match index columns ordered so the image `first` comes first."""
        if first == self.image_id_a:
            return self.matches
        if first == self.image_id_b:
            return self.matches[:, ::-1]
        raise KeyError(f"image {first} not part of this pair")


@dataclass
class MatchGraph:
    """Undirected weighted graph over image ids; one edge per unordered pair."""

    vertices: set = field(default_factory=set)
    edges: dict = field(default_factory=dict)  # (a, b) a<b -> (weight, MatchPair)

    def add_vertex(self, v: int):
        self.vertices.add(v)

    def add_edge(self, a: int, b: int, weight: float, pair: MatchPair | None = None):
        if a == b:
            raise ValueError("self-loop")
        if not (0.0 <= weight <= 1.0):
            raise ValueError(f"edge weight {weight} outside [0, 1]")
        self.vertices.add(a)
        self.vertices.add(b)
        self.edges[(min(a, b), max(a, b))] = (float(weight), pair)

    def adjacency(self) -> dict:
        adj = {v: [] for v in self.vertices}
        for (a, b), (w, _) in self.edges.items():
            adj[a].append((b, w))
            adj[b].append((a, w))
        return adj

    def subgraph(self, keep) -> "MatchGraph":
        keep = set(keep)
        sub = MatchGraph(vertices=set(keep))
        for (a, b), (w, pair) in self.edges.items():
            if a in keep and b in keep:
                sub.edges[(a, b)] = (w, pair)
        return sub
