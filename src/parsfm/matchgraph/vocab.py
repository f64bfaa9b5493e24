"""Small in-process visual vocabulary: hierarchical k-means over descriptors."""

from __future__ import annotations

import numpy as np
from scipy.cluster.vq import kmeans2


class _Node:
    __slots__ = ("centers", "children", "word")

    def __init__(self):
        self.centers = None
        self.children = None
        self.word = None


class VocabularyTree:
    """Quantizes descriptors into branching**depth leaf words."""

    def __init__(self, root: _Node, branching: int, depth: int, num_words: int):
        self.root = root
        self.branching = branching
        self.depth = depth
        self.num_words = num_words

    def quantize(self, descriptors: np.ndarray) -> np.ndarray:
        """Leaf word id for each descriptor row.

        Descends one node at a time: the rows reaching a node take its
        nearest center (first one on ties) in one array operation.
        """
        desc = np.atleast_2d(np.asarray(descriptors, dtype=float))
        words = np.empty(len(desc), dtype=int)
        stack = [(self.root, np.arange(len(desc)))]
        while stack:
            node, rows = stack.pop()
            if node.children is None:
                words[rows] = node.word
                continue
            dist = ((node.centers[None] - desc[rows, None]) ** 2).sum(axis=2)
            nearest = dist.argmin(axis=1)
            for j, child in enumerate(node.children):
                hit = rows[nearest == j]
                if len(hit):
                    stack.append((child, hit))
        return words


def _split(samples: np.ndarray, k: int, rng: np.random.Generator):
    """k-means split; degenerate inputs fall back to duplicated centers."""
    uniq = np.unique(samples, axis=0)
    if len(uniq) < k:
        centers = np.repeat(uniq, int(np.ceil(k / len(uniq))), axis=0)[:k]
        dist = ((samples[:, None, :] - centers[None]) ** 2).sum(axis=2)
        return centers, dist.argmin(axis=1)
    seed = int(rng.integers(0, 2**31 - 1))
    centers, labels = kmeans2(samples, k, minit="++", seed=seed)
    # re-seat empty clusters on the farthest points
    for j in range(k):
        if not (labels == j).any():
            far = int(np.argmax(((samples - centers[labels]) ** 2).sum(axis=1)))
            centers[j] = samples[far]
            labels[far] = j
    return centers, labels


def build_vocabulary(descriptors, branching: int, depth: int, rng_seed: int = 0) -> VocabularyTree:
    """Hierarchical k-means tree with exactly branching**depth leaves.

    Deterministic for a fixed seed. Requires at least branching**depth
    sample descriptors (depth 0 yields a single-word identity quantizer).
    """
    desc = np.atleast_2d(np.asarray(descriptors, dtype=float))
    if branching < 1 or depth < 0:
        raise ValueError("branching must be >= 1 and depth >= 0")
    n_words = branching**depth
    if len(desc) < n_words:
        raise ValueError(
            f"need at least {n_words} sample descriptors, got {len(desc)}"
        )
    rng = np.random.default_rng(rng_seed)
    counter = [0]

    def grow(samples, level):
        node = _Node()
        if level == depth:
            node.word = counter[0]
            counter[0] += 1
            return node
        centers, labels = _split(samples, branching, rng)
        node.centers = centers
        node.children = []
        for j in range(branching):
            sub = samples[labels == j]
            if len(sub) == 0:
                sub = centers[j : j + 1]
            node.children.append(grow(sub, level + 1))
        return node

    root = grow(desc, 0)
    return VocabularyTree(root, branching, depth, n_words)
