"""Run configuration: the settable parameters of a pipeline run, their
defaults taken from the stage modules that use them."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..graphalgo.wcds import DEFAULT_VERTEX_WEIGHT_RATIO
from ..matchgraph.graph import DEFAULT_EDGE_WEIGHT_RATIO, DEFAULT_MIN_MATCHES
from ..matchgraph.retrieval import DEFAULT_TOP_K
from ..merge.ransac import DEFAULT_MERGE_THRESHOLD_PX

WORKER_COUNT_ENV = "PARSFM_WORKERS"


def default_worker_count() -> int:
    return max(1, int(os.environ.get(WORKER_COUNT_ENV, "1")))


@dataclass
class PipelineConfig:
    r_ew: float = DEFAULT_EDGE_WEIGHT_RATIO
    r_vw: float = DEFAULT_VERTEX_WEIGHT_RATIO
    min_matches: int = DEFAULT_MIN_MATCHES
    top_k: int = DEFAULT_TOP_K
    cluster_max_size: int = 100
    merge_threshold_px: float = DEFAULT_MERGE_THRESHOLD_PX
    worker_count: int = field(default_factory=default_worker_count)
    rng_seed: int = 0
    dataset_path: str = "dataset.txt"
    output_dir: str = "parsfm_out"

    def __post_init__(self):
        for name in ("r_ew", "r_vw"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        for name in ("min_matches", "top_k", "worker_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.cluster_max_size < 2:
            raise ValueError("cluster_max_size must be >= 2")
        if self.merge_threshold_px <= 0:
            raise ValueError("merge_threshold_px must be positive")
