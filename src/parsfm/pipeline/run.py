"""Pipeline orchestration: graph construction, skeleton + cluster
reconstructions on a worker pool, merging, and artifact emission."""

from __future__ import annotations

import ctypes
import gc
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import numpy as np

from ..engine import (
    EngineOptions,
    incremental_reconstruct,
    write_reconstruction,
)
from ..graphalgo import extract_wcds, normalized_cut
from ..matchgraph import build_match_graph, build_vocabulary, retrieve_pairs, verify_matches
from ..matchgraph.dataset import read_dataset
from ..matchgraph.matching import IN_PROCESS
from ..matchgraph.types import FeatureSet
from ..merge import MergeOptions, merge_all
from .config import PipelineConfig
from .evaluate import EvalMetrics

_F = "%.17g"
# vocabulary tree of the retrieval stage: 8**3 = 512 words
VOCAB_BRANCHING = 8
VOCAB_DEPTH = 3


class PipelineError(RuntimeError):
    """Stage-tagged pipeline failure."""

    def __init__(self, stage, message):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


def build_graph(dataset, config: PipelineConfig):
    """TCN construction: verified match pairs plus the weighted image graph.

    Datasets carrying MATCH records already encode correspondence; otherwise
    the retrieval + matching + verification chain runs on descriptors.
    """
    if not dataset.metas:
        raise PipelineError("TCNConstruction", "empty dataset")
    if dataset.has_matches:
        pairs = dataset.pairs
    elif dataset.has_descriptors:
        all_desc = np.vstack(
            [dataset.features[i].descriptors for i in sorted(dataset.features)]
        )
        vocab = build_vocabulary(all_desc, VOCAB_BRANCHING, VOCAB_DEPTH, config.rng_seed)
        candidates = retrieve_pairs(dataset.features, vocab, top_k=config.top_k)
        # shut down before the reconstruction pool starts, to keep peak memory low
        with _worker_pool(config.worker_count) as pool:
            pairs = verify_matches(candidates, dataset.features, dataset.intrinsics,
                                   rng_seed=config.rng_seed, pool=pool)
    else:
        raise PipelineError("TCNConstruction", "dataset has neither matches nor descriptors")
    graph = build_match_graph(
        pairs, dataset.metas, dataset.features, config.min_matches, config.r_ew
    )
    if not graph.edges:
        raise PipelineError("TCNConstruction", "match graph has no edges")
    return pairs, graph


def write_graph(path, graph) -> None:
    with open(path, "w") as fh:
        for v in sorted(graph.vertices):
            fh.write(f"VERTEX {v}\n")
        for (a, b), (w, _) in sorted(graph.edges.items()):
            fh.write(f"EDGE {a} {b} {_F % w}\n")


def write_wcds(path, wcds) -> None:
    with open(path, "w") as fh:
        for v in wcds.selected_vertices:
            fh.write(f"WCDS {v}\n")


def write_clusters(path, clustering) -> None:
    with open(path, "w") as fh:
        for i, c in enumerate(clustering.clusters):
            fh.write("CLUSTER %d %s\n" % (i, " ".join(str(v) for v in sorted(c))))


def _loaded_openblas():
    """(path, symbol suffix) of each OpenBLAS in /proc/self/maps: numpy's
    libscipy_openblas64_ suffixes its symbols with 64_, scipy's does not."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split(None, 5)[5].strip() for ln in fh if "libscipy_openblas" in ln}
    except OSError:  # no /proc: nothing to set
        return []
    return [(p, "64_" if "openblas64_" in os.path.basename(p) else "") for p in sorted(paths)]


def _one_blas_thread():
    """Pool initializer: one OpenBLAS thread in this worker instead of the
    machine-sized pool inherited on fork. A missing symbol is skipped."""
    for path, suffix in _loaded_openblas():
        set_threads = getattr(ctypes.CDLL(path), f"scipy_openblas_set_num_threads{suffix}", None)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)


@contextmanager
def _worker_pool(worker_count):
    """Context giving an object with ``map``: a pool of forked one-BLAS-thread
    workers, or this process for one worker.

    The heap is frozen (``gc.freeze``) before the pool can fork, so the
    workers inherit every object the parent holds in the permanent
    generation: their collections never write the gc headers of those
    objects, which would copy each page they sit on into the worker. The
    heap is unfrozen once the pool has shut down, unless the caller had
    frozen objects already, since ``gc.unfreeze`` would thaw those too.
    """
    if worker_count <= 1:
        yield IN_PROCESS
        return
    thaw = gc.get_freeze_count() == 0
    gc.freeze()
    try:
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(worker_count, fork, initializer=_one_blas_thread) as pool:
            yield pool
    finally:
        if thaw:
            gc.unfreeze()


def _subset_task(payload):
    """Worker entry: reconstruct one image subset from its own match pairs.
    A failure is returned as its error string and fails only this subset."""
    subset, features, pairs, intrinsics, opts, recon_id = payload
    try:
        recon = incremental_reconstruct(
            subset, {}, features, pairs, intrinsics, opts, recon_id
        )
        return recon_id, recon, None
    except Exception as exc:
        return recon_id, None, f"{type(exc).__name__}: {exc}"


def _make_payload(subset, dataset, pairs, opts, recon_id):
    subset = sorted(subset)
    sset = set(subset)
    sub_pairs = [p for p in pairs if p.image_id_a in sset and p.image_id_b in sset]
    # the engine reads keypoints only: descriptors stay in this process
    features = {}
    for i in subset:
        kp = dataset.features[i].keypoints
        features[i] = FeatureSet(i, kp, np.empty((len(kp), 0)))
    intrinsics = {i: dataset.intrinsics[i] for i in subset}
    return (subset, features, sub_pairs, intrinsics, opts, recon_id)


def run_pipeline(config: PipelineConfig):
    """Full run: graph -> skeleton/cluster split -> parallel reconstruction
    -> merge -> final BA. Returns (Reconstruction, EvalMetrics, MergeReport)."""
    times = {}
    t0 = time.perf_counter()
    dataset = read_dataset(config.dataset_path)
    times["load"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    pairs, graph = build_graph(dataset, config)
    times["graph"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    wcds = extract_wcds(graph, config.r_vw)
    clustering = normalized_cut(graph, config.cluster_max_size)
    times["partition"] = time.perf_counter() - t0

    subsets = [sorted(wcds.selected_vertices)] + [
        sorted(c) for c in clustering.clusters if len(c) >= 2
    ]
    payloads = [
        _make_payload(
            subset,
            dataset,
            pairs,
            EngineOptions(rng_seed=config.rng_seed + 7919 * (i + 1)),
            i,
        )
        for i, subset in enumerate(subsets)
    ]

    t0 = time.perf_counter()
    with _worker_pool(config.worker_count if len(payloads) > 1 else 1) as pool:
        results = list(pool.map(_subset_task, payloads))
    times["reconstruct"] = time.perf_counter() - t0

    _, skeleton, skel_err = results[0]
    if skeleton is None:
        raise PipelineError("ParallelReconstruction", f"skeleton failed: {skel_err}")
    clusters = [recon for _, recon, _ in results[1:] if recon is not None]
    failed_clusters = [(i, err) for i, recon, err in results[1:] if recon is None]

    t0 = time.perf_counter()
    options = MergeOptions(threshold_px=config.merge_threshold_px, rng_seed=config.rng_seed)
    merged, report = merge_all(skeleton, clusters, dataset.features, pairs, options)
    times["merge"] = time.perf_counter() - t0

    metrics = EvalMetrics(
        registered_images=merged.num_cameras(),
        total_images=len(dataset.metas),
        point_count=merged.num_points(),
        mean_reprojection_px=report.error_after_final_ba,
        stage_times=times,
    )

    if config.output_dir:
        _write_artifacts(
            config, graph, wcds, clustering, skeleton, clusters, merged,
            report, metrics, failed_clusters,
        )
    return merged, metrics, report


def _write_artifacts(
    config, graph, wcds, clustering, skeleton, clusters, merged, report,
    metrics, failed_clusters,
):
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    write_graph(os.path.join(out, "graph.txt"), graph)
    write_wcds(os.path.join(out, "wcds.txt"), wcds)
    write_clusters(os.path.join(out, "clusters.txt"), clustering)
    write_reconstruction(os.path.join(out, "recon_skeleton.txt"), skeleton)
    for recon in clusters:
        write_reconstruction(
            os.path.join(out, f"recon_cluster_{recon.recon_id}.txt"), recon
        )
    write_reconstruction(os.path.join(out, "merged.txt"), merged)
    with open(os.path.join(out, "merge_steps.csv"), "w") as fh:
        fh.write(
            "step,cluster_index,common,inliers,inlier_ratio,mse,"
            "on_demand,pairwise,all_dataset\n"
        )
        for k, s in enumerate(report.steps):
            c = s.loaded_match_counts
            fh.write(
                f"{k},{s.cluster_index},{s.common_count},{s.inlier_count},"
                f"{s.inlier_ratio:.6f},{s.mse:.9g},"
                f"{c['on_demand']},{c['pairwise']},{c['all_dataset']}\n"
            )
    with open(os.path.join(out, "report.txt"), "w") as fh:
        fh.write(metrics.summary() + "\n\n" + report.summary() + "\n")
        if failed_clusters:
            fh.write("failed cluster reconstructions:\n")
            for idx, err in failed_clusters:
                fh.write(f"  task {idx}: {err}\n")
