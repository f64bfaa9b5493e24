"""Pipeline orchestration: graph construction, skeleton + cluster
reconstructions on a worker pool, merging, and artifact emission."""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..engine import (
    EngineOptions,
    incremental_reconstruct,
    write_reconstruction,
)
from ..engine.incremental import SeedFailure
from ..graphalgo import extract_wcds, normalized_cut
from ..matchgraph import build_match_graph, build_vocabulary, retrieve_pairs, verify_matches
from ..matchgraph.dataset import read_dataset
from ..merge import MergeOptions, merge_all
from .config import PipelineConfig
from .evaluate import EvalMetrics

_F = "%.17g"


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
        vocab = build_vocabulary(
            all_desc, config.vocab_branching, config.vocab_depth, config.rng_seed
        )
        candidates = retrieve_pairs(
            dataset.features, vocab, config.index_features, config.top_k
        )
        pairs = verify_matches(
            candidates,
            dataset.features,
            dataset.intrinsics,
            rng_seed=config.rng_seed,
        )
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


def _subset_task(payload):
    """Worker entry: reconstruct one image subset from its own match pairs."""
    subset, features, pairs, intrinsics, opts, recon_id = payload
    try:
        recon = incremental_reconstruct(
            subset, {}, features, pairs, intrinsics, opts, recon_id
        )
        return recon_id, recon, None
    except SeedFailure as exc:
        return recon_id, None, str(exc)


def _make_payload(subset, dataset, pairs, opts, recon_id):
    subset = sorted(subset)
    sset = set(subset)
    sub_pairs = [p for p in pairs if p.image_id_a in sset and p.image_id_b in sset]
    features = {i: dataset.features[i] for i in subset}
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
    results = {}
    if config.worker_count > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=config.worker_count) as pool:
            for recon_id, recon, err in pool.map(_subset_task, payloads):
                results[recon_id] = (recon, err)
    else:
        for payload in payloads:
            recon_id, recon, err = _subset_task(payload)
            results[recon_id] = (recon, err)
    times["reconstruct"] = time.perf_counter() - t0

    skeleton, skel_err = results[0]
    if skeleton is None:
        raise PipelineError("ParallelReconstruction", f"skeleton failed: {skel_err}")
    clusters = []
    failed_clusters = []
    for i in range(1, len(payloads)):
        recon, err = results[i]
        if recon is None:
            failed_clusters.append((i, err))
        else:
            clusters.append(recon)

    t0 = time.perf_counter()
    merged, report = merge_all(
        skeleton,
        clusters,
        dataset.features,
        pairs,
        MergeOptions(
            threshold_px=config.merge_threshold_px, rng_seed=config.rng_seed
        ),
    )
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
