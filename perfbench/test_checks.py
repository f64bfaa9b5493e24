"""Self-tests of the benchmark on a tiny block: every correctness check
passes on a correct output and rejects a deliberately damaged one, and the
tracer leaves the program's output unchanged.

Run from the repository root: python3 -m pytest perfbench -q
"""

import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import SIGMA_PX, Truth, _generate, gt_model  # noqa: E402

from parsfm.engine import Track, validate_reconstruction  # noqa: E402
from parsfm.geometry import CameraPose, SimilarityTransform  # noqa: E402
from parsfm.merge import MergeReport, MergeStep, transform_pose  # noqa: E402

TINY = dict(image_count=12, point_count=1200, seed=3)
RMSE_BOUND = 0.01


@pytest.fixture(scope="module")
def block(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("tiny")
    dataset, gt, truth, _ = _generate(TINY, seed=7, workdir=workdir)
    assert Truth.load(workdir / "truth.npz").kp_to_point.keys() == truth.kp_to_point.keys()
    model = gt_model(dataset, gt["points"], truth, sorted(dataset.metas))
    return dataset, gt, truth, model


def failures_of(model, dataset, truth):
    q = checks.quality(model, dataset.features, truth)
    return (
        checks.check_quality(q, len(dataset.metas), SIGMA_PX, RMSE_BOUND)
        + checks.check_tracks(model, truth)
        + checks.check_valid(model, dataset.features, validate_reconstruction)
    )


def test_correct_model_passes_every_check(block):
    dataset, _, truth, model = block
    assert failures_of(model, dataset, truth) == []
    q = checks.quality(model, dataset.features, truth)
    assert q["position_rmse_m"] < 1e-9
    assert checks.check_verified_matches(dataset.pairs, truth) == []


def test_camera_moved_by_a_metre_is_rejected(block):
    dataset, _, truth, model = block
    damaged = model.copy()
    img = sorted(damaged.cameras)[4]
    intr, pose = damaged.cameras[img]
    shifted = CameraPose(pose.rotation, pose.translation - pose.rotation @ np.array([1.0, 0, 0]))
    damaged.cameras[img] = (intr, shifted)
    assert any("RMSE" in f for f in failures_of(damaged, dataset, truth))


def test_cluster_left_in_its_own_frame_is_rejected(block):
    dataset, gt, truth, model = block
    images = sorted(dataset.metas)
    cluster = set(images[len(images) // 2:])
    T = SimilarityTransform(1.5, np.eye(3)[[1, 0, 2]] * [1, 1, -1], np.array([3.0, -2.0, 1.0]))
    damaged = model.copy()
    for img in cluster:
        intr, pose = damaged.cameras[img]
        damaged.cameras[img] = (intr, transform_pose(pose, T))
    fails = failures_of(damaged, dataset, truth)
    assert any("RMSE" in f for f in fails)
    assert any("mean reprojection" in f for f in fails)


def test_relinked_verified_match_is_rejected(block):
    dataset, _, truth, _ = block
    pairs = [type(p)(p.image_id_a, p.image_id_b, p.matches.copy()) for p in dataset.pairs[:4]]
    assert sum(p.inlier_count for p in pairs) * checks.MAX_WRONG_MATCH_RATE < 1
    pair = pairs[0]
    b = pair.image_id_b
    right = truth.kp_to_point[b][pair.matches[0, 1]]
    other = int(np.nonzero(truth.kp_to_point[b] != right)[0][0])
    pair.matches[0, 1] = other
    assert checks.check_verified_matches(pairs, truth) != []


def test_relinked_model_observation_is_rejected(block):
    dataset, _, truth, model = block
    damaged = model.copy()
    pid = sorted(damaged.points)[0]
    X, track = damaged.points[pid]
    img, kp = track.observations[-1]
    wrong = int(np.nonzero(truth.kp_to_point[img] != truth.kp_to_point[img][kp])[0][0])
    track.observations[-1] = (img, wrong)
    assert checks.check_tracks(damaged, truth) != []


def test_on_demand_above_all_dataset_is_rejected():
    ok = MergeStep(0, 10, 9, 0.9, 0.1, {"on_demand": 3, "pairwise": 5, "all_dataset": 9})
    bad = MergeStep(1, 10, 9, 0.9, 0.1, {"on_demand": 12, "pairwise": 12, "all_dataset": 9})
    assert checks.check_loaded_pairs(MergeReport(steps=[ok])) == []
    assert checks.check_loaded_pairs(MergeReport(steps=[ok, bad])) != []


def test_dropped_cluster_and_missing_camera_are_rejected(block):
    dataset, gt, truth, model = block
    images = sorted(dataset.metas)
    cluster = gt_model(dataset, gt["points"], truth, images[:6], recon_id=1)
    assert checks.check_clusters_merged(model, [cluster], MergeReport()) == []
    assert checks.check_clusters_merged(model, [cluster], MergeReport(dropped=[0])) != []
    partial = model.copy()
    del partial.cameras[images[0]]
    assert checks.check_clusters_merged(partial, [cluster], MergeReport()) != []


def test_observation_from_no_input_is_rejected(block):
    dataset, gt, truth, model = block
    images = sorted(dataset.metas)
    inputs = [
        gt_model(dataset, gt["points"], truth, images[:7]),
        gt_model(dataset, gt["points"], truth, images[5:]),
    ]
    merged = gt_model(dataset, gt["points"], truth, images[:7])
    assert checks.check_observations_from_inputs(merged, inputs) == []
    pid = sorted(merged.points)[0]
    merged.points[pid][1].observations.append((images[-1], 10**6))
    assert checks.check_observations_from_inputs(merged, inputs) != []


def test_edge_between_unrelated_images_is_rejected(block):
    dataset, _, truth, _ = block
    edges = [p.key() for p in dataset.pairs if p.inlier_count >= 50]
    assert checks.check_graph_edges(edges, truth, 50) == []
    shared = {(a, b): len(truth.visible(a) & truth.visible(b)) for a in truth.kp_to_point
              for b in truth.kp_to_point if a < b}
    weakest = min(shared, key=shared.get)
    assert checks.check_graph_edges(edges + [weakest], truth, shared[weakest] + 1) != []


def test_structurally_invalid_model_is_rejected(block):
    dataset, _, truth, model = block
    damaged = model.copy()
    pid = sorted(damaged.points)[0]
    X, track = damaged.points[pid]
    damaged.points[pid] = (X, Track(pid, track.observations[:1]))
    assert checks.check_valid(damaged, dataset.features, validate_reconstruction) != []


def test_tracer_keeps_output_and_gathers_worker_spans(block, tmp_path):
    import parsfm.pipeline.run as run_mod
    from parsfm.matchgraph.dataset import write_dataset
    from parsfm.pipeline import PipelineConfig

    dataset = block[0]
    write_dataset(tmp_path / "ds.txt", dataset)

    def run(out, tracer=None):
        config = PipelineConfig(dataset_path=str(tmp_path / "ds.txt"), output_dir=str(out),
                                cluster_max_size=6, worker_count=2)
        if tracer:
            tracer.install()
        try:
            run_mod.run_pipeline(config)
        finally:
            if tracer:
                tracer.uninstall()
        return hashlib.sha256((out / "merged.txt").read_bytes()).hexdigest()

    tracer = Tracer(tmp_path / "spans")
    assert run(tmp_path / "plain") == run(tmp_path / "traced", tracer)
    assert getattr(run_mod.incremental_reconstruct, "__wrapped__", None) is None
    spans = tracer.gather()
    pids = {s["pid"] for s in spans if s["name"] == "engine.incremental_reconstruct"}
    assert pids and tracer.owner_pid not in pids
    m = layer_metrics(spans, workers=2)
    assert m["geometry.solve_bundle.calls"]["value"] > 0
    assert m["geometry.solve_bundle.iterations"]["value"] > 0
    assert m["merge.merge_all.calls"]["value"] == 1
    assert 0 < m["pipeline.pool_busy_ratio"]["value"] <= 1.0
    for s in spans:
        assert s["self"] <= s["end"] - s["start"] + 1e-9


def test_peak_memory_counts_forked_pages_once():
    import multiprocessing
    import os

    import run

    def field_kb(path, field):
        with open(path) as fh:
            return next(int(ln.split()[1]) for ln in fh if ln.startswith(field))

    block = np.ones(64 * 2**20 // 8)  # 64 MiB, shared with the child below
    block_kb = block.nbytes / 1024
    ctx = multiprocessing.get_context("fork")
    ready, done = ctx.Event(), ctx.Event()
    child = ctx.Process(target=lambda: (ready.set(), done.wait(30)))
    child.start()
    try:
        assert ready.wait(30)
        alone = field_kb("/proc/self/smaps_rollup", "Pss:")
        rss_sum = sum(field_kb(f"/proc/{pid}/status", "VmRSS:")
                      for pid in (os.getpid(), child.pid))
        tree = run.tree_pss_kb(os.getpid())
    finally:
        done.set()
        child.join()
    # the child is counted, and the pages it shares with its parent once
    assert alone < tree < rss_sum - block_kb / 2


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nadir-match", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_every_metric_the_run_prints():
    import json

    import run

    spec_path = HERE.parent / "BENCHMARK.json"
    if not spec_path.exists():
        pytest.skip("BENCHMARK.json not beside perfbench/")
    spec = json.loads(spec_path.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = {k: v["unit"] for k, v in layer_metrics([], workers=2).items()}
    layers["trace.overhead_ratio"] = "ratio"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
