import ctypes
import filecmp
import gc
import os
from dataclasses import fields

import numpy as np
import pytest

import parsfm.engine as engine_pkg
import parsfm.merge as merge_pkg
from parsfm.engine import EngineOptions, Reconstruction, write_reconstruction
from parsfm.geometry import SimilarityTransform, project
from parsfm.pipeline import (
    PipelineConfig,
    PipelineError,
    SynthConfig,
    evaluate,
    generate_synthetic,
    read_ground_truth,
    run_pipeline,
    write_ground_truth,
    write_synthetic,
)
from parsfm.matchgraph.dataset import read_dataset, write_dataset
from parsfm.matchgraph.retrieval import DEFAULT_INDEX_FEATURES
from parsfm.pipeline import run as run_mod
from parsfm.pipeline import synth as synth_mod
from parsfm.pipeline.cli import main as cli_main
from parsfm.merge import MergeOptions, transform_pose

from helpers import random_rotation


class TestConfig:
    def test_defaults_match_documented_values(self):
        cfg = PipelineConfig()
        assert cfg.r_ew == 0.5
        assert cfg.r_vw == 0.5
        assert cfg.min_matches == 50
        assert DEFAULT_INDEX_FEATURES == 1500
        assert cfg.top_k == 100
        assert cfg.merge_threshold_px == 1.8

    def test_worker_count_env_default(self, monkeypatch):
        monkeypatch.setenv("PARSFM_WORKERS", "3")
        assert PipelineConfig().worker_count == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"r_ew": 1.5},
            {"r_vw": -0.1},
            {"min_matches": 0},
            {"cluster_max_size": 1},
            {"merge_threshold_px": 0.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)


class TestSynth:
    def test_same_seed_byte_identical(self, tmp_path):
        cfg = SynthConfig(image_count=8, point_count=300, pixel_noise=0.3,
                          gcp_count=4, seed=5)
        for run in ("a", "b"):
            write_synthetic(
                cfg,
                tmp_path / f"ds_{run}.txt",
                tmp_path / f"gt_{run}.txt",
                tmp_path / f"gcp_{run}.txt",
            )
        for name in ("ds", "gt", "gcp"):
            assert filecmp.cmp(
                tmp_path / f"{name}_a.txt", tmp_path / f"{name}_b.txt",
                shallow=False,
            )

    def test_noiseless_matches_geometrically_exact(self):
        cfg = SynthConfig(image_count=6, point_count=300, pixel_noise=0.0,
                          outlier_rate=0.0, seed=1)
        dataset, gt, _, vis = generate_synthetic(cfg)
        kp_to_point = {
            img: {k: p for p, k in vis[img].items()} for img in vis
        }
        for pair in dataset.pairs:
            a, b = pair.image_id_a, pair.image_id_b
            for ia, ib in pair.matches:
                pid = kp_to_point[a][int(ia)]
                assert kp_to_point[b][int(ib)] == pid
                world = gt["points"][pid]
                for img, k in ((a, int(ia)), (b, int(ib))):
                    px = dataset.features[img].keypoints[k, :2]
                    expect = project(
                        dataset.intrinsics[img], gt["poses"][img], world
                    )
                    assert np.linalg.norm(px - expect) < 1e-9

    def test_outliers_planted_at_requested_rate(self):
        cfg = SynthConfig(image_count=6, point_count=400, outlier_rate=0.3, seed=2)
        dataset, gt, _, vis = generate_synthetic(cfg)
        kp_to_point = {img: {k: p for p, k in vis[img].items()} for img in vis}
        total = wrong = 0
        for pair in dataset.pairs:
            a, b = pair.image_id_a, pair.image_id_b
            for ia, ib in pair.matches:
                total += 1
                if kp_to_point[a][int(ia)] != kp_to_point[b][int(ib)]:
                    wrong += 1
        assert abs(wrong / total - 0.3) < 0.05

    def test_oblique_rig_pitch_angles(self):
        cfg = SynthConfig(image_count=20, pattern="oblique", seed=3)
        _, gt, _, _ = generate_synthetic(cfg)
        down = np.array([0.0, 0.0, -1.0])
        angles = []
        for img in sorted(gt["poses"]):
            fwd = gt["poses"][img].rotation[2]  # camera +z in world coords
            c = np.clip(fwd @ down, -1.0, 1.0)
            angles.append(np.degrees(np.arccos(c)))
        # stations of 5 views: one nadir + four pitched at the rig angle
        for s in range(0, 20, 5):
            block = angles[s : s + 5]
            assert abs(block[0]) < 1e-9
            for a in block[1:]:
                assert abs(a - 45.0) < 1e-6

    def test_orbit_looks_at_center(self):
        cfg = SynthConfig(image_count=12, pattern="orbit", seed=4)
        _, gt, _, _ = generate_synthetic(cfg)
        for pose in gt["poses"].values():
            eye = pose.center()
            fwd = pose.rotation[2]
            to_center = -eye / np.linalg.norm(eye)
            assert fwd @ to_center > 0.999

    def test_ground_truth_round_trip(self, tmp_path):
        cfg = SynthConfig(image_count=5, point_count=100, seed=6)
        _, gt, _, _ = generate_synthetic(cfg)
        path = tmp_path / "gt.txt"
        write_ground_truth(path, gt)
        back = read_ground_truth(path)
        assert set(back["poses"]) == set(gt["poses"])
        for img in gt["poses"]:
            assert np.allclose(
                back["poses"][img].rotation, gt["poses"][img].rotation, atol=1e-12
            )
        for pid in gt["points"]:
            assert np.array_equal(back["points"][pid], gt["points"][pid])


class TestEvaluate:
    def _gt_recon(self, gt, dataset):
        recon = Reconstruction()
        for img, pose in gt["poses"].items():
            recon.cameras[img] = (dataset.intrinsics[img], pose.copy())
        recon.registered_order = sorted(gt["poses"])
        return recon

    def test_exact_reconstruction_zero_error(self):
        dataset, gt, _, _ = generate_synthetic(
            SynthConfig(image_count=6, point_count=100, seed=7)
        )
        metrics = evaluate(self._gt_recon(gt, dataset), gt)
        assert metrics.position_rmse < 1e-9
        assert metrics.rotation_error_max_deg < 1e-7
        assert metrics.registered_images == 6

    def test_gauge_invariance(self):
        dataset, gt, _, _ = generate_synthetic(
            SynthConfig(image_count=6, point_count=100, seed=8)
        )
        recon = self._gt_recon(gt, dataset)
        rng = np.random.default_rng(9)
        T = SimilarityTransform(1.7, random_rotation(rng), rng.uniform(-3, 3, 3))
        for img, (intr, pose) in recon.cameras.items():
            recon.cameras[img] = (intr, transform_pose(pose, T))
        metrics = evaluate(recon, gt)
        assert metrics.position_rmse < 1e-9

    def test_too_few_common_cameras(self):
        dataset, gt, _, _ = generate_synthetic(
            SynthConfig(image_count=6, point_count=100, seed=10)
        )
        recon = self._gt_recon(gt, dataset)
        for img in list(recon.cameras)[2:]:
            del recon.cameras[img]
        recon.registered_order = sorted(recon.cameras)
        metrics = evaluate(recon, gt)
        assert metrics.position_rmse is None
        assert metrics.registered_images == 2


def small_dataset(tmp_path, seed=11, images=16, noise=0.3):
    cfg = SynthConfig(
        image_count=images, point_count=700, pixel_noise=noise, seed=seed
    )
    paths = (tmp_path / "ds.txt", tmp_path / "gt.txt")
    write_synthetic(cfg, *paths)
    return paths


def descriptor_dataset(tmp_path):
    """An orbit block written with descriptors and without MATCH records,
    noisy enough that the verified matches depend on the RANSAC draws."""
    dataset, _, _, _ = generate_synthetic(
        SynthConfig(image_count=12, pattern="orbit", point_count=400,
                    pixel_noise=1.0, seed=21, emit_descriptors=True)
    )
    dataset.pairs = []
    path = tmp_path / "desc.txt"
    write_dataset(path, dataset)
    return path


def openblas_threads():
    """Thread count of each OpenBLAS mapped into this process, by file name."""
    counts = {}
    for path, suffix in run_mod._loaded_openblas():
        get = getattr(ctypes.CDLL(path), f"scipy_openblas_get_num_threads{suffix}")
        get.argtypes, get.restype = [], ctypes.c_int
        counts[os.path.basename(path)] = get()
    return counts


def _worker_openblas_threads(_):
    return os.getpid(), openblas_threads()


def _freeze_count(_):
    return gc.get_freeze_count()


class TestRunPipeline:
    def test_completes_and_registers_most_images(self, tmp_path):
        ds, gt_path = small_dataset(tmp_path)
        config = PipelineConfig(
            dataset_path=str(ds),
            output_dir=str(tmp_path / "out"),
            cluster_max_size=8,
            rng_seed=0,
        )
        merged, metrics, report = run_pipeline(config)
        assert metrics.registered_images >= 0.9 * metrics.total_images
        assert metrics.mean_reprojection_px < 1.0
        gt = read_ground_truth(gt_path)
        ev = evaluate(merged, gt)
        assert ev.position_rmse < 0.5  # meters, scene extent 100 m
        for name in (
            "graph.txt",
            "wcds.txt",
            "clusters.txt",
            "recon_skeleton.txt",
            "merged.txt",
            "merge_steps.csv",
            "report.txt",
        ):
            assert os.path.exists(tmp_path / "out" / name)

    def test_worker_counts_agree(self, tmp_path):
        """1 and 2 workers write the same artifacts byte for byte; only the
        timing lines of report.txt may differ."""
        ds, _ = small_dataset(tmp_path, seed=12)
        blocks = [("match", ds, dict(cluster_max_size=8))]
        # descriptors only: retrieval and verification build the graph
        blocks.append(("desc", descriptor_dataset(tmp_path), dict(cluster_max_size=6, top_k=5)))
        for name, path, opts in blocks:
            for workers in (1, 2):
                config = PipelineConfig(
                    dataset_path=str(path),
                    output_dir=str(tmp_path / f"{name}_{workers}"),
                    worker_count=workers,
                    rng_seed=0,
                    **opts,
                )
                run_pipeline(config)
            one, two = tmp_path / f"{name}_1", tmp_path / f"{name}_2"
            artifacts = sorted(os.listdir(one))
            assert artifacts == sorted(os.listdir(two))
            assert {"graph.txt", "merged.txt", "report.txt"} <= set(artifacts)
            for artifact in artifacts:
                if artifact != "report.txt":
                    assert filecmp.cmp(one / artifact, two / artifact, shallow=False), artifact

    def test_single_worker_byte_identical(self, tmp_path):
        ds, _ = small_dataset(tmp_path, seed=13)
        for run in ("a", "b"):
            config = PipelineConfig(
                dataset_path=str(ds),
                output_dir=str(tmp_path / f"out_{run}"),
                cluster_max_size=8,
                worker_count=1,
                rng_seed=0,
            )
            run_pipeline(config)
        assert filecmp.cmp(
            tmp_path / "out_a" / "merged.txt",
            tmp_path / "out_b" / "merged.txt",
            shallow=False,
        )

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps"
    )
    def test_pool_workers_run_one_blas_thread(self, tmp_path):
        parent = openblas_threads()
        assert len(parent) == 2  # numpy's and scipy's
        with run_mod._worker_pool(2) as pool:
            seen = dict(pool.map(_worker_openblas_threads, range(8), timeout=60))
        for counts in seen.values():
            assert counts == {name: 1 for name in parent}
        ds, _ = small_dataset(tmp_path)
        run_pipeline(PipelineConfig(
            dataset_path=str(ds), output_dir="", cluster_max_size=8, worker_count=2
        ))
        assert openblas_threads() == parent

    def test_pool_tasks_run_on_a_frozen_heap_that_the_parent_thaws(
        self, tmp_path, monkeypatch
    ):
        before = gc.get_freeze_count()
        with run_mod._worker_pool(2) as pool:
            assert min(pool.map(_freeze_count, range(4), timeout=60)) > 0
        assert gc.get_freeze_count() == before

        real = run_mod.incremental_reconstruct

        def frozen_only(*args):
            if gc.get_freeze_count() == 0:
                raise RuntimeError("heap not frozen")
            return real(*args)

        monkeypatch.setattr(run_mod, "incremental_reconstruct", frozen_only)
        ds, _ = small_dataset(tmp_path)
        out = tmp_path / "out"
        run_pipeline(PipelineConfig(
            dataset_path=str(ds), output_dir=str(out), cluster_max_size=8, worker_count=2
        ))
        assert "failed cluster" not in (out / "report.txt").read_text()
        assert gc.get_freeze_count() == before

        dataset = read_dataset(descriptor_dataset(tmp_path))
        run_mod.build_graph(dataset, PipelineConfig(worker_count=2, top_k=5))
        assert gc.get_freeze_count() == before

    def test_pool_keeps_a_callers_frozen_heap(self):
        gc.freeze()
        try:
            assert gc.get_freeze_count() > 0
            with run_mod._worker_pool(2) as pool:
                list(pool.map(_freeze_count, range(2), timeout=60))
            # gc.unfreeze thaws everything, so any frozen object left shows
            # the pool did not call it
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()

    def test_payload_features_carry_no_descriptors(self, tmp_path):
        dataset = read_dataset(descriptor_dataset(tmp_path))
        subset = sorted(dataset.features)[:3]
        _, features, *_ = run_mod._make_payload(subset, dataset, [], None, 0)
        for i in subset:
            assert dataset.features[i].descriptors.size
            assert np.array_equal(features[i].keypoints, dataset.features[i].keypoints)
            assert features[i].descriptors.size == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_cluster_is_listed_not_fatal(self, tmp_path, monkeypatch, workers):
        ds, _ = small_dataset(tmp_path)
        real = run_mod.incremental_reconstruct

        def fail_task_2(subset, metas, features, pairs, intrinsics, opts, recon_id):
            if recon_id == 2:
                raise RuntimeError("injected failure")
            return real(subset, metas, features, pairs, intrinsics, opts, recon_id)

        monkeypatch.setattr(run_mod, "incremental_reconstruct", fail_task_2)
        out = tmp_path / "out"
        config = PipelineConfig(
            dataset_path=str(ds), output_dir=str(out), cluster_max_size=8,
            worker_count=workers, rng_seed=0,
        )
        _, metrics, _ = run_pipeline(config)
        assert metrics.registered_images > 0
        report = (out / "report.txt").read_text()
        listed = "failed cluster reconstructions:\n  task 2: RuntimeError: injected failure\n"
        assert listed in report
        assert not (out / "recon_cluster_2.txt").exists()
        assert (out / "recon_cluster_1.txt").exists()

    def test_failing_skeleton_fails_the_run(self, tmp_path, monkeypatch):
        ds, _ = small_dataset(tmp_path)

        def fail(*args):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(run_mod, "incremental_reconstruct", fail)
        config = PipelineConfig(dataset_path=str(ds), output_dir="", worker_count=2)
        with pytest.raises(PipelineError, match="skeleton failed: RuntimeError: injected"):
            run_pipeline(config)

    def test_image_without_keypoints_left_unregistered(self, tmp_path):
        ds, _ = small_dataset(tmp_path)
        lines = ds.read_text().splitlines()
        lines.insert(1, "IMAGE 99 1200 900")
        ds.write_text("\n".join(lines) + "\n")
        config = PipelineConfig(
            dataset_path=str(ds), output_dir="", cluster_max_size=8, worker_count=1
        )
        merged, metrics, _ = run_pipeline(config)
        assert metrics.total_images == 17
        assert 99 not in merged.cameras
        assert metrics.registered_images >= 15

    def test_empty_dataset_fails_at_graph_stage(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        config = PipelineConfig(dataset_path=str(path), output_dir="")
        with pytest.raises(PipelineError) as err:
            run_pipeline(config)
        assert err.value.stage == "TCNConstruction"


class TestCli:
    def test_synth_graph_pipeline_eval(self, tmp_path):
        ds = tmp_path / "ds.txt"
        gt = tmp_path / "gt.txt"
        assert cli_main([
            "synth", "--dataset", str(ds), "--ground-truth", str(gt),
            "--images", "12", "--points", "500", "--noise", "0.3",
            "--seed", "1",
        ]) == 0
        graph = tmp_path / "graph.txt"
        assert cli_main([
            "graph", "--dataset", str(ds), "--output", str(graph),
        ]) == 0
        assert graph.read_text().startswith("VERTEX")
        out = tmp_path / "out"
        assert cli_main([
            "pipeline", "--dataset", str(ds), "--output-dir", str(out),
            "--cluster-max-size", "6", "--seed", "0",
        ]) == 0
        assert cli_main([
            "eval", "--dataset", str(ds),
            "--recon", str(out / "merged.txt"), "--ground-truth", str(gt),
        ]) == 0
        # the stage commands write the pipeline's own artifacts byte for byte
        wcds = tmp_path / "wcds.txt"
        clusters = tmp_path / "clusters.txt"
        assert cli_main(["wcds", "--dataset", str(ds), "--output", str(wcds)]) == 0
        assert cli_main([
            "cluster", "--dataset", str(ds), "--output", str(clusters),
            "--max-size", "6",
        ]) == 0
        for dump in (graph, wcds, clusters):
            assert filecmp.cmp(dump, out / dump.name, shallow=False)

    def test_wcds_and_cluster_commands(self, tmp_path):
        ds = tmp_path / "ds.txt"
        gt = tmp_path / "gt.txt"
        cli_main([
            "synth", "--dataset", str(ds), "--ground-truth", str(gt),
            "--images", "10", "--points", "400", "--seed", "2",
        ])
        wcds = tmp_path / "wcds.txt"
        clusters = tmp_path / "clusters.txt"
        assert cli_main(["wcds", "--dataset", str(ds), "--output", str(wcds)]) == 0
        assert cli_main([
            "cluster", "--dataset", str(ds), "--output", str(clusters),
            "--max-size", "5",
        ]) == 0
        assert wcds.read_text().startswith("WCDS")
        assert clusters.read_text().startswith("CLUSTER")


class _Built(Exception):
    """Stops a CLI command where it hands its options to the library."""


class TestCliDefaults:
    """A flag left out is left to the library's dataclass default."""

    # command: (module, function the command calls, argument holding the options)
    CALLS = {
        "pipeline": (run_mod, "run_pipeline", 0),
        "synth": (synth_mod, "write_synthetic", 0),
        "merge": (merge_pkg, "merge_all", 4),
        "reconstruct": (engine_pkg, "incremental_reconstruct", 5),
    }

    @pytest.fixture
    def required(self, tmp_path, monkeypatch):
        """command -> its required flags, on a small dataset and an empty model."""
        monkeypatch.delenv("PARSFM_WORKERS", raising=False)
        ds, model, out = tmp_path / "ds.txt", tmp_path / "model.txt", tmp_path / "out"
        write_dataset(ds, generate_synthetic(SynthConfig(image_count=2, point_count=50))[0])
        write_reconstruction(model, Reconstruction())
        return {
            "pipeline": ["--dataset", str(ds), "--output-dir", str(out)],
            "synth": ["--dataset", str(ds), "--ground-truth", str(tmp_path / "gt.txt")],
            "merge": ["--dataset", str(ds), "--global-model", str(model),
                      "--clusters", str(model), "--output", str(out)],
            "reconstruct": ["--dataset", str(ds), "--output", str(out)],
        }

    def _built(self, monkeypatch, command, flags):
        module, name, slot = self.CALLS[command]

        def stop(*args, **kwargs):
            raise _Built(args[slot])

        monkeypatch.setattr(module, name, stop)
        with pytest.raises(_Built) as built:
            cli_main([command, *flags])
        return built.value.args[0]

    @pytest.mark.parametrize("command", list(CALLS))
    def test_required_flags_only_give_the_library_defaults(self, monkeypatch, required, command):
        built = self._built(monkeypatch, command, required[command])
        defaults = {"synth": SynthConfig, "merge": MergeOptions, "reconstruct": EngineOptions}
        if command == "pipeline":
            _, dataset, _, output_dir = required[command]
            assert built == PipelineConfig(dataset_path=dataset, output_dir=output_dir)
        else:
            assert built == defaults[command]()

    @pytest.mark.parametrize(
        "command, flag, field",
        [
            ("pipeline", ["--workers", "2"], "worker_count"),
            ("pipeline", ["--r-ew", "0.25"], "r_ew"),
            ("pipeline", ["--r-vw", "0.75"], "r_vw"),
            ("pipeline", ["--min-matches", "20"], "min_matches"),
            ("pipeline", ["--cluster-max-size", "7"], "cluster_max_size"),
            ("pipeline", ["--merge-threshold", "2.5"], "merge_threshold_px"),
            ("pipeline", ["--seed", "3"], "rng_seed"),
            ("synth", ["--images", "7"], "image_count"),
            ("synth", ["--pattern", "orbit"], "pattern"),
            ("synth", ["--extent", "50"], "grid_extent"),
            ("synth", ["--buildings", "2"], "building_count"),
            ("synth", ["--points", "300"], "point_count"),
            ("synth", ["--noise", "0.5"], "pixel_noise"),
            ("synth", ["--outlier-rate", "0.1"], "outlier_rate"),
            ("synth", ["--gcp-count", "4"], "gcp_count"),
            ("synth", ["--seed", "3"], "seed"),
            ("synth", ["--descriptors"], "emit_descriptors"),
            ("merge", ["--threshold", "2.5"], "threshold_px"),
            ("merge", ["--seed", "3"], "rng_seed"),
            ("reconstruct", ["--seed", "3"], "rng_seed"),
        ],
    )
    def test_one_flag_changes_one_field(self, monkeypatch, required, command, flag, field):
        base = self._built(monkeypatch, command, required[command])
        given = self._built(monkeypatch, command, required[command] + flag)
        changed = {
            f.name for f in fields(base) if getattr(base, f.name) != getattr(given, f.name)
        }
        assert changed == {field}
