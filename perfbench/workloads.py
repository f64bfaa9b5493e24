"""The benchmark's workloads: input generation, the measured operation, and
the checks of its output.

Every scene is fixed by a scene seed; ``--seed`` draws the pixel noise added
to every keypoint (and, on ``merge-large``, the similarity that moves each
cluster model). A seed therefore changes every measurement the program sees
but not the block's geometry, so the quality figures stay comparable from
seed to seed while no two seeds give the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import checks

SIGMA_PX = 0.4
MIN_MATCHES = 50


class Truth:
    """Generator ground truth: camera poses, world points, visibility."""

    def __init__(self, R, t, kp_to_point):
        self.R = R
        self.t = t
        self.kp_to_point = kp_to_point
        self._visible = {}

    def center(self, img):
        return -self.R[img].T @ self.t[img]

    def visible(self, img):
        if img not in self._visible:
            self._visible[img] = set(self.kp_to_point[img].tolist())
        return self._visible[img]

    def save(self, path):
        arrays = {"R": self.R, "t": self.t}
        for img, kp in self.kp_to_point.items():
            arrays[f"kp_{img}"] = kp
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path):
        with np.load(path) as z:
            kp = {int(k[3:]): z[k] for k in z.files if k.startswith("kp_")}
            return cls(z["R"], z["t"], kp)


def _generate(cfg_kwargs, seed, workdir):
    """Generate the fixed scene, add seeded pixel noise, write the dataset
    and the ground truth. Returns (Dataset, ground truth dict, Truth, rng)."""
    from parsfm.pipeline import SynthConfig, generate_synthetic

    dataset, gt, _, visibility = generate_synthetic(SynthConfig(**cfg_kwargs))
    rng = np.random.default_rng(seed)
    for img in sorted(dataset.features):
        kp = dataset.features[img].keypoints
        kp[:, :2] += rng.normal(0.0, SIGMA_PX, (len(kp), 2))
    ids = sorted(gt["poses"])
    if ids != list(range(len(ids))):
        raise ValueError("the generator's image ids are not 0..n-1")
    truth = Truth(
        np.array([gt["poses"][i].rotation for i in ids]),
        np.array([gt["poses"][i].translation for i in ids]),
        {
            img: np.array(
                [p for p, _ in sorted(vis.items(), key=lambda pk: pk[1])], dtype=int
            )
            for img, vis in visibility.items()
        },
    )
    truth.save(workdir / "truth.npz")
    return dataset, gt, truth, rng


def gt_model(dataset, points, truth, images, T=None, recon_id=0):
    """A model of the ground-truth poses and world points over the tracks of
    `images`, moved by the similarity T (the identity when None)."""
    from parsfm.engine import Reconstruction, build_tracks
    from parsfm.geometry import CameraPose, SimilarityTransform
    from parsfm.merge import transform_pose

    T = T or SimilarityTransform.identity()
    members = set(images)
    tracks = build_tracks(
        [p for p in dataset.pairs if p.image_id_a in members and p.image_id_b in members]
    )
    model = Reconstruction(recon_id=recon_id)
    for img in sorted({i for t in tracks for i, _ in t.observations}):
        pose = CameraPose(truth.R[img], truth.t[img])
        model.cameras[img] = (dataset.intrinsics[img], transform_pose(pose, T))
        model.registered_order.append(img)
    for track in tracks:
        img, kp = track.observations[0]
        X = points[int(truth.kp_to_point[img][kp])]
        model.points[track.point_id] = (T.apply(X).reshape(3), track)
    return model


@dataclass
class Outcome:
    """What one measured round leaves for the checks."""

    model: object = None
    report: object = None
    dataset: object = None
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


class PipelineWorkload:
    """``run_pipeline`` on a generated dataset, artifacts written to disk as
    the CLI does. An operation is one subset (the skeleton or a cluster)."""

    def __init__(self, name, synth, pipeline, strip_matches=False):
        self.name = name
        self.synth = synth
        self.pipeline = pipeline
        self.strip_matches = strip_matches
        self.workers = pipeline["worker_count"]
        self.total_images = synth["image_count"]

    def make_inputs(self, workdir, seed):
        from parsfm.matchgraph.dataset import write_dataset

        dataset, _, _, _ = _generate(self.synth, seed, workdir)
        if self.strip_matches:
            dataset.pairs = []
        write_dataset(workdir / "dataset.txt", dataset)

    def final_model_path(self, workdir):
        return workdir / "out" / "merged.txt"

    def measure(self, workdir):
        import parsfm.pipeline.run as run_mod
        from parsfm.pipeline import PipelineConfig

        config = PipelineConfig(
            dataset_path=str(workdir / "dataset.txt"),
            output_dir=str(workdir / "out"),
            min_matches=MIN_MATCHES,
            **self.pipeline,
        )
        verified = []
        if self.strip_matches:
            _capture(run_mod, "verify_matches", verified)
        model, metrics, report = run_mod.run_pipeline(config)
        return model, report, metrics.stage_times, verified

    def check(self, workdir, result):
        from parsfm.engine import validate_reconstruction
        from parsfm.matchgraph.dataset import read_dataset

        model, report, stage_times, verified = result
        out = Outcome(model=model, report=report)
        out.extra["stage_times"] = stage_times
        out.dataset = read_dataset(workdir / "dataset.txt")
        truth = Truth.load(workdir / "truth.npz")
        clusters = _read_lines(workdir / "out" / "clusters.txt", "CLUSTER")
        n_clusters = sum(1 for c in clusters if len(c) - 1 >= 2)
        merged_or_dropped = len(report.steps) + len(report.dropped)
        out.attempted = 1 + n_clusters
        out.failed = (n_clusters - merged_or_dropped) + len(report.dropped)
        f = out.failures
        f += checks.check_valid(model, out.dataset.features, validate_reconstruction)
        f += checks.check_tracks(model, truth)
        f += checks.check_loaded_pairs(report)
        f += checks.check_clusters_merged(model, [], report)
        edges = [(int(a), int(b)) for a, b, _ in _read_lines(workdir / "out" / "graph.txt", "EDGE")]
        out.extra["edges"] = len(edges)
        if self.strip_matches:
            pairs = [p for batch in verified for p in batch]
            out.extra["verified_pairs"] = len(pairs)
            if not pairs:
                f.append("no pairs kept by verify_matches were seen in the round")
            f += checks.check_verified_matches(pairs, truth)
            f += checks.check_graph_edges(edges, truth, MIN_MATCHES)
        return out, truth


class MergeWorkload:
    """What ``parsfm merge`` does, on cluster models made from ground truth.

    Set-up splits a large block into the WCDS skeleton and normalized-cut
    clusters with the program's own graph and partition functions. Each model
    holds the ground-truth poses and points over its own tracks; every
    cluster model is then moved by a random similarity while the skeleton
    stays in the ground-truth frame. An operation is one cluster merge.
    """

    def __init__(self, name, synth, cluster_max_size):
        self.name = name
        self.synth = synth
        self.cluster_max_size = cluster_max_size
        self.workers = 1
        self.total_images = synth["image_count"]

    def make_inputs(self, workdir, seed):
        from parsfm.engine import write_reconstruction
        from parsfm.geometry import SimilarityTransform
        from parsfm.graphalgo import extract_wcds, normalized_cut
        from parsfm.matchgraph import build_match_graph
        from parsfm.matchgraph.dataset import write_dataset

        dataset, gt, truth, rng = _generate(self.synth, seed, workdir)
        write_dataset(workdir / "dataset.txt", dataset)
        graph = build_match_graph(dataset.pairs, dataset.metas, dataset.features, MIN_MATCHES)
        skeleton = sorted(extract_wcds(graph).selected_vertices)
        clusters = [
            sorted(c)
            for c in normalized_cut(graph, self.cluster_max_size).clusters
            if len(c) >= 2
        ]
        (workdir / "models").mkdir()
        for k, subset in enumerate([skeleton] + clusters):
            if k == 0:
                T = SimilarityTransform.identity()
            else:
                Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
                if np.linalg.det(Q) < 0:
                    Q[:, 0] = -Q[:, 0]
                T = SimilarityTransform(
                    float(rng.uniform(0.5, 2.0)), Q, rng.uniform(-50.0, 50.0, 3)
                )
            model = gt_model(dataset, gt["points"], truth, subset, T, recon_id=k)
            name = "skeleton.txt" if k == 0 else f"cluster_{k:03d}.txt"
            write_reconstruction(workdir / "models" / name, model)

    def final_model_path(self, workdir):
        return workdir / "out" / "merged.txt"

    def measure(self, workdir):
        import parsfm.matchgraph.dataset as dataset_mod
        import parsfm.merge as merge_mod
        from parsfm.engine import read_reconstruction, write_reconstruction

        dataset = dataset_mod.read_dataset(workdir / "dataset.txt")
        skeleton = read_reconstruction(workdir / "models" / "skeleton.txt", dataset.intrinsics)
        paths = sorted((workdir / "models").glob("cluster_*.txt"))
        clusters = [
            read_reconstruction(p, dataset.intrinsics, recon_id=i + 1)
            for i, p in enumerate(paths)
        ]
        merged, report = merge_mod.merge_all(
            skeleton,
            clusters,
            dataset.features,
            dataset.pairs,
            merge_mod.MergeOptions(threshold_px=1.8, rng_seed=0),
        )
        (workdir / "out").mkdir(exist_ok=True)
        write_reconstruction(self.final_model_path(workdir), merged)
        return merged, report, dataset, skeleton, clusters

    def check(self, workdir, result):
        from parsfm.engine import validate_reconstruction

        merged, report, dataset, skeleton, clusters = result
        out = Outcome(model=merged, report=report, dataset=dataset)
        out.attempted = len(clusters)
        out.failed = len(report.dropped)
        truth = Truth.load(workdir / "truth.npz")
        f = out.failures
        f += checks.check_valid(merged, dataset.features, validate_reconstruction)
        f += checks.check_tracks(merged, truth)
        f += checks.check_loaded_pairs(report)
        f += checks.check_clusters_merged(merged, clusters, report)
        f += checks.check_observations_from_inputs(merged, [skeleton] + clusters)
        return out, truth


def _capture(module, name, sink):
    """Keep every return value of module.name (no timing, no other effect)."""
    fn = getattr(module, name)

    def capture(*args, **kwargs):
        result = fn(*args, **kwargs)
        sink.append(result)
        return result

    setattr(module, name, capture)


def _read_lines(path, kind):
    with open(path) as fh:
        return [line.split()[1:] for line in fh if line.startswith(kind + " ")]


SCENE_SEED = 1000

WORKLOADS = {
    w.name: w
    for w in (
        PipelineWorkload(
            "nadir-match",
            dict(
                image_count=60,
                point_count=3000,
                seed=SCENE_SEED,
                max_pair_distance=30.0,
                max_matches_per_pair=300,
            ),
            dict(cluster_max_size=20, worker_count=2),
        ),
        PipelineWorkload(
            "orbit-retrieval",
            dict(
                image_count=36,
                pattern="orbit",
                point_count=700,
                seed=SCENE_SEED,
                emit_descriptors=True,
            ),
            dict(cluster_max_size=10, worker_count=2, top_k=5),
            strip_matches=True,
        ),
        MergeWorkload(
            "merge-large",
            dict(
                image_count=300,
                point_count=6000,
                grid_extent=160.0,
                seed=SCENE_SEED,
                max_pair_distance=20.0,
                max_matches_per_pair=150,
            ),
            cluster_max_size=30,
        ),
    )
}

