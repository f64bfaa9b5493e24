"""Command-line entry points for each pipeline stage.

A flag that sets a field of PipelineConfig, SynthConfig, EngineOptions or
MergeOptions stores under the field's name and has no default of its own: a
flag left out is absent from the parsed arguments, so the dataclass supplies
the default.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .config import PipelineConfig


def _from_flags(cls, args, **given):
    """cls from the given keywords and every parsed flag named after a field."""
    names = {f.name for f in fields(cls)}
    return cls(**given, **{k: v for k, v in vars(args).items() if k in names})


def _add_graph_flags(p):
    p.add_argument("--dataset", required=True, dest="dataset_path")
    p.add_argument("--min-matches", type=int)
    p.add_argument("--r-ew", type=float)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="parsfm",
        description="Parallel structure-from-motion over a weighted image graph",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        return sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)

    p = command("synth", "generate a synthetic dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--gcps", default=None)
    p.add_argument("--images", type=int, dest="image_count")
    p.add_argument("--pattern", choices=["nadir", "oblique", "orbit"])
    p.add_argument("--extent", type=float, dest="grid_extent")
    p.add_argument("--buildings", type=int, dest="building_count")
    p.add_argument("--points", type=int, dest="point_count")
    p.add_argument("--noise", type=float, dest="pixel_noise")
    p.add_argument("--outlier-rate", type=float)
    p.add_argument("--gcp-count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--descriptors", action="store_true", dest="emit_descriptors",
                   help="emit per-feature descriptors as well as matches")

    p = command("graph", "build the weighted match graph")
    p.add_argument("--output", required=True)
    _add_graph_flags(p)

    p = command("wcds", "extract the dominating-set skeleton")
    p.add_argument("--output", required=True)
    p.add_argument("--r-vw", type=float)
    _add_graph_flags(p)

    p = command("cluster", "partition the graph into clusters")
    p.add_argument("--output", required=True)
    p.add_argument("--max-size", type=int, dest="cluster_max_size")
    _add_graph_flags(p)

    p = command("reconstruct", "incremental reconstruction of a subset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--subset", default=None,
                   help="comma-separated image ids (default: all)")
    p.add_argument("--seed", type=int, dest="rng_seed")

    p = command("merge", "merge cluster reconstructions")
    p.add_argument("--dataset", required=True)
    p.add_argument("--global-model", required=True)
    p.add_argument("--clusters", nargs="+", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--threshold", type=float, dest="threshold_px")
    p.add_argument("--seed", type=int, dest="rng_seed")

    p = command("pipeline", "run the full parallel pipeline")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--workers", type=int, dest="worker_count",
                   help="worker processes (default: PARSFM_WORKERS or 1)")
    p.add_argument("--r-vw", type=float)
    p.add_argument("--cluster-max-size", type=int)
    p.add_argument("--merge-threshold", type=float, dest="merge_threshold_px")
    p.add_argument("--seed", type=int, dest="rng_seed")
    _add_graph_flags(p)

    p = command("eval", "compare a reconstruction to ground truth")
    p.add_argument("--dataset", required=True)
    p.add_argument("--recon", required=True)
    p.add_argument("--ground-truth", required=True)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)

    if args.command == "synth":
        from .synth import SynthConfig, write_synthetic

        cfg = _from_flags(SynthConfig, args)
        write_synthetic(cfg, args.dataset, args.ground_truth, args.gcps)
        print(f"wrote {args.dataset} ({cfg.image_count} images)")
        return 0

    if args.command in ("graph", "wcds", "cluster"):
        from ..graphalgo import extract_wcds, normalized_cut
        from ..matchgraph.dataset import read_dataset
        from .run import build_graph, write_clusters, write_graph, write_wcds

        config = _from_flags(PipelineConfig, args, output_dir="")
        _, graph = build_graph(read_dataset(config.dataset_path), config)
        if args.command == "graph":
            write_graph(args.output, graph)
        elif args.command == "wcds":
            write_wcds(args.output, extract_wcds(graph, config.r_vw))
        else:
            write_clusters(args.output, normalized_cut(graph, config.cluster_max_size))
        print(f"wrote {args.output}")
        return 0

    if args.command == "reconstruct":
        from ..engine import EngineOptions, incremental_reconstruct, write_reconstruction
        from ..matchgraph.dataset import read_dataset

        dataset = read_dataset(args.dataset)
        subset = (
            [int(v) for v in args.subset.split(",")]
            if args.subset
            else sorted(dataset.metas)
        )
        recon = incremental_reconstruct(
            subset,
            dataset.metas,
            dataset.features,
            dataset.pairs,
            dataset.intrinsics,
            _from_flags(EngineOptions, args),
        )
        write_reconstruction(args.output, recon)
        print(f"registered {recon.num_cameras()}/{len(subset)} images, "
              f"{recon.num_points()} points")
        return 0

    if args.command == "merge":
        from ..engine import read_reconstruction, write_reconstruction
        from ..matchgraph.dataset import read_dataset
        from ..merge import MergeOptions, merge_all

        dataset = read_dataset(args.dataset)
        global_model = read_reconstruction(args.global_model, dataset.intrinsics)
        clusters = [
            read_reconstruction(path, dataset.intrinsics, recon_id=i + 1)
            for i, path in enumerate(args.clusters)
        ]
        merged, report = merge_all(
            global_model,
            clusters,
            dataset.features,
            dataset.pairs,
            _from_flags(MergeOptions, args),
        )
        write_reconstruction(args.output, merged)
        print(report.summary())
        return 0

    if args.command == "pipeline":
        from .run import run_pipeline

        _, metrics, report = run_pipeline(_from_flags(PipelineConfig, args))
        print(metrics.summary())
        print(report.summary())
        return 0

    if args.command == "eval":
        from ..engine import read_reconstruction
        from ..matchgraph.dataset import read_dataset
        from .evaluate import evaluate
        from .synth import read_ground_truth

        dataset = read_dataset(args.dataset)
        recon = read_reconstruction(args.recon, dataset.intrinsics)
        gt = read_ground_truth(args.ground_truth)
        metrics = evaluate(recon, gt, dataset.features)
        print(metrics.summary())
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
