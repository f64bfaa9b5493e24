"""Command-line entry points for each pipeline stage."""

from __future__ import annotations

import argparse
import sys

from .config import PipelineConfig, default_worker_count


def _add_graph_flags(p):
    p.add_argument("--min-matches", type=int, default=50)
    p.add_argument("--r-ew", type=float, default=0.5)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="parsfm",
        description="Parallel structure-from-motion over a weighted image graph",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--gcps", default=None)
    p.add_argument("--images", type=int, default=40)
    p.add_argument("--pattern", choices=["nadir", "oblique", "orbit"], default="nadir")
    p.add_argument("--extent", type=float, default=100.0)
    p.add_argument("--buildings", type=int, default=8)
    p.add_argument("--points", type=int, default=2000)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--outlier-rate", type=float, default=0.0)
    p.add_argument("--gcp-count", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--descriptors", action="store_true",
                   help="emit per-feature descriptors as well as matches")

    p = sub.add_parser("graph", help="build the weighted match graph")
    p.add_argument("--dataset", required=True)
    p.add_argument("--output", required=True)
    _add_graph_flags(p)

    p = sub.add_parser("wcds", help="extract the dominating-set skeleton")
    p.add_argument("--dataset", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--r-vw", type=float, default=0.5)
    _add_graph_flags(p)

    p = sub.add_parser("cluster", help="partition the graph into clusters")
    p.add_argument("--dataset", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--max-size", type=int, default=100)
    _add_graph_flags(p)

    p = sub.add_parser("reconstruct", help="incremental reconstruction of a subset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--subset", default=None,
                   help="comma-separated image ids (default: all)")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("merge", help="merge cluster reconstructions")
    p.add_argument("--dataset", required=True)
    p.add_argument("--global-model", required=True)
    p.add_argument("--clusters", nargs="+", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--threshold", type=float, default=1.8)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("pipeline", help="run the full parallel pipeline")
    p.add_argument("--dataset", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: PARSFM_WORKERS or 1)")
    p.add_argument("--r-vw", type=float, default=0.5)
    p.add_argument("--cluster-max-size", type=int, default=100)
    p.add_argument("--merge-threshold", type=float, default=1.8)
    p.add_argument("--seed", type=int, default=0)
    _add_graph_flags(p)

    p = sub.add_parser("eval", help="compare a reconstruction to ground truth")
    p.add_argument("--dataset", required=True)
    p.add_argument("--recon", required=True)
    p.add_argument("--ground-truth", required=True)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)

    if args.command == "synth":
        from .synth import SynthConfig, write_synthetic

        cfg = SynthConfig(
            image_count=args.images,
            pattern=args.pattern,
            grid_extent=args.extent,
            building_count=args.buildings,
            point_count=args.points,
            pixel_noise=args.noise,
            outlier_rate=args.outlier_rate,
            gcp_count=args.gcp_count,
            seed=args.seed,
            emit_descriptors=args.descriptors,
        )
        write_synthetic(cfg, args.dataset, args.ground_truth, args.gcps)
        print(f"wrote {args.dataset} ({cfg.image_count} images)")
        return 0

    if args.command in ("graph", "wcds", "cluster"):
        from ..graphalgo import extract_wcds, normalized_cut
        from ..matchgraph.dataset import read_dataset
        from .run import build_graph, write_clusters, write_graph, write_wcds

        config = PipelineConfig(
            min_matches=args.min_matches,
            r_ew=args.r_ew,
            dataset_path=args.dataset,
            output_dir="",
        )
        dataset = read_dataset(args.dataset)
        _, graph = build_graph(dataset, config)
        if args.command == "graph":
            write_graph(args.output, graph)
        elif args.command == "wcds":
            write_wcds(args.output, extract_wcds(graph, args.r_vw))
        else:
            write_clusters(args.output, normalized_cut(graph, args.max_size))
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
            EngineOptions(rng_seed=args.seed),
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
            MergeOptions(threshold_px=args.threshold, rng_seed=args.seed),
        )
        write_reconstruction(args.output, merged)
        print(report.summary())
        return 0

    if args.command == "pipeline":
        from .run import run_pipeline

        config = PipelineConfig(
            min_matches=args.min_matches,
            r_ew=args.r_ew,
            r_vw=args.r_vw,
            cluster_max_size=args.cluster_max_size,
            merge_threshold_px=args.merge_threshold,
            worker_count=args.workers if args.workers else default_worker_count(),
            rng_seed=args.seed,
            dataset_path=args.dataset,
            output_dir=args.output_dir,
        )
        _, metrics, report = run_pipeline(config)
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
