"""Reference figures for the nadir-match block, measured once and quoted in
perfbench/README.md: the pipeline on 1 worker and on the workload's 2
workers (scaling), and one monolithic incremental_reconstruct of all images
(the paper's efficiency ratio of the divide-and-conquer pipeline).

Usage (from the repository root):

    python3 perfbench/reference.py
"""

import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEED = 1


def main():
    run.use_checkout_sources()
    import checks
    from parsfm.engine import EngineOptions, incremental_reconstruct
    from parsfm.matchgraph.dataset import read_dataset
    from parsfm.pipeline import PipelineConfig, run_pipeline
    from workloads import WORKLOADS, Truth

    wl = WORKLOADS["nadir-match"]
    workdir = run.OUT / f"reference-seed{SEED}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl.make_inputs(workdir, SEED)
    truth = Truth.load(workdir / "truth.npz")

    for workers in (1, wl.workers):
        config = PipelineConfig(
            dataset_path=str(workdir / "dataset.txt"),
            output_dir=str(workdir / f"out{workers}"),
            **dict(wl.pipeline, worker_count=workers),
        )
        start = time.perf_counter()
        model, metrics, _ = run_pipeline(config)
        wall = time.perf_counter() - start
        stages = ", ".join(f"{k} {v:.1f} s" for k, v in metrics.stage_times.items())
        print(f"pipeline, {workers} worker(s): {wall:.1f} s ({stages}); "
              f"{model.num_cameras()} cameras, RMSE "
              f"{checks.position_rmse(model, truth):.4f} m", flush=True)

    dataset = read_dataset(workdir / "dataset.txt")
    start = time.perf_counter()
    model = incremental_reconstruct(
        sorted(dataset.metas), dataset.metas, dataset.features, dataset.pairs,
        dataset.intrinsics, EngineOptions(rng_seed=0),
    )
    wall = time.perf_counter() - start
    print(f"monolithic incremental_reconstruct: {wall:.1f} s; "
          f"{model.num_cameras()} cameras, RMSE "
          f"{checks.position_rmse(model, truth):.4f} m, "
          f"{checks.mean_reprojection(model, dataset.features):.4f} px", flush=True)
    shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
