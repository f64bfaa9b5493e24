"""Remake the calibrated position-RMSE bounds in perfbench/bounds.json.

For each workload, generates the inputs of every seed in SEEDS, runs one
untraced round without an RMSE bound, and sets the bound to the largest RMSE
seen times HEADROOM, rounded up to two significant digits. The sweep's
figures are stored beside each bound.

Usage (from the repository root):

    python3 perfbench/calibrate.py
"""

import json
import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEEDS = range(100, 110)  # apart from the seeds the benchmark is run with
HEADROOM = 1.5


def round_up(x, digits=2):
    exp = math.floor(math.log10(x)) - digits + 1
    return float(f"{math.ceil(x / 10**exp) * 10**exp:.{digits}g}")


def main():
    run.use_checkout_sources()
    from workloads import WORKLOADS

    bounds = {}
    for name in WORKLOADS:
        figures = {}
        for seed in SEEDS:
            workdir = run.OUT / f"calibrate-{name}-seed{seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            WORKLOADS[name].make_inputs(workdir, seed)
            result = run.run_in_child(name, workdir, False, math.inf)
            shutil.rmtree(workdir)
            if "error" in result:
                raise SystemExit(f"{name} seed {seed}: {result['error']}")
            q = result["quality"]
            figures[seed] = q["position_rmse_m"]
            print(f"{name} seed {seed}: RMSE {q['position_rmse_m']:.6g} m, "
                  f"{q['registered_images']} cameras, "
                  f"{q['mean_reproj_px']:.4g} px, {result['wall_s']:.1f} s, "
                  f"failures {result['failures']}", flush=True)
        worst = max(figures.values())
        bounds[name] = {
            "position_rmse_m": round_up(HEADROOM * worst),
            "sweep": {str(s): v for s, v in figures.items()},
        }
        print(f"{name}: bound {bounds[name]['position_rmse_m']} m "
              f"(max {worst:.6g} m x {HEADROOM})", flush=True)
    run.BOUNDS.write_text(json.dumps(bounds, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
