"""parsfm benchmark: one workload, measured end to end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload nadir-match --seed 1 --seconds 10 --trace 0

Set-up generates the workload's inputs from ``--seed`` and writes them under
``.perfbench_out/``; ``setup_s`` runs from the start of this process, so it
is one cold set-up, imports included. Each measured round then runs in a
fresh process, so every round starts cold and its peak memory is its own;
rounds repeat until ``--seconds`` have passed, and at least one always runs.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A traced run pairs
every traced round with an untraced one, requires their final models to be
byte-identical and reports the tracing overhead.

The program is imported from ``src/`` of the same checkout and nowhere else;
without it the benchmark exits with an error before printing a result.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BOUNDS = HERE / "bounds.json"
DEADLINE_S = 170  # a run must end within 180 s of its start
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PSS_INTERVAL_S = 0.1  # memory sampling period of a round's process tree
MEASURED = "measured"  # sent by a round when the program's work has ended

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "registered_images": "count",
    "points_3d": "count",
    "mean_reproj_px": "px",
    "position_rmse_m": "m",
}


def time_left():
    return max(1.0, DEADLINE_S - (time.perf_counter() - _PROCESS_START))


def use_checkout_sources():
    """Put this checkout's src/ first on the import path, or stop."""
    if not (SRC / "parsfm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: parsfm sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import parsfm

    if Path(parsfm.__file__).resolve().parent != SRC / "parsfm":
        raise SystemExit(f"perfbench: parsfm imported from {parsfm.__file__}, not {SRC}")


def rmse_bound(workload):
    """Calibrated camera-position RMSE bound (see calibrate.py)."""
    with open(BOUNDS) as fh:
        return json.load(fh)[workload]["position_rmse_m"]


def tree_pss_kb(root):
    """Summed proportional set size (PSS) of a process and its descendants.

    PSS splits each shared page among the processes that map it, so the
    copy-on-write pages a forked pool worker shares with its parent are
    counted once.
    """
    total, todo = 0, [root]
    while todo:
        pid = todo.pop()
        try:
            with open(f"/proc/{pid}/smaps_rollup") as fh:
                total += next(int(ln.split()[1]) for ln in fh if ln.startswith("Pss:"))
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except (OSError, StopIteration):  # the process ended meanwhile
            pass
    return total


def blas_settings():
    import numpy as np

    info = {var: os.environ.get(var, "unset") for var in THREAD_VARS}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy without mode="dicts"
        info["blas"] = "unknown"
    info["cpus"] = os.cpu_count()
    return info


def measure_round(workload, workdir, trace, bound, conn):
    """Child-process entry: one measured round, its checks, and its trace."""
    # A spawned child inherits "spawn" as its default start method; reset it
    # so the program's own pool starts workers as under the parsfm CLI.
    multiprocessing.set_start_method(None, force=True)
    os.setpgrp()  # the round and its pool workers can be stopped as one group
    try:
        conn.send(_round(workload, Path(workdir), trace, bound,
                         lambda: conn.send(MEASURED)))
    except Exception:  # report any program fault to the parent as data
        conn.send({"error": traceback.format_exc()})
    finally:
        conn.close()


def _round(workload, workdir, trace, bound, measured):
    use_checkout_sources()
    # load every module holding a traced function before wrapping
    import parsfm.engine  # noqa: F401
    import parsfm.matchgraph.dataset  # noqa: F401
    import parsfm.merge  # noqa: F401
    import parsfm.pipeline.run  # noqa: F401

    import checks
    from tracer import Tracer, layer_metrics
    from workloads import SIGMA_PX, WORKLOADS

    wl = WORKLOADS[workload]
    shutil.rmtree(workdir / "out", ignore_errors=True)
    tracer = None
    if trace:
        shutil.rmtree(workdir / "spans", ignore_errors=True)
        tracer = Tracer(workdir / "spans")
        tracer.install()

    start = time.perf_counter()
    result = wl.measure(workdir)
    wall = time.perf_counter() - start
    measured()  # the parent stops sampling memory here
    if tracer is not None:
        tracer.uninstall()  # the checks below are not the program's work

    outcome, truth = wl.check(workdir, result)
    q = checks.quality(outcome.model, outcome.dataset.features, truth)
    failures = outcome.failures + checks.check_quality(
        q, wl.total_images, SIGMA_PX, bound
    )
    reported = outcome.report.error_after_final_ba
    if not math.isclose(reported, q["mean_reproj_px"], rel_tol=1e-6):
        failures.append(
            f"merge report says {reported:.9g} px, independent projection "
            f"gives {q['mean_reproj_px']:.9g} px"
        )
    with open(wl.final_model_path(workdir), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    out = {
        "wall_s": wall,
        "quality": q,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": failures,
        "digest": digest,
        "extra": outcome.extra,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer.gather(), wl.workers)
    return out


def run_in_child(workload, workdir, trace, bound, timeout=None):
    """One round in a fresh process; stopped with its workers on timeout.

    Until the round reports that the program's work has ended, the peak of
    the summed PSS of the round's process and its pool workers is sampled
    every PSS_INTERVAL_S seconds.
    """
    ctx = multiprocessing.get_context("spawn")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=measure_round, args=(workload, str(workdir), trace, bound, send)
    )
    proc.start()
    send.close()
    deadline = math.inf if timeout is None else time.perf_counter() + timeout
    peak_kb = 0
    measuring = True
    result = None
    try:
        while result is None:
            left = deadline - time.perf_counter()
            if left <= 0:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:  # the child has not made its group yet
                    proc.kill()
                result = {"error": f"round did not finish within {timeout:.0f} s"}
            elif recv.poll(min(PSS_INTERVAL_S, left)):
                msg = recv.recv()
                if msg == MEASURED:
                    measuring = False
                else:
                    result = msg
            elif measuring:
                peak_kb = max(peak_kb, tree_pss_kb(proc.pid))
        if "error" not in result:
            result["peak_rss_mb"] = peak_kb / 1024.0
    except EOFError:
        result = {"error": "round process ended without a result"}
    finally:
        recv.close()
        proc.join()
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_sources()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    bound = rmse_bound(args.workload)
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs_start = time.perf_counter()
    wl.make_inputs(workdir, args.seed)
    setup_s = time.perf_counter() - _PROCESS_START
    inputs_s = time.perf_counter() - inputs_start

    rounds = []  # untraced results, or (untraced, traced) pairs
    loop_start = time.perf_counter()
    while not rounds or time.perf_counter() - loop_start < args.seconds:
        plain = run_in_child(args.workload, workdir, False, bound, time_left())
        if args.trace:
            rounds.append(
                (plain, run_in_child(args.workload, workdir, True, bound, time_left()))
            )
        else:
            rounds.append(plain)

    results = [r for pair in rounds for r in pair] if args.trace else rounds
    failures = []
    for r in results:
        if "error" in r:
            failures.append(r["error"])
        else:
            failures.extend(r["failures"])
    ok = [r for r in results if "error" not in r]
    digests = {r["digest"] for r in ok}
    if len(digests) > 1:
        failures.append(f"final models differ between rounds: {len(digests)} digests")
    attempted = sum(r["attempted"] for r in ok) + sum(1 for r in results if "error" in r)
    failed = sum(r["failed"] for r in ok) + sum(1 for r in results if "error" in r)

    metrics = {}
    traced = [t for _, t in rounds if "layers" in t] if args.trace else []
    if traced:
        for key in traced[0]["layers"]:
            metrics[key] = {
                "value": statistics.median(t["layers"][key]["value"] for t in traced),
                "unit": traced[0]["layers"][key]["unit"],
            }
        ratios = [
            t["wall_s"] / p["wall_s"] - 1.0
            for p, t in rounds
            if "error" not in p and "error" not in t
        ]
        if ratios:
            overhead = statistics.median(ratios)
            metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
            print(f"perfbench: tracing overhead {overhead:+.1%} of the untraced "
                  f"wall_s", file=sys.stderr)
    elif ok:
        values = {"setup_s": setup_s}
        values["wall_s"] = statistics.median(r["wall_s"] for r in ok)
        values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in ok)
        for key, v in ok[0]["quality"].items():
            values[key] = v
        metrics = {
            key: {"value": values[key], "unit": unit}
            for key, unit in END_TO_END_UNITS.items()
        }

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "inputs_s": inputs_s,  # the part of setup_s spent making the inputs
        "settings": blas_settings(),
        "rounds": [
            {k: v for k, v in r.items() if k != "layers"} for r in results
        ],
        "failures": failures,
    }
    # keep the summary; drop the inputs and models, which can be large
    for child in workdir.iterdir():
        if child.is_dir() and child.name != "spans":
            shutil.rmtree(child)
        elif child.is_file():
            child.unlink()
    with open(workdir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, default=str)
    for msg in failures[:20]:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)

    print(json.dumps({
        "correct": not failures and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
