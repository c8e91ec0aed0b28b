"""stancemoe benchmark: one workload, one process, BLAS pinned to one thread.

    python3 perfbench/run.py --workload train-short --seed 1 --seconds 20 --trace 0

Run from the repository root.  The inputs are generated from --seed in a
child process (perfbench/inputs.py), then the workload loads, trains and
predicts for --seconds seconds and checks every output.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, medians over repeats.
With --trace 1 they are the per-layer ones: span self times and counts
from one traced pass, and the layer grid.  The lines before it give every
metric with its quartiles and the run's metadata; the full result is also
written to .perfbench/results/.
"""

from __future__ import annotations

import os

# pinned before numpy is imported, so every BLAS call runs on one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
INPUTS_TIMEOUT_S = 120


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def metadata(args) -> dict:
    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(), "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def make_inputs(workload: str, seed: int, work_dir: str) -> dict:
    """Generate the workload's files in a child process; returns their paths."""
    import inputs

    cmd = [sys.executable, os.path.join(HERE, "inputs.py"), "--workload", workload,
           "--seed", str(seed), "--out", work_dir]
    subprocess.run(cmd, check=True, timeout=INPUTS_TIMEOUT_S, stdout=subprocess.DEVNULL)
    return inputs.input_paths(workload, work_dir)


def run(args, tally) -> tuple[dict, dict]:
    """Returns (reported metrics, spread of each metric) for one run."""
    import grid
    import workloads

    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    try:
        paths = make_inputs(args.workload, args.seed, work_dir)
        e2e = workloads.measure(args.workload, paths, args.seed, args.seconds, tally)
        if not args.trace:
            return ({name: {"value": e2e[name]["median"], "unit": unit}
                     for name, unit in workloads.END_TO_END_UNITS.items()}, e2e)
        spans_path = os.path.join(OUT, "results", f"{args.workload}.spans.jsonl")
        layers = workloads.measure_traced(args.workload, paths, args.seed,
                                          e2e["train_ex_per_s"]["median"], tally, spans_path)
        layers.update(grid.run_grid(args.seed))
        return ({name: {"value": layers[name], "unit": unit}
                 for name, unit, _ in workloads.per_layer_metrics()}, e2e)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-short", "train-long", "predict-store"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "stancemoe")):
        print(f"error: no stancemoe sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    meta = metadata(args)
    tally = workloads.Tally()
    try:
        reported, spread = run(args, tally)
    except Exception:  # any exception is a failed operation; the run reports no numbers
        traceback.print_exc()
        tally.attempted += 1
        tally.failed += 1
        tally.problems.append("exception")
        reported, spread = {}, {}
    correct = tally.failed == 0
    if not correct:
        reported = {}
        print("correctness gate failed: " + "; ".join(tally.problems), file=sys.stderr)

    for name, m in spread.items():
        print(f"{name:<20} median {m['median']:.6g}  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  "
              f"n {m['n']}  raw median {m['raw_median']:.6g}  "
              f"{workloads.END_TO_END_UNITS.get(name, '')}")
    if args.trace:
        for name, m in reported.items():
            print(f"{name:<45} {m['value']:.6g} {m['unit']}")
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {"correct": correct, "attempted": max(tally.attempted, 1),
              "failed": tally.failed, "metrics": reported}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, "results", name), "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "spread": spread, "problems": tally.problems, **result},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
