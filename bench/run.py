"""avfusion benchmark: one closed-loop client driving ``avfusion.cli.main``.

Usage, from the repository root::

    python3 bench/run.py --workload train-cv-hgrjca-gradcheck --seed 1 --seconds 40 --trace 0

The run sets the workload up several times (``setup_s`` is the median),
runs one untimed warm-up operation, then issues one command at a time for
``--seconds`` seconds, checking every output.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced iterations and reports the per-layer metrics of :mod:`tracing`.  The last line of standard output
is the result as one JSON object; the details, with the machine, go to
``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

# (name, unit, better) of every metric an untraced run prints
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description="avfusion benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine(seed: int, threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    return {
        "nproc": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_env": {
            k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ
        },
        "platform": platform.platform(),
        "workload_seed": seed,
    }


def _rate(it):
    # a failed operation completes no work
    return 0.0 if it.failures else it.work / it.seconds


def main(argv=None) -> int:
    if not (SRC / "avfusion" / "cli.py").is_file():
        print(f"bench: no avfusion sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import tracing
    from workloads import WORKLOADS, Client, cold_start

    args = parse_args(argv, WORKLOADS)
    workload = WORKLOADS[args.workload]
    threads = len(os.sched_getaffinity(0))
    work_root = BENCH / "work" / f"{workload.name}-seed{args.seed}"
    out_dir = BENCH / "out"
    shutil.rmtree(work_root, ignore_errors=True)
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        setup_times = []
        client = None
        for rep in range(1 if args.trace else SETUP_REPEATS):
            if client is not None:
                shutil.rmtree(client.directory)
            client = Client(work_root / f"setup{rep}", threads)
            start = time.perf_counter()
            client.write_configs(workload.configs(args.seed))
            cold_start(SRC, client.directory)
            workload.setup(client)
            setup_times.append(time.perf_counter() - start)

        # the first operation in a process runs slower than the rest: warm up before timing
        warmup = workload.iterate(client)
        recorder = tracing.SpanRecorder() if args.trace else None
        plain, traced, rounds = [], [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            start = time.perf_counter()
            plain.append(workload.iterate(client))
            if recorder is not None:
                with tracing.Tracer(recorder):
                    client.recorder = recorder
                    try:
                        traced.append(workload.iterate(client))
                    finally:
                        client.recorder = None
            rounds.append(time.perf_counter() - start)
            # start another round only if at least half of it fits before the deadline
            if time.perf_counter() + statistics.median(rounds) / 2 > deadline:
                break
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    iterations = [warmup] + plain + traced
    failed = sum(1 for it in iterations if it.failures)
    traced_ids = {id(it) for it in traced}
    if recorder is None:
        values = {
            "setup_s": statistics.median(setup_times),
            "work_per_s": statistics.median(_rate(it) for it in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {name: unit for name, unit, _ in END_TO_END}
    else:
        values = tracing.layer_metrics(recorder, len(traced))
        untraced_rate = statistics.median(_rate(it) for it in plain)
        traced_rate = statistics.median(_rate(it) for it in traced)
        values["trace.overhead_per_s"] = untraced_rate - traced_rate
        values["trace.overhead_share"] = 1.0 - traced_rate / untraced_rate
        for command in tracing.COMMANDS:
            walls = [it.commands[command] for it in plain if command in it.commands]
            values[f"cli.{command}.wall_s"] = statistics.median(walls) if walls else 0.0
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        tracing.write_spans(out_dir / f"trace-{workload.name}-seed{args.seed}.jsonl.gz", recorder.export())
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(args.seed, threads),
        "setup_s": setup_times,
        "iterations": [
            {
                "warmup": it is warmup,
                "traced": id(it) in traced_ids,
                "commands": it.commands,
                "seconds": it.seconds,
                "work": it.work,
                "failures": it.failures,
                "scores": it.scores,
            }
            for it in iterations
        ],
        "metrics": metrics,
    }
    (out_dir / f"result-{tag}.json").write_text(json.dumps(details, indent=2) + "\n")
    for it in iterations:
        for failure in it.failures:
            print(f"bench: FAILED {' + '.join(it.commands)}: {failure}")
    print(f"bench: machine {json.dumps(details['machine'], sort_keys=True)}")
    print(f"bench: {len(iterations)} iterations, details in {out_dir / f'result-{tag}.json'}")
    result = {"correct": failed == 0, "attempted": len(iterations), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
