"""qfront benchmark: run one workload for a fixed time and print its metrics.

    python3 qfbench/run.py --workload front --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` beside this
directory.  ``--trace 0`` measures the end-to-end metrics (cpu_s, setup_s,
peak_rss_mb); ``--trace 1`` records spans around every call into qfront and
prints the per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Details, spans
and the environment go to ``qfbench/out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "qfbench" / "out"
SETUP_PROBES = 7
SETUP_TIMEOUT_S = 60.0
# The driver is single-threaded; pin the BLAS and OpenMP pools to match.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "eikonal.solve_s": "s",
    "eikonal.us_per_cell_2d": "us",
    "eikonal.us_per_cell_3d": "us",
    "eikonal.cells": "count",
    "eikonal.self_s": "s",
    "localtime.classify_s": "s",
    "localtime.self_s": "s",
    "schrodinger.propagate_s": "s",
    "schrodinger.step_ms_1d": "ms",
    "schrodinger.step_ms_2d": "ms",
    "schrodinger.steps": "count",
    "schrodinger.evaluate_ms": "ms",
    "schrodinger.difference_s": "s",
    "schrodinger.frames": "count",
    "schrodinger.history_mb": "MiB",
    "schrodinger.evaluate_peak_mb": "MiB",
    "schrodinger.self_s": "s",
    "fields.write_us_per_row": "us",
    "fields.read_us_per_row": "us",
    "fields.rows": "count",
    "cli.import_s": "s",
    "cli.eikonal2d_s": "s",
    "cli.eikonal1d_s": "s",
    "cli.propagate_s": "s",
    "cli.propagate_modified_s": "s",
    "cli.dispersion_s": "s",
    "cli.fit_s": "s",
    "cli.compare_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("front", "frames1d", "steps2d", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy shrinks every workload for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print 'ready' and exit")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def cpu_seconds() -> float:
    """CPU time (user + system) of this process and its reaped children.

    Time the hypervisor gives to other guests is not in it, unlike wall
    time, which on a shared host swings with the neighbours' load.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
    }


def build(args, workdir: str):
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    if args.workload == "cli":
        return cls(args.seed, args.size, workdir, child_env())
    return cls(args.seed, args.size)


def setup_times(args) -> list[float]:
    """CPU time of fresh processes that start, import qfront and build the inputs.

    Each probe reports its own CPU time once its inputs are built, so
    interpreter start and imports count and interpreter shutdown does not.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    samples = []
    for _ in range(SETUP_PROBES):
        with subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True) as probe:
            line = probe.stdout.readline().split()
            probe.stdout.read()
            code = probe.wait(timeout=SETUP_TIMEOUT_S)
        if len(line) != 2 or line[0] != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        samples.append(float(line[1]))
    return samples


def measure(workload, args, tracer):
    """Closed loop: one iteration at a time until --seconds would be exceeded.

    Each untraced iteration gives its wall time and its CPU time, the latter
    including the command processes of ``cli``.

    In the traced run, untraced and traced iterations alternate, so the
    tracing overhead is measured under the same conditions.  Peak RSS is
    read after the first iteration: later ones reach the same peak, except
    for what qfront's stepper cache pins per problem solved, which would tie
    the figure to how many iterations fit in the run.
    """
    from tracing import NullTracer

    untraced = NullTracer()
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    walls, cpus, failures = [], [], []
    attempted = failed = 0
    peak_kib = 0
    start = time.perf_counter()
    while True:
        active = tracer if tracer is not None and attempted % 2 == 1 else untraced
        try:
            begin, begin_cpu = time.perf_counter(), cpu_seconds()
            with active.span("iteration"):
                outputs = workload.iteration(active)
            wall, cpu = time.perf_counter() - begin, cpu_seconds() - begin_cpu
            problems = workload.check(outputs)
            del outputs
        except Exception:
            problems = [traceback.format_exc(limit=3)]
            wall = None
        attempted += 1
        if attempted == 1:
            peak_kib = resource.getrusage(who).ru_maxrss
        if problems:
            failed += 1
            failures.extend(problems)
        elif active is untraced:
            walls.append(wall)
            cpus.append(cpu)
        elapsed = time.perf_counter() - start
        enough = attempted >= (2 if tracer is not None else 1)
        if enough and elapsed * (attempted + 1) / attempted > args.seconds:
            break
    return walls, cpus, attempted, failed, failures, peak_kib / 1024.0


def run(args) -> int:
    os.environ.update({v: os.environ.get(v, "1") for v in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = build(args, workdir)
        if args.setup_only:
            print(f"ready {cpu_seconds()!r}", flush=True)
            return 0
        from tracing import Tracer, per_layer_metrics

        tracer = Tracer() if args.trace else None
        walls, cpus, attempted, failed, failures, peak_mib = measure(workload, args, tracer)
        extra = []
        if tracer is not None and hasattr(workload, "finish"):
            extra = workload.finish(tracer)
        if not walls:
            print("error: every untraced iteration failed:\n" + "\n".join(failures[:5]),
                  file=sys.stderr)
            return 1
        if tracer is None:
            setup = setup_times(args)
            values = {"cpu_s": statistics.median(cpus),
                      "setup_s": statistics.median(setup),
                      "peak_rss_mb": peak_mib}
            units = END_TO_END
        else:
            setup = []
            values = per_layer_metrics(tracer.spans, walls)
            units = PER_LAYER
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed)
    failures += extra
    correct = not failures
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "env": env,
        "untraced_iteration_s": walls, "untraced_iteration_cpu_s": cpus,
        "setup_cpu_samples_s": setup,
        "attempted": attempted, "failed": failed, "failures": failures[:20],
        "metrics": values,
        "spans": tracer.as_json() if tracer is not None else [],
    }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env))
    print(f"workload {args.workload}: {attempted} iterations, {failed} failed; "
          f"untraced iteration over n={len(walls)}: CPU (s) median "
          f"{statistics.median(cpus):.4f}, min {min(cpus):.4f}, max {max(cpus):.4f}; "
          f"wall (s) median {statistics.median(walls):.4f}, min {min(walls):.4f}, "
          f"max {max(walls):.4f}")
    if setup:
        print(f"setup_s CPU samples over n={len(setup)}: " + ", ".join(f"{s:.4f}" for s in setup))
    for message in failures[:5]:
        print("check failed: " + message.strip().replace("\n", " | "))
    for name, unit in units.items():
        print(f"{name} = {values[name]!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qfront" / "__init__.py").is_file():
        print(f"error: qfront sources not found at {SRC / 'qfront'}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
