"""Fast self-test of the benchmark: every workload at toy size, both modes.

    python3 qfbench/selftest.py

Checks that each run exits 0 with no failed operation, that its last line
is the result object, and that every metric BENCHMARK.json names is printed
by name with its unit, both in the text lines and in the result.  Also
checks that a copy holding only BENCHMARK.json and this directory fails
without printing a result.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180.0


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(root / HERE.name / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "toy"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    done = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in wanted):
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {name} reported as {got}")
        if not any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines):
            problems.append(f"{where}: no '{name} = <value> {unit}' line")
    return problems


def check_without_sources() -> list[str]:
    """A tree holding only BENCHMARK.json and this directory must fail."""
    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = run(bare, "front", 0)
    if done.returncode == 0 or done.stdout.strip():
        return [f"run without src/ exited {done.returncode} and printed {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (HERE / "out").mkdir(exist_ok=True)
    problems = check_without_sources()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: done", flush=True)
    for problem in problems:
        print("FAIL " + problem)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
