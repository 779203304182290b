"""run_measured: one qfront command line, or one script, in a fresh interpreter,
with the command's own peak RSS and CPU time and which of WATCHED it loaded.
Standard library only, so that a harness can load it by path."""
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parents[1] / "src"
WATCHED = ("numpy", "scipy.sparse", "scipy.linalg")

# The command's interpreter imports the modules in its second argument, runs
# the script or module that follows, and then, whatever its exit, writes
# "peak_KiB cpu_s module..." to the file descriptor in its first argument.
COMMAND = f"""import os, runpy, sys
report, imports, target, *args = sys.argv[1:]
sys.argv = [target, *args]
try:
    for name in imports.split():
        __import__(name)
    if target.endswith(".py"):
        runpy.run_path(target, run_name="__main__")
    else:
        runpy.run_module(target, run_name="__main__", alter_sys=True)
finally:
    import resource
    use = resource.getrusage(resource.RUSAGE_SELF)
    loaded = [name for name in {WATCHED!r} if name in sys.modules]
    os.write(int(report), " ".join(map(str, [use.ru_maxrss, use.ru_utime + use.ru_stime,
                                             *loaded])).encode())
"""
# A process starts from the peak RSS of the one it was forked from, so the
# command's interpreter is spawned by one that imports nothing, never by the
# caller: `python -c pass` then reads about 13 MiB, whatever the caller holds.
SPAWN = ("import os, sys; pid = os.posix_spawn(sys.executable, sys.argv[1:], os.environ); "
         "sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))")


def environ() -> dict[str, str]:
    """os.environ with this tree's src/ first on PYTHONPATH."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


class Measured(NamedTuple):
    code: int
    peak_mib: float
    cpu_s: float
    loaded: frozenset[str]
    stderr: str


def run_measured(argv: list[str], cwd=None, imports: tuple[str, ...] = ()) -> Measured:
    """Run `qfront *argv`, or `python *argv` when argv[0] is a .py script, as
    `python -W error` in cwd with src/ on PYTHONPATH, after importing
    imports; stdout is discarded."""
    target, args = (argv[0], argv[1:]) if argv[0].endswith(".py") else ("qfront.cli", argv)
    read, write = os.pipe()
    with os.fdopen(read) as report:
        try:
            run = subprocess.run(
                [sys.executable, "-S", "-c", SPAWN, sys.executable, "-W", "error", "-c", COMMAND,
                 str(write), " ".join(imports), target, *args],
                cwd=cwd, env=environ(), pass_fds=(write,), stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=600)
        finally:
            os.close(write)
        fields = report.read().split()
    if not fields:
        raise RuntimeError(f"qfront {argv}: no report, exit {run.returncode}:\n{run.stderr}")
    peak_kib, cpu_s, *loaded = fields
    return Measured(run.returncode, int(peak_kib) / 1024, float(cpu_s), frozenset(loaded),
                    run.stderr)
