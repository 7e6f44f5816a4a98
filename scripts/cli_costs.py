"""Time every bandres command on every shipped config, one fresh interpreter
per run, and report its wall time and peak memory.

    python3 scripts/cli_costs.py [--repeats 5]

Each command runs ``--repeats`` times in a fresh interpreter with one BLAS
thread, against the ``src/`` and ``configs/`` of the checkout that holds
this script, from the checkout root, writing into a temporary directory.
One JSON line per (config, command) gives the exit code, the median wall
time of the runs in seconds and the median peak resident set size in MB
(the child's ``ru_maxrss`` from ``os.wait4``), so the whole process is
counted: interpreter start, imports, numerics and output.

Run it on two checkouts on the same machine to compare them command by
command.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
COMMANDS = ("bands", "window", "actions", "resonances", "portrait", "oracle",
            "verify")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def run_once(argv, env):
    """(exit code, wall seconds, peak RSS in MB) of one child process."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped here, not by Popen
    return proc.returncode, wall, usage.ru_maxrss / 1024.0   # KiB on Linux


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeats", type=int, default=5,
                   help="fresh interpreters per command and config")
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats needs a positive count")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    with tempfile.TemporaryDirectory() as scratch:
        for path in sorted((ROOT / "configs").glob("*.json")):
            for cmd in COMMANDS:
                argv_cmd = [sys.executable, "-m", "bandres.cli", cmd,
                            "--config", "configs/%s" % path.name,
                            "--out", os.path.join(scratch, path.stem, cmd)]
                runs = [run_once(argv_cmd, env) for _ in range(args.repeats)]
                codes = sorted({code for code, _, _ in runs})
                print(json.dumps({
                    "config": path.stem, "command": cmd,
                    "exit_code": codes[0] if len(codes) == 1 else codes,
                    "wall_s": round(statistics.median(r[1] for r in runs), 4),
                    "peak_rss_mb": round(statistics.median(r[2] for r in runs), 2),
                    "repeats": args.repeats}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
