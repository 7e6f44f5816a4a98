"""Time every bandres command on every shipped config, one fresh interpreter
per run, and report its wall time and peak memory.

    python3 scripts/cli_costs.py [--repeats 5]
    python3 scripts/cli_costs.py [--repeats 5] --run CONFIG COMMAND [ARGS...]

``--run`` measures one command line, ``bandres COMMAND ARGS...`` on
``configs/CONFIG.json``, instead of every command on every config.
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


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeats", type=int, default=5,
                   help="fresh interpreters per command and config")
    p.add_argument("--run", nargs=argparse.REMAINDER,
                   metavar="CONFIG COMMAND [ARGS...]",
                   help="measure this one command line only (last option)")
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats needs a positive count")
    if args.run is not None:
        if len(args.run) < 2:
            p.error("--run needs a config name and a command")
        if not (ROOT / "configs" / ("%s.json" % args.run[0])).is_file():
            p.error("--run: no configs/%s.json" % args.run[0])
    return args


def jobs(args):
    """(config name, argv after the program name) of every command line to
    measure."""
    if args.run is not None:
        return [(args.run[0], tuple(args.run[1:]))]
    return [(path.stem, (cmd,))
            for path in sorted((ROOT / "configs").glob("*.json"))
            for cmd in COMMANDS]


def main(argv):
    args = parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    with tempfile.TemporaryDirectory() as scratch:
        for index, (config, cmd_args) in enumerate(jobs(args)):
            argv_cmd = [sys.executable, "-m", "bandres.cli", *cmd_args,
                        "--config", "configs/%s.json" % config,
                        "--out", os.path.join(scratch, str(index))]
            runs = [run_once(argv_cmd, env) for _ in range(args.repeats)]
            codes = sorted({code for code, _, _ in runs})
            print(json.dumps({
                "config": config, "command": " ".join(cmd_args),
                "exit_code": codes[0] if len(codes) == 1 else codes,
                "wall_s": round(statistics.median(r[1] for r in runs), 4),
                "peak_rss_mb": round(statistics.median(r[2] for r in runs), 2),
                "repeats": args.repeats}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
