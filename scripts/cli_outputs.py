"""Run every bandres command on every shipped config and keep what it wrote.

    python3 scripts/cli_outputs.py OUT

Each command runs in a fresh interpreter against the ``src/`` and
``configs/`` of the checkout that holds this script, from the checkout
root. Under ``OUT/<config>/<command>/`` go the files the command wrote,
its standard output with the output directory written as ``OUT``
(``stdout.txt``) and its exit code (``exit_code.txt``).
Standard error is not kept: warnings there carry source line numbers.

Two trees made from two checkouts are byte-identical exactly when
``diff -r`` between them prints nothing.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
COMMANDS = ("bands", "window", "actions", "resonances", "portrait", "oracle",
            "verify")
ADDED = (("drift_well", "resonances_sweep", ("resonances", "--sweep-zeta", "3")),
         ("bound_well", "window_energy_40", ("window", "--energy", "40")),
         ("bound_well", "portrait_energy_40", ("portrait", "--energy", "40")),
         ("barrier_wall", "oracle_eps_006", ("oracle", "--epsilon", "0.06")),
         ("barrier_wall", "resonances_eps_3e-4",
          ("resonances", "--epsilon", "3e-4")))


def runs():
    """(config name, directory name, argv after the program name)."""
    for path in sorted((ROOT / "configs").glob("*.json")):
        name = path.stem
        for cmd in COMMANDS:
            yield name, cmd, (cmd,)
    yield from ADDED


def main(argv):
    if len(argv) != 1:
        print("usage: cli_outputs.py OUT", file=sys.stderr)
        return 2
    out_root = pathlib.Path(argv[0]).resolve()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name, label, args in runs():
        out = out_root / name / label
        out.mkdir(parents=True, exist_ok=True)
        argv_cmd = [sys.executable, "-m", "bandres.cli", *args,
                    "--config", "configs/%s.json" % name, "--out", str(out)]
        proc = subprocess.run(argv_cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True)
        (out / "stdout.txt").write_text(proc.stdout.replace(str(out), "OUT"))
        (out / "exit_code.txt").write_text("%d\n" % proc.returncode)
        print("%-16s %-17s exit %d" % (name, label, proc.returncode))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
