"""Peak memory of the oracle on one config over a list of epsilon values.

    python3 scripts/oracle_memory.py CONFIG EPSILON [EPSILON ...]

For each epsilon, ``bandres oracle --config CONFIG --epsilon EPSILON`` runs
in a fresh interpreter with one BLAS thread, against the ``src/`` of the
checkout that holds this script, from the checkout root, writing into a
temporary directory. One JSON line per epsilon: the grid points N, the
Dirichlet states of the interval solve, the seeds (localized states, each
polished at full and half absorber strength), the pairs written to
``oracle.csv``, the command's exit code and the interpreter's peak
resident set size in MB (``ru_maxrss``, imports included). The counts come
from wrappers around ``oracle._dirichlet_states`` and ``oracle._polish``
that only count; they hold no array.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

CHILD = r"""
import contextlib, csv, io, json, os, resource, sys, tempfile
from bandres import cli, oracle

config, epsilon = sys.argv[1], sys.argv[2]
seen = {"n_points": None, "states": None, "polishes": 0}
states, polish = oracle._dirichlet_states, oracle._polish

def counted_states(d, *args):
    w, v = states(d, *args)
    seen["n_points"], seen["states"] = int(d.size), int(w.size)
    return w, v

def counted_polish(*args):
    seen["polishes"] += 1
    return polish(*args)

oracle._dirichlet_states, oracle._polish = counted_states, counted_polish
with tempfile.TemporaryDirectory() as out:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["oracle", "--config", config, "--epsilon", epsilon,
                         "--out", out])
    path = os.path.join(out, "oracle.csv")
    pairs = None
    if os.path.exists(path):
        with open(path, newline="") as fh:
            pairs = sum(1 for _ in csv.reader(fh)) - 1
print(json.dumps({"epsilon": float(epsilon), "n_points": seen["n_points"],
                  "dirichlet_states": seen["states"],
                  "seeds": seen["polishes"] // 2, "pairs": pairs, "exit": code,
                  "peak_rss_mb": round(resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0, 2)}))
"""


def measure(config, epsilon):
    """The JSON record of one fresh-interpreter oracle run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    proc = subprocess.run([sys.executable, "-c", CHILD, config, str(epsilon)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv):
    if len(argv) < 2:
        print("usage: oracle_memory.py CONFIG EPSILON [EPSILON ...]",
              file=sys.stderr)
        return 2
    config, epsilons = argv[0], [float(e) for e in argv[1:]]
    for epsilon in epsilons:
        print(json.dumps(measure(config, epsilon)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
