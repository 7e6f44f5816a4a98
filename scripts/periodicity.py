"""Count the levels whose positions at zeta and at zeta + eps*3/3 differ.

    python3 scripts/periodicity.py [--draws 40] [--seed 0]

The position set of a ladder is exactly eps-periodic in zeta, with labels
moving by delta_kappa, but ``bandres resonances --sweep-zeta 3`` solves its
last ladder at zeta + eps*3/3, which may differ from zeta + eps by rounding
(0.1*3/3 is 0.10000000000000002), so the two ladders solve slightly
different targets. For every shipped config whose window is H6, ``--draws``
seeded (epsilon, zeta) pairs, epsilon uniform in [0.05, 0.15] and zeta
uniform in [0, epsilon), are solved in-process against the ``src/`` of the
checkout that holds this script, on the bands ``bandres resonances``
builds; each ladder is solved again at zeta + epsilon*3/3 and its level
l + delta_kappa compared with level l. One JSON line: per config the
draws, the levels compared, the levels whose positions differ and how
many of those lie 1, 2, ... units in the last place apart.
"""

from __future__ import annotations

import argparse
import collections
import json
import pathlib
import random
import struct
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
EPSILON_RANGE = (0.05, 0.15)
SWEEP = 3


def ulps_apart(a, b):
    """The number of doubles from a to b (the distance of their ordered
    bit patterns)."""
    def ordered(x):
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)
    return abs(ordered(a) - ordered(b))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--draws", type=int, default=40,
                   help="seeded (epsilon, zeta) pairs per config")
    p.add_argument("--seed", type=int, default=0, help="seed of the draws")
    args = p.parse_args(argv)
    if args.draws < 1:
        p.error("--draws needs a positive count")
    return args


def config_counts(cfg, bands, draws, rng):
    """Levels compared, levels moved, and moved levels by ulps apart."""
    from bandres import delta_kappa, verify
    run = verify.Run(cfg, bands)
    dk = delta_kappa(run.window)
    compared, hist = 0, collections.Counter()
    for _ in range(draws):
        eps = rng.uniform(*EPSILON_RANGE)
        zeta = rng.uniform(0.0, eps)
        shifted = {r.l: r.e_real
                   for r in run.ladder(eps, zeta + eps * SWEEP / SWEEP)}
        for r in run.ladder(eps, zeta):
            if r.l + dk in shifted:
                compared += 1
                apart = ulps_apart(r.e_real, shifted[r.l + dk])
                if apart:
                    hist[apart] += 1
    return {"draws": draws, "levels": compared, "moved": sum(hist.values()),
            "ulps": {str(k): hist[k] for k in sorted(hist)}}


def main(argv):
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from bandres import cli, decompose_window, load_configuration
    rng = random.Random(args.seed)
    out = {"seed": args.seed, "sweep": SWEEP}
    for path in sorted((ROOT / "configs").glob("*.json")):
        cfg = load_configuration(path)
        bands = cli._build_bands(cfg)
        lo, hi = cfg.solver.e_window
        if decompose_window(cfg.profile, bands,
                            0.5 * (lo + hi)).classification == "H6":
            out[path.stem] = config_counts(cfg, bands, args.draws, rng)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
