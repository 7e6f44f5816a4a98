"""Command-line front end: configuration files in, CSV tables out.

Subcommands
    bands        band edges, gap table, cached band-structure record
    window       window decomposition record at one energy
    actions      action table over the energy window
    resonances   quantization table (optionally one table per zeta)
    portrait     iso-energy curve samples
    oracle       grid spectrum with stability/localization diagnostics
    verify       solver vs oracle comparison report

Exit codes: 0 success, 1 computation failure, 2 configuration error.
Numbers are written with 17 significant digits and fixed ordering, so
identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .actions import actions_pm, delta_kappa, phase_integral
from .config import RunConfiguration
from .errors import BandresError, ConfigurationError
from .hill import band_edges
from .momentum import isoenergy_portrait
from .verify import Run, render, verify
from .window import decompose_window


def _fmt(x):
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else _fmt(v) for v in row) + "\n")


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _write_record(path, record):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(_json_safe(record), fh, indent=2, sort_keys=True)
        fh.write("\n")


_MAX_SCANS = 4   # the last scan reaches 8 times the first e_max


def _build_bands(cfg, energy=-math.inf):
    """Bands whose gap ceiling (the start of the first incomplete band)
    clears the highest E - W of the energy window, or of a higher `energy`,
    E - min W over the profile's knots; e_max doubles until it does."""
    reach = max(cfg.solver.e_window[1], energy) - min(cfg.profile.pieces[1])
    e_max = max(45.0, reach)
    for _ in range(_MAX_SCANS):
        bands = band_edges(cfg.potential, e_max)
        if bands.gap_ceiling >= reach:
            break
        e_max *= 2.0
    return bands   # still short: decompose_window names the shortfall


def _mid_energy(cfg, args):
    e = args.energy
    if e is not None:
        if not math.isfinite(e):
            raise ConfigurationError("--energy=%g is not finite" % e)
        return float(e)
    lo, hi = cfg.solver.e_window
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------- commands

def cmd_bands(cfg, args, outdir):
    bands = band_edges(cfg.potential, args.e_max)
    if cfg.potential.is_constant:
        print("warning: constant potential, every gap is closed; the "
              "downstream one-well analysis needs an open gap", file=sys.stderr)
    flags = bands.open_gap_flags
    rows = []
    for n in range(1, bands.n_bands + 1):
        lo, hi = bands.band(n)
        if n - 1 < len(flags):
            g_lo, g_hi = bands.gap(n)
            rows.append((n, lo, hi, g_lo, g_hi, g_hi - g_lo, flags[n - 1]))
        else:
            rows.append((n, lo, hi, None, None, None, None))
    _write_csv(os.path.join(outdir, "bands.csv"),
               ("band", "lower_edge", "upper_edge", "gap_lo", "gap_hi",
                "gap_width", "gap_open"), rows)
    _write_record(os.path.join(outdir, "band_structure.json"), bands.to_dict())
    print("%d band(s), %d gap flag(s) written to %s"
          % (bands.n_bands, len(flags), outdir))
    return 0


def cmd_window(cfg, args, outdir):
    energy = _mid_energy(cfg, args)
    win = decompose_window(cfg.profile, _build_bands(cfg, energy), energy)
    _write_record(os.path.join(outdir, "window.json"), win.to_dict())
    print("E=%s: %s with %d component(s)"
          % (_fmt(win.energy), win.classification, len(win.components)))
    return 0


_RESONANCE_FREE = "note: monotone transition window, resonance-free; empty table written"


def cmd_actions(cfg, args, outdir):
    if args.grid_points < 1:
        raise ConfigurationError("--grid-points needs a positive count")
    run = Run(cfg, _build_bands(cfg))
    lo, hi = cfg.solver.e_window
    header = ("E", "Phi0", "delta_kappa", "S_minus", "S_plus")
    if run.window.classification == "H5":
        _write_csv(os.path.join(outdir, "actions.csv"), header, [])
        print(_RESONANCE_FREE)
        return 0
    rows, quad = [], (cfg.solver.nodes, cfg.solver.buffer)
    for e in np.linspace(lo, hi, args.grid_points):
        win = decompose_window(cfg.profile, run.bands, float(e))
        phi0 = phase_integral(win, run.bands, cfg.profile, *quad)
        rows.append((win.energy, phi0, delta_kappa(win),
                     *actions_pm(win, run.bands, cfg.profile, *quad)))
    _write_csv(os.path.join(outdir, "actions.csv"), header, rows)
    print("%d action rows written to %s" % (len(rows), outdir))
    return 0


_RESONANCE_HEADER = ("l", "E", "width", "t_plus", "t_minus", "dE_dzeta",
                     "residual")


def cmd_resonances(cfg, args, outdir):
    run = Run(cfg, _build_bands(cfg))
    if args.sweep_zeta is None:
        table = run.ladder()
        _write_csv(os.path.join(outdir, "resonances.csv"), _RESONANCE_HEADER,
                   [r.to_row() for r in table])
        if run.window.classification == "H5":
            print(_RESONANCE_FREE)
        else:
            print("%d resonance(s) written to %s" % (len(table), outdir))
        return 0

    n = args.sweep_zeta
    if n < 1:
        raise ConfigurationError("--sweep-zeta needs a positive count")
    eps = cfg.solver.epsilon
    index_rows = []
    for i in range(n + 1):
        zeta_i = cfg.solver.zeta + eps * (i / n)   # the last reads zeta + eps exactly
        table = run.ladder(zeta=zeta_i)
        name = "resonances_sweep_%03d.csv" % i
        _write_csv(os.path.join(outdir, name), _RESONANCE_HEADER,
                   [r.to_row() for r in table])
        index_rows.append((i, zeta_i, len(table)))
    _write_csv(os.path.join(outdir, "sweep_index.csv"),
               ("index", "zeta", "count"), index_rows)
    print("%d sweep tables written to %s (zeta step %s)"
          % (n + 1, outdir, _fmt(eps / n)))
    return 0


def cmd_portrait(cfg, args, outdir):
    energy = _mid_energy(cfg, args)
    if args.samples < 2:
        raise ConfigurationError("--samples needs at least 2")
    if args.zeta_range is not None:
        z_lo, z_hi = args.zeta_range
        if not (math.isfinite(z_lo) and math.isfinite(z_hi)):
            raise ConfigurationError("--zeta-range [%g, %g] is not finite" % (z_lo, z_hi))
        if not z_lo < z_hi:
            raise ConfigurationError("--zeta-range [%g, %g] is empty" % (z_lo, z_hi))
    else:
        half = cfg.profile.scan_half_width()
        z_lo, z_hi = -half, half
    bands = _build_bands(cfg, energy)
    samples = isoenergy_portrait(cfg.profile, bands, energy, (z_lo, z_hi),
                                 args.samples)
    by_zeta = {z: branches for z, branches in samples}
    rows = []
    for z in np.linspace(z_lo, z_hi, args.samples):
        branches = by_zeta.get(float(z))
        if branches is None:
            rows.append((z, None, None))      # gap sample
        elif len(branches) == 1:
            rows.append((z, branches[0], branches[0]))
        else:
            rows.append((z, branches[0], branches[1]))
    _write_csv(os.path.join(outdir, "portrait.csv"),
               ("zeta", "kappa_branch_1", "kappa_branch_2"), rows)
    print("%d portrait samples (%d on bands) written to %s"
          % (len(rows), len(samples), outdir))
    return 0


def cmd_oracle(cfg, args, outdir):
    pairs = Run(cfg, _build_bands(cfg)).spectrum()
    rows = [(p.eigenvalue.real, p.eigenvalue.imag, p.stability, p.localization)
            for p in pairs]
    _write_csv(os.path.join(outdir, "oracle.csv"),
               ("re", "im", "stability", "localization"), rows)
    print("%d eigenvalue(s) written to %s" % (len(rows), outdir))
    return 0


def cmd_verify(cfg, args, outdir):
    checks, code = verify(Run(cfg, _build_bands(cfg)))
    text = render(checks)
    sys.stdout.write(text)
    with open(os.path.join(outdir, "verify_report.txt"), "w",
              encoding="utf-8", newline="") as fh:
        fh.write(text)
    return code


# ---------------------------------------------------------------- wiring

_COMMANDS = {
    "bands": cmd_bands,
    "window": cmd_window,
    "actions": cmd_actions,
    "resonances": cmd_resonances,
    "portrait": cmd_portrait,
    "oracle": cmd_oracle,
    "verify": cmd_verify,
}


# solver field -> (flag, argparse keywords)
_OVERRIDES = {
    "epsilon": ("--epsilon", dict(type=float, help="override solver epsilon")),
    "zeta": ("--zeta", dict(type=float, help="override solver zeta")),
    "e_window": ("--window", dict(type=float, nargs=2, metavar=("A", "B"),
                                  help="override the energy window")),
}


def _add_common(sp, overrides):
    """--config, --out and the solver overrides that change this command."""
    sp.add_argument("--config", required=True, metavar="PATH",
                    help="JSON run configuration")
    sp.add_argument("--out", metavar="DIR", default=None,
                    help="output directory (default: configured output_dir)")
    for field in overrides:
        flag, kwargs = _OVERRIDES[field]
        sp.add_argument(flag, dest=field, default=None, **kwargs)


def build_parser():
    p = argparse.ArgumentParser(
        prog="bandres",
        description="Band spectra, spectral-window actions, and resonance "
                    "tables for a periodic operator under a slow profile.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bands", help="band edges and gap table")
    _add_common(sp, ())
    sp.add_argument("--e-max", type=float, default=45.0,
                    help="edge ceiling: every band edge below it is reported")

    sp = sub.add_parser("window", help="window decomposition at one energy")
    _add_common(sp, ("e_window",))
    sp.add_argument("--energy", type=float, default=None,
                    help="energy to decompose (default: window midpoint)")

    sp = sub.add_parser("actions", help="action table over the energy window")
    _add_common(sp, ("e_window",))
    sp.add_argument("--grid-points", type=int, default=25,
                    help="energy grid size for the table")

    sp = sub.add_parser("resonances", help="quantization table")
    _add_common(sp, _OVERRIDES)
    sp.add_argument("--sweep-zeta", type=int, default=None, metavar="N",
                    help="emit N+1 tables stepping zeta by epsilon/N")

    sp = sub.add_parser("portrait", help="iso-energy curve samples")
    _add_common(sp, ("e_window",))
    sp.add_argument("--energy", type=float, default=None,
                    help="energy of the curve (default: window midpoint)")
    sp.add_argument("--samples", type=int, default=801,
                    help="number of zeta samples")
    sp.add_argument("--zeta-range", type=float, nargs=2, metavar=("A", "B"),
                    default=None, help="zeta interval (default: scan width)")

    sp = sub.add_parser("oracle", help="grid spectrum with diagnostics")
    _add_common(sp, ("epsilon", "zeta", "e_window"))

    sp = sub.add_parser("verify", help="solver vs oracle comparison report")
    _add_common(sp, _OVERRIDES)

    return p


def _load_with_overrides(args):
    cfg = RunConfiguration.load(args.config)
    overrides = {field: getattr(args, field) for field in _OVERRIDES
                 if getattr(args, field, None) is not None}
    return cfg.replace_solver(**overrides) if overrides else cfg


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_with_overrides(args)
        outdir = args.out if args.out is not None else cfg.output_dir
        os.makedirs(outdir, exist_ok=True)
        return _COMMANDS[args.command](cfg, args, outdir)
    except ConfigurationError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2
    except BandresError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
