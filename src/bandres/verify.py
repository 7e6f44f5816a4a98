"""Solver-versus-oracle checks on one memoised run.

A Run solves each distinct (epsilon, zeta) ladder and oracle spectrum of a
configuration once. The count/spacing, drift and width-fit checks read
from it and return Check(name, status, detail) records, status True,
False or None for SKIP; render() writes the text report.
"""

from __future__ import annotations

import collections
import functools
import math

import numpy as np

from .actions import delta_kappa
from .errors import BandresError, ConfigurationError
from .oracle import (LOCALIZED, OracleConfig, build_grid_hamiltonian,
                     oracle_spectrum)
from .solver import locate_resonances
from .window import decompose_window

EPSILON_LADDER = (0.12, 0.10, 0.08, 0.06)   # width-fit epsilons
_RESONANT_LOCALIZED = 0.75
_STABLE_FRACTION = 0.1    # absorber displacement below this fraction of the width

Check = collections.namedtuple("Check", "name status detail")


class Run:
    """Ladders and oracle spectra of one configuration, memoised by the
    exact (epsilon, zeta) pair, which defaults to the configured values;
    the box absorbs when the mid-window decomposition is open.
    Only result lists are kept: no grid Hamiltonian or eigenvector."""

    def __init__(self, cfg, bands):
        self.cfg = cfg
        self.bands = bands
        lo, hi = cfg.solver.e_window
        self.energy = 0.5 * (lo + hi)
        self._ladders = {}
        self._spectra = {}

    @functools.cached_property
    def window(self):
        """Mid-window decomposition (free of epsilon and zeta), on first use."""
        return decompose_window(self.cfg.profile, self.bands, self.energy)

    def _key(self, epsilon, zeta):
        sol = self.cfg.solver
        return (sol.epsilon if epsilon is None else float(epsilon),
                sol.zeta if zeta is None else float(zeta))

    def ladder(self, epsilon=None, zeta=None):
        """ResonanceEstimate list at (epsilon, zeta), ordered by l."""
        key = self._key(epsilon, zeta)
        if key not in self._ladders:
            sol = self.cfg.replace_solver(epsilon=key[0], zeta=key[1]).solver
            self._ladders[key] = locate_resonances(sol, self.window, self.bands,
                                                   self.cfg.profile)
        return self._ladders[key]

    def spectrum(self, epsilon=None, zeta=None, e_window=None):
        """OracleEigenpair list at (epsilon, zeta) with Re(E) in e_window,
        by default the configured one."""
        window = tuple(self.cfg.solver.e_window if e_window is None else e_window)
        key = self._key(epsilon, zeta) + (window,)
        if key not in self._spectra:
            cfg = self.cfg
            ham = build_grid_hamiltonian(
                cfg.potential, cfg.profile, key[1], key[0],
                OracleConfig.for_window(self.window, key[0]),
                window=self.window)
            self._spectra[key] = oracle_spectrum(ham, window)
        return self._spectra[key]


def _genuine_resonances(pairs):
    out = []
    for p in pairs:
        width = -2.0 * p.eigenvalue.imag
        if p.localization <= _RESONANT_LOCALIZED or width <= 0.0:
            continue
        if p.stability < _STABLE_FRACTION * width:
            out.append(p)
    return out


def _match_offset(solver_e, oracle_e):
    """Index shift aligning the two sorted position lists."""
    best, best_cost = 0, math.inf
    for shift in range(-len(oracle_e), len(oracle_e) + 1):
        cost, hits = 0.0, 0
        for i, e in enumerate(solver_e):
            j = i + shift
            if 0 <= j < len(oracle_e):
                cost += abs(e - oracle_e[j])
                hits += 1
        if hits:
            cost /= hits
            if cost < best_cost:
                best, best_cost = shift, cost
    return best


def check_counts_spacings(run):
    """Level count within 1 of the oracle's, and spacings within 10%."""
    table = run.ladder()
    pairs = run.spectrum()
    states = (_genuine_resonances(pairs) if run.window.is_open
              else [p for p in pairs if p.localization > LOCALIZED])
    if run.window.classification == "H5":
        return [Check("resonance-free", not table and not states,
                      "solver %d, oracle %d stable narrow eigenvalue(s)"
                      % (len(table), len(states)))]

    n_s, n_o = len(table), len(states)
    checks = [Check("count", abs(n_s - n_o) <= 1,
                    "solver %d vs oracle %d (|diff| <= 1)" % (n_s, n_o))]
    if min(n_s, n_o) < 3:
        return checks + [Check("spacing", None,
                               "skipped: fewer than 3 states on a side (%d vs %d)"
                               % (n_s, n_o))]
    solver_e = [r.e_real for r in table]
    oracle_e = sorted(p.eigenvalue.real for p in states)
    shift = _match_offset(solver_e, oracle_e)
    s_gaps, o_gaps = np.diff(solver_e), np.diff(oracle_e)
    devs = [float(abs(s_gaps[i] - o_gaps[i + shift]) / o_gaps[i + shift])
            for i in range(len(s_gaps)) if 0 <= i + shift < len(o_gaps)]
    if not devs:
        return checks + [Check("spacing", False, "no overlapping spacings to compare")]
    worst = max(devs)
    return checks + [Check("spacing", worst <= 0.10,
                           "max relative deviation %.2f%% (<= 10%%, shift %d)"
                           % (100.0 * worst, shift))]


def check_drift(run):
    """Frozen positions when delta_kappa = 0, else dE/dzeta within 1%."""
    table = run.ladder()
    if run.window.classification != "H6" or not table:
        return [Check("drift", None, "skipped: no solver table")]
    eps, zeta = run.cfg.solver.epsilon, run.cfg.solver.zeta
    if delta_kappa(run.window) == 0:
        moved = 0.0
        for frac in (1.0 / 3.0, 2.0 / 3.0):
            by_l = {r.l: r.e_real for r in run.ladder(zeta=zeta + frac * eps)}
            for r in table:
                if r.l in by_l:
                    moved = max(moved, abs(by_l[r.l] - r.e_real))
        return [Check("drift", moved < 1e-10,
                      "delta_kappa = 0: max position shift %.2e (< 1e-10)" % moved)]

    h = eps / 100.0
    lo_by, hi_by = ({r.l: r.e_real for r in run.ladder(zeta=zeta + d)}
                    for d in (-h, h))
    devs = []
    for r in table:
        if r.l in lo_by and r.l in hi_by:
            fd = (hi_by[r.l] - lo_by[r.l]) / (2.0 * h)
            devs.append(abs(fd - r.dE_dzeta) / abs(r.dE_dzeta))
    if not devs:
        return [Check("drift", False, "no level tracked across the zeta step")]
    worst = max(devs)
    return [Check("drift", worst <= 0.01,
                  "max relative deviation %.3f%% (<= 1%%) over %d level(s)"
                  % (100.0 * worst, len(devs)))]


def check_width_fit(run):
    """ln(width) against 1/eps has slope -min(S-, S+) within 15%. At each
    eps the oracle solves only within h of the level nearest mid-window, h
    half its distance to the nearest other level, and reads the genuine
    eigenvalue nearest it there."""
    if not run.window.is_open:
        return [Check("width-fit", None,
                      "skipped: sealed window, bound states have no width")]
    if run.window.classification != "H6":
        return [Check("width-fit", None, "skipped: %s window has no tracked level"
                      % run.window.classification)]
    inv_eps, ln_w, s_refs = [], [], []
    lo, hi = run.cfg.solver.e_window
    for eps in EPSILON_LADDER:
        table = run.ladder(epsilon=eps)
        if not table:
            return [Check("width-fit", False, "no solver level at epsilon=%g" % eps)]
        tracked = min(table, key=lambda r: abs(r.e_real - run.energy))
        h = 0.5 * min((abs(r.e_real - tracked.e_real) for r in table if r is not tracked),
                      default=math.inf)
        near = (max(lo, tracked.e_real - h), min(hi, tracked.e_real + h))
        genuine = [p for p in _genuine_resonances(run.spectrum(epsilon=eps, e_window=near))
                   if abs(p.eigenvalue.real - tracked.e_real) <= h]
        if not genuine:
            return [Check("width-fit", False,
                          "no stable narrow eigenvalue at epsilon=%g" % eps)]
        hit = min(genuine, key=lambda p: abs(p.eigenvalue.real - tracked.e_real))
        inv_eps.append(1.0 / eps)
        ln_w.append(math.log(-2.0 * hit.eigenvalue.imag))
        s_refs.append(min(tracked.s_minus, tracked.s_plus))
    slope = float(np.polyfit(inv_eps, ln_w, 1)[0])
    s_ref = float(np.mean(s_refs))
    dev = abs(slope + s_ref) / s_ref
    return [Check("width-fit", dev <= 0.15,
                  "slope %.5f vs -min(S-,S+) = %.5f: deviation %.1f%% (<= 15%%)"
                  % (slope, -s_ref, 100.0 * dev))]


def verify(run):
    """(checks in report order, exit code 0 if none fails). A BandresError
    ends them with an 'aborted' failure: code 2 if a ConfigurationError, else 1."""
    checks = []
    try:
        checks += check_counts_spacings(run)
        checks += check_drift(run)
        checks += check_width_fit(run)
    except BandresError as exc:
        checks.append(Check("aborted", False, str(exc)))
        return checks, 2 if isinstance(exc, ConfigurationError) else 1
    return checks, 0 if _passed(checks) else 1


def _passed(checks):
    return all(c.status is not False for c in checks)


def render(checks):
    """The text report: one line per check, then the overall verdict."""
    out = ["verify report"]
    for c in checks:
        tag = "SKIP" if c.status is None else ("PASS" if c.status else "FAIL")
        out.append("  %-15s %-4s  %s" % (c.name, tag, c.detail))
    out.append("overall %s" % ("PASS" if _passed(checks) else "FAIL"))
    return "\n".join(out) + "\n"
