"""Leading-order quantization: resonance positions, widths, drift slopes.

Positions E^l solve the one-well Bohr-Sommerfeld rule

    Phi_w(E) = -pi*delta_kappa*zeta + eps*(pi/2 + pi*l),   l integer,

where Phi_w is the endpoint-anchored well phase (see actions): it agrees
with Phi0 when both well endpoints sit at kappa0 = 0 edges and is
strictly monotone in E on any H6 window, so each l has at most one
position. The drift term enters with the sign opposite to the fold jump
delta_kappa = (v_hi - v_lo)/pi; equivalently, flipping
(Phi_w, delta_kappa, l) -> (-Phi_w, -delta_kappa, -l-1) puts the rule in
the +pi*delta_kappa*zeta form with the same solution set. The sign here
is fixed against direct grid diagonalization of both well orientations.

Widths attach the tunneling weights, width = eps * c0 * (t+ + t-), under
the reporting convention c0 = 1; the exponential content is the
meaningful part, the prefactor is a convention. Drift in zeta follows
the differentiated rule, dE/dzeta = -pi*delta_kappa / Phi_w'(E), and
labels relabel as l -> l + delta_kappa under zeta -> zeta + eps while
the position set is exactly eps-periodic.

A monotone-transition (H5) window carries no resonances and yields an
empty list; two-sided or empty windows are outside the regime and
rejected.

The levels of a ladder are solved in lockstep. The 9 grid energies are
decomposed and their Phi_w taken in one batch; then every Newton sweep
takes Phi_w at all new iterates in one batch and Phi_w' at all levels
still stepping in another, and the accepted levels get their action data
in one more. The batched integrals are per-row identical to the
single-window ones (see actions), and each level keeps the bracket,
iterate sequence and 1/16 margin it would have if solved alone, so the
results do not depend on which levels share a sweep.
"""

from __future__ import annotations

import math

import numpy as np

from .actions import (_action_data, _well_phase_derivatives, _well_phases,
                      delta_kappa, tunneling_coefficients)
from .errors import (ComputationError, ConfigurationError,
                     UnsupportedConfigurationError)
from .window import decompose_window

_GRID_POINTS = 9
_MAX_NEWTON = 60
_NEWTON_MARGIN = 16.0   # iterate to tol/16, accept at tol: a recheck that
                        # rounds differently still finds the level in bounds


class SolverConfig:
    """Quantization-solve settings; epsilon is the slow-variable scale."""

    def __init__(self, epsilon, zeta, e_window, root_tol=1e-12,
                 nodes=64, buffer=0.1, c0=1.0):
        if not 0.0 < epsilon <= 0.5:
            raise ConfigurationError("epsilon=%g outside (0, 0.5]" % epsilon)
        zeta = float(zeta)
        if not math.isfinite(zeta):
            raise ConfigurationError("zeta=%g is not finite" % zeta)
        lo, hi = (float(v) for v in e_window)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigurationError("energy window [%g, %g] is not finite" % (lo, hi))
        if not lo < hi:
            raise ConfigurationError("empty energy window [%g, %g]" % (lo, hi))
        if not 0.0 < root_tol <= 1e-8:
            raise ConfigurationError("root_tol=%g outside (0, 1e-8]" % root_tol)
        if not 0.0 < buffer < 0.5:
            raise ConfigurationError("buffer=%g outside (0, 0.5)" % buffer)
        if nodes < 8:
            raise ConfigurationError("nodes=%d too few (need >= 8)" % nodes)
        self.epsilon = float(epsilon)
        self.zeta = zeta
        self.e_window = (lo, hi)
        self.root_tol = float(root_tol)
        self.nodes = int(nodes)
        self.buffer = float(buffer)
        self.c0 = float(c0)

    def to_dict(self):
        return {"epsilon": self.epsilon, "zeta": self.zeta,
                "e_window": list(self.e_window), "root_tol": self.root_tol,
                "nodes": self.nodes, "buffer": self.buffer, "c0": self.c0}


class ResonanceEstimate:
    """One solved resonance: position, width, and drift bookkeeping."""

    def __init__(self, l, e_real, width, t_plus, t_minus, dE_dzeta, residual,
                 s_minus=math.inf, s_plus=math.inf, phase=0.0,
                 phase_prime=0.0, underflowed=False):
        self.l = int(l)
        self.e_real = float(e_real)
        self.width = float(width)
        self.t_plus = float(t_plus)
        self.t_minus = float(t_minus)
        self.dE_dzeta = float(dE_dzeta)
        self.residual = float(residual)
        self.s_minus = float(s_minus)
        self.s_plus = float(s_plus)
        self.phase = float(phase)
        self.phase_prime = float(phase_prime)
        self.underflowed = bool(underflowed)

    def __repr__(self):
        return ("ResonanceEstimate(l=%d, E=%.12g, width=%.6g, dE_dzeta=%.6g, "
                "residual=%.2g)" % (self.l, self.e_real, self.width,
                                    self.dE_dzeta, self.residual))

    def to_row(self):
        return (self.l, self.e_real, self.width, self.t_plus, self.t_minus,
                self.dE_dzeta, self.residual)


def width_estimate(actions, epsilon, c0=1.0):
    """Width eps*c0*(t+ + t-) of a positioned resonance; 0 for bound states."""
    t = tunneling_coefficients(actions, epsilon)
    return epsilon * c0 * t.t


def drift_slope(actions):
    """dE^l/dzeta = -pi*delta_kappa / Phi_w'; exactly 0 when delta_kappa = 0."""
    if actions.delta_kappa == 0:
        return 0.0
    return -math.pi * actions.delta_kappa / actions.well_prime


class _Level:
    """Newton state of one quantization level: its bracket [a, b] with
    the residuals fa, fb there, the iterate e, and fe = Phi_w(e) - target
    once e is evaluated."""

    def __init__(self, l, target, tol, a, fa, b, fb):
        self.l, self.target, self.tol = l, target, tol
        self.a, self.fa, self.b, self.fb = a, fa, b, fb
        self.e = a + (b - a) * fa / (fa - fb) if fa != fb else 0.5 * (a + b)
        self.fe = math.inf
        self.error = None

    def step(self, dphi):
        """Narrow the bracket by fe and move to the next iterate, given
        Phi_w' at e."""
        if (self.fe < 0.0) == (self.fa < 0.0):
            self.a, self.fa = self.e, self.fe
        else:
            self.b, self.fb = self.e, self.fe
        cand = self.e - self.fe / dphi if dphi != 0.0 else 0.5 * (self.a + self.b)
        if not min(self.a, self.b) < cand < max(self.a, self.b):
            cand = 0.5 * (self.a + self.b)
        self.e = cand


def locate_resonances(cfg, window, bands, profile):
    """Solve the quantization rule over cfg.e_window.

    Returns one estimate per integer l whose solved position lies in the
    window, ordered by l. The decomposition is recomputed at every probed
    energy; if it leaves the one-well regime, or the well's edge
    bookkeeping changes, inside the window, the configuration is rejected
    (the window exceeded its validity neighborhood).

    All levels are solved in lockstep (see the module docstring); the
    first failure in order of l is the one raised, after the action data
    of every accepted level below it.
    """
    if window.classification == "H5":
        return []
    if window.classification != "H6":
        raise UnsupportedConfigurationError(
            "resonance location needs H6 (or H5 for the empty statement), "
            "got %s" % window.classification)

    e_lo, e_hi = cfg.e_window
    quad = (cfg.nodes, cfg.buffer)
    cache = {}      # energy -> (window, Phi_w) or the error analysing it
    ref_edges = (window.compact.lo_endpoint.edge_index,
                 window.compact.hi_endpoint.edge_index,
                 window.compact.band_index)

    def checked_window(e):
        w = decompose_window(profile, bands, e)
        if w.classification != "H6":
            raise UnsupportedConfigurationError(
                "window leaves the one-well regime at E=%.12g (%s)"
                % (e, w.classification))
        got = (w.compact.lo_endpoint.edge_index,
               w.compact.hi_endpoint.edge_index, w.compact.band_index)
        if got != ref_edges:
            raise UnsupportedConfigurationError(
                "well bookkeeping changes inside the energy window at "
                "E=%.12g; shrink the window" % e)
        return w

    def analyze(energies):
        """Fill the cache for every new energy; Phi_w in one batch."""
        fresh = []
        for e in dict.fromkeys(energies):
            if e not in cache:
                try:
                    cache[e] = checked_window(e)
                    fresh.append(e)
                except ComputationError as exc:
                    cache[e] = exc
        if fresh:
            windows = [cache[e] for e in fresh]
            for e, w, phi in zip(fresh, windows,
                                 _well_phases(windows, bands, profile, *quad)):
                cache[e] = (w, phi)

    def analyzed(energies):
        """(window, Phi_w) at each energy; raises the first failure."""
        analyze(energies)
        for e in energies:
            if isinstance(cache[e], ComputationError):
                raise cache[e]
        return [cache[e] for e in energies]

    grid = [float(e) for e in np.linspace(e_lo, e_hi, _GRID_POINTS)]
    at_grid = analyzed(grid)
    phis = np.array([phi for _, phi in at_grid])
    diffs = np.diff(phis)
    if not (np.all(diffs > 0.0) or np.all(diffs < 0.0)):
        raise UnsupportedConfigurationError(
            "well phase not monotone over the energy window")

    dk = delta_kappa(at_grid[0][0])
    lo_val, hi_val = float(min(phis[0], phis[-1])), float(max(phis[0], phis[-1]))
    base = -math.pi * dk * cfg.zeta + cfg.epsilon * math.pi / 2.0
    step = cfg.epsilon * math.pi
    l_lo = math.ceil((lo_val - base) / step - 1e-9)
    l_hi = math.floor((hi_val - base) / step + 1e-9)

    levels = []
    increasing = diffs[0] > 0
    for l in range(l_lo, l_hi + 1):
        target = base + step * l
        pos = np.searchsorted(phis if increasing else -phis,
                              target if increasing else -target)
        i = min(max(pos, 1), len(grid) - 1)
        fa, fb = phis[i - 1] - target, phis[i] - target
        if fa * fb > 0.0:
            continue   # target marginally outside the sampled range
        levels.append(_Level(l, target, cfg.root_tol * (1.0 + abs(target)),
                             grid[i - 1], fa, grid[i], fb))

    live = levels
    for _ in range(_MAX_NEWTON):
        if not live:
            break
        analyze([lv.e for lv in live])
        stepping = []
        for lv in live:
            if isinstance(cache[lv.e], ComputationError):
                lv.error = cache[lv.e]
                continue
            lv.fe = cache[lv.e][1] - lv.target
            if abs(lv.fe) > lv.tol / _NEWTON_MARGIN:
                stepping.append(lv)
        if stepping:
            windows = [cache[lv.e][0] for lv in stepping]
            for lv, d in zip(stepping, _well_phase_derivatives(
                    windows, bands, profile, *quad)):
                lv.step(d)
        live = stepping

    accepted, failure = [], None
    for lv in levels:
        failure = lv.error
        if failure is None and abs(lv.fe) > lv.tol:
            failure = ComputationError(
                "quantization root for l=%d did not converge (residual %g)"
                % (lv.l, abs(lv.fe)))
        if failure is not None:
            break
        if e_lo <= lv.e <= e_hi:
            accepted.append(lv)
    out = []
    if accepted:
        at_levels = analyzed([lv.e for lv in accepted])
        data_list = _action_data([w for w, _ in at_levels], bands, profile,
                                 *quad)
        for lv, (_, phi_e), data in zip(accepted, at_levels, data_list):
            t = tunneling_coefficients(data, cfg.epsilon)
            out.append(ResonanceEstimate(
                lv.l, lv.e, width_estimate(data, cfg.epsilon, cfg.c0),
                t.t_plus, t.t_minus, drift_slope(data), abs(lv.fe),
                s_minus=data.s_minus, s_plus=data.s_plus, phase=phi_e,
                phase_prime=data.well_prime, underflowed=t.underflowed))
    if failure is not None:
        raise failure
    return out
