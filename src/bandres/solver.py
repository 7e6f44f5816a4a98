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
labels relabel as l -> l + delta_kappa under zeta -> zeta + eps, with
positions equal to the last ulp or two, as scripts/periodicity.py counts.

A monotone-transition (H5) window carries no resonances and yields an
empty list; two-sided or empty windows are outside the regime and
rejected.

The levels of a ladder are solved in lockstep. The 25 grid energies, the
Chebyshev-Lobatto points of the window with its ends exact, are
decomposed in one call (the first failure in grid order is raised) and
their Phi_w taken in one batch; its Chebyshev interpolant follows from
them (Phi_w is analytic on an H6 window, so the interpolant converges
geometrically: Trefethen, Approximation Theory and Approximation
Practice, ch. 8). None of these depends on (eps, zeta), so the grid
windows, phases and interpolant coefficients are kept for the life of
the band structure, per (profile, window, rule), and every later ladder
there reuses them; the regime checks against the caller's window still
run on every call, and a grid that fails them is never kept. Each level
is bracketed between two grid energies and starts at the root of the
interpolant there: _START_STEPS bracketed Newton steps on the
interpolant from the regula-falsi point, so that where the interpolant
is that close its first direct evaluation already meets the Newton
tolerance. The levels run in chunks of _CHUNK consecutive levels, each
taken from bracket to estimate before the next is built: its starts,
then its Newton sweeps, each of which decomposes the iterates of its
live levels, each failure landing on its own level, and takes Phi0,
Phi_w and Phi_w' at them in one batch, one pass over the discriminant
table. Each level keeps its window and that row; the last sweep of the
budget takes no Newton step, so a level is judged, and its estimate
built, at the last iterate it evaluated. The chunk's accepted levels add
only their barrier actions, one batched integrand call, to their rows
and the grid's delta_kappa. A finished chunk leaves only its estimates,
so a deep ladder holds one chunk's levels and windows beside about
0.4 KB per estimate. Batched decompositions and integrals are
per-entry identical to the single-energy ones (see window and actions),
and each level keeps the bracket, start, iterate sequence and 1/16
margin it would have if solved alone, so the results do not depend on
which levels share a sweep or a chunk, nor on whether the grid was
reused. Positions depend on the start rule only within the Newton
acceptance (tol/16 in Phi_w), not bit for bit.
"""

from __future__ import annotations

import itertools
import math
import weakref

import numpy as np

from .actions import (_barrier_actions, _well_integrals,
                      delta_kappa, tunneling_coefficients)
from .errors import (ComputationError, ConfigurationError,
                     UnsupportedConfigurationError)
from .window import _decompose_many

_GRID_POINTS = 25       # Chebyshev-Lobatto nodes: the interpolant reads
                        # within 3e-15 of Phi_w on barrier_wall and
                        # drift_well, 4e-13 on free_flat, 1.5e-8 on bound_well
_START_STEPS = 3        # Newton steps on the interpolant before a level's
                        # first direct evaluation; 2 reach its root on every
                        # shipped window
_MAX_NEWTON = 60
_NEWTON_MARGIN = 16.0   # iterate to tol/16, accept at tol: a recheck that
                        # rounds differently still finds the level in bounds
_MAX_LEVELS = 30000     # chunked, a ladder costs about 0.35 ms and 0.4 KB per
                        # level (29,962 barrier_wall levels: 8-11 s, 59 MB peak
                        # RSS), so this caps a ladder's time near 11 s
_CHUNK = 256            # levels per batched decomposition and table pass

# bands -> {(profile, e_window, nodes, buffer):
#           (grid, windows, Phi_w, interpolant coefficients)}
_GRIDS = weakref.WeakKeyDictionary()


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
    """Width eps*c0*(t+ + t-) from actions.s_minus, s_plus; 0 for bound states."""
    t = tunneling_coefficients(actions, epsilon)
    return epsilon * c0 * t.t


def drift_slope(actions):
    """dE^l/dzeta = -pi*delta_kappa / Phi_w'; exactly 0 when delta_kappa = 0.
    Reads actions.delta_kappa and actions.well_prime."""
    if actions.delta_kappa == 0:
        return 0.0
    return -math.pi * actions.delta_kappa / actions.well_prime


class _Level:
    """Newton state of one quantization level: its bracket [a, b] with
    the residuals fa, fb there and its iterate e; once e is evaluated, the
    checked window at e, its (Phi0, Phi_w, Phi_w') row and
    fe = Phi_w(e) - target, or the error that stopped the level; once
    accepted, s_minus and s_plus at e, delta_kappa and well_prime (Phi_w'),
    the fields tunneling_coefficients, width_estimate and drift_slope read."""

    def __init__(self, l, target, tol, a, fa, b, fb):
        self.l, self.target, self.tol = l, target, tol
        self.a, self.fa, self.b, self.fb = a, fa, b, fb
        self.e = a + (b - a) * fa / (fa - fb) if fa != fb else 0.5 * (a + b)
        self.fe = math.inf
        self.window = self.row = self.error = None

    def step(self):
        """Narrow the bracket by fe and move to the next iterate, by Newton
        on the Phi_w' of the row at e."""
        dphi = self.row[2]
        if (self.fe < 0.0) == (self.fa < 0.0):
            self.a, self.fa = self.e, self.fe
        else:
            self.b, self.fb = self.e, self.fe
        cand = self.e - self.fe / dphi if dphi != 0.0 else 0.5 * (self.a + self.b)
        if not min(self.a, self.b) < cand < max(self.a, self.b):
            cand = 0.5 * (self.a + self.b)
        self.e = cand


def _lobatto_nodes():
    """The _GRID_POINTS Chebyshev-Lobatto nodes of [-1, 1], increasing,
    with -1 and 1 exact."""
    return -np.cos(np.pi * np.arange(_GRID_POINTS) / (_GRID_POINTS - 1))


def _lobatto_grid(e_lo, e_hi):
    """The Lobatto nodes mapped onto [e_lo, e_hi], with the window ends
    exact."""
    mid, half = 0.5 * (e_lo + e_hi), 0.5 * (e_hi - e_lo)
    return (e_lo, *(mid + half * _lobatto_nodes()[1:-1]).tolist(), e_hi)


def _interpolant(phis, e_lo, e_hi):
    """Coefficients of the Chebyshev interpolant of phis on the Lobatto
    grid of [e_lo, e_hi], read-only. With x = (E - mid)/half = cos t,
    row 0 holds the c_k of the interpolant sum c_k cos(k t) and row 1
    the k c_k/half of its E-derivative sum (k c_k/half) sin(k t) / sin t."""
    c = np.polynomial.chebyshev.chebfit(_lobatto_nodes(), phis,
                                        _GRID_POINTS - 1)
    coef = np.array([c, np.arange(_GRID_POINTS) * c / (0.5 * (e_hi - e_lo))])
    coef.flags.writeable = False
    return coef


def _start_at_interpolant_roots(levels, coef, e_lo, e_hi):
    """Move each level's iterate by _START_STEPS Newton steps on the
    interpolant (coefficients coef, from _interpolant) inside its bracket
    [a, b]; a step that leaves the bracket, which narrows with the
    interpolant's sign, takes its midpoint instead (so does a zero or
    undefined derivative, as at the window ends). The levels run as
    arrays, each level's row reduced on its own, so each start is the one
    its level would have alone."""
    e, a, b, fa, target = (np.array([getattr(lv, name) for lv in levels])
                           for name in ("e", "a", "b", "fa", "target"))
    mid, half = 0.5 * (e_lo + e_hi), 0.5 * (e_hi - e_lo)
    a_side = fa < 0.0
    k = np.arange(_GRID_POINTS)
    for _ in range(_START_STEPS):
        t = np.arccos(np.clip((e - mid) / half, -1.0, 1.0))
        kt = np.multiply.outer(t, k)
        p = (np.cos(kt) * coef[0]).sum(axis=1) - target
        same_as_a = (p < 0.0) == a_side
        a, b = np.where(same_as_a, e, a), np.where(same_as_a, b, e)
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = e - p * np.sin(t) / (np.sin(kt) * coef[1]).sum(axis=1)
        # the bracket rule of _Level.step, but with the ends kept: once the
        # polynomial root is reached the step is 0 and cand is e, which the
        # line above just made an end (step never gets there, since a
        # residual that small is accepted before it steps)
        e = np.where((a <= cand) & (cand <= b), cand, 0.5 * (a + b))
    for lv, start in zip(levels, e.tolist()):
        lv.e = start


def locate_resonances(cfg, window, bands, profile):
    """Solve the quantization rule over cfg.e_window.

    Returns one estimate per integer l whose solved position lies in the
    window, ordered by l. The decomposition is recomputed at every probed
    energy; if it leaves the one-well regime, or the well's edge
    bookkeeping changes, inside the window, the configuration is rejected
    (the window exceeded its validity neighborhood).

    Each chunk of levels is solved in lockstep (see the module
    docstring); the first failure in order of l is the one raised, after
    the barrier actions of every accepted level below it, and no chunk
    above its own is built.
    """
    if window.classification == "H5":
        return []
    if window.classification != "H6":
        raise UnsupportedConfigurationError(
            "resonance location needs H6 (or H5 for the empty statement), "
            "got %s" % window.classification)

    e_lo, e_hi = cfg.e_window
    quad = (cfg.nodes, cfg.buffer)

    def checked(window_or_error, e):
        if isinstance(window_or_error, ComputationError):
            raise window_or_error
        w = window_or_error
        if w.classification != "H6":
            raise UnsupportedConfigurationError(
                "window leaves the one-well regime at E=%.12g (%s)"
                % (e, w.classification))
        if w.compact.key != window.compact.key:
            raise UnsupportedConfigurationError(
                "well bookkeeping changes inside the energy window at "
                "E=%.12g; shrink the window" % e)
        return w

    key = (profile, cfg.e_window) + quad
    kept = _GRIDS.get(bands, {}).get(key)
    if kept is not None:
        grid, at_grid, phis, coef = kept
        for w, e in zip(at_grid, grid):
            checked(w, e)
    else:
        grid = _lobatto_grid(e_lo, e_hi)
        at_grid = tuple(checked(w, e) for w, e in
                        zip(_decompose_many(profile, bands, grid), grid))
        phis = np.array([row[1] for row in
                         _well_integrals(at_grid, bands, profile, *quad)])
        phis.flags.writeable = False
        coef = _interpolant(phis, e_lo, e_hi)
        _GRIDS.setdefault(bands, {})[key] = grid, at_grid, phis, coef
    diffs = np.diff(phis)
    if not (np.all(diffs > 0.0) or np.all(diffs < 0.0)):
        raise UnsupportedConfigurationError(
            "well phase not monotone over the energy window")

    dk = delta_kappa(at_grid[0])
    lo_val, hi_val = float(min(phis[0], phis[-1])), float(max(phis[0], phis[-1]))
    base = -math.pi * dk * cfg.zeta + cfg.epsilon * math.pi / 2.0
    step = cfg.epsilon * math.pi
    l_lo = math.ceil((lo_val - base) / step - 1e-9)
    l_hi = math.floor((hi_val - base) / step + 1e-9)
    if l_hi - l_lo + 1 > _MAX_LEVELS:
        raise ComputationError(
            "epsilon=%g puts %d levels in the energy window, more than the "
            "ceiling of %d; increase epsilon or narrow the window"
            % (cfg.epsilon, l_hi - l_lo + 1, _MAX_LEVELS))

    def bracketed():
        increasing = diffs[0] > 0
        for l in range(l_lo, l_hi + 1):
            target = base + step * l
            pos = np.searchsorted(phis if increasing else -phis,
                                  target if increasing else -target)
            i = min(max(pos, 1), len(grid) - 1)
            fa, fb = phis[i - 1] - target, phis[i] - target
            if fa * fb <= 0.0:   # else target marginally outside the samples
                yield _Level(l, target, cfg.root_tol * (1.0 + abs(target)),
                             grid[i - 1], fa, grid[i], fb)

    levels, out = bracketed(), []
    while chunk := list(itertools.islice(levels, _CHUNK)):
        _start_at_interpolant_roots(chunk, coef, e_lo, e_hi)
        live = chunk
        for sweep in range(_MAX_NEWTON):
            if sweep:
                for lv in live:
                    lv.step()
            for lv, w in zip(live, _decompose_many(profile, bands,
                                                   [lv.e for lv in live])):
                try:
                    lv.window = checked(w, lv.e)
                except ComputationError as exc:
                    lv.error = exc
            live = [lv for lv in live if lv.error is None]
            if live:
                rows = _well_integrals([lv.window for lv in live], bands,
                                       profile, *quad)
                for lv, row in zip(live, rows):
                    lv.row, lv.fe = row, row[1] - lv.target
            live = [lv for lv in live if abs(lv.fe) > lv.tol / _NEWTON_MARGIN]
            if not live:
                break

        accepted, failure = [], None
        for lv in chunk:
            failure = lv.error
            if failure is None and abs(lv.fe) > lv.tol:
                failure = ComputationError(
                    "quantization root for l=%d did not converge in %d Newton "
                    "sweeps (residual %g)" % (lv.l, _MAX_NEWTON, abs(lv.fe)))
            if failure is not None:
                break
            if e_lo <= lv.e <= e_hi:
                accepted.append(lv)
        pairs = _barrier_actions([lv.window for lv in accepted], bands,
                                 profile, *quad)
        for lv, pair in zip(accepted, pairs):
            lv.s_minus, lv.s_plus, lv.delta_kappa, lv.well_prime = *pair, dk, lv.row[2]
            t = tunneling_coefficients(lv, cfg.epsilon)
            out.append(ResonanceEstimate(
                lv.l, lv.e, width_estimate(lv, cfg.epsilon, cfg.c0),
                t.t_plus, t.t_minus, drift_slope(lv), abs(lv.fe),
                s_minus=lv.s_minus, s_plus=lv.s_plus, phase=lv.row[1],
                phase_prime=lv.well_prime, underflowed=t.underflowed))
        if failure is not None:
            raise failure
    return out
