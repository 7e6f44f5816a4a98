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

A ladder is read off certified Chebyshev interpolants. While the well
keeps its edges (a window where they change is refused), Phi_w is
analytic in E, and so is a barrier's S while it stays finite and on its
band, so their interpolants on the window's Lobatto points converge
geometrically (Trefethen, Approximation Theory and Approximation
Practice, ch. 8). They are sampled on nested grids of cfg.e_window, ends
exact: 25, 49, 97 and 193 points, each holding the last, so a doubling
decomposes only its new energies, one at a time in grid order (the first
failure is raised), and integrates them in one batch: Phi_w by the k-only
rule for Phi0, anchored, and S+-. An interpolant passes the
certificate when its tail (largest last-three coefficient over largest)
is at most _TAIL_ULPS units of 2^-52, the chop rule of Battles and
Trefethen (SIAM J. Sci. Comput. 25, 2004), and at the next grid's new
energies it reads within root_tol*(1 + m)/16 of the direct values, m its
least magnitude on the samples; an S that is +inf on all of them passes.
The first grid where Phi_w passes is kept, with S+- if they pass there
too; else (a barrier end running off near a band threshold, a barrier
emptying inside the window) each level takes S+- by direct quadrature at
its own position. Past 97 points the window ends in a ComputationError
naming it, the degree and Phi_w's tail. The interpolants do not depend
on (eps, zeta), so they are kept for the life of the band structure per
(profile, window, rule, root_tol); the caller's window is checked
against the grid's on every call, and a grid that fails a check is
never kept.

All levels then come from the polynomials at once: each target is
bracketed between two grid energies and takes up to _NEWTON_STEPS
vectorised Newton steps on the polynomial from the regula-falsi point,
a level stopping once its step is a few ulps; Phi_w' is the polynomial's
derivative and S+- the values of their kept interpolants. Each energy's
sums are reduced on their own, so a level does not depend on its batch.
The residual column is |p(E) - target| plus the certificate's largest
measured |p - Phi_w|, accepted at root_tol*(1 + |target|).
"""

from __future__ import annotations

import collections
import math
import numbers
import weakref

import numpy as np

from .actions import (_anchored, _barrier_actions, _check_rule, _phi0_rule,
                      delta_kappa, tunneling_coefficients)
from .errors import (ComputationError, ConfigurationError,
                     UnsupportedConfigurationError)
from .window import decompose_window

_GRID_SIZES = (25, 49, 97, 193)  # nested Lobatto grids; the last only checks
_TAIL_ULPS = 64.0       # tail bound in units of 2^-52; shipped tails: 1.4-15
_CHECK_MARGIN = 16.0    # interpolants within tol/16 of the direct values
_NEWTON_STEPS = 8       # on the polynomial; 2 meet the bound on every shipped window
_MAX_LEVELS = 100000    # a level costs 5-9 us and 0.65 KB (99,473 barrier_wall
                        # levels: 0.5-0.8 s, 97 MB peak RSS), so this caps a
                        # ladder near 1 s and 100 MB, or 15 s where S+- are direct
_BLOCK = 4096           # energies per polynomial evaluation
_DIRECT_BLOCK = 64      # levels a batch taking S+- direct: 0.12-0.16 ms each

# bands -> {(profile, e_window, nodes, buffer, root_tol):
#           (window at e_lo, grid, Phi_w there, coefficients, measured error)}
_GRIDS = weakref.WeakKeyDictionary()

# the fields of one level that tunneling_coefficients reads
_LevelActions = collections.namedtuple("_LevelActions", "s_minus s_plus")


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
        if not (isinstance(nodes, numbers.Real) and float(nodes).is_integer()
                and nodes >= 8):
            raise ConfigurationError("nodes=%r is not an integer of at least 8"
                                     % (nodes,))
        if not 0.0 < float(c0) < math.inf:
            raise ConfigurationError("c0=%r is not positive and finite" % (c0,))
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


def _lobatto_nodes(n):
    """The n Chebyshev-Lobatto nodes of [-1, 1], increasing, ends exact; the
    2n - 1 nodes hold them at their even indices, bit for bit."""
    return -np.cos(np.pi * np.arange(n) / (n - 1))


def _lobatto_grid(e_lo, e_hi, n):
    """The n Lobatto nodes mapped onto [e_lo, e_hi], with the window ends
    exact."""
    mid, half = 0.5 * (e_lo + e_hi), 0.5 * (e_hi - e_lo)
    return np.array((e_lo, *(mid + half * _lobatto_nodes(n)[1:-1]), e_hi))


def _read_only(array):
    array = np.array(array)
    array.flags.writeable = False
    return array


def _coefficients(values, e_lo, e_hi):
    """Chebyshev coefficients of the interpolants of the rows Phi_w, S-, S+
    sampled on a Lobatto grid of [e_lo, e_hi], read-only: rows Phi_w,
    Phi_w' (d/dE, so scaled by 1/half), S-, S+, and nan on a row that is
    not finite on every sample. With x = (E - mid)/half = cos t, row r reads
    sum_k c[r, k] cos(k t)."""
    n = values.shape[1]
    finite = np.all(np.isfinite(values), axis=1)
    fit = np.full((3, n), np.nan)
    fit[finite] = np.polynomial.chebyshev.chebfit(
        _lobatto_nodes(n), values[finite].T, n - 1).T
    slope = np.zeros(n)
    slope[:-1] = np.polynomial.chebyshev.chebder(fit[0]) / (0.5 * (e_hi - e_lo))
    return _read_only(np.vstack((fit[:1], slope, fit[1:])))


def _tails(coef):
    """Per row Phi_w, S-, S+: its largest last-three coefficient over its
    largest."""
    rows = np.abs(coef[[0, 2, 3]])
    return rows[:, -3:].max(axis=1) / np.maximum(rows.max(axis=1), 2.0 ** -1074)


def _evaluate(coef, e, e_lo, e_hi):
    """One array per coefficient row: its polynomial at the energies e,
    each energy's sum reduced on its own, _BLOCK energies at a time."""
    mid, half = 0.5 * (e_lo + e_hi), 0.5 * (e_hi - e_lo)
    t = np.arccos(np.clip((e - mid) / half, -1.0, 1.0))
    k = np.arange(coef.shape[1])
    rows = [[] for _ in coef]
    for start in range(0, len(t), _BLOCK):
        cos_kt = np.cos(np.multiply.outer(t[start:start + _BLOCK], k))
        for out, row in zip(rows, coef):
            out.append((cos_kt * row).sum(axis=1))
    return [np.concatenate(out) if out else np.empty(0) for out in rows]


def _certified(decomposed, bands, profile, e_lo, e_hi, quad, root_tol):
    """(window at e_lo, grid, Phi_w there, coefficients, largest measured
    |p - Phi_w|) of the first grid of _GRID_SIZES whose Phi_w passes the
    certificate; the coefficients drop rows S+- unless those pass there
    too (see the module docstring). `decomposed` gives the checked windows
    of a list of energies."""
    nodes, buffer = quad
    _check_rule(nodes, buffer)
    values = first = coef = None
    for n in _GRID_SIZES:
        grid = _lobatto_grid(e_lo, e_hi, n)
        new = grid if values is None else grid[1::2]
        windows = decomposed(new.tolist())
        first = windows[0] if first is None else first
        phi0s = _phi0_rule(windows, bands, profile, 2 * nodes, buffer,
                           "locate_resonances")
        # rows Phi_w, S-, S+ (+inf on an empty barrier), one column per energy
        sampled = np.array([
            [_anchored(w, phi0) for w, phi0 in zip(windows, phi0s)],
            *zip(*_barrier_actions(windows, bands, profile, nodes, buffer))])
        values = sampled if values is None else np.insert(
            values, np.arange(1, values.shape[1]), sampled, axis=1)
        diffs = np.diff(values[0])
        if not (np.all(diffs > 0.0) or np.all(diffs < 0.0)):
            raise UnsupportedConfigurationError(
                "well phase not monotone over the energy window")
        if coef is not None:
            tails = _tails(coef)
            fits = np.array(_evaluate(coef[[0, 2, 3]], new, e_lo, e_hi))
            # nan on a row not finite on every sample, which passes if all +inf
            errors = np.abs(fits - sampled).max(axis=1)
            bounds = root_tol * (1.0 + np.abs(values).min(axis=1)) / _CHECK_MARGIN
            passed = np.all(np.isinf(values), axis=1) | (
                (tails <= _TAIL_ULPS * 2.0 ** -52) & (errors <= bounds))
            if passed[0]:
                return (first, _read_only(grid[::2]), _read_only(values[0, ::2]),
                        coef if passed.all() else coef[:2], float(errors[0]))
            if n == _GRID_SIZES[-1]:
                raise ComputationError(
                    "no Chebyshev interpolant of up to %d points is certified "
                    "over the energy window [%.12g, %.12g]: degree %d has tail "
                    "%.3g (bound %.3g) and reads up to %.3g from the %d-point "
                    "values" % (coef.shape[1], e_lo, e_hi, coef.shape[1] - 1,
                                tails[0], _TAIL_ULPS * 2.0 ** -52, errors[0], n))
        coef = _coefficients(values, e_lo, e_hi)


def locate_resonances(cfg, window, bands, profile):
    """Solve the quantization rule over cfg.e_window.

    Returns one estimate per integer l whose solved position lies in the
    window, ordered by l. A window that leaves the one-well regime, or over
    which the well's bookkeeping changes, is rejected (it exceeds its
    validity neighborhood); the lowest level that the Newton steps leave
    outside its bound ends the ladder in a ComputationError.
    """
    if window.classification == "H5":
        return []
    if window.classification != "H6":
        raise UnsupportedConfigurationError(
            "resonance location needs H6 (or H5 for the empty statement), "
            "got %s" % window.classification)

    e_lo, e_hi = cfg.e_window
    quad = (cfg.nodes, cfg.buffer)

    def checked(w):
        """The window w, checked against the caller's."""
        if w.classification != "H6":
            raise UnsupportedConfigurationError(
                "window leaves the one-well regime at E=%.12g (%s)"
                % (w.energy, w.classification))
        if w.compact.key != window.compact.key:
            raise UnsupportedConfigurationError(
                "well bookkeeping changes inside the energy window at "
                "E=%.12g; shrink the window" % w.energy)
        return w

    def decomposed(energies):
        """The checked window of each energy, in order: the first failure
        is raised."""
        return [checked(decompose_window(profile, bands, e)) for e in energies]

    key = (profile, cfg.e_window) + quad + (cfg.root_tol,)
    kept = _GRIDS.get(bands, {}).get(key)
    if kept is None:
        kept = _certified(decomposed, bands, profile, e_lo, e_hi, quad,
                          cfg.root_tol)
        _GRIDS.setdefault(bands, {})[key] = kept
    else:
        # the grid windows share one bookkeeping, so the first stands for all
        checked(kept[0])
    first, grid, phis, coef, error = kept

    dk = delta_kappa(first)
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

    ls = np.arange(l_lo, l_hi + 1)
    targets = base + step * ls
    sign = 1.0 if phis[-1] > phis[0] else -1.0
    i = np.clip(np.searchsorted(sign * phis, sign * targets), 1, len(grid) - 1)
    fa, fb = phis[i - 1] - targets, phis[i] - targets
    bracketed = fa * fb <= 0.0   # else target marginally outside the samples
    ls, targets, fa, fb, i = (v[bracketed] for v in (ls, targets, fa, fb, i))
    a, b = grid[i - 1], grid[i]
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.where(fa != fb, a + (b - a) * fa / (fa - fb), 0.5 * (a + b))
    floor = 2.0 ** -50 * max(abs(e_lo), abs(e_hi))
    live = np.arange(len(e))
    for _ in range(_NEWTON_STEPS):
        if not live.size:
            break
        el = e[live]
        p, dp = _evaluate(coef[:2], el, e_lo, e_hi)
        f = p - targets[live]
        on_a = (f < 0.0) == (fa[live] < 0.0)
        a[live], b[live] = np.where(on_a, el, a[live]), np.where(on_a, b[live], el)
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = el - f / dp
        cand = np.where((a[live] <= cand) & (cand <= b[live]), cand,
                        0.5 * (a[live] + b[live]))
        e[live] = cand
        live = live[np.abs(cand - el) > floor]

    p, dp, *actions = _evaluate(coef, e, e_lo, e_hi)
    residual = np.abs(p - targets) + error
    short = np.flatnonzero(residual > cfg.root_tol * (1.0 + np.abs(targets)))
    if short.size:
        j = short[0]
        raise ComputationError(
            "quantization root for l=%d not reached in %d Newton steps on the "
            "interpolant (residual %g)" % (ls[j], _NEWTON_STEPS, residual[j]))
    if actions:   # an empty barrier's row is nan: S = +inf on the whole grid
        actions = [np.where(np.isnan(row), math.inf, row).tolist()
                   for row in actions]
    else:   # batches bound the quadrature's memory
        pairs = []
        for block in np.split(e, np.arange(_DIRECT_BLOCK, len(e), _DIRECT_BLOCK)):
            pairs += _barrier_actions(decomposed(block.tolist()), bands,
                                      profile, *quad)
        actions = zip(*pairs)
    out = []
    for l, e_l, phase, prime, res, sm, sp in zip(
            ls.tolist(), e.tolist(), p.tolist(), dp.tolist(), residual.tolist(),
            *actions):
        t = tunneling_coefficients(_LevelActions(sm, sp), cfg.epsilon)
        drift = -math.pi * dk / prime if dk else 0.0   # never -0.0
        out.append(ResonanceEstimate(
            l, e_l, cfg.epsilon * cfg.c0 * t.t, t.t_plus, t.t_minus, drift,
            res, s_minus=sm, s_plus=sp, phase=phase, phase_prime=prime,
            underflowed=t.underflowed))
    return out
