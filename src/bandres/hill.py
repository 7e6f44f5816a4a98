"""Floquet spectral theory for -y'' + V(x) y = E y with 1-periodic V.

Conventions used throughout the package:

* The discriminant D(E) is the trace of the period map (monodromy matrix)
  in the solution basis (y, y')(0) = (1, 0) and (0, 1).
* Band edges are roots of D(E) = +/-2 and interlace
  E1 < E2 <= E3 < E4 <= E5 < ..., with the sign pattern D(E1) = 2,
  D(E2) = D(E3) = -2, D(E4) = D(E5) = 2, alternating in pairs. Band n is
  [E_{2n-1}, E_{2n}]; gap n is (E_{2n}, E_{2n+1}); energies below E1 form
  "gap 0".
* The main branch of the Bloch quasi-momentum k(E) solves cos k = D(E)/2,
  maps band n increasingly onto [pi(n-1), pi*n], and on gap n has constant
  real part pi*n with Im k > 0 (a single nondegenerate interior maximum).
  Complex energies in the upper half plane keep Im k > 0; the lower half
  plane is reached by reflection through the bands, k(conj E) = conj k(E).

Every object here is immutable after construction. BandStructure builds
its Chebyshev table of D once, on first use, over the fixed range
[E1 - 5, gap_ceiling], so table-backed values do not depend on which
energies earlier calls asked for. Bands lie inside that range; gap
energies below its floor take D from a direct propagation instead.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from scipy.integrate import solve_ivp

from .errors import (
    ConfigurationError,
    DomainError,
    EnergyRangeError,
    IntegrationFailure,
    InternalConsistencyError,
    SingularDerivativeError,
)

_SCAN_DENSITY = 40          # energy grid points per unit during the edge scan
_SCAN_TOL = 1e-10           # ODE tolerance of the edge scan, kept as BandStructure.tol
_REFINE_TOL = 2.5e-13       # ODE tolerance of edge and extremum bisection
_CLOSED_GAP_WIDTH = 1e-7    # narrower gaps are merged and flagged closed
_BISECT_ITERATIONS = 50
_TABLE_RTOL = 1e-12
_TABLE_POINTS = 97          # Chebyshev nodes per table piece
_TABLE_DEPTH = 5.0          # the table's floor lies this far below E1
_MAX_IM_ENERGY = 1.0        # half-strip height for complex continuation


class PeriodicPotential:
    """Real 1-periodic potential given by a finite Fourier sum.

    V(x) = mean + sum_m cos_coeffs[m-1] cos(2 pi m x)
                + sum_m sin_coeffs[m-1] sin(2 pi m x)

    A constant potential closes every gap and is only admitted with
    allow_constant=True (test mode; downstream genericity warnings fire).
    """

    def __init__(self, mean=0.0, cos_coeffs=(), sin_coeffs=(), allow_constant=False):
        self.mean = float(mean)
        self.cos_coeffs = tuple(float(a) for a in cos_coeffs)
        self.sin_coeffs = tuple(float(b) for b in sin_coeffs)
        values = (self.mean,) + self.cos_coeffs + self.sin_coeffs
        if not all(math.isfinite(v) for v in values):
            raise ConfigurationError("potential coefficients must be finite")
        if not allow_constant and not any(self.cos_coeffs + self.sin_coeffs):
            raise ConfigurationError(
                "constant potential rejected (all gaps closed); "
                "pass allow_constant=True for test mode")
        self.allow_constant = bool(allow_constant)
        self._wc = 2.0 * np.pi * np.arange(1, len(self.cos_coeffs) + 1)
        self._ws = 2.0 * np.pi * np.arange(1, len(self.sin_coeffs) + 1)
        self._ac = np.asarray(self.cos_coeffs)
        self._as = np.asarray(self.sin_coeffs)

    @classmethod
    def free(cls):
        """V = 0 (test mode)."""
        return cls(0.0, (), (), allow_constant=True)

    @property
    def is_constant(self):
        return not any(self.cos_coeffs + self.sin_coeffs)

    @property
    def mode_count(self):
        return max(len(self.cos_coeffs), len(self.sin_coeffs))

    def __call__(self, x):
        xa = np.asarray(x, dtype=float)
        out = np.full(xa.shape, self.mean)
        if self._ac.size:
            out = out + np.cos(np.multiply.outer(xa, self._wc)) @ self._ac
        if self._as.size:
            out = out + np.sin(np.multiply.outer(xa, self._ws)) @ self._as
        return out if out.shape else float(out)

    def lower_bound(self):
        """A lower bound for min V, hence for the spectrum of -d2/dx2 + V."""
        return self.mean - sum(abs(a) for a in self.cos_coeffs) \
                         - sum(abs(b) for b in self.sin_coeffs)

    def fourier_coefficient(self, m):
        """Coefficient v_m of exp(2 pi i m x); v_{-m} = conj(v_m)."""
        m = int(m)
        if m == 0:
            return complex(self.mean)
        a = self.cos_coeffs[abs(m) - 1] if abs(m) <= len(self.cos_coeffs) else 0.0
        b = self.sin_coeffs[abs(m) - 1] if abs(m) <= len(self.sin_coeffs) else 0.0
        v = 0.5 * complex(a, -b)
        return v if m > 0 else v.conjugate()

    def _key(self):
        return (self.mean, self.cos_coeffs, self.sin_coeffs)

    def __eq__(self, other):
        return isinstance(other, PeriodicPotential) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "PeriodicPotential(mean=%r, cos_coeffs=%r, sin_coeffs=%r)" % self._key()

    def to_dict(self):
        return {"mean": self.mean,
                "cos_coeffs": list(self.cos_coeffs),
                "sin_coeffs": list(self.sin_coeffs),
                "allow_constant": self.allow_constant}

    @classmethod
    def from_dict(cls, d):
        return cls(d.get("mean", 0.0), d.get("cos_coeffs", ()), d.get("sin_coeffs", ()),
                   allow_constant=d.get("allow_constant", False))


class MonodromyMatrix:
    """Period map of the Hill equation at a fixed energy."""

    def __init__(self, m11, m12, m21, m22):
        self.m11 = m11
        self.m12 = m12
        self.m21 = m21
        self.m22 = m22

    def trace(self):
        return self.m11 + self.m22

    def det(self):
        return self.m11 * self.m22 - self.m12 * self.m21

    def __repr__(self):
        return "MonodromyMatrix(%r, %r, %r, %r)" % (self.m11, self.m12, self.m21, self.m22)


def _propagate(potential, energies, rtol, with_derivative=False):
    """Columns of the period map (and optionally their E-derivatives),
    batched over an energy array. Returns shape (4 or 8, K)."""
    E = np.atleast_1d(np.asarray(energies))
    complex_mode = np.iscomplexobj(E)
    dt = complex if complex_mode else float
    K = E.size
    rows = 8 if with_derivative else 4
    y0 = np.zeros((rows, K), dtype=dt)
    y0[0] = 1.0
    y0[3] = 1.0
    Ec = E.astype(dt)

    def rhs(x, y):
        y = y.reshape(rows, K)
        q = potential(x) - Ec
        out = np.empty_like(y)
        out[0] = y[1]
        out[1] = q * y[0]
        out[2] = y[3]
        out[3] = q * y[2]
        if with_derivative:
            # variational system: d/dE of the first four components
            out[4] = y[5]
            out[5] = q * y[4] - y[0]
            out[6] = y[7]
            out[7] = q * y[6] - y[2]
        return out.ravel()

    sol = solve_ivp(rhs, (0.0, 1.0), y0.ravel(), method="DOP853",
                    rtol=rtol, atol=rtol * 1e-2)
    if not sol.success:
        raise IntegrationFailure("monodromy integration failed: %s" % sol.message,
                                 last_x=float(sol.t[-1]))
    return sol.y[:, -1].reshape(rows, K)


def integrate_monodromy(potential, energy, tol=1e-10):
    """Monodromy matrix of -y'' + V y = E y over one period.

    The Wronskian det M = 1 is conserved exactly by the flow; the computed
    determinant is checked against a conditioning-aware bound (10*tol
    scaled by the squared matrix magnitude, which controls the rounding
    of the 2x2 determinant for large entries).
    """
    y = _propagate(potential, [energy], tol)
    m = MonodromyMatrix(y[0, 0], y[2, 0], y[1, 0], y[3, 0])
    scale = max(1.0, max(abs(m.m11), abs(m.m12), abs(m.m21), abs(m.m22))) ** 2
    if abs(m.det() - 1.0) > 10.0 * tol * scale:
        raise IntegrationFailure(
            "Wronskian drift %.3e exceeds tolerance at E=%r" % (abs(m.det() - 1.0), energy))
    return m


def discriminant(potential, energy, tol=1e-10):
    """D(E) = trace of the monodromy matrix."""
    y = _propagate(potential, [energy], tol)
    d = y[0, 0] + y[3, 0]
    if np.iscomplexobj(np.asarray(energy)):
        return complex(d)
    return float(np.real(d))


def discriminant_many(potential, energies, tol=1e-10):
    y = _propagate(potential, energies, tol)
    return y[0] + y[3]


def discriminant_with_derivative(potential, energies, tol=1e-10):
    """(D, dD/dE) on an energy array, via the variational system."""
    y = _propagate(potential, energies, tol, with_derivative=True)
    return y[0] + y[3], y[4] + y[7]


def _vector_bisect(potential, lo, hi, tol, target=None, on_derivative=False):
    """Bisection on D - target (or on D' when on_derivative) for a batch of
    brackets; each iteration costs one batched propagation."""
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)

    def values(e):
        d, dp = discriminant_with_derivative(potential, e, tol)
        return (dp if on_derivative else d - target).real

    flo = values(lo)
    for _ in range(_BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        fm = values(mid)
        take_lo = (np.sign(fm) == np.sign(flo)) & (fm != 0.0)
        lo = np.where(take_lo, mid, lo)
        flo = np.where(take_lo, fm, flo)
        hi = np.where(take_lo, hi, mid)
    return 0.5 * (lo + hi)


def band_edges(potential, e_max):
    """Scan [lower bound, e_max] for band edges and assemble a BandStructure.

    Simple roots of D = +/-2 are caught by a sign scan (40 points per unit
    energy) and refined by bisection at a tightened tolerance. Every gap
    carries exactly one extremum of D; refining the extrema catches gaps
    narrower than the grid and classifies closed gaps. Gaps whose
    discriminant excess |D|-2 stays below the integration noise floor are
    merged to a double edge and flagged closed (resolution floor well
    below the 1e-7 closed-gap width threshold for generic potentials).
    """
    merge_tol = 40.0 * _REFINE_TOL
    # irrational sub-cell shift keeps grid points off exact edges (e.g. the
    # free potential has an edge at E=0 where D-2 vanishes identically)
    e_lo = potential.lower_bound() - 0.5 - 0.6180339887 / _SCAN_DENSITY
    if e_max <= e_lo + 1.0:
        raise DomainError("e_max=%g leaves no room above the potential floor %g"
                          % (e_max, e_lo))
    n_grid = int(math.ceil((e_max - e_lo) * _SCAN_DENSITY)) + 1
    grid = np.linspace(e_lo, e_max, n_grid)
    D, Dp = discriminant_with_derivative(potential, grid, _SCAN_TOL)
    D = D.real
    Dp = Dp.real

    roots = []   # (energy, family)

    for family in (2.0, -2.0):
        f = D - family
        sgn = np.sign(f)
        sgn[sgn == 0] = -1.0
        hits = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
        if hits.size:
            pos = _vector_bisect(potential, grid[hits], grid[hits + 1],
                                 _REFINE_TOL, target=family)
            roots.extend((float(p), family) for p in pos)

    # extremum of D inside every gap: bisect on D'
    flips = np.nonzero(np.sign(Dp[:-1]) * np.sign(Dp[1:]) < 0)[0]
    if flips.size:
        ext = _vector_bisect(potential, grid[flips], grid[flips + 1],
                             _REFINE_TOL, on_derivative=True)
        d_ext = discriminant_many(potential, ext, _REFINE_TOL).real
        for i, (e_star, d_star) in enumerate(zip(ext, d_ext)):
            family = 2.0 if d_star > 0 else -2.0
            excess = abs(d_star) - 2.0
            lo_g, hi_g = grid[flips[i]], grid[flips[i] + 1]
            f_star = d_star - family
            f_lo = D[flips[i]] - family
            f_hi = D[flips[i] + 1] - family
            if abs(excess) <= merge_tol:
                already = [r for r, fam in roots if lo_g <= r <= hi_g and fam == family]
                if not already:
                    roots.append((float(e_star), family))
                    roots.append((float(e_star), family))
            elif excess > 0.0 and f_star * f_lo < 0.0 and f_star * f_hi < 0.0:
                # open gap narrower than the scan grid: it fits strictly
                # inside this cell, so the sign scan saw nothing and both
                # crossings bracket the extremum
                left = _vector_bisect(potential, [lo_g], [float(e_star)],
                                      _REFINE_TOL, target=family)
                right = _vector_bisect(potential, [float(e_star)], [hi_g],
                                       _REFINE_TOL, target=family)
                roots.append((float(left[0]), family))
                roots.append((float(right[0]), family))

    if len(roots) < 2:
        raise DomainError("no complete spectral band below e_max=%g" % e_max)
    roots.sort(key=lambda t: t[0])

    next_band_start = None
    if len(roots) % 2 == 1:
        next_band_start = roots[-1][0]
        roots = roots[:-1]

    energies = [r for r, _ in roots]
    families = [fam for _, fam in roots]
    for j, fam in enumerate(families):
        expected = 2.0 if (j + 1) % 4 in (0, 1) else -2.0
        if fam != expected:
            raise InternalConsistencyError(
                "edge %d at E=%.12g has D=%+g, expected %+g; edge scan inconsistent"
                % (j + 1, energies[j], fam, expected))

    edges = np.asarray(energies)
    n_bands = edges.size // 2
    for n in range(n_bands):
        if edges[2 * n + 1] - edges[2 * n] <= 1e-9:
            raise InternalConsistencyError("band %d collapsed at E=%.12g"
                                           % (n + 1, edges[2 * n]))

    flags = []
    closed = []
    for n in range(1, n_bands):
        width = edges[2 * n] - edges[2 * n - 1]
        flags.append(bool(width > _CLOSED_GAP_WIDTH))
        if not flags[-1]:
            closed.append(n)
    if next_band_start is not None:
        flags.append(bool(next_band_start - edges[-1] > _CLOSED_GAP_WIDTH))
        if not flags[-1]:
            closed.append(n_bands)
    if closed:
        warnings.warn("gap(s) %s closed within tolerance; the all-gaps-open "
                      "genericity assumption fails" % closed, stacklevel=2)

    return BandStructure(edges=edges, open_gap_flags=flags, e_max=float(e_max),
                         tol=_SCAN_TOL, potential=potential,
                         next_band_start=next_band_start)


class DiscriminantTable:
    """Piecewise-Chebyshev cache of D and D' between band edges.

    D(E) is entire, so interpolation on each edge-aligned piece converges
    geometrically; the pieces only exist to keep degrees modest and to
    align evaluation with the band/gap bookkeeping. Built from a single
    batched propagation; self-validated on off-node probe points.
    """

    def __init__(self, potential, breakpoints):
        bp = [float(b) for b in breakpoints]
        breaks = [bp[0]]
        for b in bp[1:]:
            if b - breaks[-1] > 1e-12:
                breaks.append(b)
        self.breaks = np.asarray(breaks)
        if self.breaks.size < 2:
            raise DomainError("discriminant table needs a nonempty energy range")
        npiece = self.breaks.size - 1
        xu = _cheb.chebpts1(_TABLE_POINTS)
        nodes = []
        for i in range(npiece):
            a, b = self.breaks[i], self.breaks[i + 1]
            nodes.append(0.5 * (a + b) + 0.5 * (b - a) * xu)
        all_nodes = np.concatenate(nodes)
        D, Dp = discriminant_with_derivative(potential, all_nodes, _TABLE_RTOL)
        D = D.real
        Dp = Dp.real
        self._coef_d = []
        self._coef_dp = []
        for i in range(npiece):
            sl = slice(i * _TABLE_POINTS, (i + 1) * _TABLE_POINTS)
            self._coef_d.append(_cheb.chebfit(xu, D[sl], _TABLE_POINTS - 1))
            self._coef_dp.append(_cheb.chebfit(xu, Dp[sl], _TABLE_POINTS - 1))

        # off-node validation probes
        probes = []
        for i in range(npiece):
            a, b = self.breaks[i], self.breaks[i + 1]
            probes.append(np.linspace(a, b, 9)[1:-1])
        probes = np.concatenate(probes)
        ref = discriminant_many(potential, probes, _TABLE_RTOL).real
        err = np.max(np.abs(self.value(probes) - ref) / np.maximum(1.0, np.abs(ref)))
        self.validation_error = float(err)
        if err > 1e-7:
            raise InternalConsistencyError(
                "discriminant table validation error %.3e" % err)

    def _piece_of(self, e):
        e = np.asarray(e, dtype=float)
        if e.size and (e.min() < self.breaks[0] - 1e-8 or e.max() > self.breaks[-1] + 1e-8):
            raise EnergyRangeError(
                "energy [%g, %g] outside table range [%g, %g]"
                % (e.min(), e.max(), self.breaks[0], self.breaks[-1]))
        idx = np.clip(np.searchsorted(self.breaks, e, side="right") - 1,
                      0, self.breaks.size - 2)
        return e, idx

    def _eval(self, e, coef_list):
        e, idx = self._piece_of(e)
        out = np.empty(e.shape)
        for i in np.unique(idx):
            m = idx == i
            a, b = self.breaks[i], self.breaks[i + 1]
            xu = (e[m] - 0.5 * (a + b)) / (0.5 * (b - a))
            out[m] = _cheb.chebval(xu, coef_list[i])
        return out

    def value(self, e):
        return self._eval(e, self._coef_d)

    def derivative(self, e):
        return self._eval(e, self._coef_dp)


class BandStructure:
    """Band edges, gap flags, and fast quasi-momentum evaluation.

    edges has even length (complete bands only); next_band_start, when
    known, is the first edge of the band just above e_max so that the last
    gap below the scan ceiling remains usable.
    """

    def __init__(self, edges, open_gap_flags, e_max, tol, potential,
                 next_band_start=None):
        self.edges = np.asarray(edges, dtype=float)
        if self.edges.size % 2:
            raise InternalConsistencyError("edge list must pair into bands")
        self.open_gap_flags = list(open_gap_flags)
        self.e_max = float(e_max)
        self.tol = float(tol)
        self.potential = potential
        self.next_band_start = None if next_band_start is None else float(next_band_start)

    @property
    def n_bands(self):
        return self.edges.size // 2

    @property
    def gap_ceiling(self):
        """Largest energy up to which the bookkeeping is complete."""
        return self.next_band_start if self.next_band_start is not None else self.e_max

    def band(self, n):
        """Closed band n (1-based)."""
        if not 1 <= n <= self.n_bands:
            raise EnergyRangeError("band %d outside scanned range" % n)
        return float(self.edges[2 * n - 2]), float(self.edges[2 * n - 1])

    def gap(self, n):
        """Open gap n; gap 0 is (-inf, E1)."""
        if n == 0:
            return -math.inf, float(self.edges[0])
        if 1 <= n < self.n_bands:
            return float(self.edges[2 * n - 1]), float(self.edges[2 * n])
        if n == self.n_bands:
            return float(self.edges[-1]), self.gap_ceiling
        raise EnergyRangeError("gap %d outside scanned range" % n)

    def locate(self, e):
        """('band', n) or ('gap', n) for a real energy; gap 0 lies below E1."""
        e = float(e)
        if e < self.edges[0]:
            return ("gap", 0)
        for n in range(1, self.n_bands + 1):
            lo, hi = self.edges[2 * n - 2], self.edges[2 * n - 1]
            if lo <= e <= hi:
                return ("band", n)
            if n < self.n_bands and hi < e < self.edges[2 * n]:
                return ("gap", n)
        if self.edges[-1] < e <= self.gap_ceiling:
            return ("gap", self.n_bands)
        raise EnergyRangeError("E=%.12g beyond scanned bands (ceiling %.12g)"
                               % (e, self.gap_ceiling))

    # --- fast real-axis evaluation through the cached discriminant ---

    @functools.cached_property
    def table(self):
        """The discriminant table over [E1 - 5, gap_ceiling], built once."""
        breaks = ([self.edges[0] - _TABLE_DEPTH] + [float(x) for x in self.edges]
                  + [self.gap_ceiling])
        return DiscriminantTable(self.potential, breaks)

    def k_band_fast(self, e, band_index):
        """Main-branch k on band `band_index` (vectorized, table-backed)."""
        sign = 1.0 if band_index % 2 == 1 else -1.0
        c = np.clip(sign * self.table.value(e) / 2.0, -1.0, 1.0)
        return math.pi * (band_index - 1) + np.arccos(c)

    def gamma_fast(self, e):
        """Im k inside any gap (vectorized); energies below the table floor
        take D from a direct propagation. Keeps the shape of e."""
        e = np.asarray(e, dtype=float)
        deep = e < self.table.breaks[0]
        d = self.table.value(np.where(deep, self.table.breaks[0], e))
        if deep.any():
            d[deep] = discriminant_many(self.potential, e[deep], _TABLE_RTOL).real
        return np.arccosh(np.maximum(1.0, np.abs(d) / 2.0))

    def kprime_fast(self, e, band_index):
        """dk/dE on band `band_index` (table-backed; diverges at the edges)."""
        d = self.table.value(e)
        dp = self.table.derivative(e)
        sin_phi = np.sqrt(np.maximum(1e-300, 1.0 - (d / 2.0) ** 2))
        sign = 1.0 if band_index % 2 == 1 else -1.0
        return -sign * dp / (2.0 * sin_phi)

    def to_dict(self):
        return {"edges": [float(x) for x in self.edges],
                "open_gap_flags": list(self.open_gap_flags),
                "e_max": self.e_max,
                "tol": self.tol,
                "next_band_start": self.next_band_start}

    @classmethod
    def from_dict(cls, d, potential):
        return cls(edges=d["edges"], open_gap_flags=d["open_gap_flags"],
                   e_max=d["e_max"], tol=d.get("tol", 1e-10), potential=potential,
                   next_band_start=d.get("next_band_start"))


def reduced_momentum(k, band_index):
    """Fold the main branch on band n into the [0, pi] normalization."""
    n = band_index
    if n % 2 == 1:
        return k - math.pi * (n - 1)
    return math.pi * n - k


def edge_reduced_value(side, band_index):
    """Folded momentum at a band edge: 0 or pi depending on side and parity."""
    if side not in ("lower", "upper"):
        raise DomainError("side must be 'lower' or 'upper'")
    low = band_index % 2 == 1
    if side == "lower":
        return 0.0 if low else math.pi
    return math.pi if low else 0.0


def edge_band_side(edge_index):
    """Band number and side ('lower'/'upper') of a 1-based edge index."""
    n = (edge_index + 1) // 2
    side = "lower" if edge_index % 2 == 1 else "upper"
    return n, side


class QuasiMomentum:
    """Main-branch quasi-momentum value with its band/gap bookkeeping."""

    def __init__(self, value, band_index, on_gap):
        self.value = complex(value)
        self.band_index = int(band_index)
        self.on_gap = bool(on_gap)

    def __repr__(self):
        return "QuasiMomentum(value=%r, band_index=%d, on_gap=%r)" % (
            self.value, self.band_index, self.on_gap)


def _k_real_axis(bands, e):
    """Closed-form main branch for real energies (direct ODE evaluation)."""
    kind, n = bands.locate(e)
    d = float(discriminant_many(bands.potential, [e], bands.tol)[0].real)
    if kind == "band":
        sign = 1.0 if n % 2 == 1 else -1.0
        phi = math.acos(min(1.0, max(-1.0, sign * d / 2.0)))
        return complex(math.pi * (n - 1) + phi), n, False
    gamma = math.acosh(max(1.0, abs(d) / 2.0))
    return complex(math.pi * n, gamma), n, True


def quasi_momentum_main(bands, energy):
    """Main branch k(E): direct evaluation on the real axis, step-doubling
    path continuation for complex E in the strip |Im E| <= 1.

    On band n the value is real in [pi(n-1), pi*n]; on gap n it is
    pi*n + i*gamma with gamma > 0. Reflection k(conj E) = conj k(E) extends
    the branch through the bands to the lower half plane.
    """
    e = complex(energy)
    if abs(e.imag) > _MAX_IM_ENERGY + 1e-12:
        raise DomainError("|Im E| = %g outside the continuation strip height %g"
                          % (abs(e.imag), _MAX_IM_ENERGY))
    if e.imag == 0.0:
        val, n, on_gap = _k_real_axis(bands, e.real)
        return QuasiMomentum(val, n, on_gap)
    if e.imag < 0.0:
        km = quasi_momentum_main(bands, e.conjugate())
        return QuasiMomentum(km.value.conjugate(), km.band_index, km.on_gap)

    anchor_val, n, on_gap = _k_real_axis(bands, e.real)
    n_steps = 16
    while True:
        path = e.real + 1j * np.linspace(0.0, e.imag, n_steps + 1)[1:]
        dvals = discriminant_many(bands.potential, path, bands.tol)
        k_prev = complex(anchor_val)
        max_jump = 0.0
        for d in dvals:
            a = np.arccos(d / 2.0)
            best = None
            for s in (1.0, -1.0):
                m = round((k_prev.real - s * a.real) / (2.0 * math.pi))
                cand = s * a + 2.0 * math.pi * m
                if best is None or abs(cand - k_prev) < abs(best - k_prev):
                    best = cand
            max_jump = max(max_jump, abs(best - k_prev))
            k_prev = complex(best)
        if max_jump < 0.35 or n_steps >= 1 << 14:
            break
        n_steps *= 2
    residual = abs(np.cos(k_prev) - dvals[-1] / 2.0)
    if residual > 1e-8 * (1.0 + abs(dvals[-1])):
        raise InternalConsistencyError(
            "branch tracking lost: cos k residual %.3e at E=%r" % (residual, energy))
    if k_prev.imag < -1e-12:
        raise InternalConsistencyError("main branch left the upper half plane at E=%r"
                                       % (energy,))
    return QuasiMomentum(k_prev, n, on_gap)


def quasi_momentum_derivative(bands, energy):
    """dk/dE on the main branch, k' = -D' / (2 sin k).

    Diverges like |E - E_j|^(-1/2) at band edges; evaluation with
    |sin k| below 1e-9 raises SingularDerivativeError.
    """
    km = quasi_momentum_main(bands, energy)
    _, dp = discriminant_with_derivative(bands.potential, [complex(energy)], bands.tol)
    s = np.sin(km.value)
    if abs(s) < 1e-9:
        raise SingularDerivativeError(
            "quasi-momentum derivative singular at E=%r (band edge)" % (energy,))
    out = -complex(dp[0]) / (2.0 * s)
    if complex(energy).imag == 0.0 and not km.on_gap:
        return float(out.real)
    return out
