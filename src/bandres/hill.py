"""Floquet spectral theory for -y'' + V(x) y = E y with 1-periodic V.

Conventions used throughout the package:

* The discriminant D(E) is the trace of the period map (monodromy matrix)
  in the solution basis (y, y')(0) = (1, 0) and (0, 1).
* Band edges are roots of D(E) = +/-2 and interlace
  E1 < E2 <= E3 < E4 <= E5 < ..., with the sign pattern D(E1) = 2,
  D(E2) = D(E3) = -2, D(E4) = D(E5) = 2, alternating in pairs. Band n is
  [E_{2n-1}, E_{2n}]; gap n is (E_{2n}, E_{2n+1}); energies below E1 form
  "gap 0". band_edges seeds them from the truncated Hill matrix and
  certifies each as a root of the monodromy-based excess s*D - 2.
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

import bisect
import functools
import math
import warnings

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from scipy.integrate import solve_ivp

from .errors import (
    ComputationError,
    ConfigurationError,
    DomainError,
    EnergyRangeError,
    IntegrationFailure,
    InternalConsistencyError,
    SingularDerivativeError,
)

_SCAN_TOL = 1e-10           # ODE tolerance of the untabled k routes; band_structure.json's "tol"
_REFINE_TOL = 2.5e-13       # ODE tolerance of the edge polish and its certificate
_TRUNCATION_TOL = 1e-8      # largest edge displacement allowed under Hill-matrix doubling
_BRACKET = 1e-9             # certificate bracket width; closer seed pairs form a double edge
_DOUBLE_EDGE_EXCESS = 1e-8  # largest |s*D - 2| across a double edge's bracket
_NEWTON_STEPS = 8
_NEWTON_STEP = 1e-14        # relative step that ends the polish
_CLOSED_GAP_WIDTH = 1e-7    # narrower gaps are flagged closed
_TABLE_RTOL = 1e-12
_TABLE_VALIDATION = 1e-10   # largest relative error of D allowed at the off-node probes
_TABLE_POINTS = 33          # Chebyshev nodes per table piece
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


def integrate_monodromy(potential, energy, tol=1e-10, derivative=False):
    """Monodromy matrix of -y'' + V y = E y over one period, batched over an
    energy array (a scalar gives scalar entries); derivative=True adds dM/dE
    from the variational system as a second MonodromyMatrix.

    The Wronskian det M = 1 is conserved exactly by the flow; the computed
    determinant is checked against 10*tol scaled by the squared matrix
    magnitude, which controls the rounding of the 2x2 determinant.
    """
    y = _propagate(potential, energy, tol, with_derivative=derivative)
    drift = np.abs(y[0] * y[3] - y[2] * y[1] - 1.0)
    bad = np.flatnonzero(drift > 10.0 * tol * np.maximum(1.0, np.abs(y[:4]).max(axis=0)) ** 2)
    if bad.size:
        raise IntegrationFailure("Wronskian drift %.3e exceeds tolerance at E=%s"
                                 % (drift[bad[0]], np.atleast_1d(energy)[bad[0]]))
    if np.ndim(energy) == 0:
        y = y[:, 0]
    m = MonodromyMatrix(y[0], y[2], y[1], y[3])
    return (m, MonodromyMatrix(y[4], y[6], y[5], y[7])) if derivative else m


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


def _hill_edges_at(potential, m_trunc):
    """Sorted eigenvalues of A(theta)_{mm'} = (theta + 2 pi m)^2 delta_{mm'} +
    v_{m-m'}, |m| <= m_trunc, at theta = 0 and pi together (the periodic and
    antiperiodic points); entry j approximates band edge j + 1 from above."""
    idx = np.arange(-m_trunc, m_trunc + 1)
    diff = idx[:, None] - idx[None, :]
    v = np.zeros(diff.shape, dtype=complex)
    for m in range(1, potential.mode_count + 1):
        v[diff == m] = potential.fourier_coefficient(m)
        v[diff == -m] = potential.fourier_coefficient(-m)
    merged = []
    for theta in (0.0, math.pi):
        a = v.copy()
        a[np.diag_indices_from(a)] += (theta + 2.0 * np.pi * idx) ** 2 + potential.mean
        merged.append(np.linalg.eigvalsh(a))
    return np.sort(np.concatenate(merged))


def _excess(m, s):
    """s*D - 2 as m12*m21 - (m11 - s)(m22 - s) (det M = 1): products of small
    factors near the edges of D = 2s, where D - 2s drowns in ODE noise."""
    return m.m12 * m.m21 - (m.m11 - s) * (m.m22 - s)


def band_edges(potential, e_max):
    """Band edges below e_max, assembled into a BandStructure.

    Seeds are the eigenvalues of the truncated Hill matrix (entry j is edge
    j + 1); doubling the truncation must move none by 1e-8. Newton on the
    factored excess f_s = s*D - 2 (s = +1 on D = 2 edges, -1 on D = -2
    edges; f_s' = s*D') polishes all seeds in one batch per step, and a
    sign change of f_s across a 1e-9 bracket, in the direction the edge's
    side of its band demands, certifies each as an ODE root. The factored
    form stays accurate where D - 2 is below ODE noise, so open gaps down
    to 1e-9 wide are resolved; a closer seed pair becomes one double edge
    at its midpoint. Gaps narrower than 1e-7 are flagged closed with a
    warning. An uncertified edge, edges out of order or an unconverged
    truncation raise ComputationError naming the edge.
    """
    if e_max <= potential.lower_bound() + 0.5:
        raise DomainError("e_max=%g leaves no room above the potential floor %g"
                          % (e_max, potential.lower_bound()))
    m_trunc = (4 * potential.mode_count + 8
               + math.ceil(math.sqrt(max(e_max - potential.mean, 0.0)) / math.pi))
    coarse = _hill_edges_at(potential, m_trunc)
    seeds = _hill_edges_at(potential, 2 * m_trunc)
    n_below = int(np.count_nonzero(seeds < e_max))
    n = n_below + 1 + n_below % 2   # the edges below e_max, the next and its gap partner
    moved = np.abs(seeds[:n] - coarse[:n])
    if np.count_nonzero(coarse < e_max) != n_below or moved.max() >= _TRUNCATION_TOL:
        k = int(np.argmax(moved))
        raise ComputationError(
            "edge %d at E=%.12g: doubling the Hill truncation M=%d moves it by %.3e"
            % (k + 1, seeds[k], m_trunc, moved[k]))

    j = np.arange(n)
    s = np.where(j % 4 % 3 == 0, 1.0, -1.0)      # D = 2s at edge j + 1
    edges = seeds[:n].copy()
    gap_lo = np.arange(1, n - 1, 2)
    double = gap_lo[edges[gap_lo + 1] - edges[gap_lo] < _BRACKET]
    edges[double] = edges[double + 1] = 0.5 * (edges[double] + edges[double + 1])
    pair = np.concatenate([double, double + 1])
    simple = np.setdiff1d(j, pair)

    e = edges[simple]
    for _ in range(_NEWTON_STEPS):
        m, dm = integrate_monodromy(potential, e, _REFINE_TOL, derivative=True)
        step = _excess(m, s[simple]) / (s[simple] * dm.trace())
        e = e - step
        strayed = simple[~(np.abs(e - edges[simple]) <= _TRUNCATION_TOL)]
        if strayed.size:
            k = strayed[0]
            raise ComputationError(
                "edge %d at E=%.12g is not certified: Newton on s*D - 2 leaves its "
                "seed's %.0e neighbourhood" % (k + 1, edges[k], _TRUNCATION_TOL))
        if np.all(np.abs(step) <= _NEWTON_STEP * np.maximum(1.0, np.abs(e))):
            break
    edges[simple] = e

    h = 0.5 * _BRACKET
    m = integrate_monodromy(potential, np.concatenate([edges - h, edges + h]), _REFINE_TOL)
    f_lo, f_hi = _excess(m, np.tile(s, 2)).reshape(2, n)
    # an edge with odd j + 1 has its gap below and its band above
    certified = np.where(j % 2 == 0, (f_lo > 0.0) & (f_hi < 0.0), (f_lo < 0.0) & (f_hi > 0.0))
    certified[pair] = np.maximum(abs(f_lo[pair]), abs(f_hi[pair])) <= _DOUBLE_EDGE_EXCESS
    if not certified.all():
        k = int(np.argmin(certified))
        raise ComputationError(
            "edge %d at E=%.12g is not certified: s*D - 2 reads %.3e and %.3e "
            "across its %.0e bracket" % (k + 1, edges[k], f_lo[k], f_hi[k], _BRACKET))
    rise = np.diff(edges)
    rise[double] = 1.0          # a double edge repeats by construction
    if (rise <= 0.0).any():
        k = int(np.argmax(rise <= 0.0))
        raise ComputationError("edge %d at E=%.12g does not lie above edge %d at E=%.12g"
                               % (k + 2, edges[k + 1], k + 1, edges[k]))

    count = int(np.count_nonzero(edges < e_max))
    if count < 2:
        raise DomainError("no complete spectral band below e_max=%g" % e_max)
    # gap g lies between edges 2g and 2g + 1; it is flagged when both lie below e_max
    flags = [bool(w > _CLOSED_GAP_WIDTH) for w in edges[2:count:2] - edges[1:count - 1:2]]
    closed = [g for g, is_open in enumerate(flags, start=1) if not is_open]
    if closed:
        warnings.warn("gap(s) %s closed within tolerance; the all-gaps-open "
                      "genericity assumption fails" % closed, stacklevel=2)
    return BandStructure(edges=edges[:count - count % 2], open_gap_flags=flags,
                         e_max=float(e_max), potential=potential,
                         next_band_start=float(edges[count - 1]) if count % 2 else None)


class DiscriminantTable:
    """Piecewise-Chebyshev cache of D and D' between band edges.

    D(E) is entire, so interpolation on each edge-aligned piece converges
    geometrically; the pieces only exist to keep degrees modest and to
    align evaluation with the band/gap bookkeeping. Each piece holds a
    33-node interpolant: the coefficients reach the ODE noise floor near
    degree 15 on every band-aligned piece, so 33 nodes carry about twice
    the degree the signal needs and read within 1.3e-13 of a 97-node table.
    Built from a single batched propagation; the relative error of D at
    seven off-node probes per piece must stay within 1e-10, or the build
    raises InternalConsistencyError.
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
        if err > _TABLE_VALIDATION:
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
    gap below e_max remains usable.
    """

    def __init__(self, edges, open_gap_flags, e_max, potential, next_band_start=None):
        self.edges = np.asarray(edges, dtype=float)
        if self.edges.size % 2:
            raise InternalConsistencyError("edge list must pair into bands")
        self._edge_list = self.edges.tolist()   # plain floats for bisect
        self.open_gap_flags = list(open_gap_flags)
        self.e_max = float(e_max)
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
        """('band', n) or ('gap', n) for a real energy; gap 0 lies below E1.
        Bands are closed, so a double edge belongs to the band below it."""
        e = float(e)
        if not e <= self.gap_ceiling:
            raise EnergyRangeError("E=%.12g beyond scanned bands (ceiling %.12g)"
                                   % (e, self.gap_ceiling))
        i = bisect.bisect_left(self._edge_list, e)   # edges strictly below e
        if i % 2 or (i < len(self._edge_list) and self._edge_list[i] == e):
            return ("band", i // 2 + 1)
        return ("gap", i // 2)

    # --- fast real-axis evaluation through the cached discriminant ---

    @functools.cached_property
    def table(self):
        """The discriminant table over [E1 - 5, gap_ceiling], built once."""
        breaks = ([self.edges[0] - _TABLE_DEPTH] + [float(x) for x in self.edges]
                  + [self.gap_ceiling])
        return DiscriminantTable(self.potential, breaks)

    def k_band_fast(self, e, band_index):
        """Main-branch k on band `band_index` (vectorized, table-backed)."""
        c = np.clip(_band_sign(band_index) * self.table.value(e) / 2.0, -1.0, 1.0)
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
        return -_band_sign(band_index) * dp / (2.0 * sin_phi)

    def to_dict(self):
        return {"edges": [float(x) for x in self.edges],
                "open_gap_flags": list(self.open_gap_flags),
                "e_max": self.e_max,
                "tol": _SCAN_TOL,
                "next_band_start": self.next_band_start}

    @classmethod
    def from_dict(cls, d, potential):
        return cls(edges=d["edges"], open_gap_flags=d["open_gap_flags"],
                   e_max=d["e_max"], potential=potential,
                   next_band_start=d.get("next_band_start"))


def _band_sign(band_index):
    """Orientation of band n: +1.0 for odd n, where D falls from 2 to -2 and
    the folded momentum rises from 0 to pi, and -1.0 for even n, where both
    run the other way."""
    return 1.0 if band_index % 2 == 1 else -1.0


def reduced_momentum(k, band_index):
    """Fold the main branch on band n into the [0, pi] normalization."""
    n = band_index
    if _band_sign(n) > 0.0:
        return k - math.pi * (n - 1)
    return math.pi * n - k


def edge_reduced_value(side, band_index):
    """Folded momentum at a band edge: 0 at the lower edge of an odd band
    and at the upper edge of an even one, pi at the other edge."""
    if side not in ("lower", "upper"):
        raise DomainError("side must be 'lower' or 'upper'")
    return 0.0 if (side == "lower") == (_band_sign(band_index) > 0.0) else math.pi


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
    d = float(discriminant_many(bands.potential, [e], _SCAN_TOL)[0].real)
    if kind == "band":
        phi = math.acos(min(1.0, max(-1.0, _band_sign(n) * d / 2.0)))
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
        dvals = discriminant_many(bands.potential, path, _SCAN_TOL)
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
    _, dp = discriminant_with_derivative(bands.potential, [complex(energy)], _SCAN_TOL)
    s = np.sin(km.value)
    if abs(s) < 1e-9:
        raise SingularDerivativeError(
            "quasi-momentum derivative singular at E=%r (band edge)" % (energy,))
    out = -complex(dp[0]) / (2.0 * s)
    if complex(energy).imag == 0.0 and not km.on_gap:
        return float(out.real)
    return out
