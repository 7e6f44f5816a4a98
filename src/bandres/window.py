"""Perturbation profiles and the spectral windows they cut out.

The slow profile family is

    W(zeta) = mu + nu * zeta / sqrt(1 + zeta^2)
              + sum_j b_j / (1 + ((zeta - c_j) / w_j)^2)

with limits W(+/-inf) = mu +/- nu, quadratic tail decay, and poles at
+/-i and c_j +/- i*w_j, so W is analytic on the cone
C0 |Im z| <= 1 + |Re z| with C0 = 2 / h, h = min(1, min_j w_j).

For a real energy E the spectral window is

    W(E) = { zeta in R : E - W(zeta) in spec(-d2/dx2 + V) },

a finite union of maximal intervals here (finitely many profile
monotonicity changes). Supported regimes:

* H5: no compact component (at most one unbounded component per side, or
  the full line). No resonances are produced in this regime.
* H6: exactly one compact component U = [zeta0-, zeta0+], not reduced to
  a point, plus at most one unbounded component on each side,
  U_- = (-inf, zeta-] and U_+ = [zeta+, inf). Empty sides are encoded by
  zeta- = -inf and zeta+ = +inf.

Window endpoints are transversal crossings of band edges; |W'| below
1e-6 at a crossing violates the criticality assumption and raises. So does
E - W crossing an edge and back inside one cell of the 2000-point scan,
where a membership probe falls between the two crossings; elsewhere the
scan does not see such a pair.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (
    ConfigurationError,
    CriticalEndpointError,
    DomainError,
    EnergyRangeError,
    InternalConsistencyError,
    NearSingularityError,
    UnsupportedConfigurationError,
)
from .hill import edge_band_side, edge_reduced_value

_SCAN_POINTS = 2000
_CRITICAL_WPRIME = 1e-6
_SINGULARITY_GUARD = 1e-6
_POINT_COMPONENT_WIDTH = 1e-8
_FLAT_STEP = 1e8             # |zeta| past which the step term is its limit
_BRENT_XTOL = 1e-13
_BRENT_RTOL = 4 * 2.0 ** -52      # 4 eps, scipy's floor, as a plain float
_BRENT_ITER = 100


class Bump:
    """One Lorentzian term b / (1 + ((zeta - c)/w)^2)."""

    def __init__(self, height, center, width):
        self.height = float(height)
        self.center = float(center)
        self.width = float(width)
        if not all(math.isfinite(v) for v in (self.height, self.center, self.width)):
            raise ConfigurationError("bump parameters must be finite")
        if self.width <= 0.0:
            raise ConfigurationError("bump width must be positive")

    def as_tuple(self):
        return (self.height, self.center, self.width)

    def __repr__(self):
        return "Bump(height=%r, center=%r, width=%r)" % self.as_tuple()


class PerturbationProfile:
    """Step-plus-bumps profile; immutable and thread-safe."""

    def __init__(self, mu=0.0, nu=0.0, bumps=(), allow_constant=False):
        self.mu = float(mu)
        self.nu = float(nu)
        self.bumps = tuple(b if isinstance(b, Bump) else Bump(*b) for b in bumps)
        if not (math.isfinite(self.mu) and math.isfinite(self.nu)):
            raise ConfigurationError("profile parameters must be finite")
        if not allow_constant and self.nu == 0.0 and not any(
                b.height != 0.0 for b in self.bumps):
            raise ConfigurationError(
                "constant profile rejected (perturbation must be nontrivial); "
                "pass allow_constant=True for test mode")
        self.allow_constant = bool(allow_constant)

    @property
    def w_plus(self):
        return self.mu + self.nu

    @property
    def w_minus(self):
        return self.mu - self.nu

    @property
    def analyticity_height(self):
        widths = [b.width for b in self.bumps]
        return min(1.0, min(widths)) if widths else 1.0

    def singularities(self):
        """Poles/branch points of the analytic continuation."""
        out = [1j, -1j]
        for b in self.bumps:
            out.append(complex(b.center, b.width))
            out.append(complex(b.center, -b.width))
        return out

    def __call__(self, zeta):
        """W(zeta); complex arguments are admitted inside the analyticity
        cone (a near-singularity guard of 1e-6 applies)."""
        if isinstance(zeta, float):
            return self._real(float(zeta))
        z = np.asarray(zeta)
        is_complex = z.dtype.kind == "c"
        if is_complex:
            flat = np.atleast_1d(z)
            for s in self.singularities():
                d = np.min(np.abs(flat - s))
                if d < _SINGULARITY_GUARD:
                    raise NearSingularityError(
                        "profile evaluated %.2e from the singularity %s" % (d, s))
        with np.errstate(over="ignore"):   # a bump's u^2 past 1e308 adds 0
            out = self._real(z, np.sqrt)
        if out.shape:
            return out
        return complex(out) if is_complex else float(out)

    def _real(self, z, sqrt=math.sqrt):
        """W at zeta by the expression of every path: a float runs in float
        arithmetic with math.sqrt, an array with np.sqrt. Each operation is
        correctly rounded, so a float rounds like the array path. Past
        |zeta| = 1e8, where z / sqrt(1 + z^2) is within an ulp of +/-1, the
        step term is its limit +/-nu, so z^2 never overflows there."""
        if isinstance(z, float):
            flat = abs(z) > _FLAT_STEP
            out = self.mu + (math.copysign(1.0, z) * self.nu if flat
                             else self.nu * z / sqrt(1.0 + z * z))
        else:
            flat = abs(z.real) > _FLAT_STEP
            s = np.where(flat, 0.0, z)
            out = self.mu + np.where(flat, np.sign(z.real) * self.nu,
                                     self.nu * s / sqrt(1.0 + s * s))
        for b in self.bumps:
            u = (z - b.center) / b.width
            out = out + b.height / (1.0 + u * u)
        return out

    def _real_prime(self, z):
        """W' at zeta by the expression of every path. On a float its powers
        are the C library's pow, as the 0-d numpy path's are; Python's pow
        raises OverflowError where numpy's overflows."""
        out = self.nu / (1.0 + z * z) ** 1.5
        for b in self.bumps:
            u = (z - b.center) / b.width
            out = out - 2.0 * b.height * u / (b.width * (1.0 + u * u) ** 2)
        return out

    def derivative(self, zeta):
        """W'(zeta); a float runs _real_prime in float arithmetic."""
        if isinstance(zeta, float):
            try:
                return self._real_prime(float(zeta))
            except OverflowError:
                pass   # numpy's pow gives inf there, which only zeroes its term
        z = np.asarray(zeta)
        is_complex = z.dtype.kind == "c"
        if not (is_complex or z.shape):
            z = z[()]
        with np.errstate(over="ignore"):   # past |zeta| ~ 1e154 each term is its limit 0
            out = self._real_prime(z)
        if out.shape:
            return out
        return complex(out) if is_complex else float(out)

    def scan_half_width(self):
        """Half-width of the endpoint root scan interval."""
        reach = max((abs(b.center) + b.width for b in self.bumps), default=0.0)
        return 10.0 + 4.0 * reach

    def _key(self):
        return (self.mu, self.nu, tuple(b.as_tuple() for b in self.bumps))

    def __eq__(self, other):
        return isinstance(other, PerturbationProfile) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "PerturbationProfile(mu=%r, nu=%r, bumps=%r)" % (
            self.mu, self.nu, list(self.bumps))

    def to_dict(self):
        return {"mu": self.mu, "nu": self.nu,
                "bumps": [list(b.as_tuple()) for b in self.bumps],
                "allow_constant": self.allow_constant}

    @classmethod
    def from_dict(cls, d):
        return cls(d.get("mu", 0.0), d.get("nu", 0.0), d.get("bumps", ()),
                   allow_constant=d.get("allow_constant", False))


@functools.lru_cache(maxsize=64)
def _scan_grid(profile, z_half):
    """(zeta grid, W on it, min W, max W) over [-z_half, z_half]; the
    arrays are shared between calls and read-only."""
    zgrid = np.linspace(-z_half, z_half, _SCAN_POINTS)
    wgrid = profile(zgrid)
    zgrid.flags.writeable = False
    wgrid.flags.writeable = False
    return zgrid, wgrid, float(np.min(wgrid)), float(np.max(wgrid))


class WindowEndpoint:
    """A transversal crossing of a band edge by E - W."""

    def __init__(self, zeta, edge_index, w_prime):
        self.zeta = float(zeta)
        self.edge_index = int(edge_index)
        self.band_index, self.side = edge_band_side(self.edge_index)
        self.w_prime = float(w_prime)

    def __repr__(self):
        return ("WindowEndpoint(zeta=%.12g, edge_index=%d, side=%s, w_prime=%.6g)"
                % (self.zeta, self.edge_index, self.side, self.w_prime))

    def to_dict(self):
        return {"zeta": self.zeta, "edge_index": self.edge_index,
                "band_index": self.band_index, "side": self.side,
                "w_prime": self.w_prime}


class WindowComponent:
    """Maximal interval of the spectral window."""

    def __init__(self, lo, hi, kind, lo_endpoint=None, hi_endpoint=None,
                 band_index=None):
        self.lo = float(lo)
        self.hi = float(hi)
        self.kind = kind
        self.lo_endpoint = lo_endpoint
        self.hi_endpoint = hi_endpoint
        self.band_index = band_index

    @property
    def width(self):
        return self.hi - self.lo

    @property
    def key(self):
        """(lo edge index, hi edge index, band) of a compact component."""
        return (self.lo_endpoint.edge_index, self.hi_endpoint.edge_index,
                self.band_index)

    @property
    def anchors(self):
        """Fold values (v_lo, v_hi), each 0 or pi, of kappa0 at the ends of
        an H6 well, whose endpoints decompose_window checks are its band's."""
        return (edge_reduced_value(self.lo_endpoint.side, self.band_index),
                edge_reduced_value(self.hi_endpoint.side, self.band_index))

    def __repr__(self):
        return "WindowComponent(%.6g, %.6g, %r, band=%r)" % (
            self.lo, self.hi, self.kind, self.band_index)

    def to_dict(self):
        return {"lo": self.lo, "hi": self.hi, "kind": self.kind,
                "band_index": self.band_index,
                "lo_endpoint": None if self.lo_endpoint is None else self.lo_endpoint.to_dict(),
                "hi_endpoint": None if self.hi_endpoint is None else self.hi_endpoint.to_dict()}


class SpectralWindow:
    """Decomposed window of one energy, with the H5/H6 classification."""

    def __init__(self, energy, components, classification, e_range):
        self.energy = float(energy)
        self.components = list(components)
        self.classification = classification
        self.e_range = e_range

        self.compact = None
        left = None
        right = None
        for c in self.components:
            if c.kind == "compact":
                if self.compact is None or c.width > self.compact.width:
                    self.compact = c
            elif c.kind == "unbounded_left":
                left = c
            elif c.kind in ("unbounded_right", "full_line"):
                right = c
        self.zeta_minus = left.hi if left is not None else -math.inf
        self.zeta_plus = right.lo if right is not None else math.inf
        self.zeta0_minus = self.compact.lo if self.compact is not None else None
        self.zeta0_plus = self.compact.hi if self.compact is not None else None
        self.band_index = self.compact.band_index if self.compact is not None else None

    def well(self, op):
        """The compact component of a one-well (H6) window; any other
        classification is refused with an error naming `op`."""
        if self.classification != "H6":
            raise UnsupportedConfigurationError(
                "%s needs the one-well (H6) regime, got %s"
                % (op, self.classification))
        return self.compact

    @property
    def is_open(self):
        """Some component is unbounded, so a level can tunnel out and has a width."""
        return any(c.kind != "compact" for c in self.components)

    @property
    def barriers(self):
        """The barrier segments ((zeta-, zeta0-), (zeta0+, zeta+)) on the
        left and right of the well; an empty side has an infinite end."""
        return ((self.zeta_minus, self.zeta0_minus),
                (self.zeta0_plus, self.zeta_plus))

    def __repr__(self):
        return "SpectralWindow(E=%.8g, %s, %d component(s))" % (
            self.energy, self.classification, len(self.components))

    def to_dict(self):
        return {"energy": self.energy,
                "classification": self.classification,
                "components": [c.to_dict() for c in self.components],
                "zeta_minus": self.zeta_minus, "zeta0_minus": self.zeta0_minus,
                "zeta0_plus": self.zeta0_plus, "zeta_plus": self.zeta_plus,
                "e_range": list(self.e_range)}


def _brentq(f, a, b):
    """Root of f in the sign-changing bracket [a, b] by Brent's method
    (Algorithms for Minimization without Derivatives, ch. 4): the
    operations of scipy's brentq (its brentq.c) with xtol=1e-13 and the
    default rtol of 4*eps, in the same order, so it returns the same float.
    A bracket without a sign change, a NaN value or 100 iterations without
    convergence raise InternalConsistencyError naming zeta."""
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.isnan(fpre) or math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise InternalConsistencyError(
            "endpoint bracket [%.12g, %.12g] in zeta holds no sign change" % (xpre, xcur))
    for _ in range(_BRENT_ITER):
        if math.isnan(fcur):
            raise InternalConsistencyError("endpoint refinement reads NaN at zeta=%.12g"
                                           % xcur)
        if fpre != 0 and fcur != 0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)          # interpolate
            else:
                dpre = (fpre - fcur) / (xpre - xcur)                  # extrapolate
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # a zero den gives C an infinite or NaN step, which bisects
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry                               # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
    raise InternalConsistencyError("endpoint refinement did not converge in %d steps "
                                   "near zeta=%.12g" % (_BRENT_ITER, xcur))


def decompose_window(profile, bands, energy):
    """Decompose the spectral window of `energy` and classify it.

    Crossing points of E - W with every scanned band edge are located on
    a 2000-point grid over the profile-adapted interval [-Z, Z] and
    refined by bracketed root finding; interval membership is then decided
    at midpoints, and at the tails via the limits W(+/-inf). The scan
    interval doubles until the tail values are safely separated from every
    band edge (relative to the quadratic tail decay), so no crossing can
    hide beyond it.
    """
    energy = float(energy)
    if not math.isfinite(energy):
        raise DomainError("energy E=%r is not finite" % energy)
    edges = bands._edge_list
    margin = min(min(abs(t - e) for e in edges)
                 for t in (energy - profile.w_minus, energy - profile.w_plus))
    for attempt in range(6):
        (zgrid, wgrid, w_min, w_max), tail_slack = _scan(profile, attempt)
        if margin > tail_slack:
            break
    else:
        raise DomainError(
            "E - W(+/-inf) sits within %.2e of a band edge; the window "
            "classification is not stable at infinity" % margin)
    e_range = (energy - w_max - tail_slack, energy - w_min + tail_slack)
    if e_range[1] > bands.gap_ceiling:
        raise EnergyRangeError(
            "E - W reaches %.6g, beyond the scanned band ceiling %.6g; "
            "rescan the band structure with a larger e_max"
            % (e_range[1], bands.gap_ceiling))
    at = profile._real
    endpoints = []
    for j, edge in enumerate(edges, start=1):
        level = energy - edge
        if not w_min - tail_slack <= level <= w_max + tail_slack:
            continue
        # crossing cells: W > level exactly where W - level tests positive
        above = wgrid > level
        cells = np.flatnonzero(above[1:] != above[:-1]).tolist()
        # Brent's last bracket holds the crossing within its tolerance in
        # zeta, however steep W is there
        for r in [_brentq(lambda z: at(z) - level, zgrid[c], zgrid[c + 1]) for c in cells]:
            wp = profile.derivative(r)
            if abs(wp) < _CRITICAL_WPRIME:
                raise CriticalEndpointError(
                    "|W'| = %.3e < %.0e at the edge crossing zeta=%.9g "
                    "(edge %d); endpoint criticality violated"
                    % (abs(wp), _CRITICAL_WPRIME, r, j))
            endpoints.append(WindowEndpoint(r, j, wp))
    return _classify(profile, bands, energy, endpoints, e_range, zgrid[1] - zgrid[0])


def _scan(profile, attempt):
    """The scan grid and its tail slack after `attempt` doublings of the
    scan interval."""
    grid = _scan_grid(profile, profile.scan_half_width() * 2.0 ** attempt)
    wgrid = grid[1]
    return grid, 3.0 * max(abs(wgrid[0] - profile.w_minus),
                           abs(wgrid[-1] - profile.w_plus)) + 1e-12


def _classify(profile, bands, energy, endpoints, e_range, cell):
    """The window of `energy` cut at its refined endpoints; `cell` is the
    spacing of the scan that found them."""
    e_min, e_max = e_range
    endpoints.sort(key=lambda p: p.zeta)

    # interval membership at midpoints, and 1 unit beyond the outer cuts,
    # where E - W lies between the same two edges as E - W(+/-inf) unless
    # the scan missed a crossing
    cuts = [p.zeta for p in endpoints]
    mids = []
    if cuts:
        mids.append(cuts[0] - 1.0)
        for a, b in zip(cuts[:-1], cuts[1:]):
            mids.append(0.5 * (a + b))
        mids.append(cuts[-1] + 1.0)
    else:
        mids.append(0.0)
    located = [bands.locate(energy - profile(m)) for m in mids]
    member = [kind == "band" for kind, _ in located]

    components = []
    bounds = [-math.inf] + cuts + [math.inf]
    for i, inside in enumerate(member):
        if not inside:
            continue
        lo, hi = bounds[i], bounds[i + 1]
        lo_ep = endpoints[i - 1] if i > 0 else None
        hi_ep = endpoints[i] if i < len(endpoints) else None
        if math.isinf(lo) and math.isinf(hi):
            kind = "full_line"
        elif math.isinf(lo):
            kind = "unbounded_left"
        elif math.isinf(hi):
            kind = "unbounded_right"
        else:
            kind = "compact"
        components.append(WindowComponent(lo, hi, kind, lo_ep, hi_ep, located[i][1]))

    # every cut flips membership and every component ends on edges of its
    # own band, unless the double edge of a closed gap cuts the window at
    # coincident endpoints or E - W crosses an edge and back inside one scan
    # cell, which the scan does not see
    unflipped = [p for p, a, b in zip(endpoints, member[:-1], member[1:]) if a == b]
    if unflipped:
        for n, is_open in enumerate(bands.open_gap_flags, start=1):
            if not is_open and e_min <= bands.edges[2 * n - 1] <= e_max:
                raise UnsupportedConfigurationError(
                    "E - W crosses gap %d, closed at E=%.6g; the window decomposition "
                    "needs every crossed gap open" % (n, bands.edges[2 * n - 1]))
    unseen = unflipped + [ep for c in components for ep in (c.lo_endpoint, c.hi_endpoint)
                          if ep is not None and ep.band_index != c.band_index]
    if unseen:
        raise CriticalEndpointError(
            "E - W crosses a band edge and back within one %.3g-wide cell of the "
            "%d-point scan near zeta=%.9g; the scan does not resolve the window"
            % (cell, _SCAN_POINTS, unseen[0].zeta))

    compacts = [c for c in components if c.kind == "compact"]
    if not components:
        classification = "EMPTY"
    elif len(compacts) > 1:
        classification = "GENERAL"
    elif len(compacts) == 1:
        classification = "H6" if compacts[0].width > _POINT_COMPONENT_WIDTH else "GENERAL"
    else:
        classification = "H5"

    return SpectralWindow(energy, components, classification, (e_min, e_max))
