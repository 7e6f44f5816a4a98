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

W is monotone between its critical points, which a profile finds once;
on each monotone piece E - W crosses a band edge at most once, so one
bracketed root per crossing gives every window endpoint. Window endpoints
are transversal crossings of band edges; |W'| below 1e-6 at a crossing
violates the criticality assumption and raises.
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

_CRITICAL_WPRIME = 1e-6
_CRITICAL_WIDTH = 1e-10      # relative width of the finest bisection cell
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
        # a bump reaching further can underflow pieces' bound on |W'''| (~ |b|/w^3)
        if abs(self.center) + self.width > 1e100:
            raise ConfigurationError("bump reaches past |zeta| = 1e100")

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

    def _curvature_bound(self, a, b):
        """A bound on |W''| over the cell [a, b]: |W''(mid)| plus half the width
        times a term-by-term bound on |W'''|, 3|nu| |5t - 4| t^2.5 at x = |zeta|
        for the step and 24 (|b|/w^3) |u (2t - 1)| t^3 at x = |u| for a bump
        (t = 1/(1 + x^2)), each at most its value at an end of the cell's x
        range or an interior peak (x^2 = 3/4; u^2 = 1 -/+ 2/sqrt(5))."""
        def peak(lo, hi, tops, f):   # f's largest value over |x| for x in [lo, hi]
            x0, x1 = max(lo, -hi, 0.0), max(-lo, hi)
            return max(f(x0), f(x1), *(f(x) for x in tops if x0 <= x <= x1))

        m = 0.5 * (a + b)
        second = -3.0 * self.nu * m * (1.0 + m * m) ** -2.5
        third = 3.0 * abs(self.nu) * peak(a, b, (0.75 ** 0.5,), lambda x: abs(
            5.0 / (1.0 + x * x) - 4.0) * (1.0 + x * x) ** -2.5)
        for p in self.bumps:   # t and its powers are 0 where u * u overflows to inf
            u = (m - p.center) / p.width
            t = 1.0 / (1.0 + u * u)
            second += p.height * (6.0 - 8.0 * t) * t * t / p.width / p.width
            g = peak((a - p.center) / p.width, (b - p.center) / p.width,
                     ((1.0 - 0.8 ** 0.5) ** 0.5, (1.0 + 0.8 ** 0.5) ** 0.5),
                     lambda x: abs(x * (2.0 / (1.0 + x * x) - 1.0)) * (1.0 + x * x) ** -3.0)
            third += 24.0 * abs(p.height) * (g / p.width) / p.width / p.width
        return abs(second) + third * 0.5 * (b - a)

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

    @functools.cached_property
    def pieces(self):
        """(knots, values) of W's monotone pieces: -inf, the zeros where W' changes
        sign, +inf, and W at each (mu -/+ nu at -/+inf). Bisecting [-R, R], a
        cell [a, b] keeps the sign of W'(mid) if |W'(mid)| > B (b - a)/2, B from
        _curvature_bound, or is halved down to 1e-10 relative width; _brentq
        refines the zero between two certified cells of opposite signs. R is
        1e6, or 1e4 portrait half-widths where the bumps reach further."""
        reach = max(1e6, 1e4 * self.scan_half_width())
        cells, signs = [(-reach, reach)], []
        while cells:
            a, b = cells.pop()
            m = 0.5 * (a + b)
            slope, bound = self.derivative(m), self._curvature_bound(a, b) * (m - a)
            if abs(slope) > bound or bound == 0.0:
                if slope:   # W' is 0 on a cell where W is flat in floating point
                    signs.append((m, slope > 0.0))
            elif b - a <= _CRITICAL_WIDTH * max(1.0, abs(m)):
                signs.append((m, None))
            else:
                cells += [(a, m), (m, b)]
        knots, last, unknown = [-math.inf], None, []
        for m, sign in sorted(signs):   # distinct cells have distinct midpoints
            if sign is None:
                unknown.append(m)
                continue
            if last is not None and sign != last[1]:
                knots.append(_brentq(self.derivative, last[0], m))
            elif last is not None and unknown:
                raise DomainError("W' has a double zero near zeta=%.9g, two critical points "
                                  "within the bisection floor" % unknown[len(unknown) // 2])
            last, unknown = (m, sign), []
        values = [self.w_minus] + [self._real(z) for z in knots[1:]] + [self.w_plus]
        return tuple(knots + [math.inf]), tuple(values)

    def scan_half_width(self):
        """Half-width of the portrait's default zeta range."""
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

    W crosses the level E - edge of a band edge once on each monotone piece
    (profile.pieces) whose end values hold it strictly between them; past
    |zeta| = 1e8 (|c| + 1e8 w for a bump reaching further), where W is flat
    in floating point, a crossing is a DomainError. E - W spans
    [E - max W, E - min W] over the knots."""
    energy = float(energy)
    if not math.isfinite(energy):
        raise DomainError("energy E=%r is not finite" % energy)
    knots, values = profile.pieces
    e_range = (energy - max(values), energy - min(values))
    if e_range[1] > bands.gap_ceiling:
        raise EnergyRangeError(
            "E - W reaches %.6g, beyond the scanned band ceiling %.6g; "
            "rescan the band structure with a larger e_max"
            % (e_range[1], bands.gap_ceiling))
    at = profile._real
    # past |zeta| = far the step is its limit and a bump within 1e-16 of its height of 0
    far = max([_FLAT_STEP] + [abs(b.center) + _FLAT_STEP * b.width for b in profile.bumps])
    endpoints = []
    for j, edge in enumerate(bands._edge_list, start=1):
        level = energy - edge
        for a, b, w_a, w_b in zip(knots, knots[1:], values, values[1:]):
            if not min(w_a, w_b) < level < max(w_a, w_b):
                continue
            r = _crossing(lambda z: at(z) - level, a, b, w_b - level, far)
            if r is None:
                raise DomainError(
                    "E - W crosses edge %d beyond |zeta| = %g at E=%r, where W is "
                    "flat in floating point" % (j, far, energy))
            wp = profile.derivative(r)
            if abs(wp) < _CRITICAL_WPRIME:
                raise CriticalEndpointError(
                    "|W'| = %.3e < %.0e at the edge crossing zeta=%.9g "
                    "(edge %d); endpoint criticality violated"
                    % (abs(wp), _CRITICAL_WPRIME, r, j))
            endpoints.append(WindowEndpoint(r, j, wp))
    return _classify(profile, bands, energy, endpoints, e_range)


def _crossing(f, a, b, f_b, far):
    """The zero of f on the monotone piece (a, b), where f has f_b's sign at b,
    by _brentq from the piece or from a bracket that doubles outward up to
    |zeta| = far; else None. A tail's bracket grows from its finite end, and
    on the whole line from 0 toward the end where f's sign differs from f(0)."""
    if math.isfinite(a) and math.isfinite(b):
        return _brentq(f, a, b)
    prev = inner = a if math.isfinite(a) else b if math.isfinite(b) else 0.0
    f_in, step = f(inner), 1.0
    if math.isfinite(a):
        side = 1.0
    elif math.isfinite(b):
        side = -1.0
    else:
        side = 1.0 if f_in * f_b < 0.0 else -1.0
    while abs(prev) < far:
        z = max(-far, min(inner + side * step, far))
        if f(z) * f_in <= 0.0:
            return _brentq(f, min(prev, z), max(prev, z))
        prev, step = z, 2.0 * step
    return None


def _classify(profile, bands, energy, endpoints, e_range):
    """The window of `energy` cut at its endpoints, every crossing of a band
    edge, so that E - W stays in one band or gap between two cuts."""
    e_min, e_max = e_range
    endpoints.sort(key=lambda p: p.zeta)

    # interval membership at midpoints, and 1 unit beyond the outer cuts
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

    # every cut flips membership, unless the double edge of a closed gap
    # cuts the window at coincident endpoints
    if any(a == b for a, b in zip(member[:-1], member[1:])):
        for n, is_open in enumerate(bands.open_gap_flags, start=1):
            if not is_open and e_min <= bands.edges[2 * n - 1] <= e_max:
                raise UnsupportedConfigurationError(
                    "E - W crosses gap %d, closed at E=%.6g; the window decomposition "
                    "needs every crossed gap open" % (n, bands.edges[2 * n - 1]))

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
