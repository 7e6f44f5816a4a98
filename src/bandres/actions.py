"""Action integrals of the one-well (H6) regime.

Conventions:

* kappa0 is the reduced momentum on the well's band n: the main branch k
  folded onto [0, pi] (odd n: kappa0 = k - pi(n-1); even n: pi*n - k).
  It vanishes at a lower edge of an odd band / upper edge of an even band
  and equals pi at the other edge, so its endpoint values are determined
  by the window bookkeeping alone.
* Phi0(E) = integral of kappa0(E - W(zeta)) over the compact component
  U = [zeta0-, zeta0+]; strictly positive.
* delta_kappa = (kappa0(zeta0+) - kappa0(zeta0-)) / pi in {-1, 0, +1};
  an integer computed from edge bookkeeping, never from quadrature, and
  constant in E while the endpoints stay on the same edges.
* S-/S+ = 2 * integral of Im k(E - W) over the barrier segments
  [zeta-, zeta0-] / [zeta0+, zeta+]: the full instanton action of the
  lifetime cycle, which traverses the decaying branch both ways. With
  this normalization exp(-S/eps) is the barrier transmission probability
  (the squared amplitude factor), the exponent observed in absorbing
  boundary spectra. Positive, and +inf when the corresponding side
  component is empty. Tunneling weights t+- = exp(-S+-/eps), t = t+ + t-.
* Phi0'(E) carries boundary terms from the moving endpoints:
  Phi0' = kappa0(zeta0+)/W'(zeta0+) - kappa0(zeta0-)/W'(zeta0-)
          + sign(n) * integral of k'(E - W), sign = +1 for odd n.
* Phi_w(E) = Phi0 - v_hi*zeta0+ + v_lo*zeta0- where v_lo/v_hi are the
  endpoint values of kappa0 (0 or pi). This is the well phase that enters
  the quantization condition: anchoring at the endpoint fold values makes
  the integrand of dPhi_w/dE vanish at the turning points, so
  Phi_w' = sign(n) * integral of k'(E - W) with no boundary terms.
  Phi_w may take either sign and equals Phi0 exactly when both endpoints
  sit at kappa0 = 0 edges.

All integrands have square-root behavior at component endpoints (simple
band-edge crossings), removed exactly by the zeta = endpoint +/- u^2
substitution on buffer panels; interior panels use plain Gauss-Legendre.
Every integral uses 2*nodes points per panel and calls its integrand once
per batch, on a (k, 4*2*nodes) array holding the nodes of all four panels
of k segments; only phase_integral(with_error=True) also runs the nodes
rule, and reports the difference as its quadrature error. The private
batched forms (_well_phases, _well_phase_derivatives, _action_data) take
many windows on one band, so the table-backed momentum is evaluated once
for all of them. Each row is reduced on its own, so a value does not
depend on the batch it was computed in. The barrier actions stay per
window: gamma_fast propagates energies below the table floor in one ODE
solve whose steps depend on the batch.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InternalConsistencyError, UnsupportedConfigurationError
from .hill import _band_sign, edge_reduced_value, reduced_momentum

_GL_CACHE = {}
_UNDERFLOW_EXPONENT = 690.0   # exp(-690) ~ 1e-300


def _gl(n):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(int(n))
    return _GL_CACHE[n]


def _edge_resolved_quad(f, segments, n, buffer):
    """Integrate f over each segment [a, b] with sqrt endpoint behavior at
    both ends, n Gauss-Legendre nodes on each of the four panels; f is
    called once, on a (len(segments), 4n) array holding every segment's
    nodes in its row, and returns values of the same shape. The buffer
    panels run in u over [0, sqrt(d)] with zeta = a + u^2 and
    zeta = b - u^2. Returns one integral per segment."""
    x, w = _gl(n)
    rows, layout = [], []
    for a, b in segments:
        if not b > a:
            raise InternalConsistencyError("empty integration segment [%g, %g]" % (a, b))
        d = buffer * (b - a)
        m = 0.5 * (a + b)
        panels = ((0.0, math.sqrt(d)), (a + d, m), (m, b - d), (0.0, math.sqrt(d)))
        u, lo_half, hi_half = (0.5 * (lo + hi) + 0.5 * (hi - lo) * x
                               for lo, hi in panels[:3])
        rows.append(np.concatenate((a + u * u, lo_half, hi_half, b - u * u)))
        layout.append((panels, u))
    values = f(np.array(rows)).reshape(len(rows), 4, -1)
    out = []
    for (panels, u), v in zip(layout, values):
        v[0] *= 2.0 * u
        v[3] *= 2.0 * u
        out.append(sum(0.5 * (hi - lo) * float(np.dot(w, vp))
                       for (lo, hi), vp in zip(panels, v)))
    return out


def _require_h6(window, op):
    if window.classification != "H6":
        raise UnsupportedConfigurationError(
            "%s needs the one-well (H6) regime, got %s"
            % (op, window.classification))


def _wells(windows, op):
    """(segments, energy column, band index) of H6 wells on one band."""
    for window in windows:
        _require_h6(window, op)
    n = windows[0].compact.band_index
    if any(w.compact.band_index != n for w in windows):
        raise InternalConsistencyError("batched wells lie on different bands")
    return ([(w.compact.lo, w.compact.hi) for w in windows],
            np.array([[w.energy] for w in windows]), n)


def _phase_integrals(windows, bands, profile, nodes, buffer, op,
                     with_error=False):
    """Phi0 of every window, in one integrand call per rule."""
    segments, energies, n = _wells(windows, op)

    def integrand(z):
        return reduced_momentum(bands.k_band_fast(energies - profile(z), n), n)

    values = _edge_resolved_quad(integrand, segments, 2 * nodes, buffer)
    for value in values:
        if value <= 0.0:
            raise InternalConsistencyError("Phi0 = %g not positive" % value)
    if not with_error:
        return values
    coarse = _edge_resolved_quad(integrand, segments, nodes, buffer)
    return [(v, abs(v - c)) for v, c in zip(values, coarse)]


def phase_integral(window, bands, profile, nodes=64, buffer=0.1,
                   with_error=False):
    """Phi0(E): action of the compact component of the window."""
    return _phase_integrals([window], bands, profile, nodes, buffer,
                            "phase_integral", with_error)[0]


def _anchor_values(window):
    """Endpoint fold values (v_lo, v_hi) of the compact component."""
    c = window.compact
    for ep in (c.lo_endpoint, c.hi_endpoint):
        if ep is None or ep.band_index != c.band_index:
            raise InternalConsistencyError(
                "well endpoints do not bound band %r" % c.band_index)
    return (edge_reduced_value(c.lo_endpoint.side, c.band_index),
            edge_reduced_value(c.hi_endpoint.side, c.band_index))


def _anchored(window, phi0):
    """Phi_w = Phi0 - v_hi*zeta0+ + v_lo*zeta0-."""
    v_lo, v_hi = _anchor_values(window)
    return phi0 - v_hi * window.compact.hi + v_lo * window.compact.lo


def _boundary_term(window):
    """Moving-endpoint part of Phi0': v_hi/W'(zeta0+) - v_lo/W'(zeta0-)."""
    c = window.compact
    v_lo, v_hi = _anchor_values(window)
    return v_hi / c.hi_endpoint.w_prime - v_lo / c.lo_endpoint.w_prime


def delta_kappa(window):
    """Net reduced-momentum jump across the well in units of pi; an
    integer from edge bookkeeping only."""
    _require_h6(window, "delta_kappa")
    v_lo, v_hi = _anchor_values(window)
    dk = round((v_hi - v_lo) / math.pi)
    if dk not in (-1, 0, 1):
        raise InternalConsistencyError("delta_kappa = %r out of range" % dk)
    return int(dk)


def actions_pm(window, bands, profile, nodes=64, buffer=0.1):
    """(S_minus, S_plus): round-trip barrier actions; +inf where empty.

    S = 2 * integral of Im k over the gap segment, so that exp(-S/eps)
    is a transmission probability rather than an amplitude factor.
    """
    _require_h6(window, "actions_pm")
    energy = window.energy

    def gamma(z):
        return bands.gamma_fast(energy - profile(z))

    out = []
    for a, b in ((window.zeta_minus, window.zeta0_minus),
                 (window.zeta0_plus, window.zeta_plus)):
        if math.isinf(a) or math.isinf(b):
            out.append(math.inf)
            continue
        value = _edge_resolved_quad(gamma, [(a, b)], 2 * nodes, buffer)[0]
        if value <= 0.0:
            raise InternalConsistencyError("barrier action %g not positive" % value)
        out.append(2.0 * value)
    return out[0], out[1]


class TunnelingCoefficients:
    """(t_minus, t_plus, t); iterable in that order."""

    def __init__(self, t_minus, t_plus, underflowed):
        self.t_minus = float(t_minus)
        self.t_plus = float(t_plus)
        self.t = self.t_minus + self.t_plus
        self.underflowed = bool(underflowed)

    def __iter__(self):
        return iter((self.t_minus, self.t_plus, self.t))

    def __repr__(self):
        return "TunnelingCoefficients(t_minus=%g, t_plus=%g, underflowed=%r)" % (
            self.t_minus, self.t_plus, self.underflowed)


def tunneling_coefficients(action_data, epsilon):
    """Exponentially small barrier weights at slowness epsilon.

    Exponents past the double-precision floor clamp to zero and set the
    underflowed flag; an infinite action gives an exact zero silently.
    """
    if not 0.0 < epsilon <= 0.5:
        raise UnsupportedConfigurationError("epsilon=%g outside (0, 0.5]" % epsilon)
    underflowed = False
    ts = []
    for s in (action_data.s_minus, action_data.s_plus):
        if math.isinf(s):
            ts.append(0.0)
            continue
        x = s / epsilon
        if x > _UNDERFLOW_EXPONENT:
            ts.append(0.0)
            underflowed = True
        else:
            ts.append(math.exp(-x))
    return TunnelingCoefficients(ts[0], ts[1], underflowed)


def phase_integral_derivative(window, bands, profile, nodes=64, buffer=0.1):
    """dPhi0/dE, boundary terms plus the interior k' integral.

    The k' integrand diverges like the inverse square root at the well
    endpoints; the u^2 substitution renders it analytic, so plain
    Gauss-Legendre on the buffer panels converges spectrally.
    """
    _require_h6(window, "phase_integral_derivative")
    interior = well_phase_derivative(window, bands, profile, nodes, buffer)
    return _boundary_term(window) + interior


def well_phase(window, bands, profile, nodes=64, buffer=0.1):
    """Phi_w(E): the endpoint-anchored phase of the quantization condition.

    Phi_w = Phi0 - v_hi*zeta0+ + v_lo*zeta0-. Real resonance positions
    solve Phi_w(E) = -pi*delta_kappa*zeta + eps*(pi/2 + pi*l), l integer.
    """
    return _well_phases([window], bands, profile, nodes, buffer)[0]


def _well_phases(windows, bands, profile, nodes=64, buffer=0.1):
    """Phi_w of every window (H6 wells on one band), one integrand call."""
    phi0s = _phase_integrals(windows, bands, profile, nodes, buffer, "well_phase")
    return [_anchored(w, p) for w, p in zip(windows, phi0s)]


def well_phase_derivative(window, bands, profile, nodes=64, buffer=0.1):
    """dPhi_w/dE = sign(n) * integral of k'(E - W) over the well.

    Boundary-free: anchoring cancels the moving-endpoint terms of
    dPhi0/dE, and the k' integrand vanishes at the turning points after
    the u^2 substitution. Never zero on a band, so Phi_w is strictly
    monotone in E across any H6 window.
    """
    return _well_phase_derivatives([window], bands, profile, nodes, buffer)[0]


def _well_phase_derivatives(windows, bands, profile, nodes=64, buffer=0.1):
    """dPhi_w/dE of every window (H6 wells on one band), one integrand call."""
    segments, energies, n = _wells(windows, "well_phase_derivative")
    sign = _band_sign(n)

    def integrand(z):
        return sign * bands.kprime_fast(energies - profile(z), n)

    values = _edge_resolved_quad(integrand, segments, 2 * nodes, buffer)
    if 0.0 in values:
        raise InternalConsistencyError("dPhi_w/dE vanished on a band")
    return values


class ActionData:
    """Action bundle of one energy in the one-well regime."""

    def __init__(self, energy, phi0, delta_kappa, s_minus, s_plus,
                 quadrature_error, phi0_prime, well, well_prime):
        self.energy = float(energy)
        self.phi0 = float(phi0)
        self.delta_kappa = int(delta_kappa)
        self.s_minus = float(s_minus)
        self.s_plus = float(s_plus)
        self.quadrature_error = float(quadrature_error)
        self.phi0_prime = float(phi0_prime)
        self.well = float(well)
        self.well_prime = float(well_prime)

    def __repr__(self):
        return ("ActionData(E=%.8g, phi0=%.8g, delta_kappa=%d, s_minus=%g, "
                "s_plus=%g, well=%.8g)" % (
                    self.energy, self.phi0, self.delta_kappa, self.s_minus,
                    self.s_plus, self.well))

    def to_dict(self):
        return {"E": self.energy, "Phi0": self.phi0,
                "delta_kappa": self.delta_kappa,
                "S_minus": self.s_minus, "S_plus": self.s_plus,
                "quadrature_error": self.quadrature_error,
                "phi0_prime": self.phi0_prime,
                "well_phase": self.well, "well_phase_prime": self.well_prime}


def compute_action_data(window, bands, profile, nodes=64, buffer=0.1):
    """All actions of one H6 window in a single bundle."""
    return _action_data([window], bands, profile, nodes, buffer)[0]


def _action_data(windows, bands, profile, nodes=64, buffer=0.1):
    """ActionData of every window (H6 wells on one band); the well
    integrals take one integrand call per rule, the barriers stay per
    window."""
    phi0s = _phase_integrals(windows, bands, profile, nodes, buffer,
                             "phase_integral", with_error=True)
    wps = _well_phase_derivatives(windows, bands, profile, nodes, buffer)
    out = []
    for window, (phi0, err), wp in zip(windows, phi0s, wps):
        s_minus, s_plus = actions_pm(window, bands, profile, nodes, buffer)
        out.append(ActionData(window.energy, phi0, delta_kappa(window),
                              s_minus, s_plus, err, _boundary_term(window) + wp,
                              _anchored(window, phi0), wp))
    return out
