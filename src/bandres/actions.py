"""Action integrals of the one-well (H6) regime.

Conventions:

* kappa0 is the reduced momentum on the well's band n: the main branch k
  folded onto [0, pi] (odd n: kappa0 = k - pi(n-1); even n: pi*n - k).
  It vanishes at a lower edge of an odd band / upper edge of an even band
  and equals pi at the other edge, so its endpoint values are determined
  by the window bookkeeping alone.
* Phi0(E) = integral of kappa0(E - W(zeta)) over the compact component
  U = [zeta0-, zeta0+]; positive, as its integrand is inside the band.
* delta_kappa = (kappa0(zeta0+) - kappa0(zeta0-)) / pi in {-1, 0, +1};
  an integer computed from edge bookkeeping, never from quadrature, and
  constant in E while the endpoints stay on the same edges.
* S-/S+ = 2 * integral of Im k(E - W) over the barrier segments
  [zeta-, zeta0-] / [zeta0+, zeta+]: the full instanton action of the
  lifetime cycle, which traverses the decaying branch both ways. With
  this normalization exp(-S/eps) is the barrier transmission probability
  (the squared amplitude factor), the exponent observed in absorbing
  boundary spectra. Positive (its integrand is inside the gap; a barrier
  within the table's resolution of a band edge reads 0), and +inf when the
  corresponding side component is empty. Tunneling weights
  t+- = exp(-S+-/eps), t = t+ + t-.
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
of k segments. Each quantity has one integrand, read through one
BandStructure view: Phi0, and so Phi_w, from kappa0 in [0, pi] through
k_band_fast (_phi0_rule); Phi_w' from sign(n) * k' through kprime_fast
(_well_prime); S-+ from Im k >= 0 through gamma_fast (_barrier_actions, one
row per finite barrier). The weights and panel scales of the rule are
positive, so each integral has its integrand's sign: Phi0 and S-+ are never
negative, and Phi_w' is never zero, since k' > 0 on a band.
compute_action_data, the one owner of the node-doubling error, also runs
_phi0_rule at nodes points and reports the difference as the quadrature
error; the solver's ladder samples _phi0_rule at 2*nodes, anchored, and
_barrier_actions on many windows at once. Each row is reduced on its own,
one dot product per panel, and the table is read piece by piece and
elementwise, so a value does not depend on the batch it was computed in.
Barrier energies below the table floor take D from one Wronskian-checked
propagation per barrier instead (an ODE solve's steps depend on its batch).
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .errors import DomainError, UnsupportedConfigurationError
from .hill import _band_sign, reduced_momentum

_UNDERFLOW_EXPONENT = 690.0   # exp(-690) ~ 1e-300


@functools.cache
def _gl(n):
    return np.polynomial.legendre.leggauss(int(n))


def _check_rule(nodes, buffer):
    """A caller's quadrature settings must lie in SolverConfig's bounds (an
    integer nodes >= 8, 0 < buffer < 0.5), or a DomainError names the one
    that does not; the message gives the 2*nodes-point rule that the
    integrals run."""
    if not (isinstance(nodes, numbers.Integral) and nodes >= 8):
        raise DomainError("quadrature rule of %r points per panel (nodes=%r): "
                          "nodes must be an integer of at least 8"
                          % (2 * nodes, nodes))
    if not 0.0 < buffer < 0.5:
        raise DomainError("quadrature buffer=%r outside (0, 0.5)" % (buffer,))


def _quad_nodes(segments, n, buffer):
    """The nodes of the edge-resolved rule on each segment [a, b], which
    has sqrt endpoint behavior at both ends: n Gauss-Legendre nodes on
    each of four panels, the buffer panels in u over [0, sqrt(d)] with
    zeta = a + u^2 and zeta = b - u^2. Returns the (len(segments), 4n)
    array holding every segment's nodes in its row, and the rule that
    _quad_reduce applies to values there."""
    x, w = _gl(n)
    # per segment: a, b, then each panel's midpoint and half width
    params = []
    for a, b in segments:
        a, b = float(a), float(b)
        d = buffer * (b - a)
        m = 0.5 * (a + b)
        root, lo, hi = math.sqrt(d), a + d, b - d
        # panels [0, root] in u, then [lo, m] and [m, hi] in zeta
        params += (a, b, 0.5 * root, 0.5 * (lo + m), 0.5 * (m + hi),
                   0.5 * root, 0.5 * (m - lo), 0.5 * (hi - m))
    params = np.array(params).reshape(-1, 8)
    t = np.multiply.outer(params[:, 5:], x)
    t += params[:, 2:5, None]
    u = t[:, 0]
    uu = u * u
    z = np.empty((len(params), 4, n))
    np.add(params[:, :1], uu, out=z[:, 0])
    z[:, 1:3] = t[:, 1:]
    np.subtract(params[:, 1:2], uu, out=z[:, 3])
    # panel scales: the right buffer panel's is the left one's
    return z.reshape(len(params), 4 * n), (w, 2.0 * u, params[:, [5, 6, 7, 5]])


def _quad_reduce(values, rule):
    """The integral of each segment from its row of `values` (several such
    arrays may be stacked on leading axes; the result nests in lists along
    them), each row reduced on its own: one BLAS dot product per panel
    (on C-contiguous values, a (1, n) @ (n, 1) matmul is the same ddot as
    a 1-D dot), the scaled panels summed from 0 in panel order."""
    w, two_u, scales = rule
    values = values.reshape(values.shape[:-1] + (4, w.size))
    values[..., 0, :] *= two_u
    values[..., 3, :] *= two_u
    dots = np.matmul(values[..., None, :], w[:, None])[..., 0, 0]
    p = dots * scales
    return (0.0 + p[..., 0] + p[..., 1] + p[..., 2] + p[..., 3]).tolist()


def _edge_resolved_quad(f, segments, n, buffer):
    """Integrate f over each segment by the rule of _quad_nodes; f is
    called once, on the array of all nodes, and returns values of that
    shape."""
    z, rule = _quad_nodes(segments, n, buffer)
    return _quad_reduce(f(z), rule)


def _well_rows(windows, profile, points, buffer, op, integrand):
    """The integral over every window's H6 well, all on one band, of
    integrand(E - W, n) by the `points`-per-panel rule, in one integrand
    call."""
    wells = [window.well(op) for window in windows]
    n = wells[0].band_index
    energies = np.array([[w.energy] for w in windows])
    return _edge_resolved_quad(lambda z: integrand(energies - profile(z), n),
                               [(c.lo, c.hi) for c in wells], points, buffer)


def _phi0_rule(windows, bands, profile, points, buffer, op):
    """Phi0 of every window by the `points`-per-panel rule from the k-only
    integrand, in one integrand call: at 2*nodes points every reader's Phi0
    and the ladder's samples, at nodes the coarse rule whose difference from
    Phi0 is the quadrature error of compute_action_data."""
    return _well_rows(windows, profile, points, buffer, op, lambda e, n: (
        reduced_momentum(bands.k_band_fast(e, n), n)))


def _phi0(window, bands, profile, nodes, buffer, op):
    """Phi0 of one window by the 2*nodes-point rule."""
    _check_rule(nodes, buffer)
    return _phi0_rule([window], bands, profile, 2 * nodes, buffer, op)[0]


def _well_prime(window, bands, profile, nodes, buffer, op):
    """Phi_w' of one window by the 2*nodes-point rule from the k'-only
    integrand sign(n) * k'(E - W); never zero on a band."""
    _check_rule(nodes, buffer)
    prime, = _well_rows([window], profile, 2 * nodes, buffer, op,
                        lambda e, n: _band_sign(n) * bands.kprime_fast(e, n))
    return prime


def phase_integral(window, bands, profile, nodes=64, buffer=0.1):
    """Phi0(E): action of the compact component of the window."""
    return _phi0(window, bands, profile, nodes, buffer, "phase_integral")


def _anchored(window, phi0):
    """Phi_w = Phi0 - v_hi*zeta0+ + v_lo*zeta0-."""
    c = window.compact
    v_lo, v_hi = c.anchors
    return phi0 - v_hi * c.hi + v_lo * c.lo


def _phi0_prime(window, well_prime):
    """Phi0' = v_hi/W'(zeta0+) - v_lo/W'(zeta0-) + Phi_w': the moving-endpoint
    terms plus the boundary-free interior integral."""
    c = window.compact
    v_lo, v_hi = c.anchors
    return (v_hi / c.hi_endpoint.w_prime - v_lo / c.lo_endpoint.w_prime
            + well_prime)


def delta_kappa(window):
    """Net reduced-momentum jump across the well in units of pi; an
    integer from edge bookkeeping only."""
    v_lo, v_hi = window.well("delta_kappa").anchors
    return round((v_hi - v_lo) / math.pi)   # -1, 0 or 1: anchors are 0 or pi


def actions_pm(window, bands, profile, nodes=64, buffer=0.1):
    """(S_minus, S_plus): round-trip barrier actions; +inf where empty.

    S = 2 * integral of Im k over the gap segment, so that exp(-S/eps)
    is a transmission probability rather than an amplitude factor.
    """
    _check_rule(nodes, buffer)
    window.well("actions_pm")
    return _barrier_actions([window], bands, profile, nodes, buffer)[0]


def _barrier_actions(windows, bands, profile, nodes, buffer):
    """(S_minus, S_plus) of every window: twice the integral of Im k over
    each finite barrier by the 2*nodes-point rule, one gamma_fast call
    over all of them (one row per barrier), and +inf where a barrier is
    empty."""
    segments, energies = [], []
    for window in windows:
        for a, b in window.barriers:
            if not (math.isinf(a) or math.isinf(b)):
                segments.append((a, b))
                energies.append([window.energy])

    def integrand(z):
        return bands.gamma_fast(np.array(energies) - profile(z))

    integrals = iter(_edge_resolved_quad(integrand, segments, 2 * nodes, buffer)
                     if segments else ())
    out = []
    for window in windows:
        pair = []
        for a, b in window.barriers:
            if math.isinf(a) or math.isinf(b):
                pair.append(math.inf)
                continue
            pair.append(2.0 * next(integrals))
        out.append(tuple(pair))
    return out


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
    """Barrier weights exp(-S/epsilon) of action_data.s_minus and s_plus.

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
    return _phi0_prime(window, _well_prime(window, bands, profile, nodes,
                                           buffer, "phase_integral_derivative"))


def well_phase(window, bands, profile, nodes=64, buffer=0.1):
    """Phi_w(E): the endpoint-anchored phase of the quantization condition.

    Phi_w = Phi0 - v_hi*zeta0+ + v_lo*zeta0-. Real resonance positions
    solve Phi_w(E) = -pi*delta_kappa*zeta + eps*(pi/2 + pi*l), l integer.
    """
    return _anchored(window, _phi0(window, bands, profile, nodes, buffer,
                                   "well_phase"))


def well_phase_derivative(window, bands, profile, nodes=64, buffer=0.1):
    """dPhi_w/dE = sign(n) * integral of k'(E - W) over the well.

    Boundary-free: anchoring cancels the moving-endpoint terms of
    dPhi0/dE, and the k' integrand vanishes at the turning points after
    the u^2 substitution. Never zero on a band, so Phi_w is strictly
    monotone in E across any H6 window.
    """
    return _well_prime(window, bands, profile, nodes, buffer,
                       "well_phase_derivative")


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
    op = "compute_action_data"
    phi0 = _phi0(window, bands, profile, nodes, buffer, op)
    wp = _well_prime(window, bands, profile, nodes, buffer, op)
    coarse, = _phi0_rule([window], bands, profile, nodes, buffer, op)
    (s_minus, s_plus), = _barrier_actions([window], bands, profile, nodes, buffer)
    return ActionData(window.energy, phi0, delta_kappa(window), s_minus, s_plus,
                      abs(phi0 - coarse), _phi0_prime(window, wp),
                      _anchored(window, phi0), wp)
