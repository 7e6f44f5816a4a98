"""Independent spectral oracle.

build_grid_hamiltonian / oracle_spectrum: second-order finite differences
for -d2/dx2 + V(x) + W(eps*x + zeta) on [-L, L] with Dirichlet walls,
optionally damped by a complex absorbing potential -i*eta*ramp(x)^2
switched on at |x| = 0.7*L. The Dirichlet states of the real part with
Re(E) inside the energy window come from one tridiagonal interval solve:
coarse Sturm bisection fixes the set and seeds inverse iteration, and
each eigenvalue is the Rayleigh quotient of its vector. With the
absorber on, each localized state seeds a one-eigenpair polish of the
complex operator: inverse iteration from the state's vector, shifted by
its first-order (absorbed-mass) eigenvalue, through one LAPACK
tridiagonal LU per seed and absorber strength. The operator is complex
symmetric, so the unconjugated quotient v^T (A - sigma)^-1 v / v^T v is
stationary at its eigenvectors and a few solves converge. While it
polishes, the oracle holds only the seed vectors: the N x k block of
Dirichlet vectors is freed first, and each polished vector is reduced to
its localization before the next polish starts. Resonances
appear as eigenvalues just below the real axis whose position is stable
under halving eta, while box/continuum artifacts move. V and W enter
only as functions to sample; no numerical step is shared with the
Floquet/action pipeline this oracle checks.

The interval solve (dstebz, dstein) and the LU (zgttrf, zgttrs) are
scipy's own f2py LAPACK routines. The module runs scipy's package init and
then loads the extension scipy.linalg._flapack from its file, so importing
the oracle loads neither the scipy.linalg package nor scipy.sparse.
"""

from __future__ import annotations

import cmath
import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np
import scipy

from .errors import ConfigurationError, OracleError


def _load_flapack():
    """scipy.linalg._flapack, the module scipy.linalg.lapack re-exports,
    loaded from scipy's linalg directory without running the scipy.linalg
    package init; an already loaded copy is returned as it is."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    path = os.path.join(scipy.__path__[0], "linalg")
    spec = importlib.machinery.PathFinder.find_spec(name, [path])
    if spec is None:
        raise ImportError("no %s extension in %s" % (name, path), name=name, path=path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_flapack = _load_flapack()
dstebz, dstein = _flapack.dstebz, _flapack.dstein
zgttrf, zgttrs = _flapack.zgttrf, _flapack.zgttrs

MAX_GRID_POINTS = 32000
MIN_POINTS_PER_PERIOD = 32
LOCALIZED = 0.5          # eigenvector mass fraction that marks a window state
_BOX_MARGIN = 10.0       # slow-variable room beyond the window endpoints
_CAP_ONSET = 0.7         # absorber ramp starts at this fraction of the half-length
_SAME_EIGENVALUE = 1e-9  # polished eigenvalues this close (relative) are one
_POLISH_TOL = 1e-12      # residual ||w - theta v|| / |theta| that ends a polish
_POLISH_SOLVES = 40      # solves a polish may spend; a verify pass needs at most 9
_BISECTION_TOL = 1e-6    # absolute; 1e-4 leaves the inverse-iteration vectors 2e-10 off
_RESOLVED_GAP = 1e-4     # eigenvalue pairs closer than this get full-precision bisection


class OracleConfig:
    """Geometry and absorber strength of the finite-difference box;
    for_window builds the standard one, OracleConfig(L, N) any other."""

    def __init__(self, box_half_length, n_points, cap_strength=0.0):
        self.box_half_length = float(box_half_length)
        try:
            self.n_points = int(n_points)
        except (ValueError, OverflowError):  # int() of a NaN or an infinity
            raise ConfigurationError("n_points=%r is not a finite number"
                                     % (n_points,)) from None
        self.cap_strength = float(cap_strength)
        if not self.box_half_length > 0.0:
            raise ConfigurationError("box_half_length must be positive")
        if self.n_points < 16:
            raise ConfigurationError("n_points=%d too small" % self.n_points)
        if self.n_points > MAX_GRID_POINTS:
            raise ConfigurationError(
                "n_points=%d exceeds ceiling %d; increase epsilon"
                % (self.n_points, MAX_GRID_POINTS))
        if not 0.0 <= self.cap_strength < math.inf:
            raise ConfigurationError("cap_strength=%g must be finite and nonnegative"
                                     % self.cap_strength)
        if self.points_per_period < MIN_POINTS_PER_PERIOD - 1e-9:
            raise ConfigurationError(
                "grid resolves only %.1f points per potential period (need >= %d)"
                % (self.points_per_period, MIN_POINTS_PER_PERIOD))

    @property
    def spacing(self):
        return 2.0 * self.box_half_length / (self.n_points + 1)

    @property
    def points_per_period(self):
        return 1.0 / self.spacing

    @classmethod
    def for_window(cls, window, epsilon, cap_strength=0.0):
        """Smallest box that holds the window endpoints with the standard
        slow-variable margin, at MIN_POINTS_PER_PERIOD."""
        if not 0.0 < epsilon <= 0.5:
            raise ConfigurationError("epsilon=%g outside (0, 0.5]" % epsilon)
        anchors = [z for z in (window.zeta0_minus, window.zeta0_plus)
                   if z is not None and math.isfinite(z)]
        if not anchors:
            anchors = [z for z in (window.zeta_minus, window.zeta_plus)
                       if math.isfinite(z)]
        if not anchors:
            raise ConfigurationError("window has no finite endpoint to anchor the box")
        base = sum(abs(z) for z in anchors) if len(anchors) >= 2 else 2.0 * abs(anchors[0])
        half_length = (base + _BOX_MARGIN) / epsilon
        # ceil keeps the realized resolution at or above the floor
        n_points = int(math.ceil(2.0 * half_length * MIN_POINTS_PER_PERIOD)) - 1
        return cls(half_length, n_points, cap_strength=cap_strength)


class GridHamiltonian:
    """Assembled tridiagonal operator: diagonal, constant off-diagonal,
    grid points and the box it was built on."""

    def __init__(self, diag, off, x, config):
        self.diag = diag
        self.off = float(off)
        self.x = x
        self.config = config

    @property
    def is_complex(self):
        return np.iscomplexobj(self.diag)


def build_grid_hamiltonian(potential, profile, zeta, epsilon, config, window=None):
    """Finite-difference Hamiltonian for -d2/dx2 + V(x) + W(eps*x + zeta).

    When a window is supplied, the box is required to contain its finite
    endpoints with the standard margin (eps*L >= |zeta0+| + |zeta0-| + 10
    in the one-well regime), otherwise a ConfigurationError is raised, as
    it is for a non-finite epsilon or zeta.
    """
    for name, value in (("epsilon", epsilon), ("zeta", zeta)):
        if not math.isfinite(value):
            raise ConfigurationError("%s=%g is not finite" % (name, value))
    L = config.box_half_length
    if window is not None:
        z0 = [z for z in (window.zeta0_minus, window.zeta0_plus)
              if z is not None and math.isfinite(z)]
        if len(z0) == 2 and epsilon * L < abs(z0[0]) + abs(z0[1]) + _BOX_MARGIN - 1e-9:
            raise ConfigurationError(
                "window does not fit: eps*L = %.3f < |zeta0+| + |zeta0-| + %g = %.3f"
                % (epsilon * L, _BOX_MARGIN, abs(z0[0]) + abs(z0[1]) + _BOX_MARGIN))
        for p in (window.zeta_minus, window.zeta0_minus, window.zeta0_plus,
                  window.zeta_plus):
            if p is None or not math.isfinite(p):
                continue
            if not (zeta - epsilon * L + 5.0 <= p <= zeta + epsilon * L - 5.0):
                raise ConfigurationError(
                    "window endpoint zeta=%.3f outside the box image [%.3f, %.3f] "
                    "with the 5-unit margin" % (p, zeta - epsilon * L, zeta + epsilon * L))
    delta = config.spacing
    i = np.arange(1, config.n_points + 1)
    x = -L + i * delta
    diag = 2.0 / delta ** 2 + potential(x) + profile(epsilon * x + zeta)
    if config.cap_strength > 0.0:
        ramp = np.clip((np.abs(x) - _CAP_ONSET * L) / ((1.0 - _CAP_ONSET) * L),
                       0.0, None)
        diag = diag.astype(complex) - 1j * config.cap_strength * ramp ** 2
    return GridHamiltonian(diag, -1.0 / delta ** 2, x, config)


class OracleEigenpair:
    """Eigenvalue with its absorber-stability and localization diagnostics."""

    def __init__(self, eigenvalue, stability, localization):
        self.eigenvalue = complex(eigenvalue)
        self.stability = float(stability)
        self.localization = float(localization)

    def __repr__(self):
        return "OracleEigenpair(eigenvalue=%r, stability=%.3e, localization=%.3f)" % (
            self.eigenvalue, self.stability, self.localization)


def _localization(x, vec, region):
    lo, hi = region
    mass = np.abs(vec) ** 2
    total = mass.sum()
    if total <= 0.0:
        return 0.0
    return float(mass[(x >= lo) & (x <= hi)].sum() / total)


def _rayleigh(d, off, vecs):
    """v^T T v / v^T v for each column v of vecs, T = (d, constant off).
    Summed as the potential part (d + 2 off) v^2 plus the kinetic part
    -off |forward differences of v, Dirichlet ends included|^2, which
    avoids the cancellation of d v^2 against 2 off v_i v_(i+1)."""
    potential = d + 2.0 * off
    out = np.empty(vecs.shape[1])
    for j in range(vecs.shape[1]):
        v = vecs[:, j]
        step = np.diff(v)
        kinetic = step @ step + v[0] ** 2 + v[-1] ** 2
        out[j] = (potential @ (v * v) - off * kinetic) / (v @ v)
    return out


def eigh_tridiagonal(d, e, lo, hi, tol):
    """Eigenvalues in (lo, hi] of the real symmetric tridiagonal (d, e) and
    their unit eigenvectors: the calls scipy.linalg.eigh_tridiagonal makes
    for select="v", Sturm bisection to the absolute tol (0 for full
    precision) in dstebz, then inverse iteration in dstein. The
    eigenvalues come back in stebz's block order, which is ascending when
    no off-diagonal entry is negligible (T is one block), as it is for the
    oracle's constant off-diagonal; scipy's reordering copy of the N x k
    block is left out. A non-finite entry, which scipy's check_finite
    refuses, and a nonzero info are OracleErrors naming N."""
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise OracleError("tridiagonal interval solve refused a non-finite "
                          "entry (N=%d)" % d.size)
    m, w, iblock, isplit, info = dstebz(d, e, 1, lo, hi, 1, 1, tol, "B")
    if info != 0:
        raise OracleError("tridiagonal interval solve failed "
                          "(dstebz info=%d, N=%d)" % (info, d.size))
    w = w[:m]
    v, info = dstein(d, e, w, iblock, isplit)
    if info != 0:
        raise OracleError("tridiagonal interval solve failed "
                          "(dstein info=%d, N=%d)" % (info, d.size))
    return w, v


def _dirichlet_states(d, off, ea, eb):
    """Eigenvalues in (ea, eb] of the real tridiagonal T = (d, constant off)
    and their unit eigenvectors, ascending. Sturm bisection to the absolute
    _BISECTION_TOL fixes the set and seeds inverse iteration for the
    vectors; each eigenvalue is then the Rayleigh quotient of its vector,
    whose error is second order in the vector's. Inverse iteration from
    such coarse shifts mixes the vectors of a pair closer than about
    _BISECTION_TOL, so when two eigenvalues lie within _RESOLVED_GAP the
    solve is repeated with full-precision bisection."""
    e = np.full(d.size - 1, off)
    _, v = eigh_tridiagonal(d, e, ea, eb, _BISECTION_TOL)
    w = _rayleigh(d, off, v)
    if np.any(np.diff(w) < _RESOLVED_GAP):
        del v  # never hold the coarse and the full-precision block together
        _, v = eigh_tridiagonal(d, e, ea, eb, 0.0)
        w = _rayleigh(d, off, v)
    return w, v


def _absorbed_mass(imag_diag, vec):
    """sum(Im(diag) |v|^2) / sum(|v|^2): the first-order imaginary shift of
    the eigenvalue whose vector is vec, and the exact Im of an eigenpair."""
    mass = np.abs(vec) ** 2
    return float(imag_diag @ mass / mass.sum())


def eigs(solve, sigma, v0):
    """Eigenpair of a complex symmetric A (A = A^T) nearest the shift
    sigma, by inverse iteration on solve(b) = (A - sigma)^-1 b from v0.
    Each step solves w = solve(v) for a unit v and takes the unconjugated
    quotient theta = v^T w / v^T v, which is stationary at eigenvectors of
    such an A; the eigenvalue is sigma + 1/theta. It stops when
    ||w - theta v|| <= _POLISH_TOL |theta| and returns the eigenvalue and
    w/||w||, or None once _POLISH_SOLVES solves are spent, v^T v is 0 or
    theta is not finite."""
    v = v0 / np.linalg.norm(v0)
    for _ in range(_POLISH_SOLVES):
        w = solve(v)
        vv = v @ v
        if vv == 0.0:
            return None
        theta = (v @ w) / vv
        if not cmath.isfinite(theta):
            return None
        converged = np.linalg.norm(w - theta * v) <= _POLISH_TOL * abs(theta)
        v = w / np.linalg.norm(w)
        if converged:
            return sigma + 1.0 / theta, v
    return None


def _polish(diag, off, seed, vec):
    """Eigenpair nearest the real seed of the tridiagonal operator (diag,
    constant off): inverse iteration (eigs) from the seed's Dirichlet
    eigenvector. The shift is the seed moved by the first-order imaginary
    part, sigma = seed + i*_absorbed_mass(Im diag, vec), and
    (A - sigma)^-1 is applied through one LAPACK tridiagonal LU of
    diag - sigma. A failed factorization or an unconverged iteration is an
    OracleError naming N and the real seed."""
    n = diag.size
    sigma = seed + 1j * _absorbed_mass(diag.imag, vec)
    offs = np.full(n - 1, off, dtype=complex)
    dl, d, du, du2, ipiv, info = zgttrf(offs, diag - sigma, offs)
    if info != 0:
        raise OracleError("tridiagonal LU of the shifted operator failed "
                          "(zgttrf info=%d, N=%d, sigma=%r)" % (info, n, float(seed)))

    def solve(b):
        return zgttrs(dl, d, du, du2, ipiv, b.reshape(-1, 1))[0][:, 0]

    pair = eigs(solve, sigma, vec)
    if pair is None:
        raise OracleError("shift-invert eigensolver failed to converge "
                          "(N=%d, sigma=%r)" % (n, float(seed)))
    return complex(pair[0]), pair[1]


def oracle_spectrum(handle, e_window):
    """Eigenpairs of the box operator seeded by its Dirichlet states with
    Re(E) inside e_window.

    One interval solve of the real tridiagonal part finds the Dirichlet
    states. With the absorber off they are the result. With it on, each
    state whose localization exceeds LOCALIZED seeds a one-eigenpair
    shift-invert polish on the operator and another on its half-absorber
    copy; the stability field is the smallest distance from the polished
    eigenvalue to a half-strength one (resonances barely move, box
    artifacts move at the scale of their width). Each eigenvalue is listed
    once, however many seeds polish onto it.
    Localization is the |psi|^2 fraction inside the central half of the box.
    """
    ea, eb = float(e_window[0]), float(e_window[1])
    if not (math.isfinite(ea) and math.isfinite(eb)):
        raise ConfigurationError("energy window [%g, %g] is not finite" % (ea, eb))
    if not ea < eb:
        raise ConfigurationError("empty oracle energy window [%g, %g]" % (ea, eb))
    cfg = handle.config
    kinetic_ceiling = (math.pi / cfg.spacing) ** 2 / 16.0
    if eb > kinetic_ceiling:
        raise ConfigurationError(
            "energy window top %g too close to the grid kinetic ceiling %g; "
            "refine the grid" % (eb, kinetic_ceiling))
    region = (-cfg.box_half_length / 2.0, cfg.box_half_length / 2.0)

    d = handle.diag.real
    w, v = _dirichlet_states(d, handle.off, ea, eb)
    locs = [_localization(handle.x, v[:, j], region) for j in range(w.size)]
    if cfg.cap_strength == 0.0:
        return [OracleEigenpair(lam, 0.0, loc) for lam, loc in zip(w, locs)]

    # copy out the seed vectors so that the N x k block is freed before polishing
    seeds = [(w[j], v[:, j].copy()) for j in range(w.size) if locs[j] > LOCALIZED]
    del v
    # each polished vector is reduced to its localization before the next polish
    polished = []
    for lam, seed in seeds:
        val, vec = _polish(handle.diag, handle.off, lam, seed)
        polished.append((val, _localization(handle.x, vec, region)))
        del vec
    # the absorber is the whole imaginary part, and halving it is exact
    half = d + 0.5j * handle.diag.imag
    half_vals = [_polish(half, handle.off, lam, seed)[0] for lam, seed in seeds]
    pairs = [OracleEigenpair(lam, min(abs(lam - q) for q in half_vals), loc)
             for lam, loc in polished]
    # seeds that polish onto the same eigenvalue give one pair, the most localized
    kept = []
    for p in sorted(pairs, key=lambda pair: -pair.localization):
        if all(abs(p.eigenvalue - q.eigenvalue)
               > _SAME_EIGENVALUE * max(1.0, abs(q.eigenvalue)) for q in kept):
            kept.append(p)
    return sorted(kept, key=lambda p: p.eigenvalue.real)
