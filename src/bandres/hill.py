"""Floquet spectral theory for -y'' + V(x) y = E y with 1-periodic V.

Conventions used throughout the package:

* The discriminant D(E) is the trace of the period map (monodromy matrix)
  in the solution basis (y, y')(0) = (1, 0) and (0, 1).
* Band edges are roots of D(E) = +/-2 and interlace
  E1 < E2 <= E3 < E4 <= E5 < ..., with the sign pattern D(E1) = 2,
  D(E2) = D(E3) = -2, D(E4) = D(E5) = 2, alternating in pairs. Band n is
  [E_{2n-1}, E_{2n}]; gap n is (E_{2n}, E_{2n+1}); energies below E1 form
  "gap 0". band_edges seeds them from the truncated Hill matrix and
  certifies each as a root of the monodromy-based excess s*D - 2. It
  propagates only the edges it can return, since one DOP853 step size
  serves a whole energy batch and its highest energy sets it.
* The main branch of the Bloch quasi-momentum k(E) is read on the real
  axis only, where it solves cos k = D(E)/2: it maps band n increasingly
  onto [pi(n-1), pi*n], and on gap n has Im k = arccosh(|D|/2) > 0 (a
  single nondegenerate interior maximum). BandStructure's k_band_fast,
  gamma_fast and kprime_fast give k, Im k and dk/dE from its table of D,
  each the one table read of its quantity.

Every object here is immutable after construction. BandStructure builds
its Chebyshev table of D once, on first use, over the fixed range
[E1 - 5, gap_ceiling], so table-backed values do not depend on which
energies earlier calls asked for. Bands lie inside that range; gap
energies below its floor take D from a direct propagation instead.

The period map is integrated by solve_ivp below: the explicit 8(5,3)
Dormand-Prince pair DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
Sec. II.10) with its adaptive step control. It performs the operations of
scipy's solve_ivp with method="DOP853" in the same order, without dense
output or events, so it returns the same floats and the same nfev;
tests/test_scipy_ports.py pins the two against each other.
"""

from __future__ import annotations

import bisect
import functools
import math
import types
import warnings

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import (
    ComputationError,
    ConfigurationError,
    DomainError,
    EnergyRangeError,
    IntegrationFailure,
    InternalConsistencyError,
)

_SCAN_TOL = 1e-10           # default tol of a direct propagation; band_structure.json's "tol"
_REFINE_TOL = 2.5e-14       # ODE tolerance of the edge polish and its certificate
_TRUNCATION_TOL = 1e-8      # largest edge displacement allowed under Hill-matrix doubling
_MAX_TRUNCATION = 512       # ceiling of the doubled Hill truncation (order-1025 matrices)
_BRACKET = 1e-9             # certificate bracket width; closer seed pairs form a double edge
_DOUBLE_EDGE_EXCESS = 1e-8  # largest |s*D - 2| across a double edge's bracket
_NEWTON_STEPS = 8
_NEWTON_STEP = 1e-14        # relative step that ends the polish
_CLOSED_GAP_WIDTH = 1e-7    # narrower gaps are flagged closed
_TABLE_RTOL = 1e-12
_TABLE_VALIDATION = 1e-10   # largest relative error of D allowed at the off-node probes
_TABLE_POINTS = 33          # Chebyshev nodes per table piece
_TABLE_DEPTH = 5.0          # the table's floor lies this far below E1
_D_ROW, _BOTH_ROWS = slice(0, 1), slice(0, 2)   # of a table's (D, D')

# DOP853 tableau (Hairer's dop853.f coefficients, as doubles): nodes C,
# stage rows A[s, :s], weights B of the 8th-order solution, and the
# 5th- and 3rd-order error weights E5, E3 over the 12 stages and f_new.
_DOP_STAGES = 12
_DOP_C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
                   0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
                   0.6512820512820513, 0.6, 0.8571428571428571, 1.0])
_DOP_A = np.zeros((_DOP_STAGES, _DOP_STAGES))
_DOP_A[1, [0]] = [0.05260015195876773]
_DOP_A[2, [0, 1]] = [0.0197250569845379, 0.0591751709536137]
_DOP_A[3, [0, 2]] = [0.02958758547680685, 0.08876275643042054]
_DOP_A[4, [0, 2, 3]] = [0.2413651341592667, -0.8845494793282861, 0.924834003261792]
_DOP_A[5, [0, 3, 4]] = [0.037037037037037035, 0.17082860872947386, 0.12546768756682242]
_DOP_A[6, [0, 3, 4, 5]] = [0.037109375, 0.17025221101954405, 0.06021653898045596,
                           -0.017578125]
_DOP_A[7, [0, 3, 4, 5, 6]] = [0.03709200011850479, 0.17038392571223998,
                              0.10726203044637328, -0.015319437748624402,
                              0.008273789163814023]
_DOP_A[8, [0, 3, 4, 5, 6, 7]] = [0.6241109587160757, -3.3608926294469414,
                                 -0.868219346841726, 27.59209969944671,
                                 20.154067550477894, -43.48988418106996]
_DOP_A[9, [0, 3, 4, 5, 6, 7, 8]] = [0.47766253643826434, -2.4881146199716677,
                                    -0.590290826836843, 21.230051448181193,
                                    15.279233632882423, -33.28821096898486,
                                    -0.020331201708508627]
_DOP_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [-0.9371424300859873, 5.186372428844064,
                                        1.0914373489967295, -8.149787010746927,
                                        -18.52006565999696, 22.739487099350505,
                                        2.4936055526796523, -3.0467644718982196]
_DOP_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [2.273310147516538, -10.53449546673725,
                                            -2.0008720582248625, -17.9589318631188,
                                            27.94888452941996, -2.8589982771350235,
                                            -8.87285693353063, 12.360567175794303,
                                            0.6433927460157636]
_DOP_B = np.zeros(_DOP_STAGES)
_DOP_B[[0, 5, 6, 7, 8, 9, 10, 11]] = [0.054293734116568765, 4.450312892752409,
                                      1.8915178993145003, -5.801203960010585,
                                      0.3111643669578199, -0.1521609496625161,
                                      0.20136540080403034, 0.04471061572777259]
_DOP_E3 = np.zeros(_DOP_STAGES + 1)
_DOP_E3[:-1] = _DOP_B
_DOP_E3[0] -= 0.2440944881889764
_DOP_E3[8] -= 0.7338466882816118
_DOP_E3[11] -= 0.022058823529411766
_DOP_E5 = np.zeros(_DOP_STAGES + 1)
_DOP_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [0.01312004499419488, -1.2251564463762044,
                                       -0.4957589496572502, 1.6643771824549864,
                                       -0.35032884874997366, 0.3341791187130175,
                                       0.08192320648511571, -0.022355307863886294]
_DOP_ERROR_EXPONENT = -1 / 8     # -1 / (error estimator order + 1)
_DOP_SAFETY = 0.9
_DOP_MIN_FACTOR = 0.2
_DOP_MAX_FACTOR = 10
_RTOL_FLOOR = 100 * np.finfo(float).eps
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_REACHED_END = "The solver successfully reached the end of the integration interval."


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, direction, rtol, atol):
    """First step size (Hairer, Norsett & Wanner, Sec. II.4)."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _rk_step(fun, t, y, f, h, K):
    """One DOP853 step from (t, y) with f = fun(t, y); fills the stages K."""
    K[0] = f
    for s, (a, c) in enumerate(zip(_DOP_A[1:], _DOP_C[1:]), start=1):
        dy = np.dot(K[:s].T, a[:s]) * h
        K[s] = fun(t + c * h, y + dy)
    y_new = y + h * np.dot(K[:-1].T, _DOP_B)
    f_new = fun(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


def _error_norm(K, h, scale):
    err5 = np.dot(K.T, _DOP_E5) / scale
    err3 = np.dot(K.T, _DOP_E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def solve_ivp(fun, t_span, y0, rtol, atol):
    """Integrate y' = fun(t, y) over t_span with DOP853 and return a
    namespace with success, message, t (the accepted times), y (the states
    there, one column each) and nfev (right-hand-side calls).

    The operations, step control and TOO_SMALL_STEP failure are those of
    scipy's solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol,
    atol=atol) for a float or complex y0, a fun returning arrays of its
    dtype, a scalar atol and a t_span of nonzero length, in the same order.
    An rtol below 100*eps, which scipy clamps with a warning, or a
    non-finite rtol or atol raises DomainError.
    """
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not math.isfinite(tol):
            raise DomainError("%s=%g is not finite" % (name, tol))
    if not rtol >= _RTOL_FLOOR:
        raise DomainError("rtol=%g is below the floor 100*eps = %.3g" % (rtol, _RTOL_FLOOR))
    t0, t_bound = map(float, t_span)
    nfev = 0

    def counted(t, y):
        nonlocal nfev
        nfev += 1
        return fun(t, y)

    def result(message):
        return types.SimpleNamespace(success=message == _REACHED_END, message=message,
                                     nfev=nfev, t=np.array(ts), y=np.vstack(ys).T)

    direction = np.sign(t_bound - t0)
    t, y = t0, np.asarray(y0)
    ts, ys = [t], [y]
    f = counted(t, y)
    h_abs = _initial_step(counted, t, y, t_bound, f, direction, rtol, atol)
    K = np.empty((_DOP_STAGES + 1, y.size), dtype=y.dtype)
    while t != t_bound:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return result(_TOO_SMALL_STEP)
            # the last step lands on t_bound exactly, which ends the outer loop
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = _rk_step(counted, t, y, f, h, K)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _DOP_MAX_FACTOR
                else:
                    factor = min(_DOP_MAX_FACTOR,
                                 _DOP_SAFETY * error_norm ** _DOP_ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_DOP_MIN_FACTOR, _DOP_SAFETY * error_norm ** _DOP_ERROR_EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
    return result(_REACHED_END)


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

    def _at(self, x):
        """V at one float x: the ufuncs of __call__ in its order, without
        its array handling (the Hill right-hand side calls this per step)."""
        out = self.mean
        if self._ac.size:
            out = out + np.cos(x * self._wc) @ self._ac
        if self._as.size:
            out = out + np.sin(x * self._ws) @ self._as
        return out

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
    batched over an energy array. Returns shape (4 or 8, K). A non-finite
    energy (or real or imaginary part) raises DomainError naming it."""
    E = np.atleast_1d(np.asarray(energies))
    finite = np.isfinite(E)
    if not finite.all():
        raise DomainError("energy E=%s is not finite" % E[np.argmin(finite)])
    complex_mode = np.iscomplexobj(E)
    dt = complex if complex_mode else float
    K = E.size
    rows = 8 if with_derivative else 4
    y0 = np.zeros((rows, K), dtype=dt)
    y0[0] = 1.0
    y0[3] = 1.0
    Ec = E.astype(dt)
    # out = y[swap]: derivatives of rows 0, 2 (and 4, 6) are rows 1, 3 (5, 7);
    # odd rows then become q*y[even], less y[0], y[2] in the variational rows
    swap = np.arange(rows) ^ 1

    def rhs(x, y):
        y = y.reshape(rows, K)
        out = y[swap]
        odd = out[1::2]
        np.multiply(potential._at(x) - Ec, odd, out=odd)
        if with_derivative:
            # variational system: d/dE of the first four components
            out[5::2] -= y[0:3:2]
        return out.ravel()

    sol = solve_ivp(rhs, (0.0, 1.0), y0.ravel(), rtol=rtol, atol=rtol * 1e-2)
    if not sol.success:
        raise IntegrationFailure("monodromy integration failed: %s" % sol.message,
                                 last_x=float(sol.t[-1]))
    return sol.y[:, -1].reshape(rows, K)


def integrate_monodromy(potential, energy, tol=_SCAN_TOL, derivative=False):
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


def discriminant(potential, energy, tol=_SCAN_TOL):
    """D(E) = trace of the monodromy matrix at a real energy."""
    if np.iscomplexobj(energy):
        raise DomainError("discriminant takes a real energy, not E=%s" % (energy,))
    y = _propagate(potential, [energy], tol)
    return float(y[0, 0] + y[3, 0])


def discriminant_many(potential, energies, tol=_SCAN_TOL):
    y = _propagate(potential, energies, tol)
    return y[0] + y[3]


def discriminant_with_derivative(potential, energies, tol=_SCAN_TOL):
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
    j + 1); doubling the truncation must move none by 1e-8. Only the seeds
    below e_max + 1e-8 enter the batch (Newton may move a seed by 1e-8 at
    most), one more if the last gap pair needs it. Newton on the factored
    excess f_s = s*D - 2 (s = +1 on D = 2 edges, -1 on D = -2 edges; f_s' =
    s*D') polishes all seeds in one batch per step at _REFINE_TOL, and a
    sign change of f_s across a 1e-9 bracket, in the direction the edge's
    side of its band demands, certifies each as an ODE root. Each Newton
    batch reads the brackets too: those of the converging step certify,
    and as that step must be shorter than 5e-10, each returned edge lies
    inside its bracket. A polish unconverged after _NEWTON_STEPS reads them
    in one more batch. The factored form stays accurate where D - 2 is
    below ODE noise, so open gaps down to 1e-9 wide are resolved; a closer
    seed pair becomes one double edge at its midpoint, certified by |f_s|
    <= 1e-8 across its bracket. Gaps narrower than 1e-7 are flagged
    closed with a warning. An uncertified edge, edges out of order or an
    unconverged truncation raise ComputationError naming the edge. An e_max
    whose doubled truncation would pass _MAX_TRUNCATION raises DomainError
    naming the largest accepted e_max before any matrix is built.
    """
    if not math.isfinite(e_max):
        raise DomainError("e_max=%g is not finite" % e_max)
    if e_max <= potential.lower_bound() + 0.5:
        raise DomainError("e_max=%g leaves no room above the potential floor %g"
                          % (e_max, potential.lower_bound()))
    base = 4 * potential.mode_count + 8
    room = _MAX_TRUNCATION // 2 - base       # rows of M left to the energy term
    e_ceiling = potential.mean + (math.pi * room) ** 2 if room >= 0 else -math.inf
    if e_max > e_ceiling:
        raise DomainError("e_max=%g needs a doubled Hill truncation beyond %d; the largest "
                          "accepted e_max is %.12g" % (e_max, _MAX_TRUNCATION, e_ceiling))
    m_trunc = base + math.ceil(math.sqrt(max(e_max - potential.mean, 0.0)) / math.pi)
    coarse = _hill_edges_at(potential, m_trunc)
    seeds = _hill_edges_at(potential, 2 * m_trunc)
    n_below = int(np.count_nonzero(seeds < e_max))
    # the edges below e_max and a seed that Newton could still move below it,
    # rounded up to complete the last gap pair (edges 2g, 2g + 1)
    n = int(np.count_nonzero(seeds < e_max + _TRUNCATION_TOL))
    n += 1 - n % 2
    moved = np.abs(seeds[:n] - coarse[:n])
    if np.count_nonzero(coarse < e_max) != n_below or moved.max() >= _TRUNCATION_TOL:
        k = int(np.argmax(moved))
        raise ComputationError(
            "edge %d at E=%.12g: doubling the Hill truncation M=%d moves it by %.3e "
            "(limit %.0e)" % (k + 1, seeds[k], m_trunc, moved[k], _TRUNCATION_TOL))

    j = np.arange(n)
    s = np.where(j % 4 % 3 == 0, 1.0, -1.0)      # D = 2s at edge j + 1
    edges = seeds[:n].copy()
    gap_lo = np.arange(1, n - 1, 2)
    double = gap_lo[edges[gap_lo + 1] - edges[gap_lo] < _BRACKET]
    edges[double] = edges[double + 1] = 0.5 * (edges[double] + edges[double + 1])
    pair = np.concatenate([double, double + 1])
    simple = np.delete(j, pair)

    # Newton energies, then every edge's bracket
    h = 0.5 * _BRACKET
    for _ in range(_NEWTON_STEPS):
        at = np.concatenate([edges[simple], edges - h, edges + h])
        m, dm = integrate_monodromy(potential, at, _REFINE_TOL, derivative=True)
        f = _excess(m, np.concatenate([s[simple], s, s]))
        step, f = f[:simple.size] / (s[simple] * dm.trace()[:simple.size]), f[simple.size:]
        e = edges[simple] - step
        strayed = simple[~(np.abs(e - seeds[simple]) <= _TRUNCATION_TOL)]
        if strayed.size:
            k = strayed[0]
            raise ComputationError(
                "edge %d at E=%.12g is not certified: Newton on s*D - 2 leaves its "
                "seed's %.0e neighbourhood" % (k + 1, seeds[k], _TRUNCATION_TOL))
        edges[simple] = e
        if np.all((np.abs(step) <= _NEWTON_STEP * np.maximum(1.0, np.abs(e)))
                  & (np.abs(step) < h)):
            break
    else:
        m = integrate_monodromy(potential, np.concatenate([edges - h, edges + h]),
                                _REFINE_TOL)
        f = _excess(m, np.tile(s, 2))
    f_lo, f_hi = f.reshape(2, n)
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
    Built from one batched integrate_monodromy call over the nodes and
    seven off-node probes per piece, so a node or probe that fails its
    Wronskian check fails the build; the relative error of D at the probes
    must stay within 1e-10, or the build raises InternalConsistencyError.

    Evaluation runs the Clenshaw recurrence of numpy's chebval (Clenshaw
    1955) operation for operation, so it returns chebval's floats; D and
    D' may share one pass. A read runs piece by piece: the points on one
    piece are scaled and evaluated together, and each value is written
    back to its point's own position.
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
        a, b = self.breaks[:-1, None], self.breaks[1:, None]
        nodes = (0.5 * (a + b) + 0.5 * (b - a) * xu).ravel()
        # off-node validation probes, seven per piece, in the same batch
        probes = np.linspace(self.breaks[:-1], self.breaks[1:], 9, axis=1)[:, 1:-1].ravel()
        m, dm = integrate_monodromy(potential, np.concatenate([nodes, probes]), _TABLE_RTOL,
                                    derivative=True)
        D, Dp = m.trace()[:nodes.size], dm.trace()[:nodes.size]
        # (degree, D or D', piece)
        self._coef = np.empty((_TABLE_POINTS, 2, npiece))
        for i in range(npiece):
            sl = slice(i * _TABLE_POINTS, (i + 1) * _TABLE_POINTS)
            self._coef[:, 0, i] = _cheb.chebfit(xu, D[sl], _TABLE_POINTS - 1)
            self._coef[:, 1, i] = _cheb.chebfit(xu, Dp[sl], _TABLE_POINTS - 1)
        self._mid = 0.5 * (self.breaks[:-1] + self.breaks[1:])
        self._half = 0.5 * (self.breaks[1:] - self.breaks[:-1])

        ref = m.trace()[nodes.size:]
        err = np.max(np.abs(self.value(probes) - ref) / np.maximum(1.0, np.abs(ref)))
        self.validation_error = float(err)
        if err > _TABLE_VALIDATION:
            raise InternalConsistencyError(
                "discriminant table validation error %.3e" % err)

    def _series(self, e, rows):
        """The series of `rows` (a slice of (D, D')) at e, stacked on a new
        leading axis. Refuses a non-finite energy or one outside the table."""
        e = np.asarray(e, dtype=float)
        out_shape = (rows.stop - rows.start,) + e.shape
        if not e.size:
            return np.empty(out_shape)
        lo, hi = e.min(), e.max()
        if not (lo >= self.breaks[0] - 1e-8 and hi <= self.breaks[-1] + 1e-8):
            bad = e[~np.isfinite(e)]
            if bad.size:
                raise DomainError("energy E=%r is not finite" % float(bad[0]))
            raise EnergyRangeError(
                "energy [%g, %g] outside table range [%g, %g]"
                % (lo, hi, self.breaks[0], self.breaks[-1]))
        # each point's piece; points within 1e-8 outside the table go to the
        # end pieces
        e = e.reshape(-1)
        idx = np.searchsorted(self.breaks[1:-1], e, side="right")
        out = np.empty(out_shape)
        flat = out.reshape(out_shape[0], -1)
        # piece by piece, each row's coefficients as 0-d arrays (numpy's
        # ufuncs take those faster than floats); the values go back to
        # their points' own positions
        for piece in range(idx.min(), idx.max() + 1):
            at = np.flatnonzero(idx == piece)
            if not at.size:
                continue
            x = (e[at] - self._mid[piece]) / self._half[piece]
            for row, dest in zip(range(rows.start, rows.stop), flat):
                c = self._coef[:, row, piece]
                dest[at] = _clenshaw([c[i, ...] for i in range(len(c))], x)
        return out

    def value(self, e):
        return self._series(e, _D_ROW)[0, ...]

    def value_and_derivative(self, e):
        """D and D' at e from one pass, stacked as (D, D')."""
        return self._series(e, _BOTH_ROWS)


def _clenshaw(c, x):
    """numpy's chebval recurrence (Clenshaw 1955) operation for operation:
    c0, c1 <- c[-i] - c1, c0 + c1 * 2x, then c0 + c1 * x. The coefficients
    c[i] are 0-d arrays."""
    x2 = 2 * x
    c0, c1, tmp = np.empty(x.shape), np.empty(x.shape), np.empty(x.shape)
    c0[...] = c[-2]
    c1[...] = c[-1]
    for i in range(3, len(c) + 1):
        np.subtract(c[-i], c1, tmp)
        np.multiply(c1, x2, c1)
        np.add(c0, c1, c1)
        c0, tmp = tmp, c0
    np.multiply(c1, x, c1)
    return np.add(c0, c1, c1)


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

    def _band_numbers(self, e):
        """The rule of locate on an array e by one searchsorted (bisect_left)
        of the edges: band n, or 0 in a gap; past the ceiling, locate's error."""
        if not np.all(e <= self.gap_ceiling):
            self.locate(e[~(e <= self.gap_ceiling)].flat[0])
        i = np.searchsorted(self.edges, e)
        on_edge = self.edges[np.minimum(i, self.edges.size - 1)] == e
        return np.where((i % 2 == 1) | on_edge, i // 2 + 1, 0)

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
        """Im k inside any gap (vectorized), keeping the shape of e, from D
        read off the table at max(e, floor). Energies below the floor take D
        from one Wronskian-checked integrate_monodromy call per row (a 0-d or
        1-D e is one row, else each row along the last axis), so a row's
        values do not depend on the rows beside it."""
        e = np.asarray(e, dtype=float)
        rows = e.reshape(-1, e.shape[-1]) if e.ndim > 1 and e.size else e.reshape(1, -1)
        floor = self.table.breaks[0]
        d = self.table.value(np.maximum(rows, floor))
        deep = rows < floor
        for r in np.flatnonzero(deep.any(axis=1)).tolist():
            d[r, deep[r]] = integrate_monodromy(self.potential, rows[r, deep[r]],
                                                _TABLE_RTOL).trace()
        return np.arccosh(np.maximum(1.0, np.abs(d) / 2.0)).reshape(e.shape)[()]

    def kprime_fast(self, e, band_index):
        """dk/dE on band `band_index` (table-backed; diverges at the edges)."""
        d, dp = self.table.value_and_derivative(e)
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
