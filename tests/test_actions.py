import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from bandres import (
    ActionData,
    DomainError,
    PerturbationProfile,
    UnsupportedConfigurationError,
    actions_pm,
    compute_action_data,
    decompose_window,
    delta_kappa,
    phase_integral,
    phase_integral_derivative,
    reduced_momentum,
    tunneling_coefficients,
    well_phase,
    well_phase_derivative,
)

from bandres.actions import (_barrier_actions, _edge_resolved_quad,
                             _quad_nodes, _quad_reduce)

from monodromy_reference import reference_momenta


def sqrt_ends_quad(f, a, b, tol=1e-10):
    """Reference integral over [a, b] of f, which behaves like a square root
    at both ends: zeta = a + u^2 on [a, m] and zeta = b - u^2 on [m, b],
    n Gauss-Legendre nodes in u on each half, and one call of f on all 2n
    nodes per rule. n doubles from 16 until two rules agree within tol."""
    m = 0.5 * (a + b)
    r = math.sqrt(m - a)
    previous, n = None, 16
    while n <= 1024:
        x, w = np.polynomial.legendre.leggauss(n)
        u = 0.5 * r * (x + 1.0)
        # du = r/2 dx and dzeta = 2u du on both halves
        total = float(np.tile(w * r * u, 2)
                      @ np.asarray(f(np.concatenate((a + u * u, b - u * u)))))
        if previous is not None and abs(total - previous) <= tol:
            return total
        previous, n = total, 2 * n
    raise AssertionError("reference integral over [%g, %g] did not converge"
                         % (a, b))


@pytest.fixture(scope="module")
def bound_window(mathieu_bands, bound_profile):
    return decompose_window(bound_profile, mathieu_bands, 9.7)


@pytest.fixture(scope="module")
def drift_window(mathieu_bands, drift_profile):
    return decompose_window(drift_profile, mathieu_bands, 9.8)


@pytest.fixture(scope="module")
def wall_window(mathieu_bands, wall_profile):
    return decompose_window(wall_profile, mathieu_bands, 3.9)


@pytest.fixture(scope="module")
def second_band():
    prof = PerturbationProfile(13.0, 0.0, ((-4.0, 0.0, 1.0),))
    return prof


@pytest.fixture(scope="module")
def second_band_window(mathieu_bands, second_band):
    return decompose_window(second_band, mathieu_bands, 21.5)


class TestPhaseIntegral:
    def test_free_potential_closed_form(self, free_bands):
        # V = 0: kappa0 = sqrt(E - W) on the first band, integrable by quad
        prof = PerturbationProfile(3.0, 0.0, ((-3.0, 0.0, 1.0),))
        win = decompose_window(prof, free_bands, 1.75)
        assert win.classification == "H6"
        c = win.compact

        def exact(z):
            return math.sqrt(max(1.75 - prof(z), 0.0))

        oracle, _ = quad(exact, c.lo, c.hi, epsabs=1e-11, limit=200)
        value = phase_integral(win, free_bands, prof)
        assert value == pytest.approx(oracle, abs=5e-8)
        # no anchoring terms on a lower-edge well
        assert well_phase(win, free_bands, prof) == value

    def test_quad_cross_check(self, bound_window, mathieu_bands,
                              bound_profile):
        c = bound_window.compact

        def direct(z):
            return [reduced_momentum(ref.k, ref.n) for ref in
                    reference_momenta(mathieu_bands, 9.7 - bound_profile(z))]

        oracle = sqrt_ends_quad(direct, c.lo, c.hi)
        data = compute_action_data(bound_window, mathieu_bands, bound_profile)
        value = data.phi0
        assert value == phase_integral(bound_window, mathieu_bands,
                                       bound_profile)
        assert value > 0.0
        assert value == pytest.approx(oracle, abs=5e-8)
        assert data.quadrature_error < 1e-9

    def test_node_doubling_stable(self, drift_window, mathieu_bands,
                                  drift_profile):
        coarse = phase_integral(drift_window, mathieu_bands, drift_profile,
                                nodes=48)
        fine = phase_integral(drift_window, mathieu_bands, drift_profile,
                              nodes=96)
        assert coarse == pytest.approx(fine, rel=1e-11)

    def test_one_gauss_rule_per_integral(self, drift_window, mathieu_bands,
                                         drift_profile):
        # one call on 4 panels of 2*nodes points per integral: Phi0, then
        # Phi_w'; only the error estimate adds a call for the nodes rule
        # (both barriers of this window are unbounded, so the barrier
        # actions integrate nothing)
        sizes = []

        def counting(z):
            sizes.append(np.size(z))
            return drift_profile(z)

        well_phase(drift_window, mathieu_bands, counting, nodes=64)
        assert sizes == [4 * 128]
        sizes.clear()
        compute_action_data(drift_window, mathieu_bands, counting, nodes=64)
        assert sizes == [4 * 128, 4 * 128, 4 * 64]

    @pytest.mark.parametrize("action, setting, words", [
        (phase_integral, dict(nodes=0), "rule of 0 points"),
        (phase_integral, dict(nodes=2.5), "rule of 5.0 points"),
        (phase_integral, dict(buffer=-0.1), "buffer=-0.1 outside"),
        (phase_integral, dict(buffer=0.0), "buffer=0.0 outside"),
        (phase_integral, dict(buffer=0.5), "buffer=0.5 outside"),
        (phase_integral, dict(buffer=1.0), "buffer=1.0 outside"),
        (phase_integral, dict(buffer=math.nan), "buffer=nan outside"),
        (phase_integral_derivative, dict(nodes=3), "rule of 6 points"),
        (well_phase, dict(buffer=0.0), "buffer=0.0 outside"),
        (well_phase_derivative, dict(buffer=1.0), "buffer=1.0 outside"),
        (actions_pm, dict(nodes=0), "rule of 0 points"),
        (compute_action_data, dict(buffer=0.5), "buffer=0.5 outside")])
    def test_quadrature_settings_outside_solver_bounds_refused(
            self, action, setting, words, wall_window, mathieu_bands, wall_profile):
        # SolverConfig's bounds (an integer of at least 8 points per panel,
        # 0 < buffer < 0.5) hold for every public rule, not just for run files;
        # the wall window has finite barriers, so actions_pm runs a rule too
        with pytest.raises(DomainError, match=re.escape(words)):
            action(wall_window, mathieu_bands, wall_profile, **setting)

    @pytest.mark.parametrize("nodes", [4, 7])
    @pytest.mark.parametrize("action", [phase_integral, well_phase,
                                        well_phase_derivative,
                                        phase_integral_derivative, actions_pm])
    def test_caller_nodes_below_eight_refused(self, action, nodes, bound_window,
                                              mathieu_bands, bound_profile):
        # the check is on the caller's nodes, not on the 2*nodes-point rule
        # (8 and 14 points) that these functions run; the bound well has no
        # finite barrier, so actions_pm runs no rule at all
        with pytest.raises(DomainError, match=re.escape("(nodes=%d)" % nodes)):
            action(bound_window, mathieu_bands, bound_profile, nodes=nodes)

    @pytest.mark.parametrize("action", [phase_integral, well_phase,
                                        well_phase_derivative,
                                        phase_integral_derivative, actions_pm,
                                        compute_action_data])
    def test_rule_is_checked_before_the_regime(self, action, mathieu_bands,
                                               step_profile):
        # step_transition's window at E = 3.9 is H5: every public action
        # function names the rule first
        window = decompose_window(step_profile, mathieu_bands, 3.9)
        with pytest.raises(DomainError,
                           match=re.escape("rule of 0 points per panel (nodes=0)")):
            action(window, mathieu_bands, step_profile, nodes=0)


class TestEdgeBookkeeping:
    def test_delta_kappa_by_fixture(self, bound_window, wall_window,
                                    drift_window, second_band_window):
        assert delta_kappa(bound_window) == 0
        assert delta_kappa(wall_window) == 0
        assert delta_kappa(drift_window) == 1
        assert delta_kappa(second_band_window) == 0

    def test_well_phase_anchoring(self, drift_window, mathieu_bands,
                                  drift_profile):
        c = drift_window.compact
        phi0 = phase_integral(drift_window, mathieu_bands, drift_profile)
        anchored = well_phase(drift_window, mathieu_bands, drift_profile)
        # lower edge at the left endpoint (v=0), upper at the right (v=pi)
        assert anchored == pytest.approx(phi0 - math.pi * c.hi, rel=1e-12)

    def test_well_phase_anchoring_symmetric(self, bound_window, mathieu_bands,
                                            bound_profile):
        c = bound_window.compact
        phi0 = phase_integral(bound_window, mathieu_bands, bound_profile)
        anchored = well_phase(bound_window, mathieu_bands, bound_profile)
        assert anchored == pytest.approx(phi0 - math.pi * (c.hi - c.lo),
                                         rel=1e-12)


class TestDerivatives:
    def finite_difference(self, fn, bands, profile, energy, h):
        lo = fn(decompose_window(profile, bands, energy - h), bands, profile)
        hi = fn(decompose_window(profile, bands, energy + h), bands, profile)
        return (hi - lo) / (2.0 * h)

    def test_well_phase_slope(self, drift_window, mathieu_bands,
                              drift_profile):
        fd = self.finite_difference(well_phase, mathieu_bands, drift_profile,
                                    9.8, 1e-5)
        val = well_phase_derivative(drift_window, mathieu_bands, drift_profile)
        assert val == pytest.approx(fd, rel=1e-5)
        assert val > 0.0

    def test_well_phase_slope_even_band(self, second_band_window,
                                        mathieu_bands, second_band):
        fd = self.finite_difference(well_phase, mathieu_bands, second_band,
                                    21.5, 1e-5)
        val = well_phase_derivative(second_band_window, mathieu_bands,
                                    second_band)
        assert val == pytest.approx(fd, rel=1e-5)

    def test_phase_integral_slope_has_boundary_term(self, drift_window,
                                                    mathieu_bands,
                                                    drift_profile):
        fd = self.finite_difference(phase_integral, mathieu_bands,
                                    drift_profile, 9.8, 1e-5)
        val = phase_integral_derivative(drift_window, mathieu_bands,
                                        drift_profile)
        assert val == pytest.approx(fd, rel=1e-4)
        interior = well_phase_derivative(drift_window, mathieu_bands,
                                         drift_profile)
        assert abs(val - interior) > 1.0   # moving endpoint dominates here


class TestBarrierActions:
    def test_symmetric_well_finite_both_sides(self, second_band_window,
                                              mathieu_bands, second_band):
        s_minus, s_plus = actions_pm(second_band_window, mathieu_bands,
                                     second_band)
        assert math.isfinite(s_minus) and math.isfinite(s_plus)
        assert s_minus == pytest.approx(s_plus, rel=1e-9)

        def gamma(z):
            return [ref.gamma for ref in
                    reference_momenta(mathieu_bands, 21.5 - second_band(z))]

        w = second_band_window
        oracle = sqrt_ends_quad(gamma, w.zeta0_plus, w.zeta_plus)
        assert s_plus == pytest.approx(2.0 * oracle, abs=5e-7)

    def test_wall_has_one_open_channel(self, wall_window, mathieu_bands,
                                       wall_profile):
        s_minus, s_plus = actions_pm(wall_window, mathieu_bands, wall_profile)
        assert math.isinf(s_minus)
        assert math.isfinite(s_plus) and s_plus > 0.0

        def gamma(z):
            return [ref.gamma for ref in
                    reference_momenta(mathieu_bands, 3.9 - wall_profile(z))]

        w = wall_window
        oracle = sqrt_ends_quad(gamma, w.zeta0_plus, w.zeta_plus)
        assert s_plus == pytest.approx(2.0 * oracle, abs=5e-7)

    def test_bound_well_is_sealed(self, bound_window, mathieu_bands,
                                  bound_profile):
        s_minus, s_plus = actions_pm(bound_window, mathieu_bands,
                                     bound_profile)
        assert math.isinf(s_minus) and math.isinf(s_plus)


class TestTunneling:
    def bundle(self, s_minus, s_plus):
        return ActionData(5.0, 1.0, 0, s_minus, s_plus, 0.0, 1.0, 1.0, 1.0)

    def test_weights(self):
        t = tunneling_coefficients(self.bundle(0.4, 0.9), 0.1)
        assert t.t_minus == pytest.approx(math.exp(-4.0))
        assert t.t_plus == pytest.approx(math.exp(-9.0))
        assert t.t == t.t_minus + t.t_plus
        assert tuple(t) == (t.t_minus, t.t_plus, t.t)
        assert not t.underflowed

    def test_underflow_clamps_and_flags(self):
        t = tunneling_coefficients(self.bundle(100.0, 0.4), 0.1)
        assert t.t_minus == 0.0 and t.underflowed
        assert t.t_plus > 0.0

    def test_sealed_side_is_silent_zero(self):
        t = tunneling_coefficients(self.bundle(math.inf, 0.4), 0.1)
        assert t.t_minus == 0.0 and not t.underflowed

    def test_epsilon_range(self):
        with pytest.raises(UnsupportedConfigurationError):
            tunneling_coefficients(self.bundle(1.0, 1.0), 0.0)
        with pytest.raises(UnsupportedConfigurationError):
            tunneling_coefficients(self.bundle(1.0, 1.0), 0.7)


class TestBundle:
    def test_fields_consistent(self, drift_window, mathieu_bands,
                               drift_profile):
        data = compute_action_data(drift_window, mathieu_bands, drift_profile)
        assert data.energy == 9.8
        assert data.delta_kappa == 1
        assert data.phi0 == pytest.approx(
            phase_integral(drift_window, mathieu_bands, drift_profile),
            rel=1e-12)
        assert data.well_prime == pytest.approx(
            well_phase_derivative(drift_window, mathieu_bands, drift_profile),
            rel=1e-12)
        d = data.to_dict()
        assert set(d) == {"E", "Phi0", "delta_kappa", "S_minus", "S_plus",
                          "quadrature_error", "phi0_prime", "well_phase",
                          "well_phase_prime"}
        assert d["well_phase"] == data.well

    def test_single_well_only(self, mathieu_bands, step_profile):
        # step_transition's H5 window; each error names the function called
        win = decompose_window(step_profile, mathieu_bands, 3.9)
        for fn in (phase_integral, phase_integral_derivative, actions_pm,
                   well_phase, well_phase_derivative, compute_action_data):
            with pytest.raises(UnsupportedConfigurationError,
                               match="^%s needs the one-well" % fn.__name__):
                fn(win, mathieu_bands, step_profile)
        with pytest.raises(UnsupportedConfigurationError,
                           match="^delta_kappa needs the one-well"):
            delta_kappa(win)


class TestBatchedActionData:
    """_barrier_actions integrates every finite barrier of a batch in one
    integrand call; each window's pair must stay what actions_pm and
    compute_action_data give it on its own."""

    @pytest.mark.parametrize("case", ["wall", "tall_wall", "drift", "bound",
                                      "second_band"])
    def test_batch_equals_single_windows(self, case, mathieu_bands,
                                         wall_profile, drift_profile,
                                         bound_profile, second_band):
        profile, energies = {
            "wall": (wall_profile, (3.62, 3.9, 4.18)),
            # E - W reaches -8.47 on the barrier, below the table floor
            "tall_wall": (PerturbationProfile(2.75, -2.75, ((12.0, 1.2, 0.3),)),
                          (3.65, 3.9, 4.15)),
            "drift": (drift_profile, (9.45, 9.8, 10.15)),
            "bound": (bound_profile, (9.1, 9.7, 10.3)),
            "second_band": (second_band, (21.2, 21.5, 21.8)),
        }[case]
        bands = mathieu_bands
        windows = [decompose_window(profile, bands, e) for e in energies]
        batch = _barrier_actions(windows, bands, profile, 64, 0.1)
        floor = bands.table.breaks[0]
        deep = False
        for w, pair in zip(windows, batch):
            data = compute_action_data(w, bands, profile)
            assert repr(pair) == repr((data.s_minus, data.s_plus))
            assert pair == actions_pm(w, bands, profile)
            # each finite barrier as the per-window rule over gamma_fast gives it
            for (a, b), s in zip(w.barriers, pair):
                if math.isinf(a) or math.isinf(b):
                    assert s == math.inf
                    continue

                def gamma(z, e=w.energy):
                    return bands.gamma_fast(e - profile(z))

                assert s == 2.0 * _edge_resolved_quad(gamma, [(a, b)], 128, 0.1)[0]
                deep |= w.energy - profile(np.linspace(a, b, 201)).max() < floor
        assert deep == (case == "tall_wall")


def per_panel_integrals(values, segments, n, buffer):
    """The edge-resolved rule reduced one np.dot per panel and summed in
    Python from 0, its nodes built by numpy operations: the reference the
    batched node construction and reduction must reproduce bit for bit."""
    x, w = np.polynomial.legendre.leggauss(n)
    a, b = (np.array(ends, dtype=float)[:, None] for ends in zip(*segments))
    d = buffer * (b - a)
    m = 0.5 * (a + b)
    lo = np.hstack((np.zeros_like(a), a + d, m))
    hi = np.hstack((np.sqrt(d), m, b - d))
    t = (0.5 * (lo + hi))[:, :, None] + (0.5 * (hi - lo))[:, :, None] * x
    u = t[:, 0]
    z = np.concatenate((a + u * u, t[:, 1], t[:, 2], b - u * u), axis=1)
    v = values(z).reshape(len(segments), 4, n)
    v[:, 0] *= 2.0 * u
    v[:, 3] *= 2.0 * u
    scales = np.hstack((0.5 * (hi - lo), 0.5 * (hi - lo)[:, :1])).tolist()
    return [sum(s * float(np.dot(w, vp)) for s, vp in zip(row_scales, row))
            for row_scales, row in zip(scales, v)]


@pytest.mark.parametrize("n", [8, 64, 128])
def test_quadrature_equals_per_panel_reference(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        lo = rng.uniform(-5.0, 5.0, 7)
        segments = [(float(a), float(a + w)) for a, w in
                    zip(lo, np.exp(rng.uniform(-6.0, 2.0, 7)))]
        c = rng.uniform(-3.0, 3.0)

        def values(z, c=c):
            return np.cos(c * z) + z * z

        z, rule = _quad_nodes(segments, n, 0.1)
        stacked = _quad_reduce(np.stack((values(z), 2.0 * values(z))), rule)
        reference = per_panel_integrals(values, segments, n, 0.1)
        assert stacked[0] == reference
        assert stacked[1] == per_panel_integrals(lambda z: 2.0 * values(z),
                                                 segments, n, 0.1)
