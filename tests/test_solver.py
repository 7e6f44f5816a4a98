import math
import warnings

import pytest

from bandres import (
    ConfigurationError,
    PerturbationProfile,
    SolverConfig,
    UnsupportedConfigurationError,
    band_edges,
    decompose_window,
    delta_kappa,
    drift_slope,
    compute_action_data,
    load_configuration,
    locate_resonances,
    tunneling_coefficients,
    well_phase,
    well_phase_derivative,
    width_estimate,
)

BOUND_E = (9.0, 10.4)
DRIFT_E = (9.4, 10.2)


def solve(bands, profile, e_window, epsilon, zeta=0.0, **kw):
    cfg = SolverConfig(epsilon, zeta, e_window, **kw)
    win = decompose_window(profile, bands, 0.5 * (e_window[0] + e_window[1]))
    return cfg, locate_resonances(cfg, win, bands, profile)


class TestConfig:
    def test_validation(self):
        good = dict(epsilon=0.1, zeta=0.0, e_window=(9.0, 10.0))
        SolverConfig(**good)
        for bad in (dict(good, epsilon=0.0), dict(good, epsilon=0.6),
                    dict(good, e_window=(10.0, 9.0)),
                    dict(good, root_tol=0.0), dict(good, root_tol=1e-7),
                    dict(good, buffer=0.5), dict(good, nodes=4)):
            with pytest.raises(ConfigurationError):
                SolverConfig(**bad)

    def test_to_dict(self):
        cfg = SolverConfig(0.1, 0.3, (9.0, 10.0), nodes=80, c0=0.6)
        d = cfg.to_dict()
        assert d == {"epsilon": 0.1, "zeta": 0.3, "e_window": [9.0, 10.0],
                     "root_tol": 1e-12, "nodes": 80, "buffer": 0.1, "c0": 0.6}


class TestQuantization:
    def test_positions_solve_the_rule(self, mathieu_bands, bound_profile):
        cfg, found = solve(mathieu_bands, bound_profile, BOUND_E, 0.08)
        assert found
        for r in found:
            # re-derive the phase at the solved position from scratch
            w = decompose_window(bound_profile, mathieu_bands, r.e_real)
            target = (-math.pi * delta_kappa(w) * cfg.zeta
                      + cfg.epsilon * (math.pi / 2.0 + math.pi * r.l))
            phi = well_phase(w, mathieu_bands, bound_profile)
            assert abs(phi - target) <= 1e-9 * (1.0 + abs(target))
            assert r.residual <= cfg.root_tol * (1.0 + abs(r.phase))
            assert BOUND_E[0] <= r.e_real <= BOUND_E[1]

    @pytest.mark.parametrize("epsilon", [0.1, 0.06])
    def test_residuals_well_inside_the_bound(self, configs_dir, epsilon):
        # Newton runs to 1/16 of the acceptance bound, so a recheck that
        # rounds the target differently still accepts every level
        run = load_configuration(configs_dir / "free_flat.json")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # closed-gap genericity warning
            bands = band_edges(run.potential, 45.0)
        cfg, found = solve(bands, run.profile, run.solver.e_window, epsilon)
        assert len(found) >= 9
        for r in found:
            target = epsilon * (math.pi / 2.0 + math.pi * r.l)   # zeta = 0
            assert r.residual <= cfg.root_tol * (1.0 + abs(target)) / 16.0

    def test_count_tracks_phase_range(self, mathieu_bands, bound_profile):
        for eps in (0.1, 0.08, 0.05):
            cfg, found = solve(mathieu_bands, bound_profile, BOUND_E, eps)
            lo = well_phase(decompose_window(bound_profile, mathieu_bands,
                                             BOUND_E[0]),
                            mathieu_bands, bound_profile)
            hi = well_phase(decompose_window(bound_profile, mathieu_bands,
                                             BOUND_E[1]),
                            mathieu_bands, bound_profile)
            expected = abs(hi - lo) / (math.pi * eps)
            assert abs(len(found) - expected) <= 1.0

    def test_spacing_follows_phase_slope(self, mathieu_bands, bound_profile):
        cfg, found = solve(mathieu_bands, bound_profile, BOUND_E, 0.08)
        assert len(found) >= 3
        es = [r.e_real for r in found]
        assert es == sorted(es)
        for lo, hi in zip(found, found[1:]):
            assert hi.l == lo.l + 1
            mid = 0.5 * (lo.e_real + hi.e_real)
            w = decompose_window(bound_profile, mathieu_bands, mid)
            local = math.pi * cfg.epsilon / abs(
                well_phase_derivative(w, mathieu_bands, bound_profile))
            assert hi.e_real - lo.e_real == pytest.approx(local, rel=0.05)

    def test_width_combines_tunneling_weights(self, mathieu_bands,
                                              wall_profile):
        cfg, found = solve(mathieu_bands, wall_profile, (3.6, 4.2), 0.1)
        assert found
        for r in found:
            assert r.width == pytest.approx(
                cfg.epsilon * cfg.c0 * (r.t_plus + r.t_minus), rel=1e-12)
            assert r.t_minus == 0.0        # sealed left barrier
            assert r.t_plus > 0.0
            assert math.isinf(r.s_minus) and math.isfinite(r.s_plus)
            w = decompose_window(wall_profile, mathieu_bands, r.e_real)
            data = compute_action_data(w, mathieu_bands, wall_profile)
            assert width_estimate(data, cfg.epsilon, cfg.c0) == \
                pytest.approx(r.width, rel=1e-9)

    def test_bound_well_has_zero_width(self, mathieu_bands, bound_profile):
        _cfg, found = solve(mathieu_bands, bound_profile, BOUND_E, 0.08)
        for r in found:
            assert r.width == 0.0 and r.t_plus == 0.0 and r.t_minus == 0.0
            assert not r.underflowed


class TestDrift:
    def test_positions_periodic_labels_shift(self, mathieu_bands,
                                             drift_profile):
        eps = 0.1
        _c0, at0 = solve(mathieu_bands, drift_profile, DRIFT_E, eps, zeta=0.13)
        _c1, at1 = solve(mathieu_bands, drift_profile, DRIFT_E, eps,
                         zeta=0.13 + eps)
        pos0 = {r.l: r.e_real for r in at0}
        pos1 = {r.l: r.e_real for r in at1}
        dk = 1
        shared = [l for l in pos0 if l + dk in pos1]
        assert len(shared) >= 2
        for l in shared:
            assert abs(pos0[l] - pos1[l + dk]) <= 1e-10

    def test_slope_matches_finite_difference(self, mathieu_bands,
                                             drift_profile):
        eps, z = 0.1, 0.13
        h = eps / 100.0
        _c, mid = solve(mathieu_bands, drift_profile, DRIFT_E, eps, zeta=z)
        _c, lo = solve(mathieu_bands, drift_profile, DRIFT_E, eps, zeta=z - h)
        _c, hi = solve(mathieu_bands, drift_profile, DRIFT_E, eps, zeta=z + h)
        lo_pos = {r.l: r.e_real for r in lo}
        hi_pos = {r.l: r.e_real for r in hi}
        checked = 0
        for r in mid:
            if r.l not in lo_pos or r.l not in hi_pos:
                continue
            fd = (hi_pos[r.l] - lo_pos[r.l]) / (2.0 * h)
            assert r.dE_dzeta == pytest.approx(fd, rel=1e-2)
            checked += 1
        assert checked >= 2

    def test_slope_is_zero_without_fold_jump(self, mathieu_bands,
                                             bound_profile):
        eps = 0.08
        _c, at0 = solve(mathieu_bands, bound_profile, BOUND_E, eps, zeta=0.0)
        _c, at1 = solve(mathieu_bands, bound_profile, BOUND_E, eps,
                        zeta=eps / 3.0)
        assert [r.l for r in at0] == [r.l for r in at1]
        for a, b in zip(at0, at1):
            assert abs(a.e_real - b.e_real) <= 1e-10
            assert a.dE_dzeta == 0.0

    def test_slope_helper(self, mathieu_bands, drift_profile):
        w = decompose_window(drift_profile, mathieu_bands, 9.8)
        data = compute_action_data(w, mathieu_bands, drift_profile)
        assert drift_slope(data) == pytest.approx(
            -math.pi / data.well_prime, rel=1e-12)


class TestRegimeGuards:
    def test_monotone_transition_is_resonance_free(self, mathieu_bands,
                                                   step_profile):
        _c, found = solve(mathieu_bands, step_profile, (3.6, 4.2), 0.1)
        assert found == []

    def test_two_well_window_rejected(self, mathieu_bands):
        prof = PerturbationProfile(0.0, 0.0,
                                   ((4.0, -3.0, 1.0), (4.0, 3.0, 1.0)))
        cfg = SolverConfig(0.1, 0.0, (9.5, 9.9))
        win = decompose_window(prof, mathieu_bands, 9.7)
        with pytest.raises(UnsupportedConfigurationError):
            locate_resonances(cfg, win, mathieu_bands, prof)

    def test_window_leaving_regime_rejected(self, mathieu_bands,
                                            drift_profile):
        # near E = 11 the compact well of this profile opens up
        cfg = SolverConfig(0.1, 0.0, (10.2, 11.05))
        win = decompose_window(drift_profile, mathieu_bands, 10.3)
        assert win.classification == "H6"
        with pytest.raises(UnsupportedConfigurationError):
            locate_resonances(cfg, win, mathieu_bands, drift_profile)
