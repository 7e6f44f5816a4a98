import gc
import math
import sys
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from bandres import (
    BandStructure,
    ComputationError,
    ConfigurationError,
    PerturbationProfile,
    ResonanceEstimate,
    SolverConfig,
    UnsupportedConfigurationError,
    band_edges,
    decompose_window,
    delta_kappa,
    drift_slope,
    compute_action_data,
    load_configuration,
    locate_resonances,
    phase_integral,
    tunneling_coefficients,
    well_phase,
    well_phase_derivative,
    width_estimate,
)
from bandres import actions as actions_module
from bandres import solver as solver_module
from bandres.actions import _phi0_rule, _well_integrals
from bandres.solver import (_GRID_POINTS, _MAX_LEVELS, _NEWTON_MARGIN, _Level,
                            _interpolant, _lobatto_grid,
                            _start_at_interpolant_roots)

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


    def test_ladder_too_deep_to_hold_is_refused(self, mathieu_bands,
                                                wall_profile):
        # barrier_wall at eps = 1e-9 asks for about 1.7e9 levels
        start = time.perf_counter()
        with pytest.raises(ComputationError,
                           match=r"epsilon=1e-09 puts \d+ levels in the energy "
                                 r"window, more than the ceiling of %d"
                                 % _MAX_LEVELS):
            solve(mathieu_bands, wall_profile, (3.6, 4.2), 1e-9)
        assert time.perf_counter() - start < 1.0

    def test_newton_sweep_limit_ends_typed(self, mathieu_bands, bound_profile,
                                           monkeypatch):
        # bound_well: one sweep leaves its lowest level 1.6e-9 off, two solve all 8
        monkeypatch.setattr(solver_module, "_MAX_NEWTON", 1)
        with pytest.raises(ComputationError,
                           match=r"quantization root for l=-11 did not converge "
                                 r"in 1 Newton sweeps \(residual "):
            solve(mathieu_bands, bound_profile, BOUND_E, 0.08)
        monkeypatch.setattr(solver_module, "_MAX_NEWTON", 2)
        assert len(solve(mathieu_bands, bound_profile, BOUND_E, 0.08)[1]) == 8


def per_level_ladder(cfg, window, bands, profile):
    """The quantization solve one level at a time through the public
    single-window functions: each level starts at the root of the grid
    interpolant in its bracket, found alone, runs its own bracketed Newton
    to 1/16 of the acceptance bound, stepping after every evaluation but
    the last of the solver's budget, then takes its own action data at its
    last evaluated iterate. The regime guards are left out; the
    configurations below stay in H6."""
    e_lo, e_hi = cfg.e_window
    quad = (cfg.nodes, cfg.buffer)
    cache = {}

    def analyze(e):
        if e not in cache:
            w = decompose_window(profile, bands, e)
            cache[e] = (w, well_phase(w, bands, profile, *quad))
        return cache[e]

    grid = _lobatto_grid(e_lo, e_hi)
    phis = np.array([analyze(e)[1] for e in grid])
    coef = _interpolant(phis, e_lo, e_hi)
    increasing = phis[1] > phis[0]
    dk = delta_kappa(analyze(grid[0])[0])
    lo_val, hi_val = float(min(phis[0], phis[-1])), float(max(phis[0], phis[-1]))
    base = -math.pi * dk * cfg.zeta + cfg.epsilon * math.pi / 2.0
    step = cfg.epsilon * math.pi
    out = []
    for l in range(math.ceil((lo_val - base) / step - 1e-9),
                   math.floor((hi_val - base) / step + 1e-9) + 1):
        target = base + step * l
        tol = cfg.root_tol * (1.0 + abs(target))
        pos = np.searchsorted(phis if increasing else -phis,
                              target if increasing else -target)
        i = min(max(pos, 1), len(grid) - 1)
        a, b = float(grid[i - 1]), float(grid[i])
        fa, fb = phis[i - 1] - target, phis[i] - target
        if fa * fb > 0.0:
            continue
        start = _Level(l, target, tol, a, fa, b, fb)   # regula falsi
        _start_at_interpolant_roots([start], coef, e_lo, e_hi)
        e = start.e
        budget = solver_module._MAX_NEWTON
        for sweep in range(budget):
            fe = analyze(e)[1] - target
            if abs(fe) <= tol / _NEWTON_MARGIN or sweep == budget - 1:
                break
            if (fe < 0.0) == (fa < 0.0):
                a, fa = e, fe
            else:
                b, fb = e, fe
            d = well_phase_derivative(analyze(e)[0], bands, profile, *quad)
            cand = e - fe / d if d != 0.0 else 0.5 * (a + b)
            if not min(a, b) < cand < max(a, b):
                cand = 0.5 * (a + b)
            e = cand
        assert abs(fe) <= tol
        if not e_lo <= e <= e_hi:
            continue
        w, phi_e = analyze(e)
        data = compute_action_data(w, bands, profile, *quad)
        t = tunneling_coefficients(data, cfg.epsilon)
        out.append(ResonanceEstimate(
            l, e, width_estimate(data, cfg.epsilon, cfg.c0), t.t_plus,
            t.t_minus, drift_slope(data), abs(fe), s_minus=data.s_minus,
            s_plus=data.s_plus, phase=phi_e, phase_prime=data.well_prime,
            underflowed=t.underflowed))
    return out


H6_CONFIGS = ("bound_well", "barrier_wall", "drift_well", "free_flat")


def config_bands(request, name):
    return request.getfixturevalue(
        "free_bands" if name == "free_flat" else "mathieu_bands")


class TestLockstep:
    @pytest.mark.parametrize("name", H6_CONFIGS)
    @pytest.mark.parametrize("epsilon, zeta", [(0.1, 0.0), (0.05, 0.37)])
    def test_lockstep_equals_per_level_newton(self, request, configs_dir,
                                              name, epsilon, zeta):
        run = load_configuration(configs_dir / (name + ".json"))
        bands = config_bands(request, name)
        cfg, found = solve(bands, run.profile, run.solver.e_window, epsilon,
                           zeta)
        win = decompose_window(run.profile, bands,
                               0.5 * sum(run.solver.e_window))
        ref = per_level_ladder(cfg, win, bands, run.profile)
        assert found
        assert [vars(r) for r in found] == [vars(r) for r in ref]

    @pytest.mark.parametrize("name", ["barrier_wall", "free_flat"])
    def test_ladder_runs_no_coarse_rule(self, request, configs_dir, name,
                                        monkeypatch):
        # an estimate reports no quadrature error and no Phi0', so a ladder
        # runs neither the coarse Phi0 rule nor Phi0' and builds no bundle
        run = load_configuration(configs_dir / (name + ".json"))
        bands = config_bands(request, name)
        cfg = SolverConfig(0.1, 0.0, run.solver.e_window)
        win = decompose_window(run.profile, bands,
                               0.5 * sum(run.solver.e_window))
        ref = per_level_ladder(cfg, win, bands, run.profile)

        def refuse(*args, **kwargs):
            raise AssertionError("a ladder built action data it does not report")

        for attr in ("_phi0_rule", "_phi0_prime", "ActionData"):
            monkeypatch.setattr(actions_module, attr, refuse)
        found = locate_resonances(cfg, win, bands, run.profile)
        assert found
        assert [vars(r) for r in found] == [vars(r) for r in ref]

    def test_budget_judges_the_last_evaluated_iterate(self, configs_dir,
                                                      free_bands,
                                                      monkeypatch):
        # one sweep leaves some free_flat levels short of 1/16 of the bound
        # (the interpolant reads up to 3.7e-13 off there): each is judged at
        # the last iterate it evaluated, so its residual is the one at the
        # position it reports
        monkeypatch.setattr(solver_module, "_MAX_NEWTON", 1)
        run = load_configuration(configs_dir / "free_flat.json")
        s = run.solver
        cfg, found = solve(free_bands, run.profile, s.e_window, s.epsilon,
                           s.zeta)
        win = decompose_window(run.profile, free_bands,
                               0.5 * sum(s.e_window))
        base = (-math.pi * delta_kappa(win) * cfg.zeta
                + cfg.epsilon * math.pi / 2.0)
        short = 0
        for r in found:
            target = base + cfg.epsilon * math.pi * r.l
            w = decompose_window(run.profile, free_bands, r.e_real)
            assert r.residual == abs(
                well_phase(w, free_bands, run.profile) - target)
            tol = cfg.root_tol * (1.0 + abs(target))
            short += r.residual > tol / _NEWTON_MARGIN
        assert short
        ref = per_level_ladder(cfg, win, free_bands, run.profile)
        assert [vars(r) for r in found] == [vars(r) for r in ref]

    def test_budget_judges_the_iterate_evaluated_after_a_step(
            self, configs_dir, mathieu_bands, monkeypatch):
        # with no polynomial steps every level starts at its regula-falsi
        # point in its Lobatto bracket, so two sweeps leave the barrier_wall
        # levels short of 1/16 of a 1e-10 bound after a Newton step: each
        # is judged at the iterate it evaluated after that step
        monkeypatch.setattr(solver_module, "_MAX_NEWTON", 2)
        monkeypatch.setattr(solver_module, "_START_STEPS", 0)
        run = load_configuration(configs_dir / "barrier_wall.json")
        s = run.solver
        cfg, found = solve(mathieu_bands, run.profile, s.e_window, s.epsilon,
                           s.zeta, root_tol=1e-10)
        win = decompose_window(run.profile, mathieu_bands,
                               0.5 * sum(s.e_window))
        base = (-math.pi * delta_kappa(win) * cfg.zeta
                + cfg.epsilon * math.pi / 2.0)
        short = 0
        for r in found:
            target = base + cfg.epsilon * math.pi * r.l
            w = decompose_window(run.profile, mathieu_bands, r.e_real)
            assert r.residual == abs(
                well_phase(w, mathieu_bands, run.profile) - target)
            tol = cfg.root_tol * (1.0 + abs(target))
            short += r.residual > tol / _NEWTON_MARGIN
        assert short
        ref = per_level_ladder(cfg, win, mathieu_bands, run.profile)
        assert [vars(r) for r in found] == [vars(r) for r in ref]

    def test_well_phase_independent_of_its_batch(self, mathieu_bands,
                                                 bound_profile):
        ws = [decompose_window(bound_profile, mathieu_bands, e)
              for e in np.linspace(BOUND_E[0], BOUND_E[1], _GRID_POINTS)]
        fused = _well_integrals(ws, mathieu_bands, bound_profile)
        for i, w in enumerate(ws):
            # (Phi0, Phi_w, Phi_w') from shared nodes, bit for bit the
            # single-window public values, whatever the batch
            assert fused[i] == _well_integrals([w], mathieu_bands,
                                               bound_profile)[0]
            assert fused[i] == (
                phase_integral(w, mathieu_bands, bound_profile),
                well_phase(w, mathieu_bands, bound_profile),
                well_phase_derivative(w, mathieu_bands, bound_profile))
            # and Phi0 bit for bit the k-only integrand's, by the same rule
            assert fused[i][0] == _phi0_rule([w], mathieu_bands, bound_profile,
                                             2 * 64, 0.1, "well_phase")[0]

    @pytest.mark.parametrize("chunk", [solver_module._CHUNK, 2])
    def test_first_failure_in_level_order_is_raised(self, mathieu_bands,
                                                    bound_profile, monkeypatch,
                                                    chunk):
        # the lowest level fails late (at its root, on its second sweep:
        # its start lies 1.6e-9 off) and a higher level fails at its first
        # iterate: the per-level loop meets the lower level's failure
        # first, and so must the lockstep, also when the two levels fall
        # in different chunks
        cfg, found = solve(mathieu_bands, bound_profile, BOUND_E, 0.05)
        low, high = found[0].e_real, found[3].e_real
        grid = set(_lobatto_grid(*BOUND_E))
        spacing = found[1].e_real - found[0].e_real

        def fails(e):
            return e not in grid and (abs(e - low) < 1e-10
                                      or abs(e - high) < 0.5 * spacing)

        def failing(profile, bands, e, _decompose=decompose_window):
            if fails(e):
                raise UnsupportedConfigurationError("failed at E=%.17g" % e)
            return _decompose(profile, bands, e)

        def failing_many(profile, bands, energies,
                         _decompose=solver_module._decompose_many):
            # the solver's batched decomposition, with the same failures
            return [UnsupportedConfigurationError("failed at E=%.17g" % e)
                    if fails(e) else w
                    for e, w in zip(energies, _decompose(profile, bands, energies))]

        win = decompose_window(bound_profile, mathieu_bands, 9.7)
        errors = []
        for module in (solver_module, sys.modules[__name__]):
            if module is solver_module:
                monkeypatch.setattr(module, "_decompose_many", failing_many)
                monkeypatch.setattr(module, "_CHUNK", chunk)
            else:
                monkeypatch.setattr(module, "decompose_window", failing)
            with pytest.raises(UnsupportedConfigurationError) as info:
                (locate_resonances if module is solver_module else
                 per_level_ladder)(cfg, win, mathieu_bands, bound_profile)
            monkeypatch.undo()
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert abs(float(errors[0].split("E=")[1]) - low) < 1e-10

    def test_ladder_batches_table_calls(self, configs_dir, free_bands,
                                        monkeypatch):
        # one table-backed call for the grid, one per Newton sweep (4 here)
        # and one for the coarse action rule, not one per probed energy and
        # level (the per-level solve makes 189)
        calls = []
        for meth in ("k_band_fast", "kprime_fast", "gamma_fast",
                     "k_and_kprime_fast"):
            original = getattr(BandStructure, meth)

            def counted(self, *args, _original=original, **kwargs):
                calls.append(1)
                return _original(self, *args, **kwargs)
            monkeypatch.setattr(BandStructure, meth, counted)
        run = load_configuration(configs_dir / "free_flat.json")
        _cfg, found = solve(free_bands, run.profile, run.solver.e_window, 0.05)
        assert len(found) == 19
        assert len(calls) <= 6


def grid_of(e_window):
    return list(_lobatto_grid(*e_window))


@pytest.fixture
def decomposed(monkeypatch):
    """Every energy the solver passes to _decompose_many, in order."""
    seen = []

    def counted(profile, bands, energies,
                _decompose=solver_module._decompose_many):
        seen.extend(energies)
        return _decompose(profile, bands, energies)
    monkeypatch.setattr(solver_module, "_decompose_many", counted)
    return seen


@pytest.fixture
def cold(monkeypatch):
    """An empty grid memo for this test."""
    grids = weakref.WeakKeyDictionary()
    monkeypatch.setattr(solver_module, "_GRIDS", grids)
    return grids


class TestGridMemo:
    def test_second_ladder_decomposes_no_grid_energy(self, mathieu_bands,
                                                     wall_profile, decomposed):
        solve(mathieu_bands, wall_profile, (3.6, 4.2), 0.1)
        decomposed.clear()
        _cfg, found = solve(mathieu_bands, wall_profile, (3.6, 4.2), 0.05, 0.02)
        assert found
        assert decomposed
        assert not set(grid_of((3.6, 4.2))) & set(decomposed)

    def test_fresh_bands_start_cold(self, mathieu, wall_profile, decomposed):
        bands = band_edges(mathieu, 12.0)
        assert bands not in solver_module._GRIDS
        solve(bands, wall_profile, (3.6, 4.2), 0.1)
        assert decomposed[:_GRID_POINTS] == grid_of((3.6, 4.2))
        assert len(solver_module._GRIDS[bands]) == 1

    @pytest.mark.parametrize("name", H6_CONFIGS)
    def test_warm_ladder_equals_cold(self, request, configs_dir, name,
                                     monkeypatch):
        run = load_configuration(configs_dir / (name + ".json"))
        bands = config_bands(request, name)
        e_window = run.solver.e_window
        settings = [(0.1, 0.0), (0.05, 0.37), (0.03, 0.011), (0.1, 0.1)]
        ladders = []
        for epsilon, zeta in settings:
            monkeypatch.setattr(solver_module, "_GRIDS",
                                weakref.WeakKeyDictionary())
            ladders.append(solve(bands, run.profile, e_window, epsilon,
                                 zeta)[1])
        grids = weakref.WeakKeyDictionary()
        monkeypatch.setattr(solver_module, "_GRIDS", grids)
        for (epsilon, zeta), ladder in zip(settings, ladders):
            _cfg, found = solve(bands, run.profile, e_window, epsilon, zeta)
            assert found
            assert [vars(r) for r in found] == [vars(r) for r in ladder]
        (grid, _windows, phis, coef), = grids[bands].values()
        assert grid == tuple(grid_of(e_window))
        assert not phis.flags.writeable and not coef.flags.writeable

    def test_grid_leaving_regime_raises_alike_and_is_not_kept(
            self, mathieu_bands, drift_profile, cold, decomposed):
        # near E = 11 the compact well of this profile opens up
        cfg = SolverConfig(0.1, 0.0, (10.2, 11.05))
        win = decompose_window(drift_profile, mathieu_bands, 10.3)
        messages = []
        for _ in range(2):
            decomposed.clear()
            with pytest.raises(UnsupportedConfigurationError,
                               match="leaves the one-well regime") as info:
                locate_resonances(cfg, win, mathieu_bands, drift_profile)
            messages.append(str(info.value))
            assert decomposed == grid_of(cfg.e_window)
        assert messages[0] == messages[1]
        assert not cold.get(mathieu_bands)

    def test_entry_goes_with_its_bands(self, mathieu, wall_profile, cold):
        bands = band_edges(mathieu, 12.0)
        solve(bands, wall_profile, (3.6, 4.2), 0.1)
        assert len(cold) == 1
        gone = weakref.ref(bands)
        del bands
        gc.collect()
        assert gone() is None
        assert len(cold) == 0


# (first, last) l of each H6 config's ladder at its shipped (eps, zeta),
# at (0.05, 0.37) and at (0.03, 0.011), recorded with the former bracket
# grid of 9 equispaced energies and regula-falsi starts
RECORDED_LEVELS = {
    "bound_well": [(-11, -4), (-17, -7), (-28, -10)],
    "barrier_wall": [(3, 4), (6, 8), (10, 15)],
    "drift_well": [(3, 5), (10, 16), (5, 15)],
    "free_flat": [(3, 12), (7, 25), (11, 43)],
}

CORRUPTIONS = {
    "nan": lambda c: np.full_like(c, np.nan),
    "zero": np.zeros_like,
    "negated": np.negative,
    "offset": lambda c: c + 1.0,
}


class TestInterpolantStart:
    @pytest.mark.parametrize("name", ("barrier_wall", "drift_well"))
    @pytest.mark.parametrize("setting", ("shipped", (0.05, 0.37)))
    def test_every_level_accepted_at_its_first_evaluation(
            self, configs_dir, mathieu_bands, name, setting, decomposed):
        run = load_configuration(configs_dir / (name + ".json"))
        s = run.solver
        epsilon, zeta = (s.epsilon, s.zeta) if setting == "shipped" else setting
        solve(mathieu_bands, run.profile, s.e_window, epsilon, zeta)  # grid kept
        decomposed.clear()
        cfg, found = solve(mathieu_bands, run.profile, s.e_window, epsilon,
                           zeta)
        assert found
        # one sweep: each level's start is its reported position
        assert decomposed == [r.e_real for r in found]
        for r in found:
            assert r.residual <= (cfg.root_tol * (1.0 + abs(r.phase))
                                  / _NEWTON_MARGIN)

    @pytest.mark.parametrize("name", H6_CONFIGS)
    def test_grid_ends_are_the_window_ends_and_levels_stay(
            self, request, configs_dir, name):
        run = load_configuration(configs_dir / (name + ".json"))
        bands = config_bands(request, name)
        s = run.solver
        grid = _lobatto_grid(*s.e_window)
        assert len(grid) == _GRID_POINTS
        assert (grid[0], grid[-1]) == s.e_window
        assert list(grid) == sorted(set(grid))
        settings = [(s.epsilon, s.zeta), (0.05, 0.37), (0.03, 0.011)]
        for (epsilon, zeta), (first, last) in zip(settings,
                                                  RECORDED_LEVELS[name]):
            _cfg, found = solve(bands, run.profile, s.e_window, epsilon, zeta)
            assert [r.l for r in found] == list(range(first, last + 1))

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("name", H6_CONFIGS)
    def test_corrupted_interpolant_converges_to_the_same_levels(
            self, request, configs_dir, name, corruption, monkeypatch):
        # the start only moves the first iterate inside its grid bracket;
        # the direct Newton sweeps still converge from wherever it lands
        run = load_configuration(configs_dir / (name + ".json"))
        bands = config_bands(request, name)
        s = run.solver
        _cfg, clean = solve(bands, run.profile, s.e_window, 0.05, 0.37)
        made = []

        def corrupted(phis, e_lo, e_hi, _interpolant=_interpolant):
            made.append(CORRUPTIONS[corruption](_interpolant(phis, e_lo, e_hi)))
            made[-1].flags.writeable = False
            return made[-1]
        monkeypatch.setattr(solver_module, "_GRIDS", weakref.WeakKeyDictionary())
        monkeypatch.setattr(solver_module, "_interpolant", corrupted)
        cfg, found = solve(bands, run.profile, s.e_window, 0.05, 0.37)
        (*_, coef), = solver_module._GRIDS[bands].values()
        assert coef is made[0]
        assert [r.l for r in found] == [r.l for r in clean]
        for a, b in zip(found, clean):
            assert abs(a.e_real - b.e_real) <= 1e-10
            assert a.residual <= cfg.root_tol * (1.0 + abs(a.phase))


class TestChunks:
    def test_chunked_ladder_equals_one_chunk_in_less_memory(
            self, configs_dir, mathieu_bands, monkeypatch):
        run = load_configuration(configs_dir / "barrier_wall.json")
        e_window = run.solver.e_window
        solve(mathieu_bands, run.profile, e_window, 0.1)   # grid kept
        ladders, peaks = [], []
        for chunk in (10 ** 6, 16):
            monkeypatch.setattr(solver_module, "_CHUNK", chunk)
            tracemalloc.start()
            try:
                ladders.append(solve(mathieu_bands, run.profile, e_window,
                                     1e-3)[1])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        one, chunked = ladders
        assert len(one) == 174
        assert [vars(r) for r in chunked] == [vars(r) for r in one]
        # about 8.3 MB in one chunk against 0.85 MB in chunks of 16
        assert peaks[1] < 0.5 * peaks[0]

    def test_finished_chunk_releases_its_windows(self, configs_dir,
                                                 mathieu_bands, cold,
                                                 monkeypatch):
        # at any decomposition, the windows still alive are at most those
        # of the chunk before (its accepted levels), this chunk's and the
        # kept grid's
        run = load_configuration(configs_dir / "barrier_wall.json")
        alive, counts = weakref.WeakSet(), []

        def tracked(profile, bands, energies,
                    _decompose=solver_module._decompose_many):
            gc.collect()
            counts.append(len(alive))
            out = _decompose(profile, bands, energies)
            alive.update(w for w in out if not isinstance(w, Exception))
            return out
        monkeypatch.setattr(solver_module, "_decompose_many", tracked)
        monkeypatch.setattr(solver_module, "_CHUNK", 16)
        _cfg, found = solve(mathieu_bands, run.profile, run.solver.e_window,
                            1e-3)
        assert len(found) == 174
        assert len(counts) > 174 // 16
        assert max(counts) <= 2 * 16 + _GRID_POINTS
