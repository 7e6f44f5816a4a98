import gc
import math
import time
import warnings
import weakref

import numpy as np
import pytest

from bandres import (
    BandStructure,
    ComputationError,
    ConfigurationError,
    PerturbationProfile,
    PeriodicPotential,
    SolverConfig,
    UnsupportedConfigurationError,
    actions_pm,
    band_edges,
    decompose_window,
    delta_kappa,
    compute_action_data,
    load_configuration,
    locate_resonances,
    phase_integral,
    tunneling_coefficients,
    well_phase,
    well_phase_derivative,
)
from bandres import actions as actions_module
from bandres import solver as solver_module
from bandres.actions import _anchored, _barrier_actions, _phi0_rule
from bandres.solver import (_MAX_LEVELS, _coefficients, _evaluate,
                            _lobatto_grid, _tails)

BOUND_E = (9.0, 10.4)
DRIFT_E = (9.4, 10.2)


def sealed(window):
    """Which barriers of the well, left and right, are empty."""
    return [math.isinf(a) or math.isinf(b) for a, b in window.barriers]


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

    @pytest.mark.parametrize("field, value", [
        ("nodes", 64.5), ("nodes", math.nan), ("nodes", math.inf),
        ("c0", -1.0), ("c0", 0.0), ("c0", math.nan)])
    def test_bad_rule_or_width_constant_names_its_field(self, field, value):
        # a fractional rule was truncated, and a width constant that is not
        # positive gave negative, zero or nan widths
        with pytest.raises(ConfigurationError, match="^%s=" % field):
            SolverConfig(0.1, 0.0, (9.0, 10.0), **{field: value})

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
        # the certificate holds the interpolant to 1/16 of the acceptance
        # bound, so a recheck that rounds the target differently still
        # accepts every level
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
            assert cfg.epsilon * cfg.c0 * tunneling_coefficients(
                data, cfg.epsilon).t == pytest.approx(r.width, rel=1e-9)

    def test_one_weight_evaluation_per_level(self, mathieu_bands, configs_dir,
                                             monkeypatch):
        # each level's width and t+- come from one tunneling_coefficients call
        calls = []

        def counted(action_data, epsilon,
                    _weights=solver_module.tunneling_coefficients):
            calls.append(epsilon)
            return _weights(action_data, epsilon)

        monkeypatch.setattr(solver_module, "tunneling_coefficients", counted)
        run = load_configuration(configs_dir / "barrier_wall.json")
        s = run.solver
        _cfg, found = solve(mathieu_bands, run.profile, s.e_window, s.epsilon,
                            s.zeta)
        assert found and len(calls) == len(found)

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

    def test_slope_is_the_drift_law_of_each_level(self, mathieu_bands,
                                                  drift_profile):
        # delta_kappa = +1: dE/dzeta = -pi/Phi_w' at each level's own Phi_w'
        _c, found = solve(mathieu_bands, drift_profile, DRIFT_E, 0.1, zeta=0.13)
        assert found
        for r in found:
            assert r.dE_dzeta == -math.pi / r.phase_prime


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

    # the well's lower edge moves from band 1's top to band 2's bottom between
    # grid energies 12 and 13 (2.75 and 2.8218), the GENERAL stretch between
    # (2.7844-2.7987) falling between them
    EDGES = PerturbationProfile(
        -5.229455998006756, 0.22531480872353882,
        ((-6.451076658616511, 0.9092991069541756, 1.2094155812848204),
         (5.212268507234121, 0.6968039617408448, 0.6819526332741284)))

    def test_bookkeeping_change_between_grid_energies_rejected(
            self, mathieu_bands, cold, decomposed):
        e_window = (2.2, 3.3)
        grid = grid_of(e_window)
        below, above = (decompose_window(self.EDGES, mathieu_bands, grid[i])
                        for i in (12, 13))
        assert below.classification == above.classification == "H6"
        assert below.compact.key != above.compact.key
        win = decompose_window(self.EDGES, mathieu_bands, e_window[0])
        with pytest.raises(UnsupportedConfigurationError,
                           match=r"well bookkeeping changes inside the energy "
                                 r"window at E=%.12g; shrink the window"
                                 % grid[13]):
            locate_resonances(SolverConfig(0.1, 0.0, e_window), win,
                              mathieu_bands, self.EDGES)
        # caught on the 25-point grid, whose energies are all H6, at the
        # first energy past the change
        assert decomposed == grid[:14]
        assert not cold.get(mathieu_bands)

    def test_phase_not_monotone_on_the_grid_rejected(self, mathieu_bands,
                                                     bound_profile, cold,
                                                     monkeypatch):
        # the grid's Phi0 at its middle energy replaced by its first: Phi_w
        # there reads 17.8 between neighbours near -1.5
        def folded(windows, *args, _phi0_rule=solver_module._phi0_rule):
            rows = _phi0_rule(windows, *args)
            rows[12] = rows[0]
            return rows
        monkeypatch.setattr(solver_module, "_phi0_rule", folded)
        with pytest.raises(UnsupportedConfigurationError,
                           match="well phase not monotone over the energy window"):
            solve(mathieu_bands, bound_profile, BOUND_E, 0.08)
        assert not cold.get(mathieu_bands)

    def test_first_failed_grid_decomposition_is_raised(self, mathieu_bands,
                                                       bound_profile, cold,
                                                       monkeypatch):
        grid = grid_of(BOUND_E)

        def failing(profile, bands, energy,
                    _decompose=solver_module.decompose_window):
            if energy in (grid[9], grid[5]):
                raise ComputationError("failed at E=%r" % energy)
            return _decompose(profile, bands, energy)
        monkeypatch.setattr(solver_module, "decompose_window", failing)
        with pytest.raises(ComputationError, match=r"^failed at E=%r$" % grid[5]):
            solve(mathieu_bands, bound_profile, BOUND_E, 0.08)
        assert not cold.get(mathieu_bands)

    def test_newton_step_limit_ends_typed(self, mathieu_bands, bound_profile,
                                          monkeypatch):
        # bound_well: one step on the polynomial leaves its lowest level
        # outside the bound, two solve all 8
        monkeypatch.setattr(solver_module, "_NEWTON_STEPS", 1)
        with pytest.raises(ComputationError,
                           match=r"quantization root for l=-11 not reached in 1 "
                                 r"Newton steps on the interpolant \(residual "):
            solve(mathieu_bands, bound_profile, BOUND_E, 0.08)
        monkeypatch.setattr(solver_module, "_NEWTON_STEPS", 2)
        assert len(solve(mathieu_bands, bound_profile, BOUND_E, 0.08)[1]) == 8


H6_CONFIGS = ("bound_well", "barrier_wall", "drift_well", "free_flat")


def config_bands(request, name):
    return request.getfixturevalue(
        "free_bands" if name == "free_flat" else "mathieu_bands")


def grid_of(e_window, points=25):
    return _lobatto_grid(*e_window, points).tolist()


@pytest.fixture
def decomposed(monkeypatch):
    """Every energy the solver decomposes, in order."""
    seen = []

    def counted(profile, bands, energy,
                _decompose=solver_module.decompose_window):
        seen.append(energy)
        return _decompose(profile, bands, energy)
    monkeypatch.setattr(solver_module, "decompose_window", counted)
    return seen


@pytest.fixture
def cold(monkeypatch):
    """An empty grid memo for this test."""
    grids = weakref.WeakKeyDictionary()
    monkeypatch.setattr(solver_module, "_GRIDS", grids)
    return grids


class TestGridMemo:
    def test_second_ladder_decomposes_nothing(self, mathieu_bands,
                                              wall_profile, decomposed):
        solve(mathieu_bands, wall_profile, (3.6, 4.2), 0.1)
        decomposed.clear()
        _cfg, found = solve(mathieu_bands, wall_profile, (3.6, 4.2), 0.05, 0.02)
        assert found
        assert not decomposed

    def test_fresh_bands_start_cold(self, mathieu, wall_profile, decomposed):
        bands = band_edges(mathieu, 12.0)
        assert bands not in solver_module._GRIDS
        solve(bands, wall_profile, (3.6, 4.2), 0.1)
        # the 25-point grid, then the new energies of the 49-point grid
        assert decomposed == grid_of((3.6, 4.2)) + grid_of((3.6, 4.2), 49)[1::2]
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
        (_window, grid, phis, coef, _error), = grids[bands].values()
        assert list(grid) == grid_of(e_window, len(grid))
        assert not any(a.flags.writeable for a in (grid, phis, coef))

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
            # the 25-point grid up to its first energy out of H6, grid[19]
            assert decomposed == grid_of(cfg.e_window)[:20]
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

# points of the certified grid of each shipped window
CERTIFIED_POINTS = {"bound_well": 49, "barrier_wall": 25, "drift_well": 25,
                    "free_flat": 49}


class TestCertificate:
    @pytest.mark.parametrize("name", H6_CONFIGS)
    def test_certified_grid_and_recorded_levels(self, request, configs_dir,
                                                name, cold):
        run = load_configuration(configs_dir / (name + ".json"))
        bands = config_bands(request, name)
        s = run.solver
        settings = [(s.epsilon, s.zeta), (0.05, 0.37), (0.03, 0.011)]
        for (epsilon, zeta), (first, last) in zip(settings,
                                                  RECORDED_LEVELS[name]):
            cfg, found = solve(bands, run.profile, s.e_window, epsilon, zeta)
            assert [r.l for r in found] == list(range(first, last + 1))
            for r in found:
                assert r.residual <= cfg.root_tol * (1.0 + abs(r.phase)) / 16.0
        (_window, grid, _phis, coef, error), = cold[bands].values()
        assert len(grid) == CERTIFIED_POINTS[name]
        assert (grid[0], grid[-1]) == s.e_window
        # Phi_w and S+- interpolated on every shipped window, an empty
        # barrier's row nan
        assert coef.shape[0] == 4
        tails = _tails(coef)
        assert list(np.isnan(tails[1:])) == sealed(_window)
        assert np.nanmax(tails) <= solver_module._TAIL_ULPS * 2.0 ** -52
        assert 0.0 < error <= cfg.root_tol / 16.0

    def test_bound_well_at_small_epsilon_takes_more_than_25_points(
            self, mathieu_bands, bound_profile, cold, decomposed):
        _cfg, found = solve(mathieu_bands, bound_profile, BOUND_E, 0.01)
        assert len(found) > 40
        (_window, grid, *_rest), = cold[mathieu_bands].values()
        assert len(grid) > 25
        # the 49-point grid, certified by the new energies of the 97-point one
        assert decomposed == (grid_of(BOUND_E) + grid_of(BOUND_E, 49)[1::2]
                              + grid_of(BOUND_E, 97)[1::2])

    def test_ladder_forced_to_25_points_fails_the_certificate(
            self, mathieu_bands, bound_profile, cold, monkeypatch):
        # with 49 points as the last check, bound_well's 25-point interpolant
        # (tail 2.8e-8) is the only candidate
        monkeypatch.setattr(solver_module, "_GRID_SIZES", (25, 49))
        with pytest.raises(ComputationError,
                           match=r"no Chebyshev interpolant of up to 25 points "
                                 r"is certified over the energy window "
                                 r"\[9, 10.4\]: degree 24 has tail [-+.e\d]+ "
                                 r"\(bound 1.42e-14\) and reads up to "
                                 r"[-+.e\d]+ from the 49-point values"):
            solve(mathieu_bands, bound_profile, BOUND_E, 0.01)
        assert not cold.get(mathieu_bands)

    @pytest.mark.parametrize("name", H6_CONFIGS)
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corrupted_interpolant_fails_the_certificate(
            self, request, configs_dir, name, corruption, cold, monkeypatch):
        run = load_configuration(configs_dir / (name + ".json"))
        bands = config_bands(request, name)

        def corrupted(values, e_lo, e_hi, _coefficients=_coefficients):
            coef = CORRUPTIONS[corruption](_coefficients(values, e_lo, e_hi))
            coef.flags.writeable = False
            return coef
        monkeypatch.setattr(solver_module, "_coefficients", corrupted)
        with pytest.raises(ComputationError, match="no Chebyshev interpolant"):
            solve(bands, run.profile, run.solver.e_window, 0.05, 0.37)
        assert not cold.get(bands)


# a left barrier that is gone from grid energy 12 (10.4) of [10.2, 10.6]
# on, the well keeping its edges
EMPTYING = PerturbationProfile(
    2.7249080211998544, 1.1861844418737215,
    ((-5.448153831953812, -1.3006578484095055, 0.5301584600682796),
     (0.4436649548615108, -0.19584445531443517, 1.4487532407042447)))

# a draw of the seeded sweep (tests/test_sweep.py) whose right barrier's far
# end runs from z = 61 to 6.2 across the window: S+ falls from 2.79 to 0.5,
# and its interpolant's tail is still 2.7e-9 at 97 points
THRESHOLD_POTENTIAL = PeriodicPotential(
    0.0, (1.5086234578525097, 2.4283896767920767, -1.0552076810459803))
THRESHOLD = PerturbationProfile(
    -2.085744146430726, -0.6803458112941052,
    ((3.8304444032286398, 1.7444232847482084, 1.2300296140679228),
     (5.534922186610146, -1.9719341097869956, 0.49394878649245677)))
THRESHOLD_E = (7.807494205720182, 8.107494205720182)


@pytest.fixture(scope="module")
def threshold_bands():
    return band_edges(THRESHOLD_POTENTIAL, 45.0)


class TestDirectActions:
    # (bands fixture, profile, window, eps, points of the kept grid, and
    # for each of S-, S+ whether the levels find it empty)
    WINDOWS = {
        "emptying": ("mathieu_bands", EMPTYING, (10.2, 10.6), 0.01, 25,
                     ({False, True}, {False})),
        "threshold": ("threshold_bands", THRESHOLD, THRESHOLD_E, 0.05, 49,
                      ({True}, {False})),
    }

    @pytest.mark.parametrize("case", sorted(WINDOWS))
    def test_levels_take_direct_actions_where_theirs_fail(
            self, request, case, cold, decomposed, monkeypatch):
        # Phi_w is certified and kept alone; each level's S+- are those of
        # its own window, taken in batches of 3 here, and the ladder is the
        # per-level solver's
        fixture, prof, e_window, epsilon, points, empty = self.WINDOWS[case]
        bands = request.getfixturevalue(fixture)
        monkeypatch.setattr(solver_module, "_DIRECT_BLOCK", 3)
        cfg, found = solve(bands, prof, e_window, epsilon)
        (_window, grid, _phis, coef, _error), = cold[bands].values()
        assert len(grid) == points and coef.shape[0] == 2
        energies = [r.e_real for r in found]
        assert decomposed[-len(found):] == energies
        win = decompose_window(prof, bands, 0.5 * sum(e_window))
        ref = per_level_ladder(cfg, win, bands, prof)
        assert [r.l for r in found] == sorted(ref)
        for r in found:
            e, w, tol = ref[r.l]
            assert abs(r.e_real - e) * abs(r.phase_prime) <= tol / 8.0
            assert (r.s_minus, r.s_plus) == actions_pm(
                decompose_window(prof, bands, r.e_real), bands, prof)
        assert [{math.isinf(r.s_minus) for r in found},
                {math.isinf(r.s_plus) for r in found}] == list(empty)
        if case == "threshold":
            # S+ uncertified even on the last grid
            values = np.array([actions_pm(decompose_window(prof, bands, e),
                                          bands, prof)
                               for e in _lobatto_grid(*e_window, 97)]).T
            values = np.vstack((np.zeros(97), values))
            assert _tails(_coefficients(values, *e_window))[2] > 1e-9

    def test_corrupted_action_interpolants_leave_positions(
            self, configs_dir, mathieu_bands, cold, monkeypatch):
        # with S+- unfit, the levels keep the positions of the Phi_w
        # interpolant bit for bit and take S+- from their own windows,
        # which the interpolated values match within the certificate
        run = load_configuration(configs_dir / "barrier_wall.json")
        s = run.solver
        _cfg, ref = solve(mathieu_bands, run.profile, s.e_window, s.epsilon)
        cold.clear()

        def corrupted(values, e_lo, e_hi, _coefficients=_coefficients):
            coef = np.array(_coefficients(values, e_lo, e_hi))
            coef[2:] += 1.0
            coef.flags.writeable = False
            return coef
        monkeypatch.setattr(solver_module, "_coefficients", corrupted)
        cfg, found = solve(mathieu_bands, run.profile, s.e_window, s.epsilon)
        (_window, grid, _phis, coef, _error), = cold[mathieu_bands].values()
        assert len(grid) == 25 and coef.shape[0] == 2
        assert ([(r.l, r.e_real, r.phase, r.phase_prime, r.residual)
                 for r in found]
                == [(r.l, r.e_real, r.phase, r.phase_prime, r.residual)
                    for r in ref])
        for r, a in zip(found, ref):
            assert (r.s_minus, r.s_plus) == actions_pm(
                decompose_window(run.profile, mathieu_bands, r.e_real),
                mathieu_bands, run.profile)
            assert math.isinf(r.s_minus) and math.isinf(a.s_minus)
            assert abs(r.s_plus - a.s_plus) <= cfg.root_tol * (1.0 + r.s_plus)


class TestInterpolants:
    @pytest.mark.parametrize("name", ["barrier_wall", "free_flat"])
    def test_ladder_runs_no_coarse_rule(self, request, configs_dir, name,
                                        cold, monkeypatch):
        # an estimate reports no quadrature error and no Phi0', so a ladder
        # runs the k-only Phi0 rule only at 2*nodes points, never the coarse
        # nodes-point one, takes no Phi0' and builds no bundle
        run = load_configuration(configs_dir / (name + ".json"))
        bands = config_bands(request, name)
        cfg = SolverConfig(0.1, 0.0, run.solver.e_window)
        win = decompose_window(run.profile, bands,
                               0.5 * sum(run.solver.e_window))
        ref = locate_resonances(cfg, win, bands, run.profile)
        cold.clear()

        def refuse(*args, **kwargs):
            raise AssertionError("a ladder built action data it does not report")

        def fine_only(windows, bands, profile, points, *args,
                      _phi0_rule=solver_module._phi0_rule):
            if points == cfg.nodes:
                refuse()
            return _phi0_rule(windows, bands, profile, points, *args)

        monkeypatch.setattr(solver_module, "_phi0_rule", fine_only)
        for attr in ("_phi0_rule", "_phi0_prime", "ActionData"):
            monkeypatch.setattr(actions_module, attr, refuse)
        found = locate_resonances(cfg, win, bands, run.profile)
        assert found
        assert [vars(r) for r in found] == [vars(r) for r in ref]

    def test_well_phase_independent_of_its_batch(self, mathieu_bands,
                                                 bound_profile):
        ws = [decompose_window(bound_profile, mathieu_bands, e)
              for e in np.linspace(BOUND_E[0], BOUND_E[1], 25)]
        batch = _phi0_rule(ws, mathieu_bands, bound_profile, 2 * 64, 0.1,
                           "well_phase")
        for i, w in enumerate(ws):
            # Phi0 from the k-only integrand, bit for bit the single-window
            # and public values, whatever the batch
            assert batch[i] == _phi0_rule([w], mathieu_bands, bound_profile,
                                          2 * 64, 0.1, "well_phase")[0]
            assert batch[i] == phase_integral(w, mathieu_bands, bound_profile)
            assert _anchored(w, batch[i]) == well_phase(w, mathieu_bands,
                                                        bound_profile)
            # and the action bundle reads the same Phi0, Phi_w and Phi_w'
            data = compute_action_data(w, mathieu_bands, bound_profile)
            assert (data.phi0, data.well, data.well_prime) == (
                batch[i], _anchored(w, batch[i]),
                well_phase_derivative(w, mathieu_bands, bound_profile))

    def test_levels_independent_of_their_batch(self, configs_dir,
                                               mathieu_bands, cold,
                                               monkeypatch):
        # each energy's polynomial sums are its own, bit for bit, whether
        # the batch is one block or many
        run = load_configuration(configs_dir / "barrier_wall.json")
        e_window = run.solver.e_window
        _cfg, found = solve(mathieu_bands, run.profile, e_window, 1e-3)
        assert len(found) == 174
        (*_rest, coef, _error), = cold[mathieu_bands].values()
        energies = np.array([r.e_real for r in found])
        together = np.array(_evaluate(coef, energies, *e_window))
        monkeypatch.setattr(solver_module, "_BLOCK", 7)
        blocked = np.array(_evaluate(coef, energies, *e_window))
        assert blocked.tobytes() == together.tobytes()
        for i, e in enumerate(energies):
            alone = np.array(_evaluate(coef, energies[i:i + 1], *e_window))
            assert alone[:, 0].tobytes() == together[:, i].tobytes()

    def test_warm_ladder_makes_no_table_call(self, configs_dir, free_bands,
                                             monkeypatch):
        run = load_configuration(configs_dir / "free_flat.json")
        solve(free_bands, run.profile, run.solver.e_window, 0.1)   # grid kept
        calls = []
        for meth in ("k_band_fast", "kprime_fast", "gamma_fast"):
            original = getattr(BandStructure, meth)

            def counted(self, *args, _original=original, **kwargs):
                calls.append(1)
                return _original(self, *args, **kwargs)
            monkeypatch.setattr(BandStructure, meth, counted)
        _cfg, found = solve(free_bands, run.profile, run.solver.e_window, 0.05)
        assert len(found) == 19
        assert not calls


def per_level_ladder(cfg, window, bands, profile):
    """{l: (position, its window, tol)} of the quantization rule solved one
    level at a time by direct quadrature through the public single-window
    functions: each level is bracketed on 9 equispaced energies and runs
    its own safeguarded Newton on well_phase to 1/16 of the acceptance
    bound. The regime guards are left out; the configurations below stay
    in H6."""
    e_lo, e_hi = cfg.e_window
    quad = (cfg.nodes, cfg.buffer)

    def analyze(e):
        w = decompose_window(profile, bands, e)
        return w, well_phase(w, bands, profile, *quad)

    grid = np.linspace(e_lo, e_hi, 9)
    grid[-1] = e_hi
    phis = [analyze(e)[1] for e in grid]
    base = (-math.pi * delta_kappa(window) * cfg.zeta
            + cfg.epsilon * math.pi / 2.0)
    step = cfg.epsilon * math.pi
    lo_val, hi_val = min(phis[0], phis[-1]), max(phis[0], phis[-1])
    out = {}
    for l in range(math.ceil((lo_val - base) / step - 1e-9),
                   math.floor((hi_val - base) / step + 1e-9) + 1):
        target = base + step * l
        tol = cfg.root_tol * (1.0 + abs(target))
        f = [phi - target for phi in phis]
        i = next(i for i in range(1, len(grid)) if f[i - 1] * f[i] <= 0.0)
        a, fa, b = grid[i - 1], f[i - 1], grid[i]
        e = a + (b - a) * fa / (fa - f[i])
        for _ in range(30):
            w, phi = analyze(e)
            fe = phi - target
            if abs(fe) <= tol / 16.0:
                break
            if (fe < 0.0) == (fa < 0.0):
                a, fa = e, fe
            else:
                b = e
            cand = e - fe / well_phase_derivative(w, bands, profile, *quad)
            e = cand if min(a, b) < cand < max(a, b) else 0.5 * (a + b)
        else:
            raise AssertionError("reference Newton did not converge for l=%d" % l)
        out[l] = (e, w, tol)
    return out


class TestAgainstDirectQuadrature:
    @pytest.mark.parametrize("name", H6_CONFIGS)
    @pytest.mark.parametrize("epsilon, zeta", [(0.1, 0.0), (0.05, 0.37)])
    def test_levels_match_per_level_newton(self, request, configs_dir, name,
                                           epsilon, zeta):
        # the polynomial ladder against each level solved on its own: the
        # same labels, positions within tol/8 in phase (each side solves to
        # tol/16), S+- within the certificate's bound, and Phi_w', widths
        # and drift slopes from the direct action data at the position
        run = load_configuration(configs_dir / (name + ".json"))
        bands = config_bands(request, name)
        cfg, found = solve(bands, run.profile, run.solver.e_window, epsilon,
                           zeta)
        win = decompose_window(run.profile, bands,
                               0.5 * sum(run.solver.e_window))
        ref = per_level_ladder(cfg, win, bands, run.profile)
        assert found
        assert [r.l for r in found] == sorted(ref)
        for r in found:
            e, w, tol = ref[r.l]
            data = compute_action_data(w, bands, run.profile)
            assert abs(r.e_real - e) * abs(data.well_prime) <= tol / 8.0
            for got, direct in ((r.s_minus, data.s_minus),
                                (r.s_plus, data.s_plus)):
                if math.isinf(direct):
                    assert got == direct
                else:
                    assert abs(got - direct) <= cfg.root_tol * (1.0 + abs(direct))
            assert r.phase_prime == pytest.approx(data.well_prime, rel=1e-7)
            assert r.width == pytest.approx(
                cfg.epsilon * cfg.c0 * tunneling_coefficients(data, cfg.epsilon).t,
                rel=1e-9)
            assert r.dE_dzeta == pytest.approx(
                -math.pi * data.delta_kappa / data.well_prime, rel=1e-7)


class TestNewtonSteps:
    @pytest.mark.parametrize("name", H6_CONFIGS)
    def test_two_steps_meet_the_bound_and_one_does_not(
            self, request, configs_dir, name, monkeypatch):
        # at each shipped (eps, zeta) two steps on the polynomial accept
        # every level within a few ulps of the full budget's position; one
        # step leaves the lowest level outside its bound, which ends the
        # ladder typed
        run = load_configuration(configs_dir / (name + ".json"))
        bands = config_bands(request, name)
        s = run.solver
        _cfg, full = solve(bands, run.profile, s.e_window, s.epsilon, s.zeta)
        monkeypatch.setattr(solver_module, "_NEWTON_STEPS", 2)
        cfg, two = solve(bands, run.profile, s.e_window, s.epsilon, s.zeta)
        assert [r.l for r in two] == [r.l for r in full]
        for a, b in zip(two, full):
            assert abs(a.e_real - b.e_real) <= 2.0 ** -48 * abs(b.e_real)
            assert a.residual <= cfg.root_tol * (1.0 + abs(a.phase))
        monkeypatch.setattr(solver_module, "_NEWTON_STEPS", 1)
        with pytest.raises(ComputationError,
                           match=r"quantization root for l=%d not reached in 1 "
                                 r"Newton steps" % full[0].l):
            solve(bands, run.profile, s.e_window, s.epsilon, s.zeta)
