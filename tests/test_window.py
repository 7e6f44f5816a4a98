import math
import pathlib
import re

import numpy as np
import pytest

from bandres import (
    Bump,
    ConfigurationError,
    CriticalEndpointError,
    DomainError,
    EnergyRangeError,
    InternalConsistencyError,
    NearSingularityError,
    PerturbationProfile,
    UnsupportedConfigurationError,
    decompose_window,
    discriminant,
    load_configuration,
)
from bandres import window as window_module
from bandres.window import _scan_grid

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"


def same_bits(a, b):
    return type(a) is type(b) is float and np.float64(a).tobytes() == np.float64(b).tobytes()


def direct_profile_value(mu, nu, bumps, z):
    # independent scalar evaluation, no shared code path
    out = mu + nu * z / math.sqrt(1.0 + z * z)
    for height, center, width in bumps:
        out += height / (1.0 + ((z - center) / width) ** 2)
    return out


class TestProfile:
    def test_matches_direct_formula(self):
        mu, nu = 1.3, -0.7
        bumps = ((2.0, 0.5, 0.8), (-1.0, -2.0, 1.5))
        prof = PerturbationProfile(mu, nu, bumps)
        rng = np.random.default_rng(3)
        zs = rng.uniform(-8.0, 8.0, 40)
        vals = prof(zs)
        for z, v in zip(zs, vals):
            assert v == pytest.approx(direct_profile_value(mu, nu, bumps, z),
                                      abs=1e-14)

    def test_derivative_matches_finite_difference(self, wall_profile):
        h = 1e-6
        for z in (-3.0, -0.4, 0.9, 1.2, 4.0):
            fd = (wall_profile(z + h) - wall_profile(z - h)) / (2.0 * h)
            assert wall_profile.derivative(z) == pytest.approx(fd, abs=1e-7)

    def test_limits(self, drift_profile):
        assert drift_profile.w_minus == pytest.approx(11.0)
        assert drift_profile.w_plus == pytest.approx(0.0)
        assert drift_profile(-1e8) == pytest.approx(11.0, abs=1e-7)
        assert drift_profile(1e8) == pytest.approx(0.0, abs=1e-7)

    def test_analyticity_height_and_singularities(self, wall_profile):
        assert wall_profile.analyticity_height == pytest.approx(0.3)
        sings = wall_profile.singularities()
        assert 1j in sings and -1j in sings
        assert complex(1.2, 0.3) in sings and complex(1.2, -0.3) in sings

    def test_near_singularity_guard(self, bound_profile):
        with pytest.raises(NearSingularityError):
            bound_profile(1j * (1.0 - 1e-8))

    def test_constant_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            PerturbationProfile(2.0, 0.0, ())
        PerturbationProfile(2.0, 0.0, (), allow_constant=True)

    @pytest.mark.parametrize("mu, nu", [(math.nan, 0.0), (0.0, math.inf)])
    def test_non_finite_step_rejected(self, mu, nu):
        with pytest.raises(ConfigurationError,
                           match="profile parameters must be finite"):
            PerturbationProfile(mu, nu, ((4.0, 0.0, 1.0),))

    def test_bump_validation(self):
        with pytest.raises(ConfigurationError):
            Bump(1.0, 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            Bump(math.inf, 0.0, 1.0)

    def test_round_trip(self, wall_profile):
        back = PerturbationProfile.from_dict(wall_profile.to_dict())
        assert back == wall_profile

    @pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.json")))
    def test_scalar_path_equals_array_path(self, name):
        prof = load_configuration(CONFIG_DIR / (name + ".json")).profile
        # floats run in float arithmetic, which must round like the array path
        zs = np.concatenate((np.random.default_rng(7).uniform(-12.0, 12.0, 50),
                             [-1e8, -1e3, 0.0, 1e3, 1e8]))
        values, slopes = prof(zs), prof.derivative(zs)
        for i, z in enumerate(zs):
            for arg in (float(z), np.float64(z), np.asarray(z)):
                value, slope = prof(arg), prof.derivative(arg)
                assert type(value) is float and value == values[i]
                # W' raises to the powers 1.5 and 2; numpy's vectorised pow
                # may differ from the C library's scalar pow in the last bit
                assert type(slope) is float
                assert slope == pytest.approx(slopes[i], rel=4.5e-16, abs=1e-300)

    @pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.json")))
    def test_float_slope_equals_numpy_scalar_slope(self, name):
        # the window's endpoint slopes take the float path; it must give
        # the 0-d numpy path's float, bit for bit
        prof = load_configuration(CONFIG_DIR / (name + ".json")).profile
        half = prof.scan_half_width()
        zs = np.random.default_rng(11).uniform(-half, half, 400)
        for z in np.concatenate((zs, [0.0, -0.0, half, -half])).tolist():
            assert same_bits(prof.derivative(z), prof.derivative(np.asarray(z)))

    def test_float_slope_equals_numpy_scalar_slope_random_bumps(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            bumps = [(rng.uniform(-8.0, 8.0), rng.uniform(-4.0, 4.0),
                      rng.uniform(0.05, 2.0)) for _ in range(rng.integers(1, 4))]
            prof = PerturbationProfile(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0),
                                       bumps)
            half = prof.scan_half_width()
            for z in rng.uniform(-half, half, 50).tolist():
                assert same_bits(prof.derivative(z), prof.derivative(np.asarray(z)))

    def test_float_slope_past_pow_overflow(self, mathieu_bands, wall_profile):
        # a bump of width 1e-80 overflows Python's pow at every root the
        # scan finds; the float path falls back to the 0-d numpy bits
        p = wall_profile
        prof = PerturbationProfile(p.mu, p.nu, list(p.bumps) + [(1.0, 0.5, 1e-80)])
        window = decompose_window(prof, mathieu_bands, 3.9)
        ends = [end for c in window.components
                for end in (c.lo_endpoint, c.hi_endpoint) if end is not None]
        assert ends
        for end in ends:
            with pytest.raises(OverflowError):
                prof._real_prime(end.zeta)
            with np.errstate(over="ignore"):
                assert same_bits(end.w_prime, prof.derivative(np.asarray(end.zeta)))

    def test_step_term_takes_its_limit_far_out(self, wall_profile):
        # z * z overflows past |zeta| = 1.3e154 and nu * z past 1e308; there W
        # is its limit mu -/+ nu (5.5 on the left, 0 on the right), on both
        # paths and with no overflow warning (warnings are errors here)
        for zs, limit in (((-1.7e308, -1e160, -1e9), 5.5), ((1e160, 1.7e308), 0.0)):
            for z in zs:
                assert same_bits(wall_profile(z), limit)
            assert wall_profile(np.array(zs)).tolist() == [limit] * len(zs)
        assert math.isnan(wall_profile(math.nan))
        assert np.isnan(wall_profile(np.array([math.nan]))).all()

    def test_near_singularity_guard_on_complex_scalars(self, wall_profile):
        for z in (1j + 5e-7, np.complex128(1j - 5e-7j)):
            with pytest.raises(NearSingularityError):
                wall_profile(z)
        assert type(wall_profile(0.3 + 0.5j)) is complex

    def test_scan_grid_is_read_only(self, wall_profile):
        zgrid, wgrid, _w_min, _w_max = _scan_grid(
            wall_profile, wall_profile.scan_half_width())
        assert not zgrid.flags.writeable and not wgrid.flags.writeable
        with pytest.raises(ValueError):
            wgrid[0] = 0.0


class TestDecomposition:
    def test_bound_fixture_is_one_well_no_sides(self, mathieu_bands, bound_profile):
        win = decompose_window(bound_profile, mathieu_bands, 9.7)
        assert win.classification == "H6"
        assert len(win.components) == 1
        c = win.compact
        assert c.kind == "compact"
        assert c.lo < 0.0 < c.hi
        assert c.band_index == 1
        assert math.isinf(win.zeta_minus) and win.zeta_minus < 0
        assert math.isinf(win.zeta_plus) and win.zeta_plus > 0
        # symmetric profile: symmetric well
        assert c.lo == pytest.approx(-c.hi, abs=1e-10)

    def test_wall_fixture_one_well_right_channel(self, mathieu_bands, wall_profile):
        win = decompose_window(wall_profile, mathieu_bands, 3.9)
        assert win.classification == "H6"
        kinds = sorted(c.kind for c in win.components)
        assert kinds == ["compact", "unbounded_right"]
        assert math.isinf(win.zeta_minus)
        assert math.isfinite(win.zeta_plus)
        assert win.zeta0_plus < win.zeta_plus

    def test_drift_fixture_spans_the_band(self, mathieu_bands, drift_profile):
        win = decompose_window(drift_profile, mathieu_bands, 9.8)
        assert win.classification == "H6"
        lo_ep, hi_ep = win.compact.lo_endpoint, win.compact.hi_endpoint
        assert lo_ep.edge_index == 1 and lo_ep.side == "lower"
        assert hi_ep.edge_index == 2 and hi_ep.side == "upper"

    def test_step_fixture_is_monotone_transition(self, mathieu_bands, step_profile):
        win = decompose_window(step_profile, mathieu_bands, 3.9)
        assert win.classification == "H5"
        assert win.compact is None
        assert [c.kind for c in win.components] == ["unbounded_right"]

    def test_well_bookkeeping(self, mathieu_bands, wall_profile, bound_profile,
                              drift_profile, step_profile):
        # the guard, fold anchors, edge key and barriers the window hands on
        wall = decompose_window(wall_profile, mathieu_bands, 3.9)
        c = wall.well("probe")
        assert c is wall.compact
        assert c.key == (1, 1, 1) and c.anchors == (0.0, 0.0)
        assert wall.barriers == ((-math.inf, c.lo), (c.hi, wall.zeta_plus))
        bound = decompose_window(bound_profile, mathieu_bands, 9.7).well("probe")
        assert bound.key == (2, 2, 1) and bound.anchors == (math.pi, math.pi)
        drift = decompose_window(drift_profile, mathieu_bands, 9.8).well("probe")
        assert drift.key == (1, 2, 1) and drift.anchors == (0.0, math.pi)
        step = decompose_window(step_profile, mathieu_bands, 3.9)
        with pytest.raises(UnsupportedConfigurationError,
                           match=r"^probe needs the one-well \(H6\) regime, got H5$"):
            step.well("probe")

    def test_flat_edge_crossing_is_refused(self, mathieu_bands):
        # W = 1e-9 * zeta / sqrt(1 + zeta^2) meets E - E2 at zeta = 0.5,
        # where its slope is far below the criticality limit
        e2 = float(mathieu_bands.edges[1])
        prof = PerturbationProfile(0.0, 1e-9, ())
        with pytest.raises(CriticalEndpointError,
                           match=r"^\|W'\| = 7\.155e-10 < 1e-06 at the edge "
                                 r"crossing zeta=0\.50000\d+ \(edge 2\)"):
            decompose_window(prof, mathieu_bands, e2 + 1e-9 * 0.5 / math.sqrt(1.25))

    def test_steep_crossing_keeps_its_bracket(self, mathieu_bands):
        # at zeta = 0.7794 |W'| = 108, so the endpoint that Brent holds within
        # 1e-13 of the crossing reads |W - level| = 1.6e-12 (1 + |level|)
        prof = PerturbationProfile(0.0, -15.943956434596265, (
            (126.69224003458433, 0.5893690836628356, 0.05664905892461827),))
        energy = 9.399779476952768
        win = decompose_window(prof, mathieu_bands, energy)
        residuals = []
        for ep in (end for c in win.components for end in (c.lo_endpoint, c.hi_endpoint)
                   if end is not None):
            level = energy - float(mathieu_bands.edges[ep.edge_index - 1])
            step = 1e-13 + 4 * 2.0 ** -52 * abs(ep.zeta)
            below, above = (prof(ep.zeta + s * step) - level for s in (-1.0, 1.0))
            assert below * above <= 0.0
            residuals.append(abs(prof(ep.zeta) - level) / (1.0 + abs(level)))
        assert max(residuals) > 1e-12

    def test_brent_budget_is_named(self, mathieu_bands, bound_profile, monkeypatch):
        monkeypatch.setattr(window_module, "_BRENT_ITER", 2)
        with pytest.raises(InternalConsistencyError,
                           match=r"^endpoint refinement did not converge in 2 steps "
                                 r"near zeta=-?\d"):
            decompose_window(bound_profile, mathieu_bands, 9.7)

    @pytest.mark.parametrize("bumps, energy, cell, zeta", [
        # the well's top 1e-9 below edge 2: E - W crosses it and back within
        # 1.6e-5 of zeta = 0, where the probe between the edge-3 cuts reads
        # band 1 between tails in band 2
        (((4.0, 0.0, 1.0),), "edge 2 + 4 - 1e-9", "0.014", "-0.999839639"),
        # a bump 1e-4 wide at the well's centre: the probe reads gap 0 between
        # tails in gap 1, and no component is left
        (((4.0, 0.0, 1.0), (6.0, 0.0, 1e-4)), 9.7, "0.014", "-1.93533346"),
        # a dip 1e-4 wide there: the probe reads band 2 inside a well cut at
        # edges of band 1
        (((4.0, 0.0, 1.0), (-20.0, 0.0, 1e-4)), 9.7, "0.014", "-1.93533336"),
        # a dip 1e-4 wide on the probe 1 unit left of the first cut: it reads
        # band 2 where E - W(-inf) lies in band 1
        (((4.0, 0.0, 1.0), (-20.0, -1.9750101259385722, 1e-4)), 2.0, "0.0179",
         "-0.975010126")],
        ids=["turn_at_the_top", "bump_in_the_well", "dip_in_the_well", "dip_on_a_tail_probe"])
    def test_crossing_pair_inside_one_scan_cell_is_named(
            self, mathieu_bands, bumps, energy, cell, zeta):
        if isinstance(energy, str):
            energy = float(mathieu_bands.edges[1]) + 4.0 - 1e-9
        with pytest.raises(CriticalEndpointError, match=re.escape(
                "E - W crosses a band edge and back within one %s-wide cell of the "
                "2000-point scan near zeta=%s; the scan does not resolve the window"
                % (cell, zeta))):
            decompose_window(PerturbationProfile(0.0, 0.0, bumps), mathieu_bands, energy)

    def test_two_wells_classified_general(self, mathieu_bands):
        prof = PerturbationProfile(0.0, 0.0, ((4.0, -3.0, 1.0), (4.0, 3.0, 1.0)))
        assert decompose_window(prof, mathieu_bands, 9.7).classification == "GENERAL"

    def test_energy_outside_everything_is_empty(self, mathieu_bands, bound_profile):
        assert decompose_window(bound_profile, mathieu_bands,
                                -3.0).classification == "EMPTY"

    def test_endpoints_sit_on_edge_crossings(self, mathieu_bands, wall_profile):
        win = decompose_window(wall_profile, mathieu_bands, 3.9)
        for comp in win.components:
            for ep in (comp.lo_endpoint, comp.hi_endpoint):
                if ep is None:
                    continue
                edge = float(mathieu_bands.edges[ep.edge_index - 1])
                level = win.energy - edge
                assert wall_profile(ep.zeta) == pytest.approx(level, abs=1e-10)
                assert ep.w_prime == pytest.approx(
                    wall_profile.derivative(ep.zeta), abs=1e-12)

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
    def test_non_finite_energy_is_refused(self, mathieu_bands, bound_profile,
                                          energy):
        with pytest.raises(DomainError, match="E=%r is not finite" % energy):
            decompose_window(bound_profile, mathieu_bands, energy)

    @pytest.mark.parametrize("edge, side", [(2, "w_plus"), (3, "w_minus")])
    def test_tail_on_a_band_edge_is_refused(self, mathieu_bands, wall_profile,
                                            edge, side):
        # E - W(+/-inf) 1e-9 from a band edge, inside the tail slack of every
        # doubling of the scan interval
        energy = float(mathieu_bands.edges[edge]) + getattr(wall_profile, side) + 1e-9
        margin = min(abs(t - e) for e in mathieu_bands.edges.tolist()
                     for t in (energy - wall_profile.w_minus,
                               energy - wall_profile.w_plus))
        assert 0.0 < margin < 2e-9
        with pytest.raises(DomainError, match=re.escape(
                "E - W(+/-inf) sits within %.2e of a band edge; the window "
                "classification is not stable at infinity" % margin)):
            decompose_window(wall_profile, mathieu_bands, energy)

    def test_ceiling_guard(self, mathieu_bands, drift_profile):
        with pytest.raises(EnergyRangeError):
            decompose_window(drift_profile, mathieu_bands, 50.0)

    def test_crossing_a_closed_gap_is_named(self, free_bands):
        # E - W runs up to 41.8, across the free gap 2 closed at 4 pi^2
        prof = PerturbationProfile(-37.0, 0.0, ((-3.0, 0.0, 1.0),))
        with pytest.raises(UnsupportedConfigurationError, match="gap 2, closed at E=39.47"):
            decompose_window(prof, free_bands, 1.75)

    def test_record_round_trip_fields(self, mathieu_bands, bound_profile):
        win = decompose_window(bound_profile, mathieu_bands, 9.7)
        d = win.to_dict()
        assert d["classification"] == "H6"
        assert d["zeta0_minus"] == win.compact.lo
        assert d["zeta0_plus"] == win.compact.hi
        assert d["components"][0]["lo_endpoint"]["edge_index"] == 2

    def test_random_profiles_endpoints_on_discriminant_level_sets(
            self, mathieu, mathieu_bands):
        # independent certification: at every reported endpoint the shifted
        # energy must sit on a |D| = 2 level set (direct ODE evaluation),
        # and every component midpoint must satisfy |D| <= 2
        rng = np.random.default_rng(20240818)
        checked = 0
        draws = 0
        while checked < 12 and draws < 60:
            draws += 1
            mu = float(rng.uniform(-1.0, 5.0))
            nu = float(rng.uniform(-3.0, 3.0))
            bumps = []
            for _ in range(int(rng.integers(0, 3))):
                bumps.append((float(rng.uniform(-4.0, 4.0)),
                              float(rng.uniform(-3.0, 3.0)),
                              float(rng.uniform(0.4, 1.5))))
            energy = float(rng.uniform(1.0, 12.0))
            try:
                prof = PerturbationProfile(mu, nu, bumps)
                win = decompose_window(prof, mathieu_bands, energy)
            except Exception:
                continue   # tangential crossing, unstable tail, etc.
            for comp in win.components:
                for ep in (comp.lo_endpoint, comp.hi_endpoint):
                    if ep is None:
                        continue
                    d = discriminant(mathieu, energy - prof(ep.zeta))
                    assert abs(abs(d) - 2.0) <= 1e-6
                if math.isfinite(comp.lo) and math.isfinite(comp.hi):
                    mid = 0.5 * (comp.lo + comp.hi)
                    d = discriminant(mathieu, energy - prof(mid))
                    assert abs(d) <= 2.0 + 1e-9
            checked += 1
        assert checked >= 12
