import math
import pathlib
import random
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

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
    band_edges,
    decompose_window,
    discriminant,
    load_configuration,
)
from bandres import window as window_module

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"


def same_bits(a, b):
    return type(a) is type(b) is float and np.float64(a).tobytes() == np.float64(b).tobytes()


def brute_window(profile, bands, energy, points=200_000):
    """The window's components by brute force: the band of E - W at
    `points` zeta values, zeta = c + s tan(theta) for theta on a uniform grid
    of (-pi/2, pi/2), one share of the points with (c, s) = (0, 1) and one
    for each bump's (centre, width), and at W(-/+inf) beyond them. Each
    component is (kind, band, lo cell, hi cell): the cells between the grid
    points around each end, (-inf, -inf) or (inf, inf) on an unbounded side."""
    scales = [(0.0, 1.0)] + [(b.center, b.width) for b in profile.bumps]
    n = points // len(scales)
    theta = (np.arange(n) + 0.5) * (math.pi / n) - 0.5 * math.pi
    z = np.unique(np.concatenate([c + s * np.tan(theta) for c, s in scales]))
    w = profile(z)
    e = np.concatenate(([energy - profile.w_minus], energy - w,
                        [energy - profile.w_plus]))
    i = np.searchsorted(bands.edges, e)   # edges strictly below e
    on_edge = bands.edges[np.minimum(i, bands.edges.size - 1)] == e
    band = np.where((i % 2 == 1) | on_edge, i // 2 + 1, 0)
    at = np.concatenate(([-math.inf], z, [math.inf]))
    cuts = np.flatnonzero(band[1:] != band[:-1]) + 1   # first index of each run
    runs = zip(np.concatenate(([0], cuts)), np.concatenate((cuts, [band.size])))
    out = []
    for first, stop in runs:
        if band[first]:
            lo = (at[max(first - 1, 0)], at[first])
            hi = (at[stop - 1], at[min(stop, band.size - 1)])
            kind = {(True, True): "full_line", (True, False): "unbounded_left",
                    (False, True): "unbounded_right", (False, False): "compact"}[
                (first == 0, stop == band.size)]
            out.append((kind, int(band[first]), lo, hi))
    return out, w


def assert_matches_brute(profile, bands, energy, window, brute=None):
    """Every component of `window` is the brute scan's: kind, band, and each
    finite end inside the brute cell around it."""
    if brute is None:
        brute, _ = brute_window(profile, bands, energy)
    got = [(c.kind, c.band_index) for c in window.components]
    assert got == [(kind, band) for kind, band, _, _ in brute]
    for c, (_, _, lo, hi) in zip(window.components, brute):
        for end, (left, right) in ((c.lo, lo), (c.hi, hi)):
            assert left <= end <= right or end == left == right


def seeded_draw(index):
    """Draw `index` (0-based) of the seeded one-bump recipe: Python
    random.seed(1), then per draw height U[5, 30], width 10^U[-1.7, -0.5],
    centre U[-1, 1] and E U[0, 38]; returns ((height, centre, width), E)."""
    rng = random.Random(1)
    for _ in range(index + 1):
        height, width = rng.uniform(5, 30), 10 ** rng.uniform(-1.7, -0.5)
        center, energy = rng.uniform(-1, 1), rng.uniform(0, 38)
    return (height, center, width), energy


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
        # past 1e100 the bisection's bound on |W'''| could underflow to 0
        with pytest.raises(ConfigurationError, match=r"past \|zeta\| = 1e100"):
            Bump(1.0, -1e100, 1e90)

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

    def test_float_slope_past_pow_overflow(self, mathieu_bands, bound_profile):
        # a bump of width 1e-80 overflows Python's pow at every root the
        # window finds; the float path falls back to the 0-d numpy bits. It
        # sits on the well's top, where W' of both bumps is odd about 0, so
        # W keeps one critical point
        prof = PerturbationProfile(0.0, 0.0, list(bound_profile.bumps) + [(1.0, 0.0, 1e-80)])
        assert prof.pieces[0] == (-math.inf, 0.0, math.inf)
        window = decompose_window(prof, mathieu_bands, 9.7)
        ends = [end for c in window.components
                for end in (c.lo_endpoint, c.hi_endpoint) if end is not None]
        assert ends
        for end in ends:
            with pytest.raises(OverflowError):
                prof._real_prime(end.zeta)
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

    def test_slope_takes_its_limit_far_out(self):
        # z * z overflows past |zeta| = 1.3e154; there each term of W' is its
        # limit 0 on the array path as on the float path, with no overflow
        # warning (warnings are errors here)
        prof = load_configuration(CONFIG_DIR / "barrier_wall.json").profile
        zs = [1e200, 1.0, -1e200, 1e103]
        got = prof.derivative(np.array(zs)).tolist()
        assert all(same_bits(g, prof.derivative(z)) for g, z in zip(got, zs))

    def test_near_singularity_guard_on_complex_scalars(self, wall_profile):
        for z in (1j + 5e-7, np.complex128(1j - 5e-7j)):
            with pytest.raises(NearSingularityError):
                wall_profile(z)
        assert type(wall_profile(0.3 + 0.5j)) is complex


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
        # at zeta = 0.7859 |W'| = 99, so the endpoint that Brent holds within
        # 1e-13 of the crossing reads |W - level| = 1.9e-12 (1 + |level|)
        prof = PerturbationProfile(0.0, -15.943956434596265, (
            (126.69224003458433, 0.5893690836628356, 0.05664905892461827),))
        energy = 8.720405984908327
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

    @pytest.mark.parametrize("bumps, energy, classification, parts", [
        # the well's top 1e-9 below edge 2: E - W crosses it and back within
        # 1.6e-5 of zeta = 0, a band-1 well between tails in band 2
        (((4.0, 0.0, 1.0),), "edge 2 + 4 - 1e-9", "H6",
         [("unbounded_left", 2), ("compact", 1), ("unbounded_right", 2)]),
        # a bump 1e-4 wide at the well's centre splits it in two
        (((4.0, 0.0, 1.0), (6.0, 0.0, 1e-4)), 9.7, "GENERAL",
         [("compact", 1), ("compact", 1)]),
        # a dip 1e-4 wide there holds a band-2 well inside the band-1 well
        (((4.0, 0.0, 1.0), (-20.0, 0.0, 1e-4)), 9.7, "GENERAL",
         [("compact", 1), ("compact", 2), ("compact", 1)]),
        # a dip 1e-4 wide 1 unit left of the first cut: a band-2 well inside
        # the left band-1 tail
        (((4.0, 0.0, 1.0), (-20.0, -1.9750101259385722, 1e-4)), 2.0, "GENERAL",
         [("unbounded_left", 1), ("compact", 2), ("compact", 1), ("unbounded_right", 1)])],
        ids=["turn_at_the_top", "bump_in_the_well", "dip_in_the_well", "dip_on_a_tail_probe"])
    def test_crossing_pair_inside_one_scan_cell(
            self, mathieu_bands, bumps, energy, classification, parts):
        # each pair of crossings lay inside one cell of a 2000-point scan
        if isinstance(energy, str):
            energy = float(mathieu_bands.edges[1]) + 4.0 - 1e-9
        prof = PerturbationProfile(0.0, 0.0, bumps)
        win = decompose_window(prof, mathieu_bands, energy)
        assert win.classification == classification
        assert [(c.kind, c.band_index) for c in win.components] == parts
        assert_matches_brute(prof, mathieu_bands, energy, win)

    def test_turn_at_the_top_of_the_first_band(self, mathieu_bands, bound_profile):
        # bound_well's top 1e-9 below E1 + 4: E - W leaves band 1 only within
        # 1.58e-5 of zeta = 0, so the window is two band-1 tails
        energy = float(mathieu_bands.edges[0]) + 4.0 - 1e-9
        win = decompose_window(bound_profile, mathieu_bands, energy)
        assert win.classification == "H5"
        assert [(c.kind, c.band_index) for c in win.components] == [
            ("unbounded_left", 1), ("unbounded_right", 1)]
        assert win.zeta_minus == pytest.approx(-1.5811e-5, rel=1e-4)
        assert win.zeta_plus == pytest.approx(1.5811e-5, rel=1e-4)
        assert_matches_brute(bound_profile, mathieu_bands, energy, win)

    def test_seeded_draw_84_is_one_well(self, mathieu_bands):
        bump, energy = seeded_draw(84)
        assert bump[0] == 28.730698724323407 and energy == 37.426043103474754
        prof = PerturbationProfile(0.0, 0.0, (bump,))
        win = decompose_window(prof, mathieu_bands, energy)
        assert win.classification == "H6"
        assert [(c.kind, c.band_index) for c in win.components] == [
            ("unbounded_left", 2), ("compact", 1), ("unbounded_right", 2)]
        assert_matches_brute(prof, mathieu_bands, energy, win)

    def test_seeded_draw_183_is_two_band_2_tails(self, mathieu_bands):
        bump, energy = seeded_draw(183)
        assert bump[0] == 16.083744403767678 and energy == 26.890601382799073
        prof = PerturbationProfile(0.0, 0.0, (bump,))
        win = decompose_window(prof, mathieu_bands, energy)
        assert win.classification == "H5"
        assert [(c.kind, c.band_index) for c in win.components] == [
            ("unbounded_left", 2), ("unbounded_right", 2)]
        assert_matches_brute(prof, mathieu_bands, energy, win)

    def test_critical_points_closer_than_the_floor_are_named(
            self, mathieu_bands, wall_profile):
        # a bump 1e-80 wide on the wall's slope adds a maximum and a minimum
        # 3e-54 apart at zeta = 0.5, inside one cell of the bisection floor
        p = wall_profile
        prof = PerturbationProfile(p.mu, p.nu, list(p.bumps) + [(1.0, 0.5, 1e-80)])
        with pytest.raises(DomainError, match=re.escape(
                "W' has a double zero near zeta=0.5, two critical points "
                "within the bisection floor")):
            decompose_window(prof, mathieu_bands, 3.9)

    def test_pieces_of_the_fixture_profiles(self, bound_profile, wall_profile,
                                            drift_profile):
        # a constant profile certifies every cell at once: W'' is bounded by 0
        flat = PerturbationProfile(2.0, 0.0, (), allow_constant=True)
        assert flat.pieces == ((-math.inf, math.inf), (2.0, 2.0))
        assert bound_profile.pieces == ((-math.inf, 0.0, math.inf), (0.0, 4.0, 0.0))
        assert drift_profile.pieces == ((-math.inf, math.inf), (11.0, 0.0))
        knots, values = wall_profile.pieces
        assert len(knots) == 4 and values[0] == 5.5 and values[-1] == 0.0
        for z in knots[1:-1]:
            assert abs(wall_profile.derivative(z)) < 1e-12

    @pytest.mark.parametrize("height", [4.0, -4.0])
    @pytest.mark.parametrize("energy", [1.0, 9.7, 12.0])
    def test_bump_beyond_1e6_is_a_knot(self, mathieu_bands, height, energy):
        # the bisection reaches 1e4 portrait half-widths, past a bump centred
        # at 5e6: its extremum is a knot, min W and max W span e_range, and
        # each window is the brute scan's
        prof = PerturbationProfile(0.0, 0.0, ((height, 5e6, 1.0),))
        knots, values = prof.pieces
        assert len(knots) == 3 and knots[1] == pytest.approx(5e6, abs=1e-8)
        assert values == (0.0, height, 0.0)
        win = decompose_window(prof, mathieu_bands, energy)
        assert win.e_range == (energy - max(height, 0.0), energy - min(height, 0.0))
        assert_matches_brute(prof, mathieu_bands, energy, win)

    def test_wide_bump_beyond_1e6_is_critical(self, mathieu_bands):
        # a bump 1e6 wide at 5e6 has |W'| < 1e-6 at its band-1 crossings,
        # which the window reaches now that its maximum is a knot
        prof = PerturbationProfile(0.0, 0.0, ((4.0, 5e6, 1e6),))
        with pytest.raises(CriticalEndpointError, match=r"zeta=488818\d\.\d+ \(edge 1\)"):
            decompose_window(prof, mathieu_bands, 3.9)

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

    @pytest.mark.parametrize("edge, side, error, message", [
        # one ulp (6.9e-18) from E1: W = 1.9 / zeta^2 meets it only past
        # |zeta| = 1e8, where W is flat in floating point
        (0, "w_plus", DomainError,
         r"^E - W crosses edge 1 beyond \|zeta\| = 1e\+08 at E=%s, where W is "
         r"flat in floating point$"),
        # one ulp (1.8e-15) from E3 or (7.1e-15) from E4: the crossing lies
        # inside 1e8, where |W'| is far below the criticality limit
        (2, "w_plus", CriticalEndpointError,
         r"^\|W'\| = 9\.795e-23 < 1e-06 at the edge crossing "
         r"zeta=33941878\.\d+ \(edge 3\)"),
        (3, "w_minus", CriticalEndpointError,
         r"^\|W'\| = 1\.291e-21 < 1e-06 at the edge crossing "
         r"zeta=-10896269\.\d+ \(edge 4\)"),
    ], ids=["0-w_plus", "2-w_plus", "3-w_minus"])
    def test_tail_on_a_band_edge_is_refused(self, mathieu, wall_profile,
                                            edge, side, error, message):
        # bands to 90 put E4 + W(-inf) = 44.97 under the band ceiling
        bands = band_edges(mathieu, 90.0)
        tail = getattr(wall_profile, side)
        # this W approaches w_plus from above and w_minus from below, so
        # E - W meets the edge only on the side of E - W(+/-inf) away from W
        energy = math.nextafter(float(bands.edges[edge]) + tail,
                                math.inf if side == "w_plus" else -math.inf)
        if error is DomainError:
            message = message % re.escape(repr(energy))
        with pytest.raises(error, match=message):
            decompose_window(wall_profile, bands, energy)

    def test_wide_bump_is_flat_only_past_its_own_reach(self, mathieu_bands):
        # a bump 10 wide is within 1e-16 of its height of its limit only past
        # |zeta| = 1e9: E - W meets E1 at 2e8, where W = 1e-14 is not flat and
        # the crossing is critical, and one ulp above E1 only past 1e9
        prof = PerturbationProfile(0.0, 0.0, ((4.0, 0.0, 10.0),))
        e1 = float(mathieu_bands.edges[0])
        with pytest.raises(CriticalEndpointError, match=r"zeta=-20001\d{4} \(edge 1\)"):
            decompose_window(prof, mathieu_bands, e1 + 1e-14)
        energy = math.nextafter(e1, math.inf)
        with pytest.raises(DomainError, match=r"^E - W crosses edge 1 beyond "
                           r"\|zeta\| = 1e\+09 at E=%s," % re.escape(repr(energy))):
            decompose_window(prof, mathieu_bands, energy)

    def test_far_tail_crossing_is_critical(self, mathieu_bands, wall_profile):
        # E - W(+inf) 1e-9 above E3: the crossing lies at zeta = 4.4e4, where
        # |W'| is far below the criticality limit
        energy = float(mathieu_bands.edges[2]) + wall_profile.w_plus + 1e-9
        with pytest.raises(CriticalEndpointError,
                           match=r"^\|W'\| = 4\.570e-14 < 1e-06 at the edge "
                                 r"crossing zeta=43761\.\d+ \(edge 3\)"):
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


# levels E - edge within this distance of a critical value or limit of W are
# skipped: there a crossing may be critical or lie beyond the brute grid
BRUTE_MARGIN = 1e-3
BUMPS = st.tuples(st.builds(float.__mul__, st.floats(0.5, 30.0), st.sampled_from((1.0, -1.0))),
                  st.floats(-2.0, 2.0), st.floats(-1.3, 0.3).map(lambda x: 10.0 ** x))


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(mu=st.floats(-5.0, 5.0), nu=st.one_of(st.just(0.0), st.floats(-6.0, 6.0)),
       bumps=st.lists(BUMPS, min_size=1, max_size=2), energy=st.floats(-5.0, 40.0))
# W' = 0 on the bisection point zeta = 0, where rounding certified both
# neighbouring cells: the critical point was lost and the window read EMPTY
@example(mu=0.0, nu=0.0, bumps=[(3.0, 0.0, 10.0 ** 0.25)], energy=0.0)
def test_decomposition_matches_brute_scan(mathieu_bands, mu, nu, bumps, energy):
    # one- and two-bump profiles, with and without a step, against a
    # 200,000-point brute scan; the extrema of W on the brute grid and its
    # limits stand in for its critical values
    prof = PerturbationProfile(mu, nu, bumps)
    brute, w = brute_window(prof, mathieu_bands, energy)
    turns = w[1:-1][(w[1:-1] - w[:-2]) * (w[2:] - w[1:-1]) <= 0.0]
    values = np.concatenate((turns, [prof.w_minus, prof.w_plus]))
    assume(energy - min(w.min(), *values) <= mathieu_bands.gap_ceiling)
    levels = energy - mathieu_bands.edges
    assume(np.abs(levels[:, None] - values[None, :]).min() > BRUTE_MARGIN)
    win = decompose_window(prof, mathieu_bands, energy)
    assert_matches_brute(prof, mathieu_bands, energy, win, brute)
