import math
import warnings

import numpy as np
import pytest

from bandres import (
    BandStructure,
    ComputationError,
    DomainError,
    EnergyRangeError,
    InternalConsistencyError,
    PeriodicPotential,
    PerturbationProfile,
    actions_pm,
    band_edges,
    compute_action_data,
    decompose_window,
    discriminant,
    edge_band_side,
    edge_reduced_value,
    integrate_monodromy,
    quasi_momentum_derivative,
    quasi_momentum_main,
    reduced_momentum,
)
from bandres import hill
from bandres.hill import _TABLE_RTOL, discriminant_many

from mpmath_reference import mathieu_reference_edges


def random_potential(rng, max_modes=3, amplitude=3.0):
    m = int(rng.integers(1, max_modes + 1))
    cos = amplitude * rng.uniform(-1.0, 1.0, m)
    sin = amplitude * rng.uniform(-1.0, 1.0, m)
    return PeriodicPotential(float(rng.uniform(-1.0, 1.0)), cos, sin)


def locate_per_band(bands, e):
    """BandStructure.locate as a loop over the bands: the reference its
    bisection of the edges must reproduce exactly."""
    e = float(e)
    edges = bands.edges
    if e < edges[0]:
        return ("gap", 0)
    for n in range(1, bands.n_bands + 1):
        lo, hi = edges[2 * n - 2], edges[2 * n - 1]
        if lo <= e <= hi:
            return ("band", n)
        if n < bands.n_bands and hi < e < edges[2 * n]:
            return ("gap", n)
    if edges[-1] < e <= bands.gap_ceiling:
        return ("gap", bands.n_bands)
    raise EnergyRangeError("E=%.12g beyond scanned bands (ceiling %.12g)"
                           % (e, bands.gap_ceiling))


def located_or_refused(locate, bands, e):
    try:
        return locate(bands, e)
    except EnergyRangeError as exc:
        return ("refused", str(exc))


class TestMonodromy:
    def test_determinant_one_across_random_draws(self):
        rng = np.random.default_rng(20240817)
        worst = 0.0
        for _ in range(40):
            pot = random_potential(rng)
            e = float(rng.uniform(-5.0, 40.0))
            m = integrate_monodromy(pot, e)
            worst = max(worst, abs(m.det() - 1.0))
        assert worst <= 1e-9

    def test_free_discriminant_closed_form(self):
        pot = PeriodicPotential.free()
        for e in (0.3, 2.0, 9.0, 25.0):
            assert discriminant(pot, e) == pytest.approx(2.0 * math.cos(math.sqrt(e)),
                                                         abs=1e-10)
        for e in (-0.5, -4.0):
            assert discriminant(pot, e) == pytest.approx(2.0 * math.cosh(math.sqrt(-e)),
                                                         abs=1e-9)

    def test_trace_equals_discriminant(self):
        pot = PeriodicPotential(0.0, (2.0,))
        m = integrate_monodromy(pot, 3.7)
        assert m.trace() == pytest.approx(discriminant(pot, 3.7), abs=1e-10)

    def test_batched_entries_and_derivatives(self):
        pot = PeriodicPotential(0.3, (2.0, -0.7), (0.5,))
        energies = np.array([-1.0, 3.7, 12.5, 40.0])
        m, dm = integrate_monodromy(pot, energies, derivative=True)
        names = ("m11", "m12", "m21", "m22")
        for i, e in enumerate(energies):
            one = integrate_monodromy(pot, float(e))
            for name in names:
                assert np.ndim(getattr(one, name)) == 0
                assert abs(getattr(m, name)[i] - getattr(one, name)) <= 1e-10
        h = 1e-4
        up = integrate_monodromy(pot, energies + h, 1e-13)
        down = integrate_monodromy(pot, energies - h, 1e-13)
        for name in names:
            fd = (getattr(up, name) - getattr(down, name)) / (2.0 * h)
            assert np.allclose(getattr(dm, name), fd, rtol=1e-8, atol=1e-8), name


class TestBandEdges:
    def test_edges_sit_on_discriminant_level_sets(self, mathieu, mathieu_bands):
        for j, e in enumerate(mathieu_bands.edges, start=1):
            d = discriminant(mathieu, float(e))
            assert abs(abs(d) - 2.0) <= 1e-7, "edge %d" % j

    def test_gap_flags_open_for_mathieu(self, mathieu_bands):
        assert all(mathieu_bands.open_gap_flags)
        assert mathieu_bands.n_bands >= 2

    def test_free_potential_gaps_closed(self, free_bands):
        assert not any(free_bands.open_gap_flags)
        for n, want in ((1, math.pi ** 2), (2, 4.0 * math.pi ** 2)):
            lo, hi = free_bands.band(n)
            assert hi == pytest.approx(want, rel=1e-8)

    def test_locate_and_contains(self, mathieu_bands):
        b = mathieu_bands
        lo1, hi1 = b.band(1)
        g_lo, g_hi = b.gap(1)
        assert b.locate(0.5 * (lo1 + hi1)) == ("band", 1)
        assert b.locate(0.5 * (g_lo + g_hi)) == ("gap", 1)
        assert b.locate(lo1 - 1.0) == ("gap", 0)
        assert b.locate(0.5 * (lo1 + hi1))[0] == "band"
        assert b.locate(0.5 * (g_lo + g_hi))[0] != "band"
        es = np.array([lo1 - 1.0, 0.5 * (lo1 + hi1), 0.5 * (g_lo + g_hi)])
        assert [b.locate(e)[0] == "band" for e in es] == [False, True, False]
        with pytest.raises(EnergyRangeError):
            b.locate(b.gap_ceiling + 1.0)

    @pytest.mark.parametrize("name", ["mathieu_bands", "free_bands"])
    def test_locate_equals_per_band_loop(self, request, name):
        bands = request.getfixturevalue(name)
        edges = [float(x) for x in bands.edges]
        if name == "free_bands":
            # every gap is closed: edges 2n and 2n + 1 coincide
            assert bands.n_bands >= 3
            assert all(edges[j] == edges[j + 1] for j in range(1, len(edges) - 1, 2))
        ceiling = bands.gap_ceiling
        points = list(edges)
        points += [np.nextafter(x, side) for x in edges for side in (-math.inf, math.inf)]
        points += [0.5 * (a + b) for a, b in zip(edges[1::2], edges[2::2] + [ceiling])]
        points += [edges[0] - 1.0, ceiling, np.nextafter(ceiling, math.inf),
                   ceiling + 1.0, math.nan, -math.inf, math.inf]
        got = [located_or_refused(BandStructure.locate, bands, e) for e in points]
        assert got == [located_or_refused(locate_per_band, bands, e) for e in points]
        # bands are closed and a double edge belongs to the lower band
        assert got[:len(edges)] == [("band", edges.index(x) // 2 + 1) for x in edges]
        assert [g[0] for g in got[-5:]] == ["refused"] * 3 + ["gap", "refused"]

    @pytest.mark.parametrize("e_max", [45.0, 165.0])
    def test_mathieu_edges_against_mpmath(self, mathieu, e_max):
        # gap 4 (edges 8 and 9) is 9.03e-7 wide, with D - 2 about 3e-16 at
        # its centre, and must come out open with both edges resolved
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bands = band_edges(mathieu, e_max)
        assert not caught
        got = list(bands.edges) + [bands.next_band_start]
        ref = mathieu_reference_edges(len(got) + 1)
        assert ref[len(got)] > e_max
        for j, (a, b) in enumerate(zip(got, ref), start=1):
            assert abs(a - b) <= 1e-10, "edge %d" % j
        assert all(bands.open_gap_flags)

    def test_dropped_seed_is_refused_naming_the_edge(self, mathieu, monkeypatch):
        seeds = hill._hill_edges_at
        monkeypatch.setattr(hill, "_hill_edges_at", lambda pot, m: np.delete(seeds(pot, m), 2))
        with pytest.raises(ComputationError, match="edge 3 ") as info:
            band_edges(mathieu, 45.0)
        assert not isinstance(info.value, InternalConsistencyError)

    def test_scan_floor_guard(self, mathieu):
        with pytest.raises(DomainError):
            band_edges(mathieu, mathieu.lower_bound() - 1.0)

    def test_serialization_round_trip(self, mathieu, mathieu_bands):
        d = mathieu_bands.to_dict()
        assert d["tol"] == 1e-10   # the direct-route ODE tolerance, recorded
        back = BandStructure.from_dict(d, mathieu)
        assert not hasattr(back, "tol")
        assert np.allclose(back.edges, mathieu_bands.edges)
        assert back.open_gap_flags == mathieu_bands.open_gap_flags
        assert back.gap_ceiling == mathieu_bands.gap_ceiling
        pot2 = PeriodicPotential.from_dict(mathieu.to_dict())
        assert pot2 == mathieu


class TestQuasiMomentum:
    def test_free_momentum_is_square_root(self, free_bands):
        rng = np.random.default_rng(7)
        for e in rng.uniform(0.1, 100.0, 25):
            k = quasi_momentum_main(free_bands, float(e)).value
            assert abs(k - math.sqrt(e)) <= 1e-8

    def test_band_mapping_onto_pi_intervals(self, mathieu_bands):
        for n in (1, 2):
            lo, hi = mathieu_bands.band(n)
            for t in (0.15, 0.5, 0.85):
                e = lo + t * (hi - lo)
                km = quasi_momentum_main(mathieu_bands, e)
                assert not km.on_gap
                assert km.value.imag == 0.0
                assert math.pi * (n - 1) - 1e-12 <= km.value.real <= math.pi * n + 1e-12

    def test_gap_value_constant_real_part(self, mathieu_bands):
        g_lo, g_hi = mathieu_bands.gap(1)
        for t in (0.25, 0.5, 0.75):
            km = quasi_momentum_main(mathieu_bands, g_lo + t * (g_hi - g_lo))
            assert km.on_gap
            assert km.value.real == pytest.approx(math.pi, abs=1e-12)
            assert km.value.imag > 0.0

    def test_table_route_matches_ode_route(self, mathieu_bands):
        # k_band_fast and kprime_fast ride the cached polynomial table;
        # quasi_momentum_main and quasi_momentum_derivative re-integrate the
        # monodromy. The two routes must agree.
        rng = np.random.default_rng(11)
        for n in (1, 2):
            lo, hi = mathieu_bands.band(n)
            for e in rng.uniform(lo + 1e-3, hi - 1e-3, 8):
                fast = float(mathieu_bands.k_band_fast(float(e), n))
                slow = quasi_momentum_main(mathieu_bands, float(e)).value.real
                assert abs(fast - slow) <= 1e-9
                fast_prime = float(mathieu_bands.kprime_fast(float(e), n))
                slow_prime = quasi_momentum_derivative(mathieu_bands, float(e))
                assert fast_prime == pytest.approx(slow_prime, rel=1e-8)

    def test_gamma_route_matches_ode_route(self, mathieu, mathieu_bands):
        g_lo, g_hi = mathieu_bands.gap(1)
        for t in (0.2, 0.5, 0.8):
            e = g_lo + t * (g_hi - g_lo)
            fast = float(mathieu_bands.gamma_fast(e))
            d = discriminant(mathieu, e)
            assert fast == pytest.approx(math.acosh(abs(d) / 2.0), abs=1e-9)
            assert fast > 0.0

    def test_derivative_matches_finite_difference(self, mathieu_bands):
        lo, hi = mathieu_bands.band(1)
        e = 0.5 * (lo + hi)
        h = 1e-6
        fd = (quasi_momentum_main(mathieu_bands, e + h).value.real
              - quasi_momentum_main(mathieu_bands, e - h).value.real) / (2.0 * h)
        assert quasi_momentum_derivative(mathieu_bands, e) == pytest.approx(fd, rel=1e-5)

    def test_derivative_diverges_like_inverse_square_root(self, mathieu_bands):
        edge = float(mathieu_bands.edges[1])
        scaled = [quasi_momentum_derivative(mathieu_bands, edge - t) * math.sqrt(t)
                  for t in (1e-3, 1e-4, 1e-5)]
        for a, b in zip(scaled, scaled[1:]):
            assert abs(a - b) / abs(a) <= 0.05

    def test_conjugation_symmetry_off_axis(self, mathieu_bands):
        e = complex(4.0, 0.3)
        k_up = quasi_momentum_main(mathieu_bands, e).value
        k_dn = quasi_momentum_main(mathieu_bands, e.conjugate()).value
        assert abs(k_dn - k_up.conjugate()) <= 1e-10
        assert abs(np.cos(k_up) - discriminant(mathieu_bands.potential, e) / 2.0) <= 1e-8


class TestDiscriminantTable:
    def test_values_do_not_depend_on_earlier_requests(self, mathieu, mathieu_bands,
                                                       wall_profile):
        # a band structure whose table is not built yet
        bands = BandStructure.from_dict(mathieu_bands.to_dict(), mathieu)
        win = decompose_window(wall_profile, bands, 3.9)
        before = compute_action_data(win, bands, wall_profile).to_dict()
        bands.gamma_fast(bands.edges[0] - 30.0)
        assert compute_action_data(win, bands, wall_profile).to_dict() == before

    def test_deep_barrier_below_the_table_floor(self, mathieu, mathieu_bands):
        tall = PerturbationProfile(2.75, -2.75, ((12.0, 1.2, 0.3),))
        win = decompose_window(tall, mathieu_bands, 3.9)
        floor = mathieu_bands.table.breaks[0]
        assert win.e_range[0] < floor
        deep = np.array([floor - 3.0, floor - 1.0, floor - 0.1])
        ref = np.arccosh(np.abs(discriminant_many(mathieu, deep, _TABLE_RTOL).real) / 2.0)
        assert np.array_equal(mathieu_bands.gamma_fast(deep), ref)
        assert np.ndim(mathieu_bands.gamma_fast(floor - 1.0)) == 0
        _, s_plus = actions_pm(win, mathieu_bands, tall)
        assert math.isfinite(s_plus) and s_plus > 0.0

    @staticmethod
    def _table_with(bands, points, monkeypatch):
        """A fresh table of `bands` built at `points` nodes per piece."""
        with monkeypatch.context() as m:
            m.setattr(hill, "_TABLE_POINTS", points)
            return BandStructure.from_dict(bands.to_dict(), bands.potential).table

    def test_underresolved_table_is_refused(self, mathieu_bands, monkeypatch):
        # 9 nodes on Mathieu validate at 1.6e-8: over the 1e-10 bound
        with pytest.raises(InternalConsistencyError, match="validation error"):
            self._table_with(mathieu_bands, 9, monkeypatch)

    @pytest.mark.parametrize("potential, e_max", [
        (PeriodicPotential(0.0, (2.0,)), 165.0),
        (PeriodicPotential(0.4, (6.0, -3.0, 1.5), (2.0, 0.0, -1.0)), 165.0),
    ], ids=["mathieu", "three_modes"])
    def test_shipped_table_matches_97_nodes(self, potential, e_max, monkeypatch):
        bands = band_edges(potential, e_max)
        ref = self._table_with(bands, 97, monkeypatch)
        table = BandStructure.from_dict(bands.to_dict(), potential).table
        assert table.validation_error <= 1e-11
        br = table.breaks
        e = np.concatenate([np.linspace(a, b, 1001) for a, b in zip(br[:-1], br[1:])])
        for got, want in ((table.value(e), ref.value(e)),
                          (table.derivative(e), ref.derivative(e))):
            # relative on the validation's scale max(1, |D|); measured <= 1.5e-13
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-12


class TestFolding:
    def test_reduced_momentum_fold(self):
        assert reduced_momentum(0.3, 1) == pytest.approx(0.3)
        assert reduced_momentum(math.pi + 0.3, 2) == pytest.approx(math.pi - 0.3)
        assert reduced_momentum(2.0 * math.pi + 0.3, 3) == pytest.approx(0.3)

    def test_edge_reduced_values(self):
        assert edge_reduced_value("lower", 1) == 0.0
        assert edge_reduced_value("upper", 1) == math.pi
        assert edge_reduced_value("lower", 2) == math.pi
        assert edge_reduced_value("upper", 2) == 0.0

    def test_edge_band_side_pairing(self):
        # edge j bounds band ceil(j/2); sides alternate lower/upper
        assert edge_band_side(1) == (1, "lower")
        assert edge_band_side(2) == (1, "upper")
        assert edge_band_side(3) == (2, "lower")
        assert edge_band_side(4) == (2, "upper")

    def test_fold_consistency_property(self, mathieu_bands):
        # folded value always lands in [0, pi] and unfolds back
        rng = np.random.default_rng(23)
        for n in (1, 2):
            lo, hi = mathieu_bands.band(n)
            for e in rng.uniform(lo + 1e-6, hi - 1e-6, 20):
                k = float(mathieu_bands.k_band_fast(float(e), n))
                k0 = reduced_momentum(k, n)
                assert -1e-12 <= k0 <= math.pi + 1e-12
                if n % 2 == 1:
                    assert k0 == pytest.approx(k - math.pi * (n - 1), abs=1e-12)
                else:
                    assert k0 == pytest.approx(math.pi * n - k, abs=1e-12)
