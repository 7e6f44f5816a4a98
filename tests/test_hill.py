import math
import tracemalloc
import warnings

import numpy as np
import pytest

from bandres import (
    BandStructure,
    ComputationError,
    ConfigurationError,
    DomainError,
    EnergyRangeError,
    IntegrationFailure,
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
    reduced_momentum,
)
from bandres import hill
from bandres.hill import _TABLE_RTOL, discriminant_many
from numpy.polynomial.chebyshev import chebval

from monodromy_reference import reference_momentum
from mpmath_reference import mathieu_reference_edges


def random_potential(rng, max_modes=3, amplitude=3.0):
    m = int(rng.integers(1, max_modes + 1))
    cos = amplitude * rng.uniform(-1.0, 1.0, m)
    sin = amplitude * rng.uniform(-1.0, 1.0, m)
    return PeriodicPotential(float(rng.uniform(-1.0, 1.0)), cos, sin)


def chebval_per_piece(table, e, row):
    """Row 0 (D) or 1 (D') of a discriminant table through numpy's chebval,
    one masked call per piece: the evaluator the table replaced."""
    e = np.asarray(e, dtype=float)
    idx = np.clip(np.searchsorted(table.breaks, e, side="right") - 1,
                  0, table.breaks.size - 2)
    out = np.empty(e.shape)
    for i in np.unique(idx):
        m = idx == i
        a, b = table.breaks[i], table.breaks[i + 1]
        out[m] = chebval((e[m] - 0.5 * (a + b)) / (0.5 * (b - a)),
                         table._coef[:, row, i])
    return out


def propagations(monkeypatch):
    """The energies of each hill._propagate call from here on, in order."""
    calls = []
    propagate = hill._propagate

    def counting(potential, energies, *args, **kwargs):
        calls.append(np.atleast_1d(energies))
        return propagate(potential, energies, *args, **kwargs)

    monkeypatch.setattr(hill, "_propagate", counting)
    return calls


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

    def test_discriminant_refuses_a_complex_energy(self):
        pot = PeriodicPotential(0.0, (2.0,))
        with pytest.raises(DomainError, match=r"real energy, not E=\(3\+0.5j\)"):
            discriminant(pot, 3.0 + 0.5j)

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

    @pytest.mark.parametrize("name", ["mathieu_bands", "free_bands"])
    def test_band_numbers_apply_the_rule_of_locate(self, request, name):
        # free_bands has a double edge at every closed gap
        bands = request.getfixturevalue(name)
        edges = [float(x) for x in bands.edges]
        ceiling = bands.gap_ceiling
        points = list(edges)
        points += [np.nextafter(x, side) for x in edges for side in (-math.inf, math.inf)]
        points += [0.5 * (a + b) for a, b in zip(edges[1::2], edges[2::2] + [ceiling])]
        points += [edges[0] - 1.0, -math.inf, ceiling]
        points = [x for x in points if x <= ceiling]   # free_bands: top edge
        want = [n if kind == "band" else 0 for kind, n in map(bands.locate, points)]
        got = bands._band_numbers(np.array(points)).tolist()
        assert got == want
        # a double edge belongs to the lower band, as in locate
        assert got[:len(edges)] == [edges.index(x) // 2 + 1 for x in edges]
        assert bands._band_numbers(np.array(points[:3]).reshape(3, 1)).shape == (3, 1)
        for beyond in (np.nextafter(ceiling, math.inf), ceiling + 1.0, math.inf, math.nan):
            with pytest.raises(EnergyRangeError) as exc:
                bands._band_numbers(np.array([edges[0], beyond, beyond + 1.0]))
            assert str(exc.value) == located_or_refused(
                BandStructure.locate, bands, beyond)[1]

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
            assert abs(a - b) <= 2e-14 * max(1.0, abs(b)), "edge %d" % j
        assert all(bands.open_gap_flags)

    @pytest.mark.parametrize("e_max", [45.0, 165.0])
    def test_two_propagations_below_the_next_band(self, mathieu, e_max, monkeypatch):
        # the Newton batches hold the edges below e_max (the next band's
        # first edge among them) and their brackets, nothing above: at 45,
        # edges 6 and 7 at 88.8 stay out
        calls = propagations(monkeypatch)
        bands = band_edges(mathieu, e_max)
        assert len(calls) == 2
        assert max(c.max() for c in calls) < bands.next_band_start + 1e-8

    def test_unconverged_polish_reads_the_brackets_once_more(self, mathieu, mathieu_bands,
                                                               monkeypatch):
        # one Newton step leaves the polish unconverged: one more batch reads
        # the five edges' brackets alone, at the edges that step returned
        monkeypatch.setattr(hill, "_NEWTON_STEPS", 1)
        calls = propagations(monkeypatch)
        bands = band_edges(mathieu, 45.0)
        assert [c.size for c in calls] == [3 * 5, 2 * 5]
        edges = np.append(bands.edges, bands.next_band_start)
        assert np.allclose(calls[1], np.concatenate([edges - 5e-10, edges + 5e-10]),
                           rtol=0.0, atol=1e-14)
        assert np.allclose(bands.edges, mathieu_bands.edges, rtol=1e-13, atol=1e-14)

    def test_returned_edges_lie_inside_their_certificate(self, mathieu, monkeypatch):
        # seeds above 1 set 3e-9 high, and a stopping rule of 1e-9 relative
        # that the first step meets: that step moves each of them out of
        # the bracket it was read in, so only a later step, shorter than the
        # bracket's half width, may end the polish
        seeds = hill._hill_edges_at

        def high(pot, m):
            x = seeds(pot, m)
            return x + 3e-9 * (x > 1.0)

        monkeypatch.setattr(hill, "_hill_edges_at", high)
        monkeypatch.setattr(hill, "_NEWTON_STEP", 1e-9)
        bands = band_edges(mathieu, 45.0)
        edges = np.append(bands.edges, bands.next_band_start)
        s = np.where(np.arange(edges.size) % 4 % 3 == 0, 1.0, -1.0)
        h = 0.5 * hill._BRACKET
        m = integrate_monodromy(mathieu, np.concatenate([edges - h, edges + h]),
                                hill._REFINE_TOL)
        f_lo, f_hi = hill._excess(m, np.tile(s, 2)).reshape(2, edges.size)
        assert (f_lo * f_hi < 0.0).all()

    def test_dropped_seed_is_refused_naming_the_edge(self, mathieu, monkeypatch):
        seeds = hill._hill_edges_at
        monkeypatch.setattr(hill, "_hill_edges_at", lambda pot, m: np.delete(seeds(pot, m), 2))
        with pytest.raises(ComputationError, match="edge 3 ") as info:
            band_edges(mathieu, 45.0)
        assert not isinstance(info.value, InternalConsistencyError)

    @pytest.mark.parametrize("cos_coeffs, e_max, words", [
        # the base truncation 4*modes + 8 does not grow with the depth: at
        # 3000 doubling M = 12 moves edge 1 by 2e-8
        ((3000.0,), -2770.9, r"^edge 1 at E=-2759\.14649579: doubling the Hill "
                             r"truncation M=12 moves it by 1\.985e-08 \(limit 1e-08\)$"),
        # at 6000 the excess reads 1e18 across edge 1: its bracket certifies nothing
        ((6000.0, 0.0), -5580.0, r"^edge 1 at E=-5658\.34125204 is not certified: "
                                 r"s\*D - 2 reads \S+ and \S+ across its 1e-09 bracket$"),
        # at 4000 band 1 is narrower than the spacing of doubles at its edges
        ((4000.0, 0.0), -3720.0, r"^edge 2 at E=-3721\.4970722 does not lie above "
                                 r"edge 1 at E=-3721\.4970722$")],
        ids=["truncation", "certificate", "order"])
    def test_deep_well_limit_is_named(self, cos_coeffs, e_max, words):
        # a deep cosine well meets each of band_edges' three limits in turn
        with pytest.raises(ComputationError, match=words) as info:
            band_edges(PeriodicPotential(0.0, cos_coeffs), e_max)
        assert type(info.value) is ComputationError

    def test_scan_floor_guard(self, mathieu):
        with pytest.raises(DomainError):
            band_edges(mathieu, mathieu.lower_bound() - 1.0)

    def test_no_complete_band_below_e_max(self, mathieu):
        # Mathieu's lowest edge lies at -0.0506, above an e_max of -1.4
        with pytest.raises(DomainError,
                           match=r"^no complete spectral band below e_max=-1.4$"):
            band_edges(mathieu, -1.4)

    def test_truncation_ceiling_is_refused_before_any_matrix(self, mathieu, monkeypatch):
        # Mathieu leaves 256 - 12 rows of M to the energy term
        ceiling = (math.pi * (hill._MAX_TRUNCATION // 2 - 12)) ** 2
        monkeypatch.setattr(hill, "_hill_edges_at", None)
        for e_max in (math.nextafter(ceiling, math.inf), 1e8, 1e301):
            with pytest.raises(DomainError) as info:
                band_edges(mathieu, e_max)
            assert str(info.value).startswith("e_max=%g " % e_max)
            assert str(info.value).endswith("largest accepted e_max is %.12g" % ceiling)

    def test_truncation_ceiling_itself_is_accepted(self, mathieu, monkeypatch):
        # a ceiling of 2M = 30 leaves 3 rows: e_max up to (3 pi)^2
        monkeypatch.setattr(hill, "_MAX_TRUNCATION", 30)
        ceiling = (3.0 * math.pi) ** 2
        assert band_edges(mathieu, ceiling).edges[-1] < ceiling
        with pytest.raises(DomainError, match="largest accepted e_max is %.12g" % ceiling):
            band_edges(mathieu, math.nextafter(ceiling, math.inf))

    def test_serialization_round_trip(self, mathieu, mathieu_bands):
        d = mathieu_bands.to_dict()
        assert d["tol"] == 1e-10   # the default tol of a direct propagation, recorded
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
            kind, n = free_bands.locate(float(e))
            assert kind == "band"
            k = float(free_bands.k_band_fast(float(e), n))
            assert abs(k - math.sqrt(e)) <= 1e-8

    def test_band_mapping_onto_pi_intervals(self, mathieu_bands):
        for n in (1, 2):
            lo, hi = mathieu_bands.band(n)
            for t in (0.15, 0.5, 0.85):
                e = lo + t * (hi - lo)
                assert mathieu_bands.locate(e) == ("band", n)
                k = float(mathieu_bands.k_band_fast(e, n))
                assert math.pi * (n - 1) - 1e-12 <= k <= math.pi * n + 1e-12

    def test_gap_value_constant_real_part(self, mathieu_bands):
        g_lo, g_hi = mathieu_bands.gap(1)
        for t in (0.25, 0.5, 0.75):
            e = g_lo + t * (g_hi - g_lo)
            assert mathieu_bands.locate(e) == ("gap", 1)
            assert float(mathieu_bands.gamma_fast(e)) > 0.0

    def test_table_route_matches_ode_route(self, mathieu_bands):
        # k_band_fast and kprime_fast ride the cached polynomial table;
        # reference_momentum re-integrates the monodromy. The two routes
        # must agree.
        rng = np.random.default_rng(11)
        for n in (1, 2):
            lo, hi = mathieu_bands.band(n)
            for e in rng.uniform(lo + 1e-3, hi - 1e-3, 8):
                ref = reference_momentum(mathieu_bands, e)
                fast = float(mathieu_bands.k_band_fast(float(e), n))
                assert abs(fast - ref.k) <= 1e-9
                fast_prime = float(mathieu_bands.kprime_fast(float(e), n))
                assert fast_prime == pytest.approx(ref.kprime, rel=1e-8)

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
        fd = (float(mathieu_bands.k_band_fast(e + h, 1))
              - float(mathieu_bands.k_band_fast(e - h, 1))) / (2.0 * h)
        assert float(mathieu_bands.kprime_fast(e, 1)) == pytest.approx(fd, rel=1e-5)

    def test_derivative_diverges_like_inverse_square_root(self, mathieu_bands):
        edge = float(mathieu_bands.edges[1])
        scaled = [float(mathieu_bands.kprime_fast(edge - t, 1)) * math.sqrt(t)
                  for t in (1e-3, 1e-4, 1e-5)]
        for a, b in zip(scaled, scaled[1:]):
            assert abs(a - b) / abs(a) <= 0.05


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

    def test_gamma_rows_do_not_depend_on_each_other(self, mathieu_bands):
        # an ODE solve's steps depend on its batch, so each row of a 2-d e
        # takes its deep energies from its own propagation: bit for bit the
        # row's own call
        floor = mathieu_bands.table.breaks[0]
        e = floor + np.array([[-8.0, -0.3, 0.5, -2.0],
                              [-0.01, -5.0, -1.5, 1.0],
                              [0.2, 0.4, 0.6, 0.8]])
        rows = np.stack([mathieu_bands.gamma_fast(row) for row in e])
        assert mathieu_bands.gamma_fast(e).tobytes() == rows.tobytes()
        assert mathieu_bands.gamma_fast(e[None]).shape == (1,) + e.shape
        assert mathieu_bands.gamma_fast(e[None]).tobytes() == rows.tobytes()

    def test_build_takes_one_propagation(self, mathieu, mathieu_bands, monkeypatch):
        # the validation probes ride in the node batch
        fresh = BandStructure.from_dict(mathieu_bands.to_dict(), mathieu)
        calls = propagations(monkeypatch)
        assert fresh.table.validation_error <= 1e-10
        assert [c.size for c in calls] == [5 * (33 + 7)]

    def test_table_propagations_pass_the_wronskian_check(self, mathieu,
                                                          mathieu_bands,
                                                          monkeypatch):
        # a period map whose m21 is off by 1e-3 keeps its trace, so only
        # the det M = 1 check of integrate_monodromy can see it: the table's
        # nodes and probes and _gap_gamma below the floor all go through it
        def drifting(*args, _propagate=hill._propagate, **kwargs):
            y = _propagate(*args, **kwargs)
            y[1] *= 1.001
            return y

        fresh = BandStructure.from_dict(mathieu_bands.to_dict(), mathieu)
        with monkeypatch.context() as m:
            m.setattr(hill, "_propagate", drifting)
            with pytest.raises(IntegrationFailure, match="Wronskian drift"):
                fresh.table
        floor = mathieu_bands.table.breaks[0]
        monkeypatch.setattr(hill, "_propagate", drifting)
        with pytest.raises(IntegrationFailure, match="Wronskian drift"):
            mathieu_bands.gamma_fast(np.array([floor - 1.0, floor + 1.0]))

    def test_multi_piece_read_holds_a_few_point_arrays(self, mathieu_bands):
        # the piece indices and the result, plus one piece's point indices,
        # scaled energies and recurrence buffers: a few n-point arrays, not
        # 33 per point
        table = mathieu_bands.table
        n = 100_000
        e = np.linspace(table.breaks[0], table.breaks[-1], n)
        table.value(e[:2])
        tracemalloc.start()
        try:
            table.value(e)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * e.nbytes

    @pytest.mark.parametrize("potential", [
        PeriodicPotential(0.0, (2.0,)),
        PeriodicPotential(0.4, (6.0, -3.0, 1.5), (2.0, 0.0, -1.0)),
    ], ids=["mathieu", "three_modes"])
    def test_evaluator_is_chebval_bit_for_bit(self, potential):
        table = band_edges(potential, 45.0).table
        br = table.breaks
        pieces = [np.linspace(a, b, 60) for a, b in zip(br[:-1], br[1:])]
        spanning = np.concatenate(pieces)
        # the pieces interleaved, so each value must go back to its own point
        shuffled = np.random.default_rng(5).permutation(spanning)
        # more points than one coefficient gather takes, in a 2-d shape
        blocks = np.linspace(br[0], br[-1], 2 * 4096 + 6).reshape(-1, 2)
        inputs = [np.float64(0.5 * (br[0] + br[1])), spanning, shuffled,
                  spanning.reshape(-1, 20), shuffled.reshape(-1, 20),
                  blocks] + pieces + [p.reshape(6, 10) for p in pieces]
        for e in inputs:
            stacked = table.value_and_derivative(e)
            for row, got in enumerate((table.value(e),
                                       table.value_and_derivative(e)[1])):
                want = chebval_per_piece(table, e, row)
                assert got.shape == np.shape(e)
                assert np.array_equal(got, want)
                assert np.array_equal(stacked[row], want)

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
    def test_non_finite_energy_is_refused(self, mathieu_bands, energy):
        name = "E=%r" % energy
        for call in (lambda e: mathieu_bands.k_band_fast(e, 1),
                     lambda e: mathieu_bands.kprime_fast(e, 1),
                     mathieu_bands.gamma_fast):
            for e in (energy, np.array([1.0, energy, 2.0])):
                with pytest.raises(DomainError, match=name):
                    call(e)

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
                          (table.value_and_derivative(e)[1],
                           ref.value_and_derivative(e)[1])):
            # relative on the validation's scale max(1, |D|); measured <= 1.5e-13
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-12


# each input guard of hill, from its public entry point: (call on the
# Mathieu bands, error type, words naming the limit)
INPUT_GUARDS = [
    (lambda b: PeriodicPotential(math.nan, (2.0,)), ConfigurationError,
     "potential coefficients must be finite"),
    (lambda b: PeriodicPotential(1.0, (0.0,), (0.0,)), ConfigurationError,
     "constant potential rejected"),
    (lambda b: hill.DiscriminantTable(b.potential, [3.0, 3.0]), DomainError,
     "needs a nonempty energy range"),
    (lambda b: b.k_band_fast(100.0, 2), EnergyRangeError,
     r"energy \[100, 100\] outside table range"),
    (lambda b: BandStructure.from_dict(dict(b.to_dict(), edges=b.edges[:3].tolist()),
                                       b.potential),
     InternalConsistencyError, "edge list must pair into bands"),
    (lambda b: b.band(b.n_bands + 1), EnergyRangeError,
     "band 3 outside scanned range"),
    (lambda b: b.gap(b.n_bands + 1), EnergyRangeError,
     "gap 3 outside scanned range"),
    (lambda b: edge_reduced_value("middle", 1), DomainError,
     "side must be 'lower' or 'upper'"),
]


@pytest.mark.parametrize("call, error, words", INPUT_GUARDS,
                         ids=["nan-coefficient", "constant", "empty-table",
                              "above-table", "odd-edges", "band", "gap", "side"])
def test_input_guard_names_its_limit(mathieu_bands, call, error, words):
    assert mathieu_bands.n_bands == 2
    with pytest.raises(error, match=words):
        call(mathieu_bands)


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
