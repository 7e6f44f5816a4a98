import math

import numpy as np
import pytest
from scipy.optimize import brentq

from bandres import (
    BoundaryCollisionError,
    DomainError,
    PerturbationProfile,
    RootCountError,
    UnsupportedConfigurationError,
    band_edges,
    decompose_window,
    find_branch_points,
    im_kappa_gap,
    isoenergy_portrait,
    kappa_normalized,
    reduced_momentum,
)
from bandres import momentum
from bandres.momentum import _EDGE_SNAP

from monodromy_reference import reference_momentum

E_BOUND = 9.7


def portrait_per_sample(profile, bands, energy, zeta_range, n_samples):
    """isoenergy_portrait as one scalar table call per sample: the reference
    the band-at-a-time evaluation must reproduce bit for bit."""
    zs = np.linspace(zeta_range[0], zeta_range[1], n_samples)
    es = energy - profile(zs)
    out = []
    for z, e in zip(zs, es):
        kind, n = bands.locate(e)
        if kind != "band":
            continue
        k0 = reduced_momentum(float(bands.k_band_fast(e, n)), n)
        k0 = min(max(k0, 0.0), math.pi)
        if k0 < _EDGE_SNAP:
            k0 = 0.0
        elif math.pi - k0 < _EDGE_SNAP:
            k0 = math.pi
        branches = (k0,) if k0 in (0.0, math.pi) else (k0, 2.0 * math.pi - k0)
        out.append((float(z), branches))
    return out


@pytest.fixture(scope="module")
def bound_window(mathieu_bands, bound_profile):
    return decompose_window(bound_profile, mathieu_bands, E_BOUND)


class TestFoldedMomentum:
    def test_edge_exact_at_endpoints(self, bound_window, mathieu_bands,
                                     bound_profile):
        c = bound_window.compact
        lo = kappa_normalized(bound_window, mathieu_bands, bound_profile, c.lo)
        hi = kappa_normalized(bound_window, mathieu_bands, bound_profile, c.hi)
        # band 1 well: both endpoints cross the upper edge
        assert lo.kappa == math.pi and hi.kappa == math.pi

    def test_matches_direct_branch(self, bound_window, mathieu_bands,
                                   bound_profile):
        # fast-table route against a direct propagation
        for z in (-1.5, -0.6, 0.0, 0.9, 1.7):
            sample = kappa_normalized(bound_window, mathieu_bands,
                                      bound_profile, z)
            ref = reference_momentum(mathieu_bands, E_BOUND - bound_profile(z))
            assert ref.kind == "band"
            folded = reduced_momentum(ref.k, ref.n)
            assert abs(sample.kappa - folded) <= 1e-9
            assert 0.0 <= sample.kappa <= math.pi
            assert sample.sign == 1 and sample.determination_id == 0

    def test_second_band_well(self, mathieu_bands):
        prof = PerturbationProfile(13.0, 0.0, ((-4.0, 0.0, 1.0),))
        win = decompose_window(prof, mathieu_bands, 21.5)
        assert win.classification == "H6"
        c = win.compact
        assert c.band_index == 2
        mid = kappa_normalized(win, mathieu_bands, prof, 0.0)
        ref = reference_momentum(mathieu_bands, 21.5 - prof(0.0))
        assert abs(mid.kappa - (2.0 * math.pi - ref.k)) <= 1e-9
        assert mid.sign == -1 and mid.determination_id == 1
        ep = kappa_normalized(win, mathieu_bands, prof, c.lo)
        assert ep.kappa == math.pi   # even band, lower edge

    def test_outside_well_rejected(self, bound_window, mathieu_bands,
                                   bound_profile):
        with pytest.raises(DomainError):
            kappa_normalized(bound_window, mathieu_bands, bound_profile, 5.0)

    def test_needs_single_well(self, mathieu_bands, step_profile):
        win = decompose_window(step_profile, mathieu_bands, 3.9)
        with pytest.raises(UnsupportedConfigurationError,
                           match="^kappa_normalized needs the one-well"):
            kappa_normalized(win, mathieu_bands, step_profile, 0.0)


class TestGapMomentum:
    def test_positive_and_matches_direct_branch(self, bound_window,
                                                mathieu_bands, bound_profile):
        for seg, zs in (("left", (-6.0, -2.5)), ("right", (2.5, 6.0))):
            for z in zs:
                g = im_kappa_gap(bound_window, mathieu_bands, bound_profile,
                                 seg, z)
                assert g > 0.0
                ref = reference_momentum(mathieu_bands,
                                         E_BOUND - bound_profile(z))
                assert ref.kind == "gap"
                assert abs(g - ref.gamma) <= 1e-9

    def test_barrier_end_reads_within_table_resolution(self, mathieu_bands,
                                                       wall_profile):
        # one double inside the right barrier's far end, E - W is so close
        # to edge 2 that the table reads |D| <= 2 there: Im k reads 0, as it
        # is to the table's resolution; one double inside the near end it
        # reads 8.7e-8
        win = decompose_window(wall_profile, mathieu_bands, 3.6)
        lo, hi = win.barriers[1]
        assert im_kappa_gap(win, mathieu_bands, wall_profile, "right",
                            math.nextafter(hi, lo)) == 0.0
        assert 0.0 < im_kappa_gap(win, mathieu_bands, wall_profile, "right",
                                  math.nextafter(lo, hi)) < 1e-6

    def test_far_out_on_an_unbounded_barrier(self, mathieu_bands, wall_profile):
        # W(-1.7e308) is its limit mu - nu = 5.5, not NaN
        win = decompose_window(wall_profile, mathieu_bands, 3.6)
        assert win.barriers[0][0] == -math.inf
        gamma = im_kappa_gap(win, mathieu_bands, wall_profile, "left", -1.7e308)
        assert gamma == float(mathieu_bands.gamma_fast(3.6 - 5.5)) > 0.0

    def test_segment_validation(self, bound_window, mathieu_bands,
                                bound_profile):
        with pytest.raises(DomainError):
            im_kappa_gap(bound_window, mathieu_bands, bound_profile,
                         "middle", 3.0)
        with pytest.raises(DomainError):
            im_kappa_gap(bound_window, mathieu_bands, bound_profile,
                         "right", 0.0)

    def test_needs_single_well(self, mathieu_bands, step_profile):
        win = decompose_window(step_profile, mathieu_bands, 3.9)
        with pytest.raises(UnsupportedConfigurationError,
                           match="^im_kappa_gap needs the one-well"):
            im_kappa_gap(win, mathieu_bands, step_profile, "right", 4.0)


class TestBranchPoints:
    def test_closed_form_positions(self, mathieu_bands, bound_profile):
        # W = 4/(1+z^2) inverts by hand: z^2 = 4/(E - E_j) - 1
        found = find_branch_points(bound_profile, mathieu_bands, E_BOUND,
                                   (-3.0, 3.0, -0.9, 0.9))
        e1, e2 = (float(v) for v in mathieu_bands.edges[:2])
        re_pair = math.sqrt(4.0 / (E_BOUND - e2) - 1.0)
        im_pair = math.sqrt(1.0 - 4.0 / (E_BOUND - e1))
        expected = {(re_pair, 0.0, 2), (-re_pair, 0.0, 2),
                    (0.0, im_pair, 1), (0.0, -im_pair, 1)}
        assert len(found) == 4
        for p in found.points:
            match = min(expected,
                        key=lambda t: abs(p.zeta - complex(t[0], t[1])))
            assert abs(p.zeta - complex(match[0], match[1])) <= 1e-8
            assert p.edge_index == match[2]
        assert len(found.real_points()) == 2
        assert all(abs(z.imag) <= 1e-12 for z in
                   (p.zeta for p in found.real_points()))

    def test_conjugation_closure(self, mathieu_bands, drift_profile):
        found = find_branch_points(drift_profile, mathieu_bands, 9.8,
                                   (-2.5, 2.5, -0.8, 0.8))
        assert len(found) >= 2
        zs = found.zetas
        for p in found.points:
            mate = min(abs(q.zeta - p.zeta.conjugate()) for q in found.points
                       if q.edge_index == p.edge_index)
            assert mate <= 1e-8
        assert found.box == (-2.5, 2.5, -0.8, 0.8)
        assert len(zs) == len(found)

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
    def test_non_finite_energy_is_refused(self, mathieu_bands, bound_profile,
                                          energy):
        with pytest.raises(DomainError, match="energy E=%r is not finite" % energy):
            find_branch_points(bound_profile, mathieu_bands, energy,
                               (-3.0, 3.0, -0.9, 0.9))

    def test_box_must_stay_in_strip(self, mathieu_bands, bound_profile):
        with pytest.raises(DomainError):
            find_branch_points(bound_profile, mathieu_bands, E_BOUND,
                               (-3.0, 3.0, -1.0, 1.0))
        with pytest.raises(DomainError):
            find_branch_points(bound_profile, mathieu_bands, E_BOUND,
                               (3.0, -3.0, -0.5, 0.5))
        with pytest.raises(DomainError, match="is not finite"):
            find_branch_points(bound_profile, mathieu_bands, E_BOUND,
                               (-math.inf, 3.0, -0.5, 0.5))

    def test_root_on_boundary_detected(self, mathieu_bands, bound_profile):
        e2 = float(mathieu_bands.edges[1])
        z_star = brentq(lambda z: E_BOUND - bound_profile(z) - e2, 1.0, 3.0,
                        xtol=1e-13)
        with pytest.raises(BoundaryCollisionError):
            find_branch_points(bound_profile, mathieu_bands, E_BOUND,
                               (0.5, z_star, -0.5, 0.5))

    def test_root_near_a_side_is_a_boundary_collision(self, mathieu_bands,
                                                      bound_profile):
        # the edge-1 roots sit at +-0.7422i, 2.2e-3 outside the box's
        # horizontal sides: the winding counts at 600 and 1,200 samples read
        # 0.57 and 0.28, which disagree
        with pytest.raises(BoundaryCollisionError,
                           match="^branch point of edge 1 on or near the box"):
            find_branch_points(bound_profile, mathieu_bands, 8.8554,
                               (-6.0, 4.0, -0.74, 0.74))

    def test_root_within_the_sample_spacing_is_a_boundary_collision(
            self, mathieu_bands, wall_profile):
        # the two edge-1 roots lie 4.3e-4 inside the horizontal sides, whose
        # samples are 9.2e-3 apart: the winding counts read 1.09 and 1.17
        # where Newton finds both roots, so the box is at fault
        with pytest.raises(BoundaryCollisionError,
                           match="^branch point of edge 1 within the "
                                 "boundary's sample spacing"):
            find_branch_points(wall_profile, mathieu_bands, 8.737334377272736,
                               (-6.2652791795956695, 4.762131973203949,
                                -0.1548755471205428, 0.1548755471205428))

    def test_missed_roots_are_counted(self, monkeypatch, mathieu_bands,
                                      bound_profile):
        # with no Newton steps no seed lands on a root, and the argument
        # principle's count of the two real edge-2 roots names the shortfall
        monkeypatch.setattr(momentum, "_NEWTON_STEPS", 0)
        with pytest.raises(RootCountError,
                           match="^edge 2: argument principle counts 2 roots, "
                                 "Newton found 0$"):
            find_branch_points(bound_profile, mathieu_bands, E_BOUND,
                               (-3.0, 3.0, -0.5, 0.5))

    def test_box_need_not_be_symmetric(self, mathieu_bands, bound_profile):
        # the box holds the lower of the two conjugate edge-1 roots only
        found = find_branch_points(bound_profile, mathieu_bands, E_BOUND,
                                   (-3.0, 3.0, -0.9, 0.3))
        e1 = float(mathieu_bands.edges[0])
        im_pair = math.sqrt(1.0 - 4.0 / (E_BOUND - e1))
        edge_1 = [p.zeta for p in found.points if p.edge_index == 1]
        assert len(edge_1) == 1 and abs(edge_1[0] + 1j * im_pair) <= 1e-8
        assert len(found) == 3

    def test_empty_region(self, mathieu_bands, drift_profile):
        found = find_branch_points(drift_profile, mathieu_bands, 9.8,
                                   (5.0, 8.0, -0.4, 0.4))
        assert len(found) == 0


class TestPortrait:
    def test_band_samples_pair_and_gap_samples_drop(self, mathieu_bands,
                                                    bound_profile):
        zs = np.linspace(-3.0, 3.0, 301)
        rows = isoenergy_portrait(bound_profile, mathieu_bands, E_BOUND,
                                  (-3.0, 3.0), 301)
        e2 = float(mathieu_bands.edges[1])
        half = math.sqrt(4.0 / (E_BOUND - e2) - 1.0)
        in_band = [float(z) for z in zs if abs(z) < half]
        assert [z for z, _ in rows] == pytest.approx(in_band, abs=1e-12)
        for z, branches in rows:
            assert len(branches) == 2
            k1, k2 = branches
            assert 0.0 < k1 < math.pi
            assert k1 + k2 == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_monotone_profile_keeps_one_segment(self, mathieu_bands,
                                                drift_profile):
        rows = isoenergy_portrait(drift_profile, mathieu_bands, 9.8,
                                  (-6.0, 6.0), 601)
        zs = [z for z, _ in rows]
        assert zs == sorted(zs)
        steps = np.diff(zs)
        assert np.allclose(steps, steps[0], atol=1e-9)   # contiguous block

    @pytest.mark.parametrize("profile_name, energy, e_max, located", [
        # E - W spans the top of band 2, gap 2 and the bottom of band 3
        ("bound_profile", 40.0, 98.0, {("band", 2), ("gap", 2), ("band", 3)}),
        ("wall_profile", 3.9, 45.0, None),      # barrier_wall's window midpoint
    ])
    def test_band_at_a_time_equals_per_sample_loop(self, mathieu, request, profile_name,
                                                   energy, e_max, located):
        profile = request.getfixturevalue(profile_name)
        bands = band_edges(mathieu, e_max)
        half = profile.scan_half_width()
        args = (profile, bands, energy, (-half, half), 801)
        if located is not None:
            es = energy - profile(np.linspace(-half, half, 801))
            assert {bands.locate(e) for e in es} == located
        rows = isoenergy_portrait(*args)
        assert rows and rows == portrait_per_sample(*args)

    def test_validation(self, mathieu_bands, bound_profile):
        with pytest.raises(DomainError):
            isoenergy_portrait(bound_profile, mathieu_bands, E_BOUND,
                               (-3.0, 3.0), 1)
        with pytest.raises(DomainError):
            isoenergy_portrait(bound_profile, mathieu_bands, E_BOUND,
                               (3.0, -3.0), 100)

        def unevaluated(z):
            raise AssertionError("profile evaluated at %r" % (z,))

        for zeta_range in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)):
            with pytest.raises(DomainError, match="is not finite"):
                isoenergy_portrait(unevaluated, mathieu_bands, E_BOUND,
                                   zeta_range, 100)
        for energy in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError,
                               match=r"^energy E=%r is not finite$" % energy):
                isoenergy_portrait(unevaluated, mathieu_bands, energy,
                                   (-3.0, 3.0), 100)
