import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.sparse import diags
from scipy.sparse.linalg import eigs

from bandres import (
    ConfigurationError,
    GridHamiltonian,
    OracleConfig,
    OracleError,
    PeriodicPotential,
    PerturbationProfile,
    RunConfiguration,
    band_edges,
    build_grid_hamiltonian,
    decompose_window,
    load_configuration,
    oracle_spectrum,
)
from bandres import oracle
from bandres.oracle import (
    LOCALIZED,
    MAX_GRID_POINTS,
    MIN_POINTS_PER_PERIOD,
    OracleEigenpair,
    _localization,
)
from bandres.verify import Run, _genuine_resonances, check_counts_spacings


def _sparse(handle):
    """The box operator as a scipy.sparse matrix, for reference solves."""
    off = np.full(handle.diag.size - 1, handle.off)
    return diags([off, handle.diag, off], [-1, 0, 1], format="csc")


FREE = PeriodicPotential(0.0, (), (), allow_constant=True)
FLAT = PerturbationProfile(0.0, 0.0, (), allow_constant=True)


class TestGeometry:
    def test_spacing_and_resolution(self):
        cfg = OracleConfig(10.0, 639)
        assert cfg.spacing == pytest.approx(20.0 / 640.0)
        assert cfg.points_per_period == pytest.approx(32.0)

    def test_for_window_fits_endpoints(self, mathieu_bands, bound_profile):
        win = decompose_window(bound_profile, mathieu_bands, 9.7)
        cfg = OracleConfig.for_window(win, 0.1)
        base = abs(win.zeta0_minus) + abs(win.zeta0_plus)
        assert cfg.box_half_length == pytest.approx((base + 10.0) / 0.1)
        expected_n = math.ceil(2.0 * cfg.box_half_length * MIN_POINTS_PER_PERIOD) - 1
        assert cfg.n_points == expected_n
        assert cfg.points_per_period >= MIN_POINTS_PER_PERIOD

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OracleConfig(0.0, 100)
        with pytest.raises(ConfigurationError):
            OracleConfig(1.0, 8)
        with pytest.raises(ConfigurationError):
            OracleConfig(10.0, MAX_GRID_POINTS + 1)
        with pytest.raises(ConfigurationError):
            OracleConfig(10.0, 639, cap_strength=-1.0)
        with pytest.raises(ConfigurationError):
            # 10 points per period is far below the resolution floor
            OracleConfig(10.0, 199)
        # NaN fails every comparison, so each guard must be one NaN fails
        with pytest.raises(ConfigurationError, match="box_half_length"):
            OracleConfig(math.nan, 100)
        with pytest.raises(ConfigurationError, match="cap_strength"):
            OracleConfig(10.0, 1000, math.nan)
        with pytest.raises(ConfigurationError, match="cap_strength=inf"):
            OracleConfig(10.0, 1000, math.inf)
        with pytest.raises(ConfigurationError, match="n_points=nan is not a finite number"):
            OracleConfig(10.0, math.nan)
        with pytest.raises(ConfigurationError, match="n_points=inf is not a finite number"):
            OracleConfig(10.0, math.inf)
        assert MIN_POINTS_PER_PERIOD == 32

    def test_for_window_validation(self, mathieu_bands, bound_profile):
        win = decompose_window(bound_profile, mathieu_bands, 9.7)
        with pytest.raises(ConfigurationError, match="cap_strength=inf"):
            OracleConfig.for_window(win, 0.1, cap_strength=math.inf)
        for eps in (0.0, -0.1, 0.6, math.nan, math.inf):
            with pytest.raises(ConfigurationError,
                               match=r"epsilon=%s outside \(0, 0.5\]" % ("%g" % eps)):
                OracleConfig.for_window(win, eps)
        assert OracleConfig.for_window(win, 0.5).n_points > 0

    def test_undersized_box_rejected(self, mathieu_bands, bound_profile,
                                     mathieu):
        win = decompose_window(bound_profile, mathieu_bands, 9.7)
        small = OracleConfig(50.0, 3199)
        with pytest.raises(ConfigurationError):
            build_grid_hamiltonian(mathieu, bound_profile, 0.0, 0.1, small,
                                   window=win)

    @pytest.mark.parametrize("epsilon, zeta, named", [
        (math.nan, 0.0, "epsilon=nan"), (math.inf, 0.0, "epsilon=inf"),
        (0.1, math.nan, "zeta=nan"), (0.1, -math.inf, "zeta=-inf")])
    def test_non_finite_epsilon_or_zeta_rejected(self, mathieu, bound_profile,
                                                 epsilon, zeta, named):
        # these built a NaN operator, and oracle_spectrum then blamed LAPACK
        with pytest.raises(ConfigurationError, match=named + " is not finite"):
            build_grid_hamiltonian(mathieu, bound_profile, zeta, epsilon,
                                   OracleConfig(10.0, 639, cap_strength=1.0))

    def test_offcenter_box_rejected(self, mathieu_bands, bound_profile,
                                    mathieu):
        win = decompose_window(bound_profile, mathieu_bands, 9.7)
        cfg = OracleConfig.for_window(win, 0.1)
        with pytest.raises(ConfigurationError):
            build_grid_hamiltonian(mathieu, bound_profile, 13.0, 0.1, cfg,
                                   window=win)


class TestBoxSpectrum:
    def test_free_particle_matches_closed_form(self):
        # empty box: the discrete eigenvalues are (4/d^2) sin^2(n pi d / 4L)
        L, n = 10.0, 639
        cfg = OracleConfig(L, n)
        handle = build_grid_hamiltonian(FREE, FLAT, 0.0, 0.1, cfg)
        assert not handle.is_complex
        pairs = oracle_spectrum(handle, (0.5, 5.0))
        assert pairs
        d = cfg.spacing
        exact = [(4.0 / d ** 2) * math.sin(m * math.pi * d / (4.0 * L)) ** 2
                 for m in range(1, 60)]
        for p in pairs:
            assert p.eigenvalue.imag == 0.0
            assert p.stability == 0.0
            best = min(abs(p.eigenvalue.real - e) for e in exact)
            assert best <= 1e-9 * (1.0 + abs(p.eigenvalue.real))
            # continuum limit within the second-order truncation error
            m = min(range(1, 60),
                    key=lambda q: abs(p.eigenvalue.real - exact[q - 1]))
            continuum = (m * math.pi / (2.0 * L)) ** 2
            assert p.eigenvalue.real == pytest.approx(continuum, rel=1e-3)
            # box modes spread: nowhere near the localized regime
            assert p.localization < 0.6

    def test_well_states_localize(self, mathieu, mathieu_bands,
                                  bound_profile):
        win = decompose_window(bound_profile, mathieu_bands, 9.7)
        cfg = OracleConfig.for_window(win, 0.1)
        handle = build_grid_hamiltonian(mathieu, bound_profile, 0.0, 0.1, cfg,
                                        window=win)
        pairs = oracle_spectrum(handle, (9.0, 10.4))
        well = [p for p in pairs if p.localization > 0.5]
        assert len(well) >= 4
        for p in well:
            assert p.localization > 0.9      # deep in the sealed well
        # box continuum states coexist in the window but spread out
        assert any(p.localization < 0.3 for p in pairs)

    def test_energy_window_validation(self):
        cfg = OracleConfig(10.0, 639)
        handle = build_grid_hamiltonian(FREE, FLAT, 0.0, 0.1, cfg)
        with pytest.raises(ConfigurationError):
            oracle_spectrum(handle, (5.0, 0.5))
        ceiling = (math.pi / cfg.spacing) ** 2 / 16.0
        with pytest.raises(ConfigurationError):
            oracle_spectrum(handle, (0.5, ceiling + 1.0))

    @pytest.mark.parametrize("window", [(math.nan, 4.2), (0.5, math.nan),
                                        (0.5, math.inf), (-math.inf, 4.2)])
    def test_non_finite_energy_window_rejected(self, window):
        # named as such, not as an empty window or a grid too coarse
        handle = build_grid_hamiltonian(FREE, FLAT, 0.0, 0.1, OracleConfig(10.0, 639))
        with pytest.raises(ConfigurationError, match=r"energy window \[.*\] is not finite"):
            oracle_spectrum(handle, window)

    def test_close_pair_keeps_full_precision(self):
        # two identical wells 80 sites apart split by 1.6e-7, below the
        # bisection tolerance: coarse shifts alone would mix the two vectors
        d = np.full(600, 2.05)
        d[200:230] = d[280:310] = 2.0
        dense_w, dense_v = np.linalg.eigh(
            np.diag(d) - np.eye(600, k=1) - np.eye(600, k=-1))
        assert dense_w[1] - dense_w[0] < oracle._BISECTION_TOL
        w, v = oracle._dirichlet_states(d, -1.0, dense_w[0] - 1e-2,
                                        dense_w[1] + 1e-9)
        assert w.size == 2
        assert np.all(np.abs(w - dense_w[:2]) <= 1e-12 * np.abs(dense_w[:2]))
        assert np.all(1.0 - np.abs(np.sum(v * dense_v[:, :2], axis=0)) <= 1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_diagonal_is_refused(self, bad):
        d = np.full(100, 2.0)
        d[50] = bad
        with pytest.raises(OracleError, match=r"non-finite entry \(N=100\)"):
            oracle._dirichlet_states(d, -1.0, 0.0, 1.0)

    @pytest.mark.parametrize("routine", ["dstebz", "dstein"])
    def test_lapack_failure_names_routine_info_and_n(self, routine, monkeypatch):
        lapack = getattr(oracle, routine)

        def failing(*args):
            return lapack(*args)[:-1] + (2,)

        monkeypatch.setattr(oracle, routine, failing)
        with pytest.raises(OracleError, match=r"\(%s info=2, N=100\)" % routine):
            oracle._dirichlet_states(np.full(100, 2.0), -1.0, 0.0, 1.0)


class TestAbsorber:
    def test_complex_diagonal_switches_on_past_onset(self, mathieu,
                                                     wall_profile):
        cfg = OracleConfig(40.0, 2559, cap_strength=1.0)
        handle = build_grid_hamiltonian(mathieu, wall_profile, 0.0, 0.1, cfg)
        assert handle.is_complex
        inside = np.abs(handle.x) < 0.7 * 40.0
        assert np.all(handle.diag.imag[inside] == 0.0)
        assert np.all(handle.diag.imag <= 0.0)
        assert np.any(handle.diag.imag < -1e-3)

    def test_spectrum_sits_below_the_axis(self, mathieu, wall_profile):
        cfg = OracleConfig(40.0, 2559, cap_strength=1.0)
        handle = build_grid_hamiltonian(mathieu, wall_profile, 0.0, 0.1, cfg)
        pairs = oracle_spectrum(handle, (3.6, 4.2))
        assert pairs
        res = [p.eigenvalue.real for p in pairs]
        assert res == sorted(res)
        for p in pairs:
            assert p.eigenvalue.imag <= 1e-9
            assert p.stability >= 0.0 and math.isfinite(p.stability)

    def test_repeated_solves_are_identical(self, mathieu, wall_profile):
        cfg = OracleConfig(40.0, 2559, cap_strength=1.0)
        handle = build_grid_hamiltonian(mathieu, wall_profile, 0.0, 0.1, cfg)
        first, again = (oracle_spectrum(handle, (3.6, 4.2))
                        for _ in range(2))
        assert [p.eigenvalue for p in first] == [p.eigenvalue for p in again]
        assert [p.stability for p in first] == [p.stability for p in again]

    def test_stability_is_displacement_at_half_strength(self, mathieu,
                                                         wall_profile):
        cfg = OracleConfig(40.0, 2559, cap_strength=1.0)
        handle = build_grid_hamiltonian(mathieu, wall_profile, 0.0, 0.1, cfg)
        pairs = oracle_spectrum(handle, (3.6, 4.2))
        half_cfg = OracleConfig(40.0, 2559, cap_strength=0.5)
        half = build_grid_hamiltonian(mathieu, wall_profile, 0.0, 0.1, half_cfg)
        half_vals = [q.eigenvalue for q in
                     oracle_spectrum(half, (3.6, 4.2))]
        assert pairs and half_vals
        for p in pairs:
            assert p.stability == min(abs(p.eigenvalue - q) for q in half_vals)


class TestPolish:
    """The one-eigenpair polish on a 511-point absorber box, small enough
    for a dense eigensolve of the whole operator."""

    WINDOW = (0.0, 20.0)

    @pytest.fixture(scope="class")
    def box(self, configs_dir):
        cfg = load_configuration(configs_dir / "barrier_wall.json")
        return lambda cap: build_grid_hamiltonian(
            cfg.potential, cfg.profile, cfg.solver.zeta, cfg.solver.epsilon,
            OracleConfig(8.0, 511, cap_strength=cap))

    def _seeds(self, box, window):
        return [p.eigenvalue.real for p in oracle_spectrum(box(0.0), window)
                if p.localization > LOCALIZED]

    def test_each_seed_polishes_onto_the_nearest_dense_eigenvalue(self, box):
        handle = box(1.0)
        dense = np.linalg.eigvals(_sparse(handle).toarray())
        got = [p.eigenvalue for p in oracle_spectrum(handle, self.WINDOW)]
        seeds = self._seeds(box, self.WINDOW)
        assert len(seeds) >= 5
        nearest = {complex(dense[np.argmin(np.abs(dense - s))]) for s in seeds}
        assert len(got) == len(nearest)
        for ref in nearest:
            lam = min(got, key=lambda q: abs(q - ref))
            assert abs(lam.real - ref.real) <= 1e-12 * abs(ref.real)
            assert abs(lam.imag - ref.imag) <= 1e-9 * abs(ref.imag)

    def test_interval_solve_matches_dense(self, box):
        # bisection stops at _BISECTION_TOL; the Rayleigh quotients and the
        # inverse-iteration vectors still carry full precision
        handle = box(0.0)
        dense_w, dense_v = np.linalg.eigh(_sparse(handle).toarray())
        lo, hi = self.WINDOW
        w, v = oracle._dirichlet_states(handle.diag, handle.off, lo, hi)
        inside = (lo < dense_w) & (dense_w <= hi)
        assert w.size == np.count_nonzero(inside) >= 10
        assert np.all(np.abs(w - dense_w[inside]) <= 1e-12 * np.abs(dense_w[inside]))
        overlap = np.abs(np.sum(v * dense_v[:, inside], axis=0))
        assert np.all(1.0 - overlap <= 1e-12)

    def test_first_order_shift_sits_near_the_eigenvalue(self, box, monkeypatch):
        # each polish, full and half strength, shifts by seed + i*(absorbed
        # mass): at most a quarter as far from its eigenvalue as the seed
        shifts = []
        polish = oracle.eigs

        def recording_eigs(solve, sigma, v0):
            pair = polish(solve, sigma, v0)
            shifts.append((sigma, pair[0]))
            return pair

        monkeypatch.setattr(oracle, "eigs", recording_eigs)
        oracle_spectrum(box(1.0), self.WINDOW)
        assert len(shifts) == 2 * len(self._seeds(box, self.WINDOW)) >= 10
        for sigma, lam in shifts:
            assert sigma.imag < 0.0
            assert abs(lam - sigma) <= 0.25 * abs(lam - sigma.real)

    def test_unconverged_polish_is_an_oracle_error(self, box, monkeypatch):
        # one solve from a Dirichlet vector cannot meet the residual bound
        monkeypatch.setattr(oracle, "_POLISH_SOLVES", 1)
        window = (3.6, 4.2)
        with pytest.raises(OracleError) as info:
            oracle_spectrum(box(1.0), window)
        sigma = self._seeds(box, window)[0]
        assert "failed to converge (N=511, sigma=%r)" % sigma in str(info.value)

    def test_singular_shift_is_an_oracle_error(self, box, monkeypatch):
        factor = oracle.zgttrf
        monkeypatch.setattr(oracle, "zgttrf", lambda *a: factor(*a)[:-1] + (7,))
        window = (3.6, 4.2)
        with pytest.raises(OracleError) as info:
            oracle_spectrum(box(1.0), window)
        sigma = self._seeds(box, window)[0]
        assert "(zgttrf info=7, N=511, sigma=%r)" % sigma in str(info.value)


def _window_sweep(handle, e_window):
    """Reference route: one 90-pair shift-invert ARPACK solve at the
    window centre from a fixed random start, keeping Re(E) in the window."""
    ea, eb = e_window
    a = _sparse(handle)
    v0 = np.random.default_rng(0).standard_normal(a.shape[0]).astype(a.dtype)
    vals, vecs = eigs(a, k=90, sigma=complex(0.5 * (ea + eb)), v0=v0)
    keep = [j for j in range(vals.size) if ea <= vals[j].real <= eb]
    return [complex(vals[j]) for j in keep], [vecs[:, j] for j in keep]


class TestSeededPolish:
    @pytest.fixture(scope="class")
    def wall_run(self, configs_dir, mathieu_bands):
        return Run(load_configuration(configs_dir / "barrier_wall.json"),
                   mathieu_bands)

    def test_genuine_set_matches_window_sweep(self, wall_run):
        cfg, eps = wall_run.cfg, 0.10
        handle = build_grid_hamiltonian(
            cfg.potential, cfg.profile, cfg.solver.zeta, eps,
            OracleConfig.for_window(wall_run.window, eps, cfg.cap_strength),
            window=wall_run.window)
        half = GridHamiltonian(handle.diag.real + 0.5j * handle.diag.imag,
                               handle.off, handle.x, handle.config)
        full_vals, full_vecs = _window_sweep(handle, cfg.solver.e_window)
        half_vals, _ = _window_sweep(half, cfg.solver.e_window)
        region = (-handle.config.box_half_length / 2.0,
                  handle.config.box_half_length / 2.0)
        reference = [p.eigenvalue for p in _genuine_resonances(
            [OracleEigenpair(lam, min(abs(lam - q) for q in half_vals),
                             _localization(handle.x, vec, region))
             for lam, vec in zip(full_vals, full_vecs)])]
        genuine = [p.eigenvalue for p in
                   _genuine_resonances(oracle_spectrum(handle, cfg.solver.e_window))]
        assert genuine and len(genuine) == len(reference)
        for lam in genuine:
            ref = min(reference, key=lambda q: abs(q - lam))
            assert abs(lam - ref) <= 1e-4 * abs(lam.imag)

    def test_widths_below_the_arpack_floor(self, wall_run):
        # at eps = 0.04 the widths reach 1e-18, far under the ~1e-15 floor
        # of a window sweep
        eps = 0.04
        table = wall_run.ladder(epsilon=eps)
        genuine = _genuine_resonances(wall_run.spectrum(epsilon=eps))
        assert len(table) == len(genuine) == 5
        widths = sorted(-2.0 * p.eigenvalue.imag for p in genuine)
        assert 1e-18 < widths[0] and widths[-1] < 1e-14
        for r in table:
            hit = min(genuine, key=lambda p: abs(p.eigenvalue.real - r.e_real))
            assert 0.45 <= -2.0 * hit.eigenvalue.imag / r.width <= 0.7

    def test_each_eigenvalue_listed_once(self):
        # three localized Dirichlet states seed polishes that all land on the
        # resonance 9.79313595193723 - 0.00376125i, 1.7e-13 apart
        cfg = RunConfiguration.from_dict({
            "potential": {"cos_coeffs": [-2.025]},
            "profile": {"mu": 1.608699, "nu": 1.083012,
                        "bumps": [[-2.324215, -1.771574, 1.050117]]},
            "solver": {"epsilon": 0.1, "zeta": 0.0,
                       "e_window": [9.576405, 9.876405]},
            "oracle": {"cap_strength": 1.0}})
        run = Run(cfg, band_edges(cfg.potential, 45.0))
        vals = [p.eigenvalue for p in run.spectrum()]
        hits = [v for v in vals if abs(v - (9.79313595193723 - 0.00376125j)) < 1e-8]
        assert len(hits) == 1
        assert all(abs(a - b) > 1e-9 * max(1.0, abs(b))
                   for i, a in enumerate(vals) for b in vals[:i])
        count = check_counts_spacings(run)[0]
        assert count.name == "count" and count.status, count.detail


class TestWorkingSet:
    """While polishing, the oracle holds the seed vectors and one polish
    workspace: the Dirichlet block and every earlier polished vector are
    freed before the next polish starts."""

    def test_polishes_start_with_no_block_and_no_earlier_vector(
            self, configs_dir, mathieu_bands, monkeypatch):
        states, polish = oracle._dirichlet_states, oracle._polish
        blocks, vectors, alive = [], [], []

        def tracked_states(*args):
            w, v = states(*args)
            blocks.append(weakref.ref(v))
            return w, v

        def tracked_polish(*args):
            alive.append((sum(r() is not None for r in blocks),
                          sum(r() is not None for r in vectors)))
            val, vec = polish(*args)
            vectors.append(weakref.ref(vec))
            return val, vec

        monkeypatch.setattr(oracle, "_dirichlet_states", tracked_states)
        monkeypatch.setattr(oracle, "_polish", tracked_polish)
        run = Run(load_configuration(configs_dir / "barrier_wall.json"), mathieu_bands)
        assert run.spectrum(epsilon=0.06)
        assert len(blocks) == 1 and len(alive) >= 6
        # (live Dirichlet blocks, live earlier polished vectors) at each polish
        assert alive == [(0, 0)] * len(alive)

    def test_coarse_block_is_freed_before_the_full_precision_solve(self, monkeypatch):
        # the close pair of test_close_pair_keeps_full_precision forces the re-solve
        d = np.full(600, 2.05)
        d[200:230] = d[280:310] = 2.0
        solve = oracle.eigh_tridiagonal
        blocks, alive = [], []

        def tracked_solve(*args, **kwargs):
            alive.append(sum(r() is not None for r in blocks))
            w, v = solve(*args, **kwargs)
            blocks.append(weakref.ref(v))
            return w, v

        monkeypatch.setattr(oracle, "eigh_tridiagonal", tracked_solve)
        oracle._dirichlet_states(d, -1.0, 0.0, 0.01)
        assert alive == [0, 0]

    def test_interval_solve_holds_one_block(self):
        # the flat chain's 2 - 2cos(pi j/(N+1)) in (0.1, 0.3] are 151 states
        # at least 9e-4 apart, so the coarse solve is the only one
        n = 2000
        tracemalloc.start()
        try:
            w, v = oracle._dirichlet_states(np.full(n, 2.0), -1.0, 0.1, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert v.shape == (n, 151) and w.size == 151
        assert peak < 1.5 * v.nbytes
