"""bandres runs its own DOP853 driver (hill.solve_ivp) and Brent root finder
(window._brentq) so that importing it loads neither scipy.integrate nor
scipy.optimize. Both are ports that must return scipy's floats bit for bit;
scipy is imported here, in the tests only. The oracle's absorber polish
(oracle.eigs, inverse iteration) replaced ARPACK's shift-invert eigs and
must find the eigenvalue ARPACK finds on the same LU, so that no bandres
run loads scipy.sparse. The oracle takes its four LAPACK routines from
scipy.linalg._flapack, loaded at its first solve without the scipy.linalg
package: they must be scipy.linalg.lapack's own routine objects, and its
interval solve (oracle.eigh_tridiagonal) must return
scipy.linalg.eigh_tridiagonal's eigenvalues and vectors bit for bit.
Importing bandres loads no scipy module, nor does a ladder, a portrait or
an action table; an oracle run loads only scipy's package init and that
extension."""

import importlib.machinery
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.linalg import eigh_tridiagonal as scipy_eigh_tridiagonal
from scipy.optimize import brentq as scipy_brentq
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import eigs as scipy_eigs

from bandres import (
    DomainError,
    IntegrationFailure,
    InternalConsistencyError,
    PeriodicPotential,
    integrate_monodromy,
)
from bandres import hill, oracle, window
from bandres.cli import _build_bands
from bandres.config import load_configuration
from bandres.verify import Run, verify

ROOT = pathlib.Path(__file__).resolve().parents[1]
RTOLS = (1e-8, 1e-10, 1e-12)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDop853Port:
    """hill.solve_ivp against scipy's DOP853 on the Hill right-hand side
    that _propagate builds: the same end state, nfev and success."""

    @pytest.fixture
    def compared(self, monkeypatch):
        """Route _propagate through both integrators; list their results."""
        pairs = []
        ours = hill.solve_ivp

        def both(fun, t_span, y0, rtol, atol):
            mine = ours(fun, t_span, y0, rtol, atol)
            ref = scipy_solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol, atol=atol)
            pairs.append((mine, ref))
            return mine

        monkeypatch.setattr(hill, "solve_ivp", both)
        return pairs

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("rtol", RTOLS)
    @pytest.mark.parametrize("derivative", (False, True))
    @pytest.mark.parametrize("complex_energy", (False, True))
    def test_matches_scipy_bit_for_bit(self, compared, seed, rtol, derivative,
                                       complex_energy):
        rng = np.random.default_rng([seed, int(-math.log10(rtol)), derivative,
                                     complex_energy])
        modes = int(rng.integers(1, 4))
        potential = PeriodicPotential(float(rng.uniform(-1.0, 1.0)),
                                      3.0 * rng.uniform(-1.0, 1.0, modes),
                                      3.0 * rng.uniform(-1.0, 1.0, modes))
        energies = rng.uniform(-5.0, 60.0, int(rng.integers(1, 65)))
        if complex_energy:
            energies = energies + 1j * rng.uniform(-2.0, 2.0, energies.size)
        y = hill._propagate(potential, energies, rtol, with_derivative=derivative)
        assert y.shape == (8 if derivative else 4, energies.size)
        (mine, ref), = compared
        assert mine.success and ref.success
        assert mine.message == ref.message
        assert mine.nfev == ref.nfev
        assert same_bits(mine.t, ref.t)
        assert same_bits(mine.y, ref.y)

    def test_too_small_step_matches_scipy(self, compared, mathieu):
        """The overflowing solutions at E = -1e6 end in IntegrationFailure,
        reporting where the step size fell below the spacing of floats."""
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationFailure,
                               match="Required step size is less than spacing") as info:
                integrate_monodromy(mathieu, -1e6)
        assert 0.0 <= info.value.last_x < 1.0
        (mine, ref), = compared
        assert not mine.success and not ref.success
        assert mine.message == ref.message
        assert mine.nfev == ref.nfev
        assert same_bits(mine.t, ref.t)
        assert same_bits(mine.y, ref.y)


class TestIntegratorGuards:
    @pytest.mark.parametrize("energy", [float("nan"), float("inf"), -float("inf"),
                                        complex(1.0, float("nan")),
                                        complex(float("inf"), 0.0)])
    def test_non_finite_energy_is_refused(self, mathieu, energy):
        named = "E=%s is not finite" % np.asarray(energy)[()]
        with pytest.raises(DomainError, match=re.escape(named)):
            integrate_monodromy(mathieu, energy)

    def test_non_finite_energy_in_a_batch_is_named(self, mathieu):
        with pytest.raises(DomainError, match="E=nan is not finite"):
            hill.discriminant_many(mathieu, [1.0, 2.0, float("nan")])

    def test_rtol_below_the_floor_is_refused(self, mathieu):
        with pytest.raises(DomainError, match="below the floor 100\\*eps = 2.22e-14"):
            integrate_monodromy(mathieu, 3.0, tol=1e-15)

    @pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan])
    def test_non_finite_tolerance_is_refused(self, mathieu, tol):
        # an infinite rtol passes the floor and made the first step NaN, so
        # the step-rejection loop never ended
        named = "rtol=%g is not finite" % tol
        with pytest.raises(DomainError, match=named):
            integrate_monodromy(mathieu, 3.0, tol=tol)
        with pytest.raises(DomainError, match=named):
            hill.discriminant(mathieu, 3.0, tol=tol)

    def test_non_finite_atol_is_refused(self):
        with pytest.raises(DomainError, match="atol=inf is not finite"):
            hill.solve_ivp(lambda t, y: -y, (0.0, 1.0), np.ones(1), 1e-10, math.inf)


def shipped_profiles():
    return [(path.stem, load_configuration(path).profile)
            for path in sorted((ROOT / "configs").glob("*.json"))]


class TestBrentPort:
    """window._brentq against scipy's brentq with the same xtol: the same
    root bit for bit, after the same number of calls."""

    @staticmethod
    def counted(f):
        calls = []

        def g(z):
            calls.append(z)
            return f(z)

        return g, calls

    @pytest.mark.parametrize("name, profile", shipped_profiles())
    def test_matches_scipy_on_seeded_brackets(self, name, profile):
        rng = np.random.default_rng(sum(map(ord, name)))
        zgrid = np.linspace(-8.0, 8.0, 400)
        wgrid = profile(zgrid)
        checked = 0
        for level in rng.uniform(wgrid.min(), wgrid.max(), 40):
            f = wgrid - level
            for j in np.flatnonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0):
                a, b = zgrid[j] + rng.uniform(-0.5, 0.0), zgrid[j + 1] + rng.uniform(0.0, 0.5)

                def g(z, level=level):
                    return profile(z) - level

                if np.sign(g(a)) == np.sign(g(b)):
                    continue
                mine, mine_calls = self.counted(g)
                ref, ref_calls = self.counted(g)
                r = window._brentq(mine, a, b)
                r_ref = scipy_brentq(ref, a, b, xtol=1e-13)
                assert type(r) is float
                assert same_bits(r, r_ref)
                assert mine_calls == ref_calls
                checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("end", (0, 1))
    def test_exact_root_at_a_bracket_end(self, wall_profile, end):
        bracket = (0.25, 1.75)
        level = wall_profile(bracket[end])

        def g(z):
            return wall_profile(z) - level

        assert g(bracket[end]) == 0.0
        r = window._brentq(g, *bracket)
        assert r == bracket[end] == scipy_brentq(g, *bracket, xtol=1e-13)

    def test_bracket_without_sign_change_names_zeta(self, wall_profile):
        with pytest.raises(InternalConsistencyError, match=r"\[2, 3\] in zeta"):
            window._brentq(lambda z: wall_profile(z) + 100.0, 2.0, 3.0)

    def test_nan_names_zeta(self):
        with pytest.raises(InternalConsistencyError, match="NaN at zeta="):
            window._brentq(lambda z: math.nan if z > 0.0 else -1.0, -1.0, 1.0)


def fresh_output(code):
    """stdout lines of `code` run in a fresh interpreter from the checkout
    root, with bandres imported from its src/."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.splitlines()


def modules_after(code):
    """Run `code` in a fresh interpreter; each line `LOADED` in it reports
    the names in sys.modules at that point, and the reports come back in
    order."""
    report = "print(json.dumps(sorted(sys.modules)))"
    code = "import json, sys\n" + code.replace("LOADED", report)
    return [set(json.loads(line)) for line in fresh_output(code)
            if line.startswith("[")]


def scipy_and_masked(loaded):
    """The scipy modules and the numpy.ma modules among `loaded`."""
    return {m for m in loaded if m == "scipy" or m.startswith("scipy.")
            or m == "numpy.ma" or m.startswith("numpy.ma.")}


def test_import_loads_neither_integrate_nor_optimize():
    # nor any other scipy module: the oracle loads LAPACK at its first solve
    (loaded,) = modules_after("import bandres, bandres.cli\nLOADED")
    assert scipy_and_masked(loaded) == set()


def test_no_run_loads_scipy_sparse():
    # a ladder, a portrait and an action table load no scipy module and no
    # numpy.ma; an absorber spectrum, polishes included, loads scipy's
    # package init and nothing more: the LAPACK extension it loads is held
    # by the oracle's loader, not registered (its routines are checked below)
    code = "\n".join((
        "from bandres import OracleConfig, compute_action_data, decompose_window",
        "from bandres.cli import _build_bands",
        "from bandres.config import RunConfiguration",
        "from bandres.momentum import isoenergy_portrait",
        "from bandres.verify import Run",
        "cfg = RunConfiguration.load('configs/barrier_wall.json')",
        "run = Run(cfg, _build_bands(cfg))",
        "assert run.ladder()",
        "assert isoenergy_portrait(cfg.profile, run.bands, 3.9, (-4.0, 4.0), 41)",
        "assert [compute_action_data(decompose_window(cfg.profile, run.bands, e),",
        "                            run.bands, cfg.profile) for e in (3.8, 3.9)]",
        "LOADED",
        "box = OracleConfig.for_window(run.window, cfg.solver.epsilon)",
        "assert box.cap_strength > 0.0 and run.spectrum()",
        "LOADED"))
    chain, oracle_run = modules_after(code)
    (package_init,) = modules_after("import scipy\nLOADED")
    assert scipy_and_masked(chain) == set()
    assert scipy_and_masked(oracle_run) == scipy_and_masked(package_init)
    for absent in ("scipy.linalg", "scipy._lib._array_api", "scipy.sparse",
                   "scipy.integrate", "scipy.optimize", "numpy.ma"):
        assert absent not in oracle_run


ROUTINES = ("dstebz", "dstein", "zgttrf", "zgttrs")


@pytest.mark.parametrize("first", ("bandres", "scipy.linalg"))
def test_oracle_routines_are_scipy_lapacks(first):
    # either order gives scipy.linalg.lapack's own routine objects; importing
    # the oracle loads no extension, so "bandres" first means a solve first
    solve = ["import bandres.oracle as oracle",
             "import numpy as np",
             "oracle.eigh_tridiagonal(np.full(16, 2.0), np.full(15, -1.0), "
             "0.0, 1.0, 0.0)"]
    lapack = ["import scipy.linalg.lapack as lapack"]
    steps = solve + lapack if first == "bandres" else lapack + solve
    code = "\n".join(steps + [
        "flapack = oracle._load_flapack()",
        "print(all(getattr(flapack, n) is getattr(lapack, n) for n in %r))"
        % (ROUTINES,)])
    assert fresh_output(code) == ["True"]


def test_scipy_linalg_binds_its_flapack_after_a_solve():
    # the oracle's load leaves no sys.modules entry behind, so a later
    # import of scipy.linalg binds scipy.linalg._flapack, whose routines are
    # the oracle's
    code = "\n".join((
        "import bandres.oracle as oracle",
        "import numpy as np",
        "oracle.eigh_tridiagonal(np.full(16, 2.0), np.full(15, -1.0), 0.0, 1.0, 0.0)",
        "import scipy.linalg",
        "flapack = oracle._load_flapack()",
        "print(all(getattr(scipy.linalg._flapack, n) is getattr(flapack, n) "
        "for n in %r))" % (ROUTINES,)))
    assert fresh_output(code) == ["True"]


def test_missing_extension_names_its_directory(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        lambda name, path=None, target=None: None)
    where = os.path.join(scipy.__path__[0], "linalg")
    with pytest.raises(ImportError, match=re.escape(where)):
        oracle._load_flapack.__wrapped__()


class TestIntervalSolveAgainstScipy:
    """Every interval solve of a verify pass over the shipped configs (8 in
    a pass: five over the configured windows, three around barrier_wall's
    tracked width-fit level, whose fourth epsilon reads the configured
    window's solve), repeated at the oracle's bisection tolerance
    and at full precision by oracle.eigh_tridiagonal and by
    scipy.linalg.eigh_tridiagonal(select="v"): the same eigenvalues and
    eigenvectors bit for bit."""

    def test_verify_pass_matches_scipy_bit_for_bit(self, monkeypatch):
        ours, compared = oracle.eigh_tridiagonal, []

        def both(d, e, lo, hi, tol):
            for t in (oracle._BISECTION_TOL, 0.0):
                mine = ours(d, e, lo, hi, t)
                ref = scipy_eigh_tridiagonal(d, e, select="v",
                                             select_range=(lo, hi), tol=t)
                compared.append(((lo, hi), mine[0].size, all(map(same_bits, mine, ref))))
            return ours(d, e, lo, hi, tol)

        monkeypatch.setattr(oracle, "eigh_tridiagonal", both)
        full, narrowed = [], []
        for path in sorted((ROOT / "configs").glob("*.json")):
            cfg = load_configuration(path)
            with warnings.catch_warnings():
                # free_flat's constant potential closes every gap by design
                warnings.filterwarnings("ignore", "gap.* closed within tolerance")
                bands = _build_bands(cfg)
            start = len(compared)
            assert verify(Run(cfg, bands))[1] == 0, path.stem
            for window, size, _ in compared[start:]:
                configured = window == tuple(cfg.solver.e_window)
                (full if configured else narrowed).append(size)
        assert len(full) == 2 * 5 and len(narrowed) == 2 * 3
        assert all(size >= 4 for size in full)
        assert all(size >= 1 for size in narrowed)
        assert all(same for *_, same in compared)


class TestPolishAgainstArpack:
    """Every polish of the shipped absorber runs, by oracle.eigs and by the
    ARPACK call it replaced (shift-invert eigs, one eigenpair, 3-vector
    Krylov space, same shift, start vector and LU), finds one eigenvalue:
    Re to 1e-15 and Im to IM_REL, relative. At barrier_wall eps = 0.06,
    |Im| is down to 9e-13 and the two routes differ by up to 3.0e-12 in
    it; inverse iteration continued past convergence moves it by up to
    4.4e-12, the floor of either route."""

    IM_REL = 1e-11

    @pytest.mark.parametrize("name, epsilon", [("barrier_wall", 0.1),
                                               ("barrier_wall", 0.06),
                                               ("step_transition", None)])
    def test_same_eigenvalue_as_arpack(self, name, epsilon, mathieu_bands,
                                       monkeypatch):
        polish, pairs = oracle.eigs, []

        def both(solve, sigma, v0):
            pair = polish(solve, sigma, v0)
            op = LinearOperator((v0.size, v0.size), matvec=solve, dtype=complex)
            vals, _ = scipy_eigs(op, k=1, sigma=sigma, v0=v0.astype(complex),
                                 ncv=3, OPinv=op)
            pairs.append((pair[0], complex(vals[0])))
            return pair

        monkeypatch.setattr(oracle, "eigs", both)
        cfg = load_configuration(ROOT / "configs" / ("%s.json" % name))
        assert Run(cfg, mathieu_bands).spectrum(epsilon=epsilon)
        assert len(pairs) >= 4
        for lam, ref in pairs:
            assert abs(lam.real - ref.real) <= 1e-15 * abs(ref.real)
            assert abs(lam.imag - ref.imag) <= self.IM_REL * abs(ref.imag)
