"""bandres runs its own DOP853 driver (hill.solve_ivp) and Brent root finder
(window._brentq) so that importing it loads neither scipy.integrate nor
scipy.optimize. Both are ports that must return scipy's floats bit for bit;
scipy is imported here, in the tests only. The oracle's absorber polish
(oracle.eigs, inverse iteration) replaced ARPACK's shift-invert eigs and
must find the eigenvalue ARPACK finds on the same LU, so that no bandres
run loads scipy.sparse."""

import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
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
from bandres.config import load_configuration
from bandres.verify import Run

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


def scipy_modules_after(code):
    """Run `code` in a fresh interpreter from the checkout root; each line
    `LOADED` in it reports the scipy modules loaded at that point, and the
    reports come back in order."""
    report = ("print(json.dumps(sorted(m for m in sys.modules "
              "if m.startswith('scipy'))))")
    code = "import json, sys\n" + code.replace("LOADED", report)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return [json.loads(line) for line in out.stdout.splitlines()
            if line.startswith("[")]


def sparse(loaded):
    return [m for m in loaded if m == "scipy.sparse" or m.startswith("scipy.sparse.")]


def test_import_loads_neither_integrate_nor_optimize():
    (loaded,) = scipy_modules_after("import bandres, bandres.cli\nLOADED")
    assert "scipy.linalg" in loaded
    assert sparse(loaded) == []
    assert "scipy.integrate" not in loaded
    assert "scipy.optimize" not in loaded


def test_no_run_loads_scipy_sparse():
    # a ladder, a portrait and an absorber spectrum, polishes included
    code = "\n".join((
        "from bandres.cli import _build_bands",
        "from bandres.config import RunConfiguration",
        "from bandres.momentum import isoenergy_portrait",
        "from bandres.verify import Run",
        "cfg = RunConfiguration.load('configs/barrier_wall.json')",
        "run = Run(cfg, _build_bands(cfg))",
        "assert run.ladder()",
        "assert isoenergy_portrait(cfg.profile, run.bands, 3.9, (-4.0, 4.0), 41)",
        "assert cfg.cap_strength > 0.0 and run.spectrum()",
        "LOADED"))
    (loaded,) = scipy_modules_after(code)
    assert "scipy.linalg" in loaded
    assert sparse(loaded) == []


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
