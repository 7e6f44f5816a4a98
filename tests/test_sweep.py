"""Seeded random-configuration sweep over the whole chain.

A fixed numpy seed draws 1-3-mode cosine potentials and step-plus-bump
profiles. Each potential's bands are built once and shared by several
profile and energy draws, which keeps the sweep within a few seconds:
band edges cost far more than a window decomposition. Every draw must
either end in a typed BandresError or pass the chain's own checks: the
band bookkeeping of `locate`, the quantization residuals, eps-periodicity
of the positions in zeta, and distinct oracle eigenvalues. The same draws
run at eps = 0.1 and at eps = 0.05, where the oracle box is twice as long.
Two pinned draws, whose levels take their barrier actions by direct
quadrature, must pass the ladder checks with stated level counts.
Every H6 draw of this seed has an unbounded window component, so its
oracle box has the absorber on; one pinned draw on the last potential,
found by a search over profiles from draw_profile, has none, so its box
is sealed and runs with the absorber off. No spectrum here has two seeds
polish onto one eigenvalue; test_oracle.py checks that merge on a draw
that does.
"""

import math

import numpy as np

from bandres import (
    BandresError,
    PeriodicPotential,
    PerturbationProfile,
    RunConfiguration,
    band_edges,
    decompose_window,
    delta_kappa,
    well_phase,
)
from bandres.verify import Run

SEED = 12
POTENTIALS = 4
DRAWS_PER_POTENTIAL = 12
HALF_WINDOW = 0.15
ROOT_TOL = 1e-12          # the solver's acceptance bound, relative to 1 + |target|
SAME_EIGENVALUE = 1e-9    # relative distance below which two eigenvalues are one
# the sealed draw: a profile and energy on the last potential's bands
SEALED_PROFILE = PerturbationProfile(
    2.8855720506560862, 0.4648982182476211,
    ((-1.2531024026733855, -1.6412173640020407, 0.42876496194244673),))
SEALED_ENERGY = 1.4141047672244287
# two H6 draws whose S+- interpolants fail the certificate, so their levels
# take S+- by direct quadrature: at E = 7.9575 a barrier's far end runs off
# near a band threshold, and at E = 4.9021 the left barrier empties at the
# window's lower end. Their ladders pass the checks with these counts, the
# level-by-level solver's, at each eps (rounded E: levels)
DIRECT_DRAWS = {0.1: {7.9575: 2, 4.9021: 1}, 0.05: {7.9575: 4, 4.9021: 1}}


def check_locate(bands, rng):
    """locate agrees with band(n) and gap(n) at random energies and at every edge."""
    e1, ceiling = float(bands.edges[0]), bands.gap_ceiling
    for e in list(rng.uniform(e1 - 2.0, ceiling, 200)) + list(bands.edges):
        kind, n = bands.locate(e)
        if kind == "band":
            lo, hi = bands.band(n)
            assert lo <= e <= hi
        else:
            lo, hi = bands.gap(n)
            assert lo < e < hi or e == hi == ceiling   # the top gap is closed above


def draw_profile(rng):
    bumps = [(rng.uniform(-6.0, 6.0), rng.uniform(-2.0, 2.0), rng.uniform(0.3, 1.5))
             for _ in range(int(rng.integers(1, 3)))]
    return PerturbationProfile(rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0), bumps)


def check_ladder(run):
    """Residuals within their bound on an independent recheck, and the
    position set eps-periodic in zeta with labels shifted by delta_kappa."""
    cfg = run.cfg
    eps = cfg.solver.epsilon
    table = run.ladder()
    for r in table:
        win = decompose_window(cfg.profile, run.bands, r.e_real)
        target = eps * math.pi / 2.0 + eps * math.pi * r.l   # zeta = 0
        assert abs(well_phase(win, run.bands, cfg.profile) - target) \
            <= ROOT_TOL * (1.0 + abs(target))
    shifted = run.ladder(zeta=eps)
    dk = delta_kappa(run.window)
    same_positions(table, shifted, dk, cfg.solver.e_window)
    same_positions(shifted, table, -dk, cfg.solver.e_window)


def same_positions(table, other, dk, e_window):
    """Each level of `table` away from the window ends is level l + dk of
    `other`, at a position within the two root tolerances."""
    lo, hi = e_window
    for r in table:
        bound = 2.0 * ROOT_TOL * (1.0 + abs(r.phase)) / abs(r.phase_prime)
        if lo + bound < r.e_real < hi - bound:
            match = min(other, key=lambda s: abs(s.e_real - r.e_real))
            assert abs(match.e_real - r.e_real) <= bound
            assert match.l == r.l + dk


def check_oracle(run):
    vals = [p.eigenvalue for p in run.spectrum()]
    for i, a in enumerate(vals):
        for b in vals[:i]:
            assert abs(a - b) > SAME_EIGENVALUE * max(1.0, abs(b))
    return len(vals)


def h6_run(potential, bands, profile, energy, epsilon):
    cfg = RunConfiguration.from_dict({
        "potential": potential.to_dict(), "profile": profile.to_dict(),
        "solver": {"epsilon": epsilon, "zeta": 0.0,
                   "e_window": [energy - HALF_WINDOW, energy + HALF_WINDOW]}})
    return Run(cfg, bands)


def sweep(epsilon):
    rng = np.random.default_rng(SEED)
    tally = {"H6": 0, "typed": 0, "oracle": 0}
    ladders = {}
    for _ in range(POTENTIALS):
        potential = PeriodicPotential(0.0, rng.uniform(-3.0, 3.0, int(rng.integers(1, 4))))
        # E - W stays below 20.15 + 3 + 2 + 12, inside every ceiling from 45
        bands = band_edges(potential, 45.0)
        check_locate(bands, rng)
        e1 = float(bands.edges[0])
        for _ in range(DRAWS_PER_POTENTIAL):
            profile = draw_profile(rng)
            energy = float(rng.uniform(e1 + 1.0, 20.0))
            try:
                window = decompose_window(profile, bands, energy)
                if window.classification != "H6":
                    continue
                tally["H6"] += 1
                run = h6_run(potential, bands, profile, energy, epsilon)
                check_ladder(run)
                ladders[round(energy, 4)] = len(run.ladder())
                tally["oracle"] += check_oracle(run) > 0
            except BandresError:
                tally["typed"] += 1
    assert tally["H6"] >= 5 and tally["oracle"] >= 3, tally
    for energy, count in DIRECT_DRAWS[epsilon].items():
        assert ladders.get(energy) == count, (energy, ladders)
    run = h6_run(potential, bands, SEALED_PROFILE, SEALED_ENERGY, epsilon)
    check_ladder(run)
    assert run.window.classification == "H6" and not run.window.is_open
    assert run.ladder() and check_oracle(run) > 0


def test_seeded_sweep():
    sweep(0.1)


def test_seeded_sweep_at_half_epsilon():
    sweep(0.05)
