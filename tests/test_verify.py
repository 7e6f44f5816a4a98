import json
import warnings

import pytest

from bandres import RunConfiguration, band_edges, hill, verify as verify_module
from bandres.cli import _build_bands, main
from bandres.oracle import OracleEigenpair
from bandres.solver import ResonanceEstimate
from bandres.verify import (Run, check_counts_spacings, check_drift,
                            check_width_fit, render, verify)


def bound_run(configs_dir):
    cfg = RunConfiguration.load(str(configs_dir / "bound_well.json"))
    return Run(cfg, band_edges(cfg.potential, 45.0))


def test_ladders_are_shared_between_checks(configs_dir, monkeypatch):
    calls = []
    solve = verify_module.locate_resonances

    def counting(*args):
        calls.append(args[0].zeta)
        return solve(*args)

    monkeypatch.setattr(verify_module, "locate_resonances", counting)
    run = bound_run(configs_dir)
    checks = check_counts_spacings(run) + check_drift(run)
    assert [c.name for c in checks] == ["count", "spacing", "drift"]
    assert len(calls) == 3            # base ladder once, two zeta shifts
    assert run.ladder() is run.ladder(epsilon=0.08, zeta=0.0)
    assert len(calls) == 3


def test_verify_pass_takes_thirteen_propagations(configs_dir, monkeypatch):
    # per config, bands from two Newton batches and a table from one; the
    # free potential's exact seeds converge in one batch, and
    # step_transition's checks read no table
    calls = []
    propagate = hill._propagate

    def counting(*args, **kwargs):
        calls.append(args[1])
        return propagate(*args, **kwargs)

    monkeypatch.setattr(hill, "_propagate", counting)
    for path in sorted(configs_dir.glob("*.json")):
        cfg = RunConfiguration.load(str(path))
        with warnings.catch_warnings():
            # free_flat's constant potential closes every gap by design
            warnings.filterwarnings("ignore", "gap.* closed within tolerance")
            bands = _build_bands(cfg)
        assert verify(Run(cfg, bands))[1] == 0, path.stem
    assert len(calls) == 13


def test_render_matches_cli_report(configs_dir, tmp_path):
    checks, code = verify(bound_run(configs_dir))
    assert code == 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["verify", "--config", str(configs_dir / "bound_well.json"),
                     "--out", str(tmp_path)]) == 0
    assert render(checks) == (tmp_path / "verify_report.txt").read_text()


def test_two_well_run_aborts_with_report(tmp_path, capsys):
    doc = {"potential": {"mean": 0.0, "cos_coeffs": [2.0]},
           "profile": {"mu": 0.0, "nu": 0.0,
                       "bumps": [[4.0, -3.0, 1.0], [4.0, 3.0, 1.0]]},
           "solver": {"epsilon": 0.1, "zeta": 0.0,
                      "e_window": [9.5, 9.9]}}
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    cfg = RunConfiguration.load(str(path))
    checks, code = verify(Run(cfg, band_edges(cfg.potential, 45.0)))
    assert code == 1
    assert len(checks) == 1
    assert checks[0].name == "aborted" and checks[0].status is False

    assert main(["verify", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    report = (tmp_path / "o" / "verify_report.txt").read_text()
    assert report == capsys.readouterr().out
    lines = report.splitlines()
    assert lines[-2].split()[:2] == ["aborted", "FAIL"]
    assert lines[-1] == "overall FAIL"



def levels(*energies):
    """Estimates l = 0, 1, ... at the given positions, drifting at slope 1."""
    return [ResonanceEstimate(l, e, 1e-6, 1e-5, 0.0, 1.0, 0.0, s_plus=2.0)
            for l, e in enumerate(energies)]


def patched_run(configs_dir, bands, name, monkeypatch, ladder, spectrum=()):
    """A Run of the shipped config `name` whose ladder(epsilon, zeta) is the
    given function of (epsilon, zeta) and whose spectrum(epsilon, zeta,
    e_window) lists the given pairs, whatever its arguments."""
    run = Run(RunConfiguration.load(str(configs_dir / (name + ".json"))), bands)
    monkeypatch.setattr(run, "ladder", lambda epsilon=None, zeta=None:
                        ladder(epsilon, zeta))
    monkeypatch.setattr(run, "spectrum", lambda epsilon=None, zeta=None, e_window=None:
                        list(spectrum))
    return run


@pytest.mark.parametrize("check, name, ladder, spectrum, detail", [
    # the only positions that align are the solver's last and the
    # oracle's first, so no spacing has a partner
    (check_counts_spacings, "bound_well", lambda eps, z: levels(9.1, 9.2, 9.3),
     [OracleEigenpair(e, 0.0, 1.0) for e in (9.3, 9.9, 10.2)],
     "no overlapping spacings to compare"),
    # delta_kappa = 1, and the ladders at zeta -+ eps/100 are empty
    (check_drift, "drift_well",
     lambda eps, z: levels(9.6, 9.9) if z is None else [], (),
     "no level tracked across the zeta step"),
    (check_width_fit, "barrier_wall", lambda eps, z: [], (),
     "no solver level at epsilon=0.12"),
    (check_width_fit, "barrier_wall", lambda eps, z: levels(3.9), (),
     "no stable narrow eigenvalue at epsilon=0.12"),
    # the one genuine state lies 0.07 from the tracked level 3.9, past half
    # the spacing to its neighbours: it belongs to the level at 4.0
    (check_width_fit, "barrier_wall", lambda eps, z: levels(3.8, 3.9, 4.0),
     [OracleEigenpair(3.97 - 1e-6j, 0.0, 1.0)],
     "no stable narrow eigenvalue at epsilon=0.12"),
], ids=["spacing", "drift", "width-fit-ladder", "width-fit-spectrum",
        "width-fit-neighbour"])
def test_fail_returns(configs_dir, mathieu_bands, monkeypatch, check, name,
                      ladder, spectrum, detail):
    run = patched_run(configs_dir, mathieu_bands, name, monkeypatch, ladder,
                      spectrum)
    failed = [c for c in check(run) if c.status is False]
    assert [c.detail for c in failed] == [detail]
