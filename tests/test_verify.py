import json
import warnings

from bandres import RunConfiguration, band_edges, verify as verify_module
from bandres.cli import main
from bandres.verify import Run, check_counts_spacings, check_drift, render, verify


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

