import json
import math
import warnings

import pytest

from bandres import PeriodicPotential, discriminant, load_configuration
from bandres import actions as actions_module
from bandres.cli import build_parser, main

BOUND = "bound_well.json"
DRIFT = "drift_well.json"
STEP = "step_transition.json"
FREE = "free_flat.json"


def run(configs_dir, tmp_path, cmd, config, *extra, tag="a"):
    out = tmp_path / tag
    argv = [cmd, "--config", str(configs_dir / config), "--out", str(out)]
    argv.extend(str(v) for v in extra)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    return code, out


def rows(path):
    header, *data = path.read_text().splitlines()
    return header, [line.split(",") for line in data]


class TestBands:
    def test_table_and_cache(self, configs_dir, tmp_path):
        code, out = run(configs_dir, tmp_path, "bands", BOUND)
        assert code == 0
        header, data = rows(out / "bands.csv")
        assert header == "band,lower_edge,upper_edge,gap_lo,gap_hi,gap_width,gap_open"
        assert len(data) >= 2
        assert all(r[6] == "1" for r in data if r[3])   # every gap open
        cache = json.loads((out / "band_structure.json").read_text())
        assert len(cache["edges"]) == 2 * len(data)

    def test_deterministic_bytes(self, configs_dir, tmp_path):
        _, a = run(configs_dir, tmp_path, "bands", BOUND, tag="a")
        _, b = run(configs_dir, tmp_path, "bands", BOUND, tag="b")
        assert (a / "bands.csv").read_bytes() == (b / "bands.csv").read_bytes()

    def test_five_modes(self, configs_dir, tmp_path):
        doc = json.loads((configs_dir / BOUND).read_text())
        doc["potential"]["cos_coeffs"] = [2.0, 0.3, 0.2, 0.1, 0.05]
        (tmp_path / "five.json").write_text(json.dumps(doc))
        code, out = run(tmp_path, tmp_path, "bands", "five.json")
        assert code == 0
        _, data = rows(out / "bands.csv")
        assert len(data) >= 2
        assert all(r[6] == "1" for r in data if r[3])
        pot = PeriodicPotential(0.0, (2.0, 0.3, 0.2, 0.1, 0.05))
        for r in data:
            for e in (r[1], r[2]):
                assert abs(abs(discriminant(pot, float(e))) - 2.0) <= 1e-10
        # the Fourier-matrix comparison flag is gone: an argparse error, no file
        with pytest.raises(SystemExit) as info:
            run(tmp_path, tmp_path, "bands", "five.json", "--cross-check", tag="b")
        assert info.value.code == 2
        assert not (tmp_path / "b").exists()

    def test_constant_potential_gaps_closed(self, configs_dir, tmp_path):
        code, out = run(configs_dir, tmp_path, "bands", FREE,
                        "--e-max", "160")
        assert code == 0
        _, data = rows(out / "bands.csv")
        assert all(r[6] == "0" for r in data if r[3])


class TestWindow:
    def test_report(self, configs_dir, tmp_path, capsys):
        code, out = run(configs_dir, tmp_path, "window", BOUND)
        assert code == 0
        record = json.loads((out / "window.json").read_text())
        assert record["classification"] == "H6"
        assert "H6 with 1 component(s)" in capsys.readouterr().out

    def test_deep_offset_rescans_past_the_window(self, configs_dir, tmp_path):
        # E - W reaches 39.74, above the 39.52 ceiling of a scan to E=45
        doc = json.loads((configs_dir / BOUND).read_text())
        doc["profile"]["mu"] = -30.0
        (tmp_path / "deep.json").write_text(json.dumps(doc))
        code, out = run(tmp_path, tmp_path, "window", "deep.json")
        assert code == 0
        record = json.loads((out / "window.json").read_text())
        assert record["classification"] == "H6"

    def test_energy_above_the_window_sizes_the_scan(self, configs_dir, tmp_path):
        # E - W reaches 40.04 at --energy 40, above the 39.52 ceiling that
        # the window [9.0, 10.4] alone would ask for
        code, out = run(configs_dir, tmp_path, "window", BOUND, "--energy", 40)
        assert code == 0
        record = json.loads((out / "window.json").read_text())
        assert record["energy"] == 40.0


class TestActions:
    def test_table(self, configs_dir, tmp_path, monkeypatch):
        # actions.csv writes no quadrature error, so no row runs the coarse
        # nodes-point Phi0 rule or builds an action bundle
        nodes = load_configuration(configs_dir / DRIFT).solver.nodes

        def refuse(*args, **kwargs):
            raise AssertionError("an action row ran the coarse Phi0 rule")

        def fine_only(windows, bands, profile, points, *args,
                      _phi0_rule=actions_module._phi0_rule):
            if points == nodes:
                refuse()
            return _phi0_rule(windows, bands, profile, points, *args)

        monkeypatch.setattr(actions_module, "_phi0_rule", fine_only)
        monkeypatch.setattr(actions_module, "ActionData", refuse)
        code, out = run(configs_dir, tmp_path, "actions", DRIFT,
                        "--grid-points", 7)
        assert code == 0
        header, data = rows(out / "actions.csv")
        assert header == "E,Phi0,delta_kappa,S_minus,S_plus"
        assert len(data) == 7
        assert all(r[2] == "1" for r in data)           # fold jump +1
        assert all(float(r[1]) > 0.0 for r in data)

    def test_transition_window_is_empty_table(self, configs_dir, tmp_path,
                                              capsys):
        code, out = run(configs_dir, tmp_path, "actions", STEP)
        assert code == 0
        header, data = rows(out / "actions.csv")
        assert header == "E,Phi0,delta_kappa,S_minus,S_plus"
        assert data == []
        assert "monotone transition window, resonance-free" in \
            capsys.readouterr().out


class TestResonances:
    def test_table_and_determinism(self, configs_dir, tmp_path):
        code, a = run(configs_dir, tmp_path, "resonances", BOUND, tag="a")
        assert code == 0
        header, data = rows(a / "resonances.csv")
        assert header == "l,E,width,t_plus,t_minus,dE_dzeta,residual"
        assert len(data) >= 5
        assert all(r[2] == "0" for r in data)           # sealed well
        _, b = run(configs_dir, tmp_path, "resonances", BOUND, tag="b")
        assert (a / "resonances.csv").read_bytes() == \
            (b / "resonances.csv").read_bytes()

    def test_epsilon_override_changes_count(self, configs_dir, tmp_path):
        _, a = run(configs_dir, tmp_path, "resonances", BOUND, tag="a")
        _, b = run(configs_dir, tmp_path, "resonances", BOUND,
                   "--epsilon", "0.05", tag="b")
        _, coarse = rows(a / "resonances.csv")
        _, fine = rows(b / "resonances.csv")
        assert len(fine) > len(coarse)

    def test_transition_window_is_note_only(self, configs_dir, tmp_path,
                                            capsys):
        code, out = run(configs_dir, tmp_path, "resonances", STEP)
        assert code == 0
        header, data = rows(out / "resonances.csv")
        assert header == "l,E,width,t_plus,t_minus,dE_dzeta,residual"
        assert data == []
        assert "monotone transition window, resonance-free" in \
            capsys.readouterr().out

    def test_sweep_is_periodic_with_label_shift(self, configs_dir, tmp_path):
        code, out = run(configs_dir, tmp_path, "resonances", DRIFT,
                        "--sweep-zeta", 3)
        assert code == 0
        _, index = rows(out / "sweep_index.csv")
        assert len(index) == 4
        _, first = rows(out / "resonances_sweep_000.csv")
        _, last = rows(out / "resonances_sweep_003.csv")
        assert [r[1] for r in first] == [r[1] for r in last]   # positions
        shift = {int(b[0]) - int(a[0]) for a, b in zip(first, last)}
        assert shift == {1}                                    # labels + dk


class TestPortrait:
    def test_gap_rows_empty_band_rows_paired(self, configs_dir, tmp_path):
        code, out = run(configs_dir, tmp_path, "portrait", BOUND,
                        "--samples", 101, "--zeta-range", -3.0, 3.0)
        assert code == 0
        header, data = rows(out / "portrait.csv")
        assert header == "zeta,kappa_branch_1,kappa_branch_2"
        assert len(data) == 101
        gap = [r for r in data if r[1] == "" and r[2] == ""]
        band = [r for r in data if r[1] != ""]
        assert gap and band
        for r in band:
            k1, k2 = float(r[1]), float(r[2])
            assert k1 + k2 == pytest.approx(2.0 * math.pi, abs=1e-9)
        # the well region of this profile ends at |zeta| ~ 1.935
        assert all(abs(float(r[0])) < 1.94 for r in band)
        assert all(abs(float(r[0])) > 1.93 for r in gap)


class TestOracle:
    def test_table(self, configs_dir, tmp_path):
        code, out = run(configs_dir, tmp_path, "oracle", BOUND)
        assert code == 0
        header, data = rows(out / "oracle.csv")
        assert header == "re,im,stability,localization"
        assert len(data) >= 5
        assert all(r[1] == "0" and r[2] == "0" for r in data)
        assert any(float(r[3]) > 0.9 for r in data)


class TestVerify:
    def test_bound_well_report(self, configs_dir, tmp_path, capsys):
        code, out = run(configs_dir, tmp_path, "verify", BOUND)
        captured = capsys.readouterr().out
        assert code == 0
        report = (out / "verify_report.txt").read_text()
        assert report in captured or captured in report or report == captured
        assert "count" in report and "PASS" in report
        assert ("  width-fit       SKIP  skipped: sealed window, bound states "
                "have no width\n") in report
        assert report.strip().endswith("overall PASS")


# (command, config, flag or run-file key, bad value(s), exit code, message)
BAD_VALUES = [
    ("bands", BOUND, "--e-max", "nan", 1, "e_max=nan is not finite"),
    ("bands", BOUND, "--e-max", "inf", 1, "e_max=inf is not finite"),
    ("bands", BOUND, "--e-max", "1e400", 1, "e_max=inf is not finite"),
    ("window", BOUND, "--energy", "nan", 2, "--energy=nan is not finite"),
    ("window", BOUND, "--energy", "inf", 2, "--energy=inf is not finite"),
    ("portrait", BOUND, "--energy", "nan", 2, "--energy=nan is not finite"),
    ("portrait", BOUND, "--energy", "inf", 2, "--energy=inf is not finite"),
    ("portrait", BOUND, "--samples", "1", 2, "--samples needs at least 2"),
    ("portrait", BOUND, "--samples", "0", 2, "--samples needs at least 2"),
    ("portrait", BOUND, "--zeta-range", "1 1", 2, "--zeta-range [1, 1] is empty"),
    ("portrait", BOUND, "--zeta-range", "2 1", 2, "--zeta-range [2, 1] is empty"),
    ("portrait", BOUND, "--zeta-range", "nan 1", 2,
     "--zeta-range [nan, 1] is not finite"),
    ("actions", BOUND, "--grid-points", "-3", 2, "--grid-points needs a positive"),
    ("actions", STEP, "--grid-points", "0", 2, "--grid-points needs a positive"),
    ("resonances", BOUND, "--sweep-zeta", "0", 2,
     "--sweep-zeta needs a positive count"),
    ("window", BOUND, "--window", "1e300 1e301", 1,
     "needs a doubled Hill truncation beyond 512; the largest accepted e_max is"),
]


class TestFailureModes:
    def test_malformed_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n "potential": {,}\n}')
        code = main(["bands", "--config", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "bad.json:2" in err

    def test_unknown_key(self, tmp_path, capsys):
        doc = {"potential": {"mean": 0.0, "cos_coeffs": [2.0]},
               "profile": {"mu": 0.0, "nu": 0.0,
                           "bumps": [[4.0, 0.0, 1.0]]},
               "solver": {"epsilon": 0.1, "zeta": 0.0,
                          "e_window": [9.0, 10.0], "jitter": 1}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["bands", "--config", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "jitter" in capsys.readouterr().err

    def test_oracle_section_is_refused(self, configs_dir, tmp_path, capsys):
        """The window decides the absorber, so a run file's oracle section
        is an unknown key: exit 2 with its line."""
        text = (configs_dir / "barrier_wall.json").read_text().replace(
            '  "output_dir"', '  "oracle": {"cap_strength": 1.0},\n  "output_dir"')
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = main(["oracle", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        line = text.count("\n", 0, text.index('"oracle"')) + 1
        assert ("%s:%d: unknown key 'oracle' in the top-level section"
                % (bad, line)) in capsys.readouterr().err

    def test_two_well_run_is_refused(self, tmp_path, capsys):
        doc = {"potential": {"mean": 0.0, "cos_coeffs": [2.0]},
               "profile": {"mu": 0.0, "nu": 0.0,
                           "bumps": [[4.0, -3.0, 1.0], [4.0, 3.0, 1.0]]},
               "solver": {"epsilon": 0.1, "zeta": 0.0,
                          "e_window": [9.5, 9.9]}}
        cfg = tmp_path / "two.json"
        cfg.write_text(json.dumps(doc))
        code = main(["resonances", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_override_rejected(self, configs_dir, tmp_path, capsys):
        code = main(["resonances", "--config",
                     str(configs_dir / BOUND), "--out",
                     str(tmp_path / "o"), "--epsilon", "0.9"])
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, flag, value", [
        ("resonances", "--zeta", "nan"), ("resonances", "--zeta", "inf"),
        ("oracle", "--zeta", "nan"), ("resonances", "--window", ["9.0", "inf"])])
    def test_non_finite_override_is_a_configuration_error(self, configs_dir, tmp_path,
                                                          capsys, cmd, flag, value):
        out = tmp_path / "o"
        code = main([cmd, "--config", str(configs_dir / BOUND), "--out", str(out),
                     flag, *([value] if isinstance(value, str) else value)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error: ")
        assert ("zeta=" if flag == "--zeta" else "energy window") in err
        assert "not finite" in err and "Traceback" not in err
        assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize("cmd, config, flag, value, code, words", BAD_VALUES,
                             ids=["%s %s=%s" % (r[0], r[2], r[3]) for r in BAD_VALUES])
    def test_out_of_range_values_end_typed(self, configs_dir, tmp_path, capsys,
                                           cmd, config, flag, value, code, words):
        """In process: each bad value ends in exit 1 or 2 with a message,
        no untyped exception and no table."""
        argv = [cmd, "--config", str(configs_dir / config), flag, *value.split()]
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith("configuration error: " if code == 2 else "error: ")
        assert words in err
        assert not any(out.glob("*.csv"))

    def test_overrides_only_where_they_act(self):
        taken = {"bands": set(),
                 "window": {"--window"},
                 "portrait": {"--window"},
                 "actions": {"--window"},
                 "oracle": {"--epsilon", "--zeta", "--window"},
                 "resonances": {"--epsilon", "--zeta", "--window"},
                 "verify": {"--epsilon", "--zeta", "--window"}}
        flags = {"--epsilon": ["0.1"], "--zeta": ["0.1"],
                 "--window": ["9.0", "10.0"], "--root-tol": ["1e-12"],
                 "--nodes": ["80"], "--buffer": ["0.1"], "--c0": ["1.0"],
                 "--m-trunc": ["24"], "--epsilon-ladder": ["0.1", "0.08"],
                 "--cross-check": []}
        parser = build_parser()
        for cmd in ("bands", "window", "actions", "resonances", "portrait",
                    "oracle", "verify"):
            for flag, value in flags.items():
                argv = [cmd, "--config", "run.json", flag, *value]
                if flag in taken[cmd]:
                    parser.parse_args(argv)
                else:
                    with pytest.raises(SystemExit) as err:
                        parser.parse_args(argv)
                    assert err.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
