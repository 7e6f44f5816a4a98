import json

import pytest

from bandres import (
    ConfigurationError,
    OracleConfig,
    RunConfiguration,
    decompose_window,
    load_configuration,
)
from bandres.oracle import MAX_GRID_POINTS


def write(tmp_path, text, name="run.json"):
    p = tmp_path / name
    p.write_text(text)
    return p


GOOD = {
    "potential": {"mean": 0.0, "cos_coeffs": [2.0], "sin_coeffs": []},
    "profile": {"mu": 0.0, "nu": 0.0, "bumps": [[4.0, 0.0, 1.0]]},
    "solver": {"epsilon": 0.08, "zeta": 0.0, "e_window": [9.0, 10.4]},
}


class TestLoading:
    def test_shipped_configs_round_trip(self, configs_dir):
        for path in sorted(configs_dir.glob("*.json")):
            cfg = load_configuration(path)
            again = RunConfiguration.from_dict(cfg.to_dict(), str(path),
                                               path.read_text())
            assert again.to_dict() == cfg.to_dict()
            assert again == cfg

    def test_minimal_document(self, tmp_path):
        cfg = load_configuration(write(tmp_path, json.dumps(GOOD)))
        assert cfg.solver.epsilon == 0.08
        assert cfg.output_dir == "out"
        assert cfg.profile(0.0) == pytest.approx(4.0)
        assert cfg.potential.cos_coeffs == (2.0,)

    def test_malformed_json_reports_position(self, tmp_path):
        path = write(tmp_path, '{\n "potential": {,}\n}')
        with pytest.raises(ConfigurationError) as err:
            load_configuration(path)
        assert "%s:2:" % path in str(err.value)

    def test_unknown_key_reports_line_and_choices(self, tmp_path):
        doc = dict(GOOD)
        doc["solver"] = dict(GOOD["solver"], epsilonn=0.08)
        path = write(tmp_path, json.dumps(doc, indent=1))
        with pytest.raises(ConfigurationError) as err:
            load_configuration(path)
        msg = str(err.value)
        assert "epsilonn" in msg and "epsilon" in msg
        line = json.dumps(doc, indent=1).splitlines()
        wanted = next(i for i, t in enumerate(line, 1) if "epsilonn" in t)
        assert "%s:%d:" % (path, wanted) in msg

    def test_missing_section_reports_file(self, tmp_path):
        doc = {k: v for k, v in GOOD.items() if k != "solver"}
        path = write(tmp_path, json.dumps(doc))
        with pytest.raises(ConfigurationError) as err:
            load_configuration(path)
        assert "solver" in str(err.value) and str(path) in str(err.value)

    def test_bad_value_carries_section_line(self, tmp_path):
        doc = dict(GOOD)
        doc["solver"] = dict(GOOD["solver"], epsilon=0.9)
        text = json.dumps(doc, indent=1)
        path = write(tmp_path, text)
        with pytest.raises(ConfigurationError) as err:
            load_configuration(path)
        wanted = next(i for i, t in enumerate(text.splitlines(), 1)
                      if '"solver"' in t)
        assert "%s:%d:" % (path, wanted) in str(err.value)

    def test_e_window_shape_checked(self, tmp_path):
        doc = dict(GOOD)
        doc["solver"] = dict(GOOD["solver"], e_window=[9.0])
        path = write(tmp_path, json.dumps(doc))
        with pytest.raises(ConfigurationError):
            load_configuration(path)

    @pytest.mark.parametrize("key, value", [("root_tol", 1e-12), ("nodes", 64),
                                            ("buffer", 0.1), ("c0", 1.0)])
    def test_solver_tuning_keys_are_unknown(self, tmp_path, key, value):
        doc = dict(GOOD, solver=dict(GOOD["solver"], **{key: value}))
        text = json.dumps(doc, indent=1)
        path = write(tmp_path, text)
        with pytest.raises(ConfigurationError) as err:
            load_configuration(path)
        wanted = next(i for i, t in enumerate(text.splitlines(), 1)
                      if '"%s"' % key in t)
        assert ("%s:%d: unknown key %r in the solver section "
                "(allowed: e_window, epsilon, zeta)" % (path, wanted, key)
                in str(err.value))

    @pytest.mark.parametrize("section, key, value", [
        ("potential", "cos_coeffs", "12"),
        ("potential", "sin_coeffs", [0.5, False]),
        ("potential", "mean", None),
        ("potential", "allow_constant", "false"),
        ("profile", "allow_constant", "false"),
        ("profile", "mu", "0"),
        ("profile", "bumps", [["1", "2", "3"]]),
        ("profile", "bumps", [[4.0, 0.0]]),
        ("profile", "bumps", [4.0, 0.0, 1.0]),
        ("solver", "zeta", True),
        ("solver", "epsilon", [0.08]),
        ("solver", "e_window", [True, 2]),
        (None, "output_dir", 7),
    ])
    def test_value_types_checked_at_load(self, tmp_path, section, key, value):
        # both sections carry allow_constant, so the line must be found
        # inside the section that holds the bad value
        doc = json.loads(json.dumps(GOOD))
        doc["potential"]["allow_constant"] = False
        doc["profile"]["allow_constant"] = False
        (doc if section is None else doc[section])[key] = value
        text = json.dumps(doc, indent=1)
        path = write(tmp_path, text)
        with pytest.raises(ConfigurationError) as err:
            load_configuration(path)
        lines = text.splitlines()
        start = 0 if section is None else next(
            i for i, t in enumerate(lines) if '"%s"' % section in t)
        wanted = next(i for i, t in enumerate(lines[start:], start + 1)
                      if '"%s"' % key in t)
        assert "%s:%d: %s must be " % (path, wanted, key) in str(err.value)

    @pytest.mark.parametrize("key, text", [("zeta", "NaN"), ("zeta", "Infinity"),
                                           ("e_window", "[9.0, Infinity]")])
    def test_non_finite_solver_values_rejected(self, tmp_path, key, text):
        doc = json.dumps(dict(GOOD, solver=dict(GOOD["solver"], **{key: 0})),
                         indent=1).replace('"%s": 0' % key, '"%s": %s' % (key, text))
        path = write(tmp_path, doc)
        with pytest.raises(ConfigurationError) as err:
            load_configuration(path)
        wanted = next(i for i, t in enumerate(doc.splitlines(), 1)
                      if '"solver"' in t)
        assert "%s:%d: in the solver section: " % (path, wanted) in str(err.value)
        assert "not finite" in str(err.value)
        assert ("zeta=" if key == "zeta" else "energy window") in str(err.value)

    def test_to_dict_writes_run_file_solver_keys(self, tmp_path):
        cfg = load_configuration(write(tmp_path, json.dumps(GOOD)))
        assert cfg.to_dict()["solver"] == GOOD["solver"]
        tuned = cfg.replace_solver(nodes=48)
        assert tuned.solver.nodes == 48
        assert tuned.to_dict() == cfg.to_dict()
        assert tuned != cfg

    def test_replace_solver(self, configs_dir):
        cfg = load_configuration(configs_dir / "bound_well.json")
        bumped = cfg.replace_solver(epsilon=0.05, zeta=0.2)
        assert bumped.solver.epsilon == 0.05
        assert bumped.solver.zeta == 0.2
        assert bumped.solver.e_window == cfg.solver.e_window
        assert bumped.potential == cfg.potential
        assert cfg.solver.epsilon == 0.08   # original untouched


@pytest.mark.parametrize("text, words", [
    ("[]", "top level must be an object, got list"),
    (json.dumps(dict(GOOD, potential=[2.0])),
     "section 'potential' must be an object, got list"),
    (json.dumps(dict(GOOD, solver={"epsilon": 0.08, "zeta": 0.0})),
     "missing required solver key 'e_window'"),
    (None, "cannot read"),
], ids=["top-level", "section", "solver-key", "unreadable"])
def test_input_guard_names_its_limit(tmp_path, text, words):
    # text None: the run file does not exist
    path = tmp_path / "run.json" if text is None else write(tmp_path, text)
    with pytest.raises(ConfigurationError, match=words) as err:
        load_configuration(path)
    assert str(path) in str(err.value)


class TestOracleSettings:
    """The box and absorber OracleConfig.for_window derives from the
    window; the run file has no oracle section."""

    def test_defaults_fit_window(self, mathieu_bands, bound_profile):
        win = decompose_window(bound_profile, mathieu_bands, 9.7)
        built = OracleConfig.for_window(win, 0.1)
        base = abs(win.zeta0_minus) + abs(win.zeta0_plus)
        assert built.box_half_length == pytest.approx((base + 10.0) / 0.1)
        assert built.points_per_period >= 32.0
        assert built.cap_strength == 0.0

    def test_derived_box_carries_absorber(self, mathieu_bands, bound_profile,
                                          wall_profile):
        sealed = decompose_window(bound_profile, mathieu_bands, 9.7)
        open_ = decompose_window(wall_profile, mathieu_bands, 3.9)
        assert not sealed.is_open and open_.is_open
        assert OracleConfig.for_window(sealed, 0.1).cap_strength == 0.0
        assert OracleConfig.for_window(open_, 0.1).cap_strength == 1.0

    def test_oracle_section_is_unknown(self, tmp_path):
        doc = dict(GOOD, oracle={"cap_strength": 0.0})
        text = json.dumps(doc, indent=1)
        path = write(tmp_path, text)
        with pytest.raises(ConfigurationError) as err:
            load_configuration(path)
        wanted = next(i for i, t in enumerate(text.splitlines(), 1)
                      if '"oracle"' in t)
        assert ("%s:%d: unknown key 'oracle' in the top-level section"
                % (path, wanted)) in str(err.value)

    @pytest.mark.parametrize("key", ["box_half_length", "n_points", "margin",
                                     "n_eigs", "points_per_period",
                                     "cap_onset"])
    def test_box_geometry_keys_are_unknown(self, tmp_path, key):
        """for_window derives the box, so no run-file section sets it."""
        doc = json.loads(json.dumps(GOOD))
        doc["solver"][key] = 10.0
        text = json.dumps(doc, indent=1)
        path = write(tmp_path, text)
        with pytest.raises(ConfigurationError) as err:
            load_configuration(path)
        wanted = next(i for i, t in enumerate(text.splitlines(), 1)
                      if '"%s"' % key in t)
        assert ("%s:%d: unknown key %r in the solver section"
                % (path, wanted, key)) in str(err.value)

    def test_round_trip(self, tmp_path):
        doc = dict(GOOD, output_dir="elsewhere")
        cfg = load_configuration(write(tmp_path, json.dumps(doc)))
        assert cfg.to_dict() == dict(doc, potential=cfg.potential.to_dict(),
                                     profile=cfg.profile.to_dict())
        assert RunConfiguration.from_dict(cfg.to_dict()) == cfg
        assert cfg.replace_solver(epsilon=0.05).output_dir == "elsewhere"

    def test_grid_ceiling_propagates(self, mathieu_bands, bound_profile):
        win = decompose_window(bound_profile, mathieu_bands, 9.7)
        with pytest.raises(ConfigurationError) as err:
            # half-length ~1400 needs ~89000 points at 32 per period
            OracleConfig.for_window(win, 0.01)
        assert str(MAX_GRID_POINTS) in str(err.value)
