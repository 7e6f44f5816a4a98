import importlib.util
import math
import pathlib
import random

import pytest

from bandres import load_configuration

PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "periodicity.py"
spec = importlib.util.spec_from_file_location("periodicity", PATH)
periodicity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(periodicity)


def test_defaults():
    args = periodicity.parse_args([])
    assert (args.draws, args.seed) == (40, 0)
    args = periodicity.parse_args(["--draws", "2", "--seed", "7"])
    assert (args.draws, args.seed) == (2, 7)


@pytest.mark.parametrize("argv", [["--draws", "0"], ["--draws", "x"],
                                  ["--bogus"]])
def test_bad_arguments_are_refused(argv):
    with pytest.raises(SystemExit) as info:
        periodicity.parse_args(argv)
    assert info.value.code == 2


def test_ulps_apart_counts_doubles_between():
    assert periodicity.ulps_apart(1.0, 1.0) == 0
    assert periodicity.ulps_apart(1.0, math.nextafter(1.0, 2.0)) == 1
    assert periodicity.ulps_apart(math.nextafter(2.0, 0.0),
                                  math.nextafter(2.0, 3.0)) == 2
    assert periodicity.ulps_apart(-0.0, 0.0) == 0
    assert periodicity.ulps_apart(-5e-324, 5e-324) == 2
    # 0.1*3/3 is one double above 0.1
    assert periodicity.ulps_apart(0.1, 0.1 * 3 / 3) == 1


def test_counts_compare_shifted_labels(configs_dir, mathieu_bands):
    cfg = load_configuration(configs_dir / "drift_well.json")
    counts = periodicity.config_counts(cfg, mathieu_bands, 2, random.Random(0))
    assert counts["draws"] == 2
    assert counts["levels"] >= 2
    assert sum(counts["ulps"].values()) == counts["moved"] <= counts["levels"]
