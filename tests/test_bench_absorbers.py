"""The benchmark's absorber configs are the shipped configs whose oracle box
has the absorber on, so its absorber-verify timing measures what it names."""

import pathlib
import sys
import warnings

from bandres import OracleConfig, load_configuration
from bandres.cli import _build_bands
from bandres.verify import Run

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import ABSORBER_CONFIGS, CONFIGS  # noqa: E402


def test_absorber_configs_are_the_open_windows(configs_dir):
    shipped = sorted(path.stem for path in configs_dir.glob("*.json"))
    assert sorted(CONFIGS) == shipped
    opened = []
    for name in shipped:
        cfg = load_configuration(configs_dir / (name + ".json"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # free_flat's closed gaps
            run = Run(cfg, _build_bands(cfg))
        box = OracleConfig.for_window(run.window, cfg.solver.epsilon)
        assert box.cap_strength == (1.0 if run.window.is_open else 0.0), name
        if run.window.is_open:
            opened.append(name)
    assert sorted(ABSORBER_CONFIGS) == opened == ["barrier_wall", "step_transition"]
