"""scripts/cli_costs.py measures a child's exit code, wall time and peak RSS."""

import importlib.util
import os
import pathlib
import sys

import pytest

PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "cli_costs.py"
spec = importlib.util.spec_from_file_location("cli_costs", PATH)
cli_costs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_costs)


def test_one_run_reports_the_childs_exit_code_and_peak_memory():
    # the child touches 64 MB, so its peak RSS is past that whatever the
    # interpreter itself takes; the parent's memory is not counted
    code = "import sys; block = b\"x\" * (64 << 20); sys.exit(3)"
    exit_code, wall, peak_mb = cli_costs.run_once([sys.executable, "-c", code],
                                                  dict(os.environ))
    assert exit_code == 3
    assert wall > 0.0
    assert 64.0 < peak_mb < 64.0 + 200.0


def test_default_jobs_are_every_command_on_every_config():
    jobs = cli_costs.jobs(cli_costs.parse_args([]))
    configs = sorted(p.stem for p in (cli_costs.ROOT / "configs").glob("*.json"))
    assert jobs == [(c, (cmd,)) for c in configs for cmd in cli_costs.COMMANDS]


def test_run_measures_one_command_line_with_its_options():
    args = cli_costs.parse_args(["--repeats", "3", "--run", "barrier_wall",
                                 "resonances", "--epsilon", "1e-5"])
    assert args.repeats == 3
    assert cli_costs.jobs(args) == [
        ("barrier_wall", ("resonances", "--epsilon", "1e-5"))]


@pytest.mark.parametrize("argv", [["--run"], ["--run", "barrier_wall"],
                                  ["--run", "no_such_config", "bands"],
                                  ["--repeats", "0", "--run", "barrier_wall",
                                   "bands"]])
def test_bad_arguments_are_refused(argv):
    with pytest.raises(SystemExit) as info:
        cli_costs.parse_args(argv)
    assert info.value.code == 2
