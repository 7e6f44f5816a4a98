"""The guard finder of scripts/guard_coverage.py on a generated module."""

import importlib.util
import pathlib

PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "guard_coverage.py"
spec = importlib.util.spec_from_file_location("guard_coverage", PATH)
guard_coverage = importlib.util.module_from_spec(spec)
spec.loader.exec_module(guard_coverage)

MODULE = '''\
def checked(x):
    if x < 0:
        raise ValueError(
            "negative")
    return x


def verdict(x):
    if x > 1:
        return Check("bound",
                     False, "%g above 1" % x)
    return Check("bound", True, "ok")


def bare():
    return
'''


def test_guard_lines_finds_raises_and_failing_checks(tmp_path):
    # the raise and the failing-check return, each by its first line; the
    # passing check and the bare return are not guards
    path = tmp_path / "module.py"
    path.write_text(MODULE, encoding="utf-8")
    assert guard_coverage.guard_lines(path) == [3, 10]


def test_exit_status_fails_on_a_listed_guard(monkeypatch, capsys):
    # pytest's own nonzero code wins; else the status is 1 while any guard
    # never ran (here: none or all of them ran)
    monkeypatch.setattr(guard_coverage.sys, "path", list(guard_coverage.sys.path))
    monkeypatch.chdir(guard_coverage.ROOT)
    for code, ran_all, status in ((0, True, 0), (0, False, 1), (5, True, 5), (5, False, 5)):
        monkeypatch.setattr(guard_coverage, "traced_pytest", lambda args, files: (
            code, {name: set(lines) if ran_all else set() for name, lines in files.items()}))
        assert guard_coverage.main([]) == status
        missed, _of, total = capsys.readouterr().out.splitlines()[-1].split()[:3]
        assert int(missed) == (0 if ran_all else int(total)) and int(total) > 0
