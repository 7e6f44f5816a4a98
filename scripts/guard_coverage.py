"""List the guards of the bandres package that the tests never run.

    python3 scripts/guard_coverage.py [PYTEST ARGS...]

Runs pytest in this process, from the checkout root and against its
``src/``, under a ``sys.settrace`` line tracer that records only the lines
executed in ``src/bandres/*.py`` (threads started by the tests are traced
too). With no arguments pytest collects what the repository's pytest
settings name, the tier-1 suite. A guard, found with ``ast``, is a
``raise`` statement or a ``return`` whose value builds a failing check,
``Check(name, False, detail)``. Afterwards every guard whose first line
never ran is printed as ``file:line: source``, followed by one summary
line. Code that tests run in a subprocess is not traced, and a guard
sharing its line with the condition that guards it would count as run;
the package has none.

Exit code: pytest's own when it is not 0; else 1 when some guard never
ran and 0 when every guard ran, so a clean run keeps the list empty.
"""

from __future__ import annotations

import ast
import os
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bandres"


def fails_a_check(node):
    """Whether `node` is a return whose value builds Check(_, False, _)."""
    return isinstance(node, ast.Return) and node.value is not None and any(
        isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        and call.func.id == "Check" and len(call.args) > 1
        and isinstance(call.args[1], ast.Constant) and call.args[1].value is False
        for call in ast.walk(node.value))


def guard_lines(path):
    """The first line of every raise statement and of every failing-check
    return in the file at `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Raise) or fails_a_check(node)})


def traced_pytest(args, files):
    """Run pytest with `args` under a line tracer over `files`; return its
    exit code and {file: set of executed lines}."""
    ran = {name: set() for name in files}

    def lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename in ran else None

    import pytest
    sys.settrace(calls)
    threading.settrace(calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv):
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    files = {str(path): guard_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    code, ran = traced_pytest(argv, files)
    missed, total = [], 0
    for name, linenos in files.items():
        source = pathlib.Path(name).read_text(encoding="utf-8").splitlines()
        total += len(linenos)
        for lineno in linenos:
            if lineno not in ran[name]:
                missed.append("%s:%d: %s" % (pathlib.Path(name).relative_to(ROOT),
                                             lineno, source[lineno - 1].strip()))
    print("\n".join(missed))
    print("%d of %d guards (raise statements and failing-check returns) in "
          "src/bandres never ran" % (len(missed), total))
    return code or int(bool(missed))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
