"""Every function the benchmark tracer hooks must exist in bandres, so a
rename fails here and not only in a traced benchmark run."""

import importlib
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import HOOKS  # noqa: E402


@pytest.mark.parametrize("module_name, attr",
                         [(m, a) for m, a, _, _ in HOOKS],
                         ids=["%s.%s" % (m, a) for m, a, _, _ in HOOKS])
def test_hook_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))
