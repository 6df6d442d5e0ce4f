"""The benchmark's trace wraps named functions of this package from outside
(perfbench/tracing.py, TARGETS).  A target that no longer resolves drops its
metrics silently in a traced run, so a rename must fail here instead."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, path, span", _targets())
def test_trace_target_resolves(module_name, path, span):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part, None)
        assert owner is not None, f"{module_name}.{path} is gone (span {span})"
    assert callable(owner)
