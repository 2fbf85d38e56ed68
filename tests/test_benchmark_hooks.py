"""The benchmark's tracer must find every function it hooks.

``perfbench/tracing.py`` wraps named ``indirgof`` functions and reports a
metric as missing when its function is gone, so deleting or renaming a
hooked function breaks the benchmark's output without failing a run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


@pytest.mark.parametrize("hook", _hooks())
def test_hooked_function_exists(hook):
    module_name, name = hook.rsplit(".", 1)
    module = importlib.import_module(f"indirgof.{module_name}")
    assert callable(getattr(module, name, None)), f"indirgof.{hook} is gone"
