"""Every name the benchmark tracer patches must resolve in dynbif, so a
refactor that drops or renames a traced entry point fails here rather than
in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TR = _tracer()
TRACED = sorted({**_TR.SPANS, **_TR.FACTORIES, **_TR.COUNTED})


def test_tracer_lists_names():
    assert TRACED and all(mod.startswith("dynbif.") for mod, _ in TRACED)


@pytest.mark.parametrize("module,name", TRACED)
def test_traced_name_resolves(module, name):
    obj = importlib.import_module(module)
    for part in name.split("."):
        obj = getattr(obj, part)  # AttributeError names what is missing
    assert callable(obj)
