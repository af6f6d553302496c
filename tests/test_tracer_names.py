"""Every name the benchmark tracer patches must resolve in dynbif, so a
refactor that drops or renames a traced entry point fails here rather than
in a traced benchmark run."""

import importlib
import importlib.util
import inspect
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


# the tracer's counter hooks read these leading arguments by position:
# aberth.pair_evals from (z, active), dynamics.roots_target from degree,
# families.system2d_points from c, cli.bytes_written from data
POSITIONAL = {
    ("dynbif.aberth", "pairwise_sums"): ("z", "active"),
    ("dynbif.cpoly", "roots_blackbox"): ("eval_fn", "degree"),
    ("dynbif.families", "_pca3_center_system"): ("c",),
    ("dynbif.cli", "_write_atomic"): ("path", "data"),
}


@pytest.mark.parametrize("module,name", sorted(POSITIONAL))
def test_hooked_arguments_keep_their_positions(module, name):
    assert (module, name) in TRACED
    fn = getattr(importlib.import_module(module), name)
    lead = list(inspect.signature(fn).parameters.values())[
        :len(POSITIONAL[module, name])]
    assert tuple(p.name for p in lead) == POSITIONAL[module, name]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in lead)
