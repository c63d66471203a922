"""The bench tracer wraps package functions by name and reads some of their
arguments by name; a rename in the package would silently zero its spans."""

import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
# removed from the package on purpose
_GONE = {"simulate.frames_to_matrix", "gass.optimize", "gass.rank_seed_pairs"}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
        spec.loader.exec_module(module)
    return module


def _function(name):
    module, fn = name.split(".")
    return getattr(importlib.import_module(f"csibreath.{module}"), fn, None)


def test_every_traced_function_exists(tracer):
    missing = [name for name in tracer.NAMES if name not in _GONE and _function(name) is None]
    assert missing == []
    assert all(_function(name) is None for name in _GONE)


@pytest.mark.parametrize(
    "name, argument",
    [
        ("combine.combine", "aligned"),
        ("traceio.read_trace", "path"),
        ("rate.estimate_rate", "window_id"),
    ],
)
def test_observed_arguments_are_parameters(tracer, name, argument):
    assert name in tracer.NAMES
    assert argument in inspect.signature(_function(name)).parameters


@pytest.mark.parametrize(
    "cls, attribute",
    [
        ("pipeline.WindowResult", "gass_reused"),  # run_pipeline's results
        ("pipeline.WindowPlan", "accepted"),       # segment's plan
        ("combine.CombinedSignal", "contributing"),
    ],
)
def test_observed_results_have_their_attributes(cls, attribute):
    # the observers read these off return values, where a missing one raises
    module, name = cls.split(".")
    owner = getattr(importlib.import_module(f"csibreath.{module}"), name)
    fields = {f.name for f in dataclasses.fields(owner)}
    assert attribute in fields or hasattr(owner, attribute)
