"""The package names the benchmark harness reaches.

perfbench/tracer.py wraps every function its TARGETS table names, and
perfbench/run.py's output gate calls a few public names, so deleting or
renaming one of them must fail here rather than in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import colorperm

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the colorperm names perfbench/run.py calls
RUN_NAMES = (
    "load_instance",
    "EncodingParams",
    "ColoredAssignment",
    "feasible_global_positions",
    "encode_assignment",
    "energy_objective",
)


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for funcs, _ in tracer.TARGETS.values():
        for mod_name, attr in funcs:
            assert callable(getattr(importlib.import_module(f"colorperm.{mod_name}"), attr))


def test_run_names_resolve():
    for name in RUN_NAMES:
        assert callable(getattr(colorperm, name))
    assert callable(colorperm.EncodingParams.for_instance)
    assert callable(colorperm.ColoredAssignment.from_pairs)
