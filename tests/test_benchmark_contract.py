"""The package names the benchmark harness reaches.

perfbench/tracer.py wraps every function its TARGETS table names, and
perfbench/run.py's output gate calls a few public names, so deleting or
renaming one of them must fail here rather than in a benchmark run. The
traced binary sweep runs here too: the tracer's hooks read call shapes
(`energy_components`' positional labels, `sample`'s SampleSet), and the
benchmark's PaddingLeak gate runs under them.
"""

import contextlib
import importlib
import importlib.util
from pathlib import Path

import colorperm
from colorperm.cli import main

DATA = Path(__file__).resolve().parent / "data"
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


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    tracer = _tracer()
    for funcs, _ in tracer.TARGETS.values():
        for mod_name, attr in funcs:
            assert callable(getattr(importlib.import_module(f"colorperm.{mod_name}"), attr))


def test_run_names_resolve():
    for name in RUN_NAMES:
        assert callable(getattr(colorperm, name))
    assert callable(colorperm.EncodingParams.for_instance)
    assert callable(colorperm.ColoredAssignment.from_pairs)


def test_traced_binary_sweep_keeps_its_bytes_and_counts(tmp_path, capsys):
    args = ["solve", "--instance", str(DATA / "demo-n4-k2.vrp"), "--register", "binary", "--grid-points", "2"]
    tracer = _tracer().Tracer()
    outputs = []
    for name, hooks in (("plain", contextlib.nullcontext()), ("traced", tracer.installed())):
        (tmp_path / name).mkdir()
        with hooks:
            assert main(args + ["--out", str(tmp_path / name / "run.json")]) == 0
        files = [(tmp_path / name / f).read_bytes() for f in ("run.json", "run.grid.csv", "run.hist.csv")]
        outputs.append((capsys.readouterr(), files))
    assert outputs[0] == outputs[1]
    counts = tracer.report()
    assert counts["hamiltonian.energy_components.labels"] > 0
    assert counts["simulator.sample.shots"] > 0
    # the sweep scores each of its 2 gamma rows' accepted labels in one call
    assert counts["hamiltonian.energy_components.calls"] == 2
