"""The package names the benchmark harness reaches.

perfbench/tracer.py wraps every function its TARGETS table names, and
perfbench/run.py's output gate calls a few public names, so deleting or
renaming one of them must fail here rather than in a benchmark run. The
traced binary sweep runs here too: the tracer's hooks read call shapes
(`energy_components`' positional labels, `sample`'s SampleSet), and the
benchmark's PaddingLeak gate runs under them. The benchmark's generated
instances keep the row path and the sampler path its figures were
measured on.
"""

import ast
import contextlib
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import colorperm
from colorperm import simulator
from colorperm.cli import main
from colorperm.encoding import EncodingParams
from colorperm.hamiltonian import EnergyModel, table_parts
from colorperm.instances import parse_vrp
from colorperm.solver import default_shots

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


def _workloads():
    """perfbench/run.py's WORKLOADS, read from its source without running
    it: {name: (demands, K, argv)}."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "WORKLOADS")
    return {ast.literal_eval(key): tuple(ast.literal_eval(arg) for arg in call.args[:3]) for key, call in zip(table.keys, table.values)}


@pytest.mark.parametrize("workload, seed, streams", [("sweep-n6k2", 3, True), ("sweep-n6k2", 11, True), ("sweep-n4k3-binary", 11, False)])
def test_the_benchmark_sweeps_keep_their_row_path(workload, seed, streams):
    # sweep-n6k2's parts mirror, and its depth-1 rows stream and yield the
    # vehicle-orbit head alone; sweep-n4k3-binary's rows evolve one work
    # buffer and yield every label. A generator change that moves either
    # path fails here, not in a benchmark run
    demands, K, argv = _workloads()[workload]
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    inst = parse_vrp(gen.to_vrp(gen.generate(gen.instance_rng(seed, workload), demands, K), workload), K=K)
    register = argv[argv.index("--register") + 1] if "--register" in argv else "onehot"
    depth = int(argv[argv.index("--depth") + 1]) if "--depth" in argv else 1
    model = EnergyModel.for_instance(inst, register=register)
    params, parts = model.params, table_parts(model)
    labels, head = params.dim("onehot"), simulator.orbit_labels(params, parts)
    assert bool(simulator._blocking(params)[0] and depth == 1) == streams
    if streams:
        assert head == labels // 2
    probs = next(simulator.evolve_row(params, parts, [simulator.Schedule.constant(np.pi, np.pi, depth)], head))
    assert len(probs) == (head if streams else labels)


def test_the_benchmark_has_a_sweep_on_each_side_of_the_spread_rule():
    # sweep-n6k2 draws every sample with the replica (2,985,984 labels for
    # 1,728 shots), sweep-n4k3-binary with numpy's multinomial (20,736
    # labels for 1,728 shots), so the benchmark times both sampler paths
    spread = {}
    for workload in ("sweep-n6k2", "sweep-n4k3-binary"):
        demands, K, argv = _workloads()[workload]
        assert "--shots" not in argv and "--shots-rule" not in argv
        params = EncodingParams(len(demands), K)
        spread[workload] = params.dim("onehot"), simulator.REPLICA_SPREAD * default_shots(params)
    assert spread == {"sweep-n6k2": (2_985_984, 221_184), "sweep-n4k3-binary": (20_736, 221_184)}
    assert [labels >= rule for labels, rule in spread.values()] == [True, False]
