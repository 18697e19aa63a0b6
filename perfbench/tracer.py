"""Outside-in layer trace: wrap the package's public functions from outside.

Every listed function is replaced at each module binding that holds the
same function object, so `solver.run_ansatz` (bound by `from .simulator
import run_ansatz`) is wrapped together with `simulator.run_ansatz`.
Spans live on an in-memory stack; a span's self time is its duration
minus the durations of its direct child spans. A call whose direct parent
span has the same name (the binary check calling the one-hot scan) is not
a span of its own, so each verdict is counted once, at the outermost
check. Nothing is written into the program's outputs.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter

import numpy as np


def _labels(counts, args, kwargs, result):
    counts["hamiltonian.energy_components.labels"] += len(np.atleast_1d(args[1]))


def _amplitudes(counts, args, kwargs, result):
    counts["simulator.apply_mixer.amplitudes"] += args[0].dim


def _shots(counts, args, kwargs, result):
    counts["simulator.sample.shots"] += result.shots
    counts["simulator.sample.distinct_labels"] += len(result.counts)


def _verdict(counts, args, kwargs, result):
    if result.feasible:
        counts["feasibility.accepted"] += 1
    else:
        counts[f"feasibility.rejected.{result.reason}"] += 1


def _oracle(counts, args, kwargs, result):
    counts["solver.exact_solve.feasible_count"] += result.feasible_count


def _grid(counts, args, kwargs, result):
    counts["solver.grid_points"] += len(result.records)


# span name -> ((module, function), ...), counter hook
TARGETS = {
    "instances.load_instance": ((("instances", "load_instance"),), None),
    "solver.exact_solve": ((("solver", "exact_solve"),), _oracle),
    "solver.phqc": ((("solver", "phqc"),), _grid),
    "hamiltonian.energy_components": ((("hamiltonian", "energy_components"),), _labels),
    "hamiltonian.energy_objective": ((("hamiltonian", "energy_objective"),), None),
    "simulator.run_ansatz": ((("simulator", "run_ansatz"),), None),
    "simulator.apply_phase": ((("simulator", "apply_phase"),), None),
    "simulator.apply_mixer": ((("simulator", "apply_mixer"),), _amplitudes),
    "simulator.sample": ((("simulator", "sample"),), _shots),
    "simulator.exact_distribution": ((("simulator", "exact_distribution"),), None),
    "encoding.render": ((("encoding", "label_to_onehot"), ("encoding", "label_to_binary")), None),
    "encoding.decompress": ((("encoding", "decompress"),), None),
    "encoding.decode_bitstring": ((("encoding", "decode_bitstring"),), None),
    "feasibility.check": (
        (("feasibility", "feasible_global_positions"), ("feasibility", "decode_binary_and_check")),
        _verdict,
    ),
}


class Tracer:
    def __init__(self):
        self.stack = []
        self.spans = {}  # name -> [calls, total_ns, child_ns]
        self.counts = Counter()

    def wrap(self, name, fn, hook=None):
        stack, counts = self.stack, self.counts
        stats = self.spans.setdefault(name, [0, 0, 0])

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += frame[1]
                if stack:
                    stack[-1][1] += dt
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target at every binding in the loaded package
        modules; restore the originals on exit."""
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "colorperm"]
        restore = []
        try:
            for name, (funcs, hook) in TARGETS.items():
                for mod_name, attr in funcs:
                    fn = getattr(sys.modules[f"colorperm.{mod_name}"], attr)
                    wrapper = self.wrap(name, fn, hook)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is fn:
                                restore.append((mod, key, fn))
                                setattr(mod, key, wrapper)
            yield self
        finally:
            for mod, key, fn in reversed(restore):
                setattr(mod, key, fn)

    def report(self):
        """Per-span seconds, self seconds and calls, plus the counters."""
        out = {}
        for name, (calls, total, child) in self.spans.items():
            out[f"{name}.s"] = total / 1e9
            out[f"{name}.self_s"] = (total - child) / 1e9
            out[f"{name}.calls"] = calls
        out.update(self.counts)
        return out
