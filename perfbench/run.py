"""colorperm benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-n6k2 --seed 1 --seconds 28 --trace 0

Each workload is one `colorperm` command on an instance generated from
--seed. Every execution runs in a fresh child interpreter (child.py) with
jobs=1, COLORPERM_JOBS cleared and one BLAS thread; its peak RSS comes
from os.wait4 on that child alone. Executions repeat until the next one
would overrun --seconds (at least MIN_TIMED of them), and the medians are
reported. With --trace 1 traced and untraced executions alternate; the
traced ones (tracer.py) give the per-layer metrics, the untraced ones the
tracing overhead.

Every execution passes the correctness gate or counts as failed: exit
code 0, output bytes identical to the first execution's, the oracle
figures equal to an independent enumeration (gen.oracle), and the best
assignment accepted by the reference scan and re-scored by the scalar
objective. Results, instance digests and the full trace go to
perfbench/out/<workload>-s<seed>-trace<t>.json; the last stdout line is
the JSON summary.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_TIMED = 3
CHILD_TIMEOUT_S = 60
SCORE_TOL = 1e-9
BLAS_THREADS = 1

sys.path.insert(0, str(HERE))
import gen  # noqa: E402


@dataclass(frozen=True)
class Workload:
    demands: tuple  # one small integer per customer
    K: int
    argv: tuple
    # Gate on the verdict counts of a traced execution (PaddingLeak == 0).
    no_padding_leak: bool = False
    # In traced runs, also compare a --jobs 2 execution's bytes.
    jobs_parity: bool = False


# Why each workload exists is in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    "sweep-n6k2": Workload((1, 1, 2, 2, 3, 4), 2, ("solve", "--grid-points", "2")),
    "sweep-n4k3-binary": Workload(
        (1, 2, 3, 4), 3, ("solve", "--register", "binary", "--grid-points", "6"),
        no_padding_leak=True, jobs_parity=True,
    ),
    "brute-n9k2": Workload((1, 1, 1, 2, 2, 3, 3, 4, 4), 2, ("brute",)),
}


class GateError(Exception):
    """An execution whose outputs fail the correctness gate."""


def child_env():
    env = dict(os.environ)
    env.pop("COLORPERM_JOBS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def execute(argv, workdir, trace):
    """Run one command in a fresh child; return its record plus peak RSS."""
    workdir.mkdir(parents=True)
    result = workdir / "child.json"
    spec = json.dumps({"argv": list(argv), "trace": trace, "result": str(result)})
    with open(workdir / "child.log", "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), spec, repr(start)],
            cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result.exists():
        tail = (workdir / "child.log").read_text(errors="replace")[-400:]
        raise GateError(f"exit code {proc.returncode}: {tail.strip()}")
    record = json.loads(result.read_text())
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return record


def digests(out_json, jobs):
    """sha256 and size of the JSON output and of any CSVs beside it. The
    outputs echo the resolved config, so a --jobs N run's echo is read as
    jobs=1 before hashing; every other byte must match."""
    base = str(out_json)[: -len(".json")]
    found = {}
    for path in [out_json] + [pathlib.Path(base + s) for s in (".grid.csv", ".hist.csv")]:
        if path.exists():
            data = path.read_bytes().replace(b'"jobs": %d' % jobs, b'"jobs": 1')
            found[path.name] = [hashlib.sha256(data).hexdigest(), len(data)]
    return found


class Gate:
    """Checks one execution's outputs against the reference functions and
    the independent optimum."""

    def __init__(self, wl, inst_path, raw):
        import colorperm

        self.cp = colorperm
        self.wl = wl
        self.inst = colorperm.load_instance(inst_path, K=wl.K)
        self.params = colorperm.EncodingParams.for_instance(self.inst)
        self.optimum, self.feasible_count = gen.oracle(raw)
        self.expected = None

    def _check_assignment(self, pairs_one_based, score, what):
        cp = self.cp
        a = cp.ColoredAssignment.from_pairs([tuple(p) for p in pairs_one_based], self.wl.K, one_based=True)
        if not cp.feasible_global_positions(cp.encode_assignment(a, self.params), self.inst).feasible:
            raise GateError(f"{what} fails the reference scan")
        rescored = cp.energy_objective(a, self.inst)
        if abs(rescored - score) > SCORE_TOL:
            raise GateError(f"{what} re-scores to {rescored!r}, reported {score!r}")

    def _check_oracle(self, cost, count):
        if cost is None or abs(cost - self.optimum) > SCORE_TOL:
            raise GateError(f"oracle optimum {cost!r} != independent {self.optimum!r}")
        if count != self.feasible_count:
            raise GateError(f"oracle count {count} != independent {self.feasible_count}")

    def check(self, out_json, record, jobs=1):
        """Raise GateError on a wrong output; return the quality figures."""
        found = digests(out_json, jobs)
        if self.expected is None:
            self.expected = found
        elif found != self.expected:
            raise GateError(f"output bytes (jobs={jobs}) differ from the first execution")
        doc = json.loads(out_json.read_text())
        trace = record.get("trace")
        if trace is not None and self.wl.no_padding_leak:
            if trace.get("feasibility.rejected.PaddingLeak", 0):
                raise GateError("PaddingLeak verdicts on the binary register")
        exact = doc["exact"]
        if self.wl.argv[0] == "brute":
            self._check_oracle(exact["optimal_cost"], exact["feasible_count"])
            if not exact["optimal_assignments"]:
                raise GateError("no optimal assignment reported")
            for pairs in exact["optimal_assignments"]:
                self._check_assignment(pairs, self.optimum, "optimal assignment")
            return {}
        self._check_oracle(exact["optimal_cost"], exact["feasible_count"])
        best = doc["result"]
        if best["best_assignment"] is None:
            raise GateError("no feasible sample")
        score = best["best_score"]
        self._check_assignment(best["best_assignment"], score, "best assignment")
        if score < self.optimum - SCORE_TOL:
            raise GateError(f"best score {score!r} beats the optimum {self.optimum!r}")
        with open(str(out_json)[: -len(".json")] + ".grid.csv", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        return {
            "quality.best_gap": (score - self.optimum) / self.optimum,
            "quality.p_star_max": max(float(r["p_star_exact"]) for r in rows),
        }


def layer_values(record, extra, output_bytes):
    """One traced execution's per-layer figures, derived ratios included."""
    values = dict(record["trace"])
    values.update(extra)
    rejected = sum(v for k, v in values.items() if k.startswith("feasibility.rejected."))
    seen = values.get("feasibility.accepted", 0) + rejected
    values["feasibility.accept_ratio"] = values.get("feasibility.accepted", 0) / seen if seen else 0.0
    values["cli.output_bytes"] = output_bytes
    return values


def per_layer(wanted, layers, traced, untraced):
    """Per-layer metrics: medians for times, exact repeats for the rest.
    Returns the metrics and a message for each figure that did not repeat."""
    metrics, unsteady = {}, []
    for m in wanted:
        values = [v.get(m["name"], 0) for v in layers]
        if m["name"] == "trace.overhead_s":
            value = statistics.median(r["run_s"] for r in traced) - statistics.median(
                r["run_s"] for r in untraced
            )
        elif m["unit"] == "s":
            value = statistics.median(values)
        else:
            value = values[0]
            if len(set(values)) > 1:
                unsteady.append(f"{m['name']} differs across traced executions: {values}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, unsteady


def run(workload, seed, seconds, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[workload]
    home = OUT / f"{workload}-s{seed}"
    shutil.rmtree(home, ignore_errors=True)
    home.mkdir(parents=True)

    raw = gen.generate(gen.instance_rng(seed, workload), wl.demands, wl.K)
    inst_path = home / f"{workload}-s{seed}-k{wl.K}.vrp"
    inst_path.write_text(gen.to_vrp(raw, inst_path.stem))
    gate = Gate(wl, inst_path, raw)
    rel_inst = str(inst_path.relative_to(ROOT))
    base_argv = [*wl.argv, "--instance", rel_inst, "--K", str(wl.K)]

    attempted = failed = 0
    errors = []
    timed, traced, layers = [], [], []
    extras = {}

    def one(index, traced_run, jobs=1, keep=True):
        nonlocal attempted, failed
        attempted += 1
        workdir = home / f"x{index}"
        out_json = workdir / "run.json"
        argv = [*base_argv, "--out", str(out_json.relative_to(ROOT))]
        if wl.argv[0] == "solve":
            argv += ["--jobs", str(jobs)]
        try:
            record = execute(argv, workdir, traced_run)
            quality = gate.check(out_json, record, jobs)
        except GateError as exc:
            failed += 1
            errors.append(f"execution {index}: {exc}")
            return
        extras.update(quality)
        if keep and traced_run:
            traced.append(record)
            size = sum(s for _, s in gate.expected.values())
            layers.append(layer_values(record, quality, size))
        elif keep:
            timed.append(record)
        shutil.rmtree(workdir)

    # Untimed checks first: the verdict counts the padding gate needs
    # (traced runs have them anyway) and the --jobs 2 byte parity.
    checks = []
    if wl.no_padding_leak and not trace:
        checks.append((True, 1))
    if wl.jobs_parity and trace:
        checks.append((False, 2))
    for index, (traced_run, jobs) in enumerate(checks):
        one(index, traced_run, jobs, keep=False)
    index = len(checks)
    start = time.monotonic()
    deadline = start + seconds
    while True:
        traced_turn = bool(trace) and (index - len(checks)) % 2 == 0
        t0 = time.monotonic()
        one(index, traced_turn)
        last = time.monotonic() - t0
        index += 1
        enough = len(traced) >= (2 if trace else 0) and len(timed) >= (1 if trace else MIN_TIMED)
        if time.monotonic() + last > deadline and (enough or failed):
            break

    metrics = {}
    if trace and traced and timed:
        metrics, unsteady = per_layer(spec["per_layer"], layers, traced, timed)
        if unsteady:
            failed += 1
            errors += unsteady
    elif not trace and timed:
        for m in spec["end_to_end"]:
            value = statistics.median(r[m["name"]] for r in timed)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = failed == 0 and bool(metrics)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "argv": base_argv,
        "instance_sha256": hashlib.sha256(inst_path.read_bytes()).hexdigest(),
        "oracle": {"optimum": gate.optimum, "feasible_count": gate.feasible_count},
        "output_digests": gate.expected,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "measure_s": time.monotonic() - start,
        "executions": {"untraced": timed, "traced": traced},
        "quality": extras,
        "errors": errors,
        "summary": result,
    }
    (OUT / f"{workload}-s{seed}-trace{trace}.json").write_text(json.dumps(report, indent=1) + "\n")
    shutil.rmtree(home)
    return result, errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "colorperm" / "cli.py").is_file():
        sys.stderr.write(f"error: no colorperm sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result, errors = run(args.workload, args.seed, args.seconds, args.trace)
    for err in errors:
        sys.stderr.write(f"gate: {err}\n")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
