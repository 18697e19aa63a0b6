"""Byte parity of every CLI output between two source trees.

Run from the repository root, with two checkouts of this repository (for
example a `git archive` of the parent commit and the working tree):

    python -m tests.parity PARENT_TREE CHANGE_TREE

Each case runs once with each tree's `src` on PYTHONPATH, one process at a
time, in a fresh directory of its own, on the same instance files. Every
file a run writes, its stdout, its stderr and its exit code must be equal
byte for byte (`filecmp` in shallow=False mode, as `cmp` compares). The
script prints one line per case, with both runs' wall times, and exits 1
when any case differs. Its name does not match `test_*.py`, so pytest does
not collect it.

The cases are the run list of ROADMAP item 4 (the perfbench sweep-n6k2
and sweep-n4k3-binary instances at seeds 3 and 11, `--jobs` 1 and 2,
depths 1 and 2; demo-n4-k2 and n5k3 on their default grids; n = 5, K = 5
at `--grid-points 4`; n = 6 under `--shots-rule fifty-cubed`; n = 7 at
`--grid-points 2`), `check`, `brute` and `bench` in both registers,
`--register binary --cap-mode quadratic-surrogate --score total` on
demo-n4-k2 and n5k3, `bound` in both registers at a one-angle and a
two-angle `--beta`, `encode` and `decode` in both registers, and binary
`solve` and `brute` on demo-n4-k2 at `--lam-pad 1e308`. The n = 7 case
peaks near 1.5 GiB. Against a tree whose binary model counts padded
words in its energy bound, the two `--lam-pad 1e308` cases differ: there
they exit 1 with "energies past float range".
"""

from __future__ import annotations

import filecmp
import itertools
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent / "data"
# perfbench's workloads: (demands, K, solve flags); gen.generate and
# gen.to_vrp make their instance files
SWEEPS = {
    "sweep-n6k2": ((1, 1, 2, 2, 3, 4), 2, ("--grid-points", "2")),
    "sweep-n4k3-binary": ((1, 2, 3, 4), 3, ("--register", "binary", "--grid-points", "6")),
}
# the ROADMAP baseline's generated instances: (generator seed, name, demands, K)
GENERATED = [(11, "n7", (1, 1, 2, 2, 3, 3, 4), 2), (11, "n5k5", (1, 2, 3, 4, 5), 5)]


def instances(tree, into):
    """Every instance file the cases read, written into `into` from the
    generator in `tree`'s perfbench, or copied from tests/data."""
    sys.path.insert(0, str(Path(tree) / "perfbench"))
    import gen

    paths = {"demo": DATA / "demo-n4-k2.vrp", "n5k3": DATA / "n5k3" / "n5-k3.vrp", "n6": DATA / "n6" / "n6-k2.vrp"}
    for (name, (demands, K, _)), seed in itertools.product(SWEEPS.items(), (3, 11)):
        raw = gen.generate(gen.instance_rng(seed, name), demands, K)
        paths[f"{name}-s{seed}"] = into / f"{name}-s{seed}-k{K}.vrp"
        paths[f"{name}-s{seed}"].write_text(gen.to_vrp(raw, paths[f"{name}-s{seed}"].stem))
    for seed, name, demands, K in GENERATED:
        paths[name] = into / f"{name}-k{K}.vrp"
        paths[name].write_text(gen.to_vrp(gen.generate(gen.instance_rng(seed, name), demands, K), f"{name}-k{K}"))
    bench = into / "bench"
    bench.mkdir()
    for name in ("demo", "sweep-n4k3-binary-s11"):
        (bench / paths[name].name).write_bytes(paths[name].read_bytes())
    paths["bench"] = bench
    return paths


def bitstrings(n, K, register, seed=0):
    """`check` input: random symbol words as one-hot blocks or q-bit words
    (padded ones among them when S is not a power of two), random bit rows,
    and rows of a wrong length and alphabet, one per line."""
    rng = np.random.default_rng(seed)
    S, q = n * K, (n * K - 1).bit_length()
    width = n * S if register == "onehot" else n * q
    rows = []
    for digits in rng.integers(0, S if register == "onehot" else 1 << q, (150, n)):
        if register == "onehot":
            rows.append("".join("0" * d + "1" + "0" * (S - 1 - d) for d in digits))
        else:
            rows.append("".join(format(d, f"0{q}b") for d in digits))
    rows += ["".join(map(str, bits)) for bits in rng.integers(0, 2, (20, width))]
    rows += ["1" * (width + 1), "2" * width, " ".join(rows[0][i : i + 4] for i in range(0, width, 4))]
    return "".join(row + "\n" for row in rows)


def cases(paths):
    """(name, argv, stdin text) of every case."""
    out = ("--out", "run.json")
    for (name, (_, K, flags)), seed, jobs, depth in itertools.product(SWEEPS.items(), (3, 11), (1, 2), (1, 2)):
        argv = ["solve", "--instance", str(paths[f"{name}-s{seed}"]), "--K", str(K), *flags]
        yield f"{name}-s{seed}-jobs{jobs}-depth{depth}", argv + ["--jobs", str(jobs), "--depth", str(depth), *out], None
    yield "demo-default", ["solve", "--instance", str(paths["demo"]), *out], None
    yield "n5k3-default", ["solve", "--instance", str(paths["n5k3"]), *out], None
    yield "n5k5-points4", ["solve", "--instance", str(paths["n5k5"]), "--grid-points", "4", *out], None
    yield "n6-fifty-cubed", ["solve", "--instance", str(paths["n6"]), "--shots-rule", "fifty-cubed", *out], None
    yield "n7-points2", ["solve", "--instance", str(paths["n7"]), "--grid-points", "2", *out], None
    surrogate = ["--register", "binary", "--cap-mode", "quadratic-surrogate", "--score", "total"]
    for name in ("demo", "n5k3"):
        yield f"{name}-binary-surrogate-total", ["solve", "--instance", str(paths[name]), *surrogate, *out], None
    for register, (name, n, K) in itertools.product(("onehot", "binary"), (("demo", 4, 2), ("n5k3", 5, 3))):
        yield f"check-{name}-{register}", ["check", "--instance", str(paths[name]), "--register", register], bitstrings(n, K, register)
        yield f"brute-{name}-{register}", ["brute", "--instance", str(paths[name]), "--register", register, *out], None
    for register in ("onehot", "binary"):
        yield f"bench-{register}", ["bench", "--dir", str(paths["bench"]), "--register", register, "--out", "bench.csv"], None
    for register, name, beta in itertools.product(("onehot", "binary"), ("demo", "n5k3"), ("0.9", "0.9,0.3")):
        argv = ["bound", "--instance", str(paths[name]), "--register", register, "--gamma", "0.4", "--beta", beta, *out]
        yield f"bound-{name}-{register}-beta{beta.count(',') + 1}", argv, None
    # demo-n4-k2's symbols 0, 5, 2, 7: customers 1, 2, 3, 4 on vehicles 1, 2, 1, 2
    words = {"onehot": "".join("0" * d + "1" + "0" * (7 - d) for d in (0, 5, 2, 7)), "binary": "000101010111"}
    for register in ("onehot", "binary"):
        yield f"encode-{register}", ["encode", "--pairs", "1:1,2:2,3:1,4:2", "--register", register, *out], None
        yield f"decode-{register}", ["decode", "--bits", words[register], "--K", "2", "--register", register, *out], None
    for command in ("solve", "brute"):
        yield f"{command}-demo-binary-lam-pad-1e308", [command, "--instance", str(paths["demo"]), "--register", "binary", "--lam-pad", "1e308", *out], None


def run(tree, argv, stdin, workdir):
    """Run one case in `workdir` on `tree`'s source: its exit code, stdout
    and stderr, and its wall time."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"), OPENBLAS_NUM_THREADS="1")
    env.pop("COLORPERM_JOBS", None)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "colorperm.cli", *argv], cwd=workdir, env=env, input=stdin or "", capture_output=True, text=True)
    return (done.returncode, done.stdout, done.stderr), time.perf_counter() - start


def differences(left, right, streams):
    """What differs between two runs' directories and their (exit code,
    stdout, stderr)."""
    found = [what for what, a, b in zip(("exit code", "stdout", "stderr"), *streams) if a != b]
    names = sorted(set(os.listdir(left)) | set(os.listdir(right)))
    for name in names:
        a, b = left / name, right / name
        if not (a.is_file() and b.is_file() and filecmp.cmp(a, b, shallow=False)):
            found.append(name)
    return found


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write("usage: python -m tests.parity PARENT_TREE CHANGE_TREE\n")
        return 2
    parent, change = argv
    failed = 0
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        tmp = Path(tmp)
        paths = instances(change, tmp)
        for name, command, stdin in cases(paths):
            dirs, streams, times = [], [], []
            for label, tree in (("parent", parent), ("change", change)):
                workdir = tmp / name / label
                workdir.mkdir(parents=True)
                result, seconds = run(tree, command, stdin, workdir)
                dirs.append(workdir)
                streams.append(result)
                times.append(seconds)
            found = differences(*dirs, streams)
            failed += bool(found)
            status = "same" if not found else "DIFFERS: " + ", ".join(found)
            print(f"{name}: exit {streams[1][0]}, {len(os.listdir(dirs[1]))} files, {times[0]:.2f} s / {times[1]:.2f} s, {status}", flush=True)
    print(f"{failed} case(s) differ" if failed else "every case is byte-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
