"""Command-line surface: reproducible runs with CSV/JSON outputs.

Subcommands: solve (grid-sweep pipeline), brute (exhaustive oracle),
check (feasibility verdicts for bitstrings on stdin), bound (success-mass
report), encode / decode (codec round trips), bench (directory table).

Every output embeds the fully resolved configuration. Resolution order
is flags > config file (--config, a flat JSON object keyed by flag dest
names) > built-in defaults. Outputs carry no timestamps, so identical
configs reproduce identical bytes.

Exit codes: 0 success, 1 errors or an infeasible check stream, 2 missing
input file, 3 bound on an instance with no feasible configuration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import pathlib
import sys

from .analysis import envelope, fejer_bound, phase_profile
from .encoding import (
    REGISTERS,
    CodecError,
    ColoredAssignment,
    EncodingParams,
    assignment_label,
    compress,
    decode_bitstring,
    decompress,
    encode_assignment,
    grouped,
)
from .feasibility import decode_binary_and_check, feasible_global_positions
from .hamiltonian import CAP_MODES, EnergyModel, PenaltyWeights
from .instances import ROUNDING_MODES, ParseError, load_instance, qubit_counts
from .simulator import AmplitudeBudgetError
from .solver import (
    ENUMERATION_CEILING,
    GridSpec,
    SCORE_TOL,
    default_shots,
    exact_solve,
    phqc,
    phqc_histogram,
)

# dest -> (default, kind, help). The flag is "--" plus the dest with "_"
# written "-"; the kind is int, float, str, bool (a store_true switch) or a
# tuple of choices. Every command resolves and echoes every key.
_OPTIONS = {
    "instance": (None, str, "path to a .vrp or .json instance file"),
    "K": (None, int, "fleet size (default: a JSON record's \"K\", then a -k<d> filename token, then 2)"),
    "register": ("onehot", REGISTERS, None),
    "cap_mode": ("hinge", CAP_MODES, None),
    "rounding": ("exact", ROUNDING_MODES, None),
    "lam_once": (4.0, float, None),
    "lam_cap": (4.0, float, None),
    "lam_obj": (1.0, float, None),
    "lam_pad": (None, float, None),
    "seed": (7, int, None),
    "out": (None, str, "output file (default: stdout)"),
    "grid_points": (None, int, "points per grid axis (default S+1)"),
    "shots_rule": ("cubed", ("cubed", "fifty-cubed"), None),
    "shots": (None, int, "shots per grid point (overrides the rule)"),
    "depth": (1, int, "ansatz layers; bound replicates a single --beta this many times"),
    "jobs": (None, int, "worker pool size (default $COLORPERM_JOBS or 1)"),
    "score": ("objective", ("objective", "total"), None),
    "no_reference": (False, bool, "skip the exact oracle cross-check"),
    "skip_phqc": (False, bool, None),
    # a bench policy in S^n labels, not a memory ceiling (check_budget is)
    "phqc_budget": (4194304, int, "most S^n one-hot labels the sweep column will simulate, for either register"),
    "gamma": (None, float, "phase angle"),
    "beta": (None, str, "mixer angle, or a comma list for a schedule"),
    "pairs": (None, str, "comma list i:k, one-based by default"),
    "zero_based": (False, bool, None),
    "bits": (None, str, "one-hot or binary bitstring (spaces allowed)"),
    "dir": (None, str, "directory of .vrp/.json instance files"),
}


def _resolve(args, file_config):
    """flags > config file > defaults, for every key of _OPTIONS; refuses
    out-of-range run-wide settings."""
    cfg = {}
    given = set()
    for key, (default, _, _) in _OPTIONS.items():
        flag = getattr(args, key, None)
        if flag is not None and flag is not False:
            cfg[key] = flag
            given.add(key)
        elif key in file_config:
            cfg[key] = file_config[key]
            given.add(key)
        else:
            cfg[key] = default
    if cfg["jobs"] is None:
        env_jobs = os.environ.get("COLORPERM_JOBS", "1")
        try:
            cfg["jobs"] = int(env_jobs)
        except ValueError:
            raise ValueError(f"COLORPERM_JOBS must be an integer, not {env_jobs!r}") from None
    if cfg["jobs"] < 1:
        raise ValueError(f"jobs (--jobs, the config file or COLORPERM_JOBS) must be at least 1, not {cfg['jobs']}")
    for key, least in (("K", 1), ("shots", 1), ("grid_points", 1), ("depth", 1), ("seed", 0)):
        if cfg[key] is not None and cfg[key] < least:
            raise ValueError(f"{key} must be at least {least}, not {cfg[key]}")
    cfg["_given"] = given
    return cfg


def _read_config(path):
    """The --config file: a flat JSON object whose keys are flag dest
    names. Malformed JSON, a non-object, or an unknown key is an error."""
    with open(path) as fh:
        try:
            file_config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(file_config, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(file_config) - set(_OPTIONS))
    if unknown:
        raise ValueError(f"config file {path} has unknown keys: {', '.join(unknown)}")
    for key, value in sorted(file_config.items()):
        want = _config_type_error(key, value)
        if want:
            raise ValueError(f"config file {path}: {key} must be {want}, not {value!r}")
    return file_config


def _config_type_error(key, value):
    """What a config-file value should be when it does not fit its flag's
    kind, else None. A null stands for the default where the default is
    null; beta may also be a number."""
    default, kind, _ = _OPTIONS[key]
    if value is None and default is None:
        return None
    if isinstance(kind, tuple):
        return None if value in kind else "one of " + ", ".join(kind)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    fits, want = {
        int: (number and isinstance(value, int), "an integer"),
        float: (number, "a number"),
        bool: (isinstance(value, bool), "true or false"),
        str: (isinstance(value, str) or (key == "beta" and number), "a string"),
    }[kind]
    return None if fits else want


def _config_echo(cfg, command):
    """Resolved config embedded in every output. The output path itself
    is excluded: it never affects content, so identical configs yield
    byte-identical files wherever they are written."""
    return {"command": command, **{k: cfg[k] for k in _OPTIONS if k not in ("pairs", "bits", "out")}}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _write(text, out):
    """Write one output to the file `out`, or to stdout when there is none."""
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(record, out):
    _write(json.dumps(_jsonable(record), indent=2, sort_keys=True) + "\n", out)


def _csv_text(echo, header, rows):
    """A CSV table under its `# config` comment line."""
    buf = io.StringIO()
    buf.write("# config " + json.dumps(_jsonable(echo), sort_keys=True) + "\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _load(cfg):
    path = cfg["instance"]
    if path is None:
        raise FileNotFoundError("no instance given; use --instance")
    return load_instance(path, K=cfg["K"], rounding_mode=cfg["rounding"])


def _model(cfg, inst):
    weights = PenaltyWeights(
        lam_once=cfg["lam_once"],
        lam_cap=cfg["lam_cap"],
        lam_obj=cfg["lam_obj"],
        lam_pad=cfg["lam_pad"],
        cap_mode=cfg["cap_mode"],
    )
    return EnergyModel.for_instance(inst, weights, register=cfg["register"])


def _sweep(cfg, inst, model, exact):
    """The configured grid sweep, shared by solve and bench. Returns the
    grid, the PhqcResult and whether its best score matches the exact
    optimum (None without a reference)."""
    params = model.params
    grid = GridSpec.default(params, cfg["grid_points"])
    shots = cfg["shots"] if cfg["shots"] is not None else default_shots(params, cfg["shots_rule"])
    result = phqc(
        inst,
        model,
        grid,
        shots,
        cfg["seed"],
        depth=cfg["depth"],
        score=cfg["score"],
        jobs=cfg["jobs"],
        exact_reference=exact,
    )
    match = None
    if exact is not None:
        match = (
            result.best_score is not None
            and exact.optimal_cost is not None
            and abs(result.best_score - exact.optimal_cost) <= SCORE_TOL
        )
    return grid, result, match


def cmd_solve(cfg):
    inst = _load(cfg)
    model = _model(cfg, inst)
    params = model.params
    exact = None
    if not cfg["no_reference"] and inst.n <= ENUMERATION_CEILING:
        exact = exact_solve(inst, model)
    grid, result, match = _sweep(cfg, inst, model, exact)
    echo = _config_echo(cfg, "solve")
    record = {
        "config": echo,
        "instance": inst.name,
        "grid": {"gammas": list(grid.gammas), "betas": list(grid.betas)},
        "result": result.to_dict(),
    }
    if exact is not None:
        record["exact"] = {
            "optimal_cost": exact.optimal_cost,
            "feasible_count": exact.feasible_count,
        }
        record["match"] = match
    _emit_json(record, cfg["out"])
    if cfg["out"]:
        base = cfg["out"].removesuffix(".json")
        header = ["index", "gamma", "beta", "feasible_count", "optimal_hits", "p_star_exact", "share_above_baseline"]
        _write(_csv_text(echo, header, (rec.to_row() for rec in result.records)), base + ".grid.csv")
        hist = ([bits, count, repr(freq), repr(ratio)] for bits, count, freq, ratio in phqc_histogram(result, params))
        _write(_csv_text(echo, ["bitstring", "count", "frequency", "baseline_ratio"], hist), base + ".hist.csv")
    return 0


def cmd_brute(cfg):
    inst = _load(cfg)
    model = _model(cfg, inst)
    exact = exact_solve(inst, model)
    record = {
        "config": _config_echo(cfg, "brute"),
        "instance": inst.name,
        "exact": exact.to_dict(),
    }
    _emit_json(record, cfg["out"])
    return 0


def cmd_check(cfg, stream=None):
    inst = _load(cfg)
    checker = (
        feasible_global_positions if cfg["register"] == "onehot" else decode_binary_and_check
    )
    stream = stream if stream is not None else sys.stdin
    all_ok = True
    for line in stream:
        bits = line.strip()
        if not bits:
            continue
        try:
            record = checker(bits, inst).to_dict()
        except CodecError as exc:
            record = {"error": str(exc), "feasible": False}
        sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
        all_ok = all_ok and record["feasible"]
    return 0 if all_ok else 1


def _parse_betas(cfg):
    if cfg["beta"] is None:
        raise ValueError("bound needs --beta")
    betas = tuple(float(tok) for tok in str(cfg["beta"]).split(","))
    if len(betas) == 1 and cfg["depth"] > 1:
        betas = betas * cfg["depth"]
    return betas


def cmd_bound(cfg):
    inst = _load(cfg)
    model = _model(cfg, inst)
    params = model.params
    if cfg["gamma"] is None:
        raise ValueError("bound needs --gamma")
    betas = _parse_betas(cfg)
    exact = exact_solve(inst, model)
    if not exact.optimal_assignments:
        sys.stderr.write("no feasible configuration: the optimal set is empty\n")
        return 3
    # profile and envelope both cover the one-hot labels
    labels = exact.optimal_labels(params)
    profile = phase_profile(model, cfg["gamma"], labels)
    env = envelope(params, betas)
    report = fejer_bound(profile, env, labels, len(betas))
    record = {
        "config": _config_echo(cfg, "bound"),
        "instance": inst.name,
        "gamma": cfg["gamma"],
        "betas": list(betas),
        "optimal_cost": exact.optimal_cost,
        "optimal_labels": [int(z) for z in exact.optimal_labels(params, cfg["register"])],
        "report": report.to_dict(),
    }
    _emit_json(record, cfg["out"])
    return 0


def _parse_pairs(text):
    pairs = []
    for tok in text.split(","):
        left, _, right = tok.partition(":")
        pairs.append((int(left), int(right)))
    return pairs


def cmd_encode(cfg):
    if cfg["pairs"] is None:
        raise ValueError("encode needs --pairs like '1:1,3:2,2:1'")
    pairs = _parse_pairs(cfg["pairs"])
    one_based = not cfg["zero_based"]
    ks = [k for _, k in pairs]
    K = cfg["K"] if cfg["K"] is not None else max(ks) + (0 if one_based else 1)
    a = ColoredAssignment.from_pairs(pairs, K, one_based=one_based)
    p = EncodingParams(a.n, K)
    onehot = encode_assignment(a, p)
    binary = compress(onehot, p)
    record = {
        "config": _config_echo(cfg, "encode"),
        "pairs_one_based": [[i, k] for i, k in a.one_based()],
        "n": a.n,
        "K": K,
        "S": p.S,
        "q": p.q,
        "onehot": onehot,
        "onehot_grouped": grouped(onehot, p.S),
        "binary": binary,
        "binary_grouped": grouped(binary, p.q),
        "label_onehot": assignment_label(a, p),
        "label_binary": assignment_label(a, p, "binary"),
        "qubits": {"onehot": p.onehot_len, "binary": p.binary_len},
    }
    _emit_json(record, cfg["out"])
    return 0


def _detect_register(length, K, forced=None):
    """Infer (register, n) from a bitstring length and the fleet size."""
    if forced in (None, "onehot"):
        n = round(math.sqrt(length / K))
        if n >= 1 and n * n * K == length:
            return "onehot", n
        if forced == "onehot":
            raise CodecError(f"length {length} is not n^2*K for any n at K={K}")
    for n in range(1, 4096):
        q = EncodingParams(n, K).q
        if n * q == length and q > 0:
            return "binary", n
        if n * q > length:
            break
    raise CodecError(f"cannot infer a register from length {length} at K={K}")


def cmd_decode(cfg):
    if cfg["bits"] is None:
        raise ValueError("decode needs --bits")
    bits = cfg["bits"].replace(" ", "")
    K = cfg["K"] if cfg["K"] is not None else 2
    forced = cfg["register"] if "register" in cfg["_given"] else None
    register, n = _detect_register(len(bits), K, forced)
    p = EncodingParams(n, K)
    if register == "onehot":
        onehot = bits
        binary = compress(bits, p)
    else:
        onehot = decompress(bits, p)
        binary = bits
    a = decode_bitstring(onehot, p)
    record = {
        "config": _config_echo(cfg, "decode"),
        "detected_register": register,
        "n": n,
        "K": K,
        "pairs_one_based": [[i, k] for i, k in a.one_based()],
        "onehot": onehot,
        "binary": binary,
    }
    _emit_json(record, cfg["out"])
    return 0


def cmd_bench(cfg):
    if cfg["dir"] is None:
        raise ValueError("bench needs --dir")
    root = pathlib.Path(cfg["dir"])
    if not root.is_dir():
        raise FileNotFoundError(f"no such directory: {root}")
    files = sorted(
        [p for p in root.iterdir() if p.suffix.lower() in (".vrp", ".json")],
        key=lambda p: p.name,
    )
    echo = _config_echo(cfg, "bench")
    columns = [
        "instance",
        "n",
        "K",
        "onehot_qubits",
        "binary_qubits",
        "oracle_optimum",
        "phqc_best",
        "match",
        "error",
    ]
    rows = []
    for path in files:
        row = dict.fromkeys(columns, "")
        row["instance"] = path.stem
        try:
            inst = load_instance(path, K=cfg["K"], rounding_mode=cfg["rounding"])
            row["n"], row["K"] = inst.n, inst.K
            oh, bi = qubit_counts(inst.n, inst.K)
            row["onehot_qubits"], row["binary_qubits"] = oh, bi
            model = _model(cfg, inst)
            exact = None
            if inst.n <= ENUMERATION_CEILING:
                exact = exact_solve(inst, model)
                if exact.optimal_cost is not None:
                    row["oracle_optimum"] = repr(exact.optimal_cost)
            if not cfg["skip_phqc"]:
                if model.params.dim("onehot") > cfg["phqc_budget"]:
                    row["phqc_best"] = "budget-exceeded"
                else:
                    _, result, match = _sweep(cfg, inst, model, exact)
                    if result.best_score is not None:
                        row["phqc_best"] = repr(result.best_score)
                        if match is not None:
                            row["match"] = "yes" if match else "no"
        except (ParseError, ValueError, AmplitudeBudgetError, OSError) as exc:
            row["error"] = str(exc)
        rows.append([row[c] for c in columns])
    _write(_csv_text(echo, columns, rows), cfg["out"])
    return 0


_COMMON = ("instance", "K", "register", "cap_mode", "rounding", "lam_once", "lam_cap", "lam_obj", "lam_pad", "seed", "out")
_SWEEP = ("grid_points", "shots_rule", "shots", "depth", "jobs", "score")

# command -> (handler, help, the dests of its flags); every command also
# takes --config
_COMMANDS = {
    "solve": (cmd_solve, "run the sampling pipeline over a parameter grid", _COMMON + _SWEEP + ("no_reference",)),
    "brute": (cmd_brute, "exhaustive classical optimum", _COMMON),
    "check": (cmd_check, "feasibility verdicts for bitstrings on stdin", _COMMON),
    "bound": (cmd_bound, "success-mass lower bound report", _COMMON + ("gamma", "beta", "depth")),
    "encode": (cmd_encode, "assignment pairs to bitstrings", _COMMON + ("pairs", "zero_based")),
    "decode": (cmd_decode, "bitstring to assignment pairs", _COMMON + ("bits",)),
    "bench": (cmd_bench, "table over a directory of instances", _COMMON + _SWEEP + ("dir", "skip_phqc", "phqc_budget")),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="colorperm",
        description="Colored-permutation routing encoder, simulator, and grid-sweep solver.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, about, dests) in _COMMANDS.items():
        sub = subs.add_parser(command, help=about)
        sub.add_argument("--config", help="JSON file of default flag values")
        for dest in dests:
            _, kind, text = _OPTIONS[dest]
            if kind is bool:
                spec = {"action": "store_true"}
            else:
                spec = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            sub.add_argument("--" + dest.replace("_", "-"), help=text, **spec)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_config = _read_config(args.config) if args.config else {}
        cfg = _resolve(args, file_config)
        return _COMMANDS[args.command][0](cfg)
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ParseError, CodecError, AmplitudeBudgetError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
