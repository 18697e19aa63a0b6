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

_DEFAULTS = {
    "K": None,
    "register": "onehot",
    "cap_mode": "hinge",
    "rounding": "exact",
    "lam_once": 4.0,
    "lam_cap": 4.0,
    "lam_obj": 1.0,
    "lam_pad": None,
    "grid_points": None,
    "shots_rule": "cubed",
    "shots": None,
    "seed": 7,
    "depth": 1,
    "jobs": None,
    "score": "objective",
    "no_reference": False,
    "skip_phqc": False,
    # a bench policy in S^n labels, not a memory ceiling (check_budget is)
    "phqc_budget": 4194304,
    "gamma": None,
    "beta": None,
    "pairs": None,
    "bits": None,
    "zero_based": False,
    "instance": None,
    "dir": None,
    "out": None,
}

# Value types of config-file keys, as their flags parse them; every
# other key is a string (beta may also be a number).
_INT_KEYS = ("K", "shots", "seed", "depth", "jobs", "grid_points", "phqc_budget")
_NUMBER_KEYS = ("lam_once", "lam_cap", "lam_obj", "lam_pad", "gamma")
_BOOL_KEYS = ("no_reference", "skip_phqc", "zero_based")
_CHOICES = {
    "register": REGISTERS,
    "cap_mode": CAP_MODES,
    "rounding": ROUNDING_MODES,
    "shots_rule": ("cubed", "fifty-cubed"),
    "score": ("objective", "total"),
}


def _resolve(args, file_config):
    """flags > config file > defaults, for every key the command knows."""
    cfg = {}
    given = set()
    for key, default in _DEFAULTS.items():
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
    unknown = sorted(set(file_config) - set(_DEFAULTS))
    if unknown:
        raise ValueError(f"config file {path} has unknown keys: {', '.join(unknown)}")
    for key, value in sorted(file_config.items()):
        want = _config_type_error(key, value)
        if want:
            raise ValueError(f"config file {path}: {key} must be {want}, not {value!r}")
    return file_config


def _config_type_error(key, value):
    """What a config-file value should be when it does not fit its flag,
    else None. A null stands for the default where the default is null."""
    if value is None and _DEFAULTS[key] is None:
        return None
    if key in _CHOICES:
        return None if value in _CHOICES[key] else "one of " + ", ".join(_CHOICES[key])
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if key in _INT_KEYS:
        return None if number and isinstance(value, int) else "an integer"
    if key in _NUMBER_KEYS:
        return None if number else "a number"
    if key in _BOOL_KEYS:
        return None if isinstance(value, bool) else "true or false"
    return None if isinstance(value, str) or (key == "beta" and number) else "a string"


def _config_echo(cfg, command):
    """Resolved config embedded in every output. The output path itself
    is excluded: it never affects content, so identical configs yield
    byte-identical files wherever they are written."""
    echo = {"command": command}
    for key in sorted(_DEFAULTS):
        if key in ("pairs", "bits", "out"):
            continue
        echo[key] = cfg[key]
    return echo


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _emit_json(record, out):
    text = json.dumps(_jsonable(record), indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_comment(echo):
    return "# config " + json.dumps(_jsonable(echo), sort_keys=True)


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
        base = cfg["out"][:-5] if cfg["out"].endswith(".json") else cfg["out"]
        _write_grid_csv(base + ".grid.csv", echo, result)
        _write_hist_csv(base + ".hist.csv", echo, result, params)
    return 0


def _write_grid_csv(path, echo, result):
    with open(path, "w", newline="") as fh:
        fh.write(_config_comment(echo) + "\n")
        writer = csv.writer(fh)
        writer.writerow(
            [
                "index",
                "gamma",
                "beta",
                "feasible_count",
                "optimal_hits",
                "p_star_exact",
                "share_above_baseline",
            ]
        )
        for rec in result.records:
            writer.writerow(rec.to_row())


def _write_hist_csv(path, echo, result, params):
    with open(path, "w", newline="") as fh:
        fh.write(_config_comment(echo) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["bitstring", "count", "frequency", "baseline_ratio"])
        for bits, count, freq, ratio in phqc_histogram(result, params):
            writer.writerow([bits, count, repr(freq), repr(ratio)])


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
            verdict = checker(bits, inst)
            sys.stdout.write(json.dumps(verdict.to_dict(), sort_keys=True) + "\n")
            all_ok = all_ok and verdict.feasible
        except CodecError as exc:
            sys.stdout.write(
                json.dumps({"error": str(exc), "feasible": False}, sort_keys=True) + "\n"
            )
            all_ok = False
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
    if cfg["depth"] < 1:
        raise ValueError(f"depth must be at least 1, not {cfg['depth']}")
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
    if K < 1:
        raise ValueError(f"K must be at least 1, not {K}")
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
    buf = io.StringIO()
    buf.write(_config_comment(echo) + "\n")
    writer = csv.writer(buf)
    writer.writerow(columns)
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
        writer.writerow([row[c] for c in columns])
    text = buf.getvalue()
    if cfg["out"]:
        with open(cfg["out"], "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _add_common(sub):
    sub.add_argument("--instance", help="path to a .vrp or .json instance file")
    sub.add_argument("--K", type=int, help="fleet size (default: a JSON record's \"K\", then a -k<d> filename token, then 2)")
    sub.add_argument("--register", choices=_CHOICES["register"])
    sub.add_argument("--cap-mode", dest="cap_mode", choices=_CHOICES["cap_mode"])
    sub.add_argument("--rounding", choices=_CHOICES["rounding"])
    sub.add_argument("--lam-once", dest="lam_once", type=float)
    sub.add_argument("--lam-cap", dest="lam_cap", type=float)
    sub.add_argument("--lam-obj", dest="lam_obj", type=float)
    sub.add_argument("--lam-pad", dest="lam_pad", type=float)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--config", help="JSON file of default flag values")
    sub.add_argument("--out", help="output file (default: stdout)")


def _add_sweep(sub):
    sub.add_argument("--grid-points", dest="grid_points", type=int, help="points per grid axis (default S+1)")
    sub.add_argument("--shots-rule", dest="shots_rule", choices=_CHOICES["shots_rule"])
    sub.add_argument("--shots", type=int, help="shots per grid point (overrides the rule)")
    sub.add_argument("--depth", type=int)
    sub.add_argument("--jobs", type=int, help="worker pool size (default $COLORPERM_JOBS or 1)")
    sub.add_argument("--score", choices=_CHOICES["score"])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="colorperm",
        description="Colored-permutation routing encoder, simulator, and grid-sweep solver.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("solve", help="run the sampling pipeline over a parameter grid")
    _add_common(p)
    _add_sweep(p)
    p.add_argument("--no-reference", dest="no_reference", action="store_true",
                   help="skip the exact oracle cross-check")

    p = subs.add_parser("brute", help="exhaustive classical optimum")
    _add_common(p)

    p = subs.add_parser("check", help="feasibility verdicts for bitstrings on stdin")
    _add_common(p)

    p = subs.add_parser("bound", help="success-mass lower bound report")
    _add_common(p)
    p.add_argument("--gamma", type=float, help="phase angle")
    p.add_argument("--beta", help="mixer angle, or a comma list for a schedule")
    p.add_argument("--depth", type=int, help="replicate a single --beta this many times")

    p = subs.add_parser("encode", help="assignment pairs to bitstrings")
    _add_common(p)
    p.add_argument("--pairs", help="comma list i:k, one-based by default")
    p.add_argument("--zero-based", dest="zero_based", action="store_true")

    p = subs.add_parser("decode", help="bitstring to assignment pairs")
    _add_common(p)
    p.add_argument("--bits", help="one-hot or binary bitstring (spaces allowed)")

    p = subs.add_parser("bench", help="table over a directory of instances")
    _add_common(p)
    _add_sweep(p)
    p.add_argument("--dir", help="directory of .vrp/.json instance files")
    p.add_argument("--skip-phqc", dest="skip_phqc", action="store_true")
    p.add_argument("--phqc-budget", dest="phqc_budget", type=int,
                   help="most S^n one-hot labels the sweep column will simulate, for either register")
    return parser


_COMMANDS = {
    "solve": cmd_solve,
    "brute": cmd_brute,
    "check": cmd_check,
    "bound": cmd_bound,
    "encode": cmd_encode,
    "decode": cmd_decode,
    "bench": cmd_bench,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_config = _read_config(args.config) if getattr(args, "config", None) else {}
        cfg = _resolve(args, file_config)
        return _COMMANDS[args.command](cfg)
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ParseError, CodecError, AmplitudeBudgetError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
