"""End-to-end command-line tests, run in process through main(argv).

File outputs land in tmp_path; stdout JSON is parsed back and compared
against the library calls the commands wrap.
"""

import argparse
import csv
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorperm import cli, hamiltonian, simulator, solver
from colorperm.cli import _COMMANDS, _OPTIONS, build_parser, main
from colorperm.instances import load_instance
from colorperm.simulator import AXIS_BYTES, BYTES_PER_AMPLITUDE, EDGE_BYTES, POINT_BYTES, SCHEDULE_BYTES
from tests.conftest import EXA_BINARY, EXA_LEGS, EXA_ONEHOT, EXA_W

NONCONTIG = "100000" + "000010" + "001000"


@pytest.fixture
def exa_json(tmp_path):
    record = {
        "W": np.asarray(EXA_W).tolist(),
        "d": [1, 1, 1],
        "Q": [3, 3],
        "dep_to": np.asarray(EXA_LEGS).tolist(),
        "to_dep": np.asarray(EXA_LEGS).tolist(),
    }
    path = tmp_path / "exa.json"
    path.write_text(json.dumps(record))
    return str(path)


@pytest.fixture
def starved_json(tmp_path):
    record = {
        "W": np.asarray(EXA_W).tolist(),
        "d": [1, 1, 1],
        "Q": [0, 0],
        "dep_to": np.asarray(EXA_LEGS).tolist(),
        "to_dep": np.asarray(EXA_LEGS).tolist(),
    }
    path = tmp_path / "starved.json"
    path.write_text(json.dumps(record))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_encode_golden(capsys):
    code, rec = run_json(capsys, ["encode", "--pairs", "1:1,2:2,3:2"])
    assert code == 0
    assert rec["onehot"] == EXA_ONEHOT
    assert rec["binary"] == EXA_BINARY
    assert rec["n"] == 3 and rec["K"] == 2
    assert rec["qubits"] == {"onehot": 18, "binary": 9}
    assert rec["onehot_grouped"] == "100000 000010 000001"
    assert rec["config"]["command"] == "encode"
    assert "pairs" not in rec["config"]
    assert "out" not in rec["config"]


def test_encode_zero_based(capsys):
    code, rec = run_json(
        capsys, ["encode", "--pairs", "0:0,1:1,2:1", "--zero-based"]
    )
    assert code == 0
    assert rec["onehot"] == EXA_ONEHOT
    assert rec["pairs_one_based"] == [[1, 1], [2, 2], [3, 2]]


def test_encode_explicit_fleet(capsys):
    code, rec = run_json(capsys, ["encode", "--pairs", "1:1,2:2,3:2", "--K", "3"])
    assert code == 0
    assert rec["K"] == 3 and rec["S"] == 9
    assert rec["qubits"]["onehot"] == 27


def test_encode_bad_pairs(capsys):
    assert main(["encode", "--pairs", "abc"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(("pairs", "token"), [("1:1,2", "'2'"), ("1:1,,2:1", "''"), ("", "''"), ("1:x", "'1:x'")])
def test_encode_bad_pairs_names_the_token(capsys, pairs, token):
    assert main(["encode", "--pairs", pairs]) == 1
    assert capsys.readouterr().err == f"error: --pairs token {token} is not i:k, two integers like '1:1,3:2,2:1'\n"


@pytest.mark.parametrize(("beta", "token"), [("0.5,,0.7", "''"), ("", "''"), ("0.5,x", "'x'"), ("1:2", "'1:2'")])
def test_bound_bad_beta_names_the_token(capsys, exa_json, beta, token):
    assert main(["bound", "--instance", exa_json, "--gamma", "0.1", "--beta", beta]) == 1
    assert capsys.readouterr().err == f"error: --beta token {token} is not a number, like '0.5' or '0.9,1.1,0.3'\n"


def test_decode_onehot(capsys):
    code, rec = run_json(capsys, ["decode", "--bits", EXA_ONEHOT])
    assert code == 0
    assert rec["detected_register"] == "onehot"
    assert rec["n"] == 3
    assert rec["pairs_one_based"] == [[1, 1], [2, 2], [3, 2]]
    assert rec["binary"] == EXA_BINARY


def test_decode_binary_with_spaces(capsys):
    code, rec = run_json(capsys, ["decode", "--bits", "000 100 101"])
    assert code == 0
    assert rec["detected_register"] == "binary"
    assert rec["pairs_one_based"] == [[1, 1], [2, 2], [3, 2]]
    assert rec["onehot"] == EXA_ONEHOT


def test_decode_forced_register_mismatch(capsys):
    assert main(["decode", "--bits", EXA_BINARY, "--register", "onehot"]) == 1
    assert "error" in capsys.readouterr().err


def test_encode_decode_round_trip(capsys):
    code, enc = run_json(capsys, ["encode", "--pairs", "3:2,1:2,4:1,2:1"])
    assert code == 0
    code, dec = run_json(capsys, ["decode", "--bits", enc["onehot"]])
    assert code == 0
    assert dec["pairs_one_based"] == enc["pairs_one_based"]
    code, dec2 = run_json(capsys, ["decode", "--bits", enc["binary"]])
    assert code == 0
    assert dec2["pairs_one_based"] == enc["pairs_one_based"]


def test_check_stream_mixed(capsys, monkeypatch, exa_json):
    monkeypatch.setattr("sys.stdin", io.StringIO(EXA_ONEHOT + "\n" + NONCONTIG + "\n"))
    code = main(["check", "--instance", exa_json])
    lines = [json.loads(s) for s in capsys.readouterr().out.splitlines()]
    assert code == 1
    assert lines[0]["feasible"] is True
    assert lines[0]["loads"] == [1, 2]
    assert lines[1]["feasible"] is False
    assert lines[1]["reason"] == "NonContiguous"
    assert lines[1]["args"] == [0, 0, 2, 2]


def test_check_stream_all_feasible(capsys, monkeypatch, exa_json):
    monkeypatch.setattr("sys.stdin", io.StringIO(EXA_ONEHOT + "\n\n" + EXA_ONEHOT + "\n"))
    code = main(["check", "--instance", exa_json])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_check_binary_register(capsys, monkeypatch, exa_json):
    monkeypatch.setattr("sys.stdin", io.StringIO(EXA_BINARY + "\n111100101\n01\n"))
    code = main(["check", "--instance", exa_json, "--register", "binary"])
    lines = [json.loads(s) for s in capsys.readouterr().out.splitlines()]
    assert code == 1
    assert lines[0]["feasible"] is True
    assert lines[1]["reason"] == "PaddingLeak"
    assert "error" in lines[2] and lines[2]["feasible"] is False


@pytest.mark.parametrize(("register", "grouped"), [("onehot", "100000 000010 000001"), ("binary", "000 100 101")])
def test_check_accepts_the_grouped_form(capsys, monkeypatch, exa_json, register, grouped):
    # the *_grouped strings that encode prints
    monkeypatch.setattr("sys.stdin", io.StringIO(grouped + "\n"))
    assert main(["check", "--instance", exa_json, "--register", register]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"] is True


def test_solve_stdout_and_match(capsys, exa_json):
    code, rec = run_json(capsys, ["solve", "--instance", exa_json])
    assert code == 0
    assert rec["instance"] == "exa"
    assert rec["config"]["seed"] == 7
    assert rec["config"]["register"] == "onehot"
    assert rec["exact"]["feasible_count"] == 36
    assert rec["exact"]["optimal_cost"] == pytest.approx(92.06, abs=1e-9)
    assert rec["match"] is True
    assert rec["result"]["best_score"] == pytest.approx(92.06, abs=1e-9)
    assert rec["result"]["total_shots"] == 49 * 216
    assert len(rec["grid"]["gammas"]) == 7


def test_solve_no_reference(capsys, exa_json):
    code, rec = run_json(capsys, ["solve", "--instance", exa_json, "--no-reference"])
    assert code == 0
    assert "exact" not in rec and "match" not in rec


def test_solve_writes_three_files(tmp_path, exa_json):
    out = tmp_path / "run.json"
    code = main(
        ["solve", "--instance", exa_json, "--out", str(out), "--grid-points", "3", "--shots", "64"]
    )
    assert code == 0
    grid_csv = tmp_path / "run.grid.csv"
    hist_csv = tmp_path / "run.hist.csv"
    assert out.exists() and grid_csv.exists() and hist_csv.exists()
    rec = json.loads(out.read_text())
    assert rec["result"]["grid_points"] == 9
    lines = grid_csv.read_text().splitlines()
    assert lines[0].startswith("# config {")
    assert lines[1].split(",")[:3] == ["index", "gamma", "beta"]
    assert len(lines) == 2 + 9
    # the zero-angle point keeps the uniform optimal mass 4/216
    first = lines[2].split(",")
    assert float(first[5]) == pytest.approx(4 / 216, abs=1e-15)
    hist_lines = hist_csv.read_text().splitlines()
    assert hist_lines[1] == "bitstring,count,frequency,baseline_ratio"
    assert len(hist_lines) >= 3


def test_surrogate_total_score_judges_hits_and_match_on_the_objective(tmp_path, exa_json):
    # the surrogate's total carries lam_cap * sum (load - Q)^2 on feasible
    # labels too, so optimal hits and match read the objective instead
    hits = {}
    for score in ("total", "objective"):
        out = tmp_path / f"{score}.json"
        args = ["--cap-mode", "quadratic-surrogate", "--score", score, "--grid-points", "3", "--out", str(out)]
        assert main(["solve", "--instance", exa_json] + args) == 0
        rec = json.loads(out.read_text())
        assert rec["exact"]["optimal_cost"] == pytest.approx(92.06, abs=1e-9)
        assert rec["result"]["best_assignment"] == [[3, 1], [2, 1], [1, 1]]
        assert rec["match"] is True
        lines = (tmp_path / f"{score}.grid.csv").read_text().splitlines()[2:]
        hits[score] = [int(line.split(",")[4]) for line in lines]
    assert rec["result"]["best_score"] == pytest.approx(92.06, abs=1e-9)
    assert json.loads((tmp_path / "total.json").read_text())["result"]["best_score"] == pytest.approx(128.06, abs=1e-9)
    assert hits["total"] == hits["objective"] and sum(hits["total"]) > 0


def test_solve_deterministic_across_paths(tmp_path, exa_json):
    args = ["solve", "--instance", exa_json, "--grid-points", "3", "--shots", "64"]
    out1 = tmp_path / "a" / "run.json"
    out2 = tmp_path / "b" / "other.json"
    out1.parent.mkdir()
    out2.parent.mkdir()
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a" / "run.grid.csv").read_bytes() == (
        tmp_path / "b" / "other.grid.csv"
    ).read_bytes()
    assert (tmp_path / "a" / "run.hist.csv").read_bytes() == (
        tmp_path / "b" / "other.hist.csv"
    ).read_bytes()


def test_brute(capsys, exa_json):
    code, rec = run_json(capsys, ["brute", "--instance", exa_json])
    assert code == 0
    assert rec["exact"]["optimal_cost"] == pytest.approx(92.06, abs=1e-9)
    assert rec["exact"]["feasible_count"] == 36
    assert len(rec["exact"]["optimal_assignments"]) == 4


def test_missing_instance_file(capsys):
    assert main(["solve", "--instance", "/no/such/file.vrp"]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_instance_flag(capsys):
    assert main(["brute"]) == 2


def test_bound_report(capsys, exa_json):
    code, rec = run_json(
        capsys, ["bound", "--instance", exa_json, "--gamma", "0.05", "--beta", "0.9"]
    )
    assert code == 0
    rep = rec["report"]
    assert rep["p"] == 1
    assert rep["q0_lower"] <= rep["q0_exact_ref"] + 1e-12
    assert rep["M_p_delta"] <= rep["M_p_bound"] + 1e-12
    assert rec["optimal_cost"] == pytest.approx(92.06, abs=1e-9)
    assert len(rec["optimal_labels"]) == 4
    assert set(rep["required_shots"]) == {"0.90", "0.95", "0.99"}


def test_bound_beta_schedule(capsys, exa_json):
    code, rec = run_json(
        capsys,
        ["bound", "--instance", exa_json, "--gamma", "0.05", "--beta", "0.9,1.1,0.3"],
    )
    assert code == 0
    assert rec["betas"] == [0.9, 1.1, 0.3]
    assert rec["report"]["p"] == 3


def test_bound_depth_replicates_beta(capsys, exa_json):
    code, rec = run_json(
        capsys,
        ["bound", "--instance", exa_json, "--gamma", "0.05", "--beta", "0.9", "--depth", "2"],
    )
    assert code == 0
    assert rec["betas"] == [0.9, 0.9]


def test_bound_empty_optimal_set(capsys, starved_json):
    assert main(["bound", "--instance", starved_json, "--gamma", "0.1", "--beta", "0.5"]) == 3
    assert "no feasible" in capsys.readouterr().err


def test_bound_requires_angles(capsys, exa_json):
    assert main(["bound", "--instance", exa_json, "--beta", "0.5"]) == 1
    assert main(["bound", "--instance", exa_json, "--gamma", "0.1"]) == 1


def test_bench_skip_phqc(tmp_path, exa_json, demo_vrp_path):
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "exa.json").write_text(Path(exa_json).read_text())
    (bench_dir / "demo-n4-k2.vrp").write_text(Path(demo_vrp_path).read_text())
    out = tmp_path / "bench.csv"
    code = main(["bench", "--dir", str(bench_dir), "--skip-phqc", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config {")
    header = lines[1].split(",")
    assert header[:5] == ["instance", "n", "K", "onehot_qubits", "binary_qubits"]
    rows = {r.split(",")[0]: r.split(",") for r in lines[2:]}
    demo = rows["demo-n4-k2"]
    assert demo[1:5] == ["4", "2", "32", "12"]
    assert float(demo[5]) == pytest.approx(26.436336749198073, abs=1e-9)
    exa = rows["exa"]
    assert exa[1:5] == ["3", "2", "18", "9"]
    assert float(exa[5]) == pytest.approx(92.06, abs=1e-9)
    # sorted by file name
    assert list(rows) == sorted(rows)


def test_bench_with_sweep_and_budget(tmp_path, capsys, exa_json):
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "exa.json").write_text(Path(exa_json).read_text())
    code = main(
        ["bench", "--dir", str(bench_dir), "--grid-points", "5", "--shots", "216"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    row = lines[2].split(",")
    assert row[6] not in ("", "budget-exceeded")
    assert row[7] in ("yes", "no")
    # a budget below the register dimension suppresses the sweep column
    code = main(["bench", "--dir", str(bench_dir), "--phqc-budget", "100"])
    assert code == 0
    row = capsys.readouterr().out.splitlines()[2].split(",")
    assert row[6] == "budget-exceeded"
    assert row[7] == ""


def test_bench_error_row(tmp_path, capsys, exa_json):
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "exa.json").write_text(Path(exa_json).read_text())
    (bench_dir / "broken.vrp").write_text("NAME : broken\nCAPACITY : 5\nEOF\n")
    code = main(["bench", "--dir", str(bench_dir), "--skip-phqc"])
    assert code == 0
    import csv as _csv

    lines = capsys.readouterr().out.splitlines()
    rows = list(_csv.reader(lines[1:]))
    by_name = {r[0]: r for r in rows[1:]}
    assert "DIMENSION" in by_name["broken"][8]
    assert by_name["exa"][8] == ""


def test_bench_missing_dir(capsys, tmp_path):
    assert main(["bench", "--dir", str(tmp_path / "nope")]) == 2


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_an_out_file_in_a_missing_directory_exits_2_before_the_oracle(capsys, tmp_path, monkeypatch, exa_json, command):
    # the error line is the one opening the file would give, but no oracle
    # or sweep runs first
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle or the sweep ran before the --out directory was checked")

    monkeypatch.setattr(cli, "exact_solve", refuse)
    monkeypatch.setattr(cli, "phqc", refuse)
    out = tmp_path / "nope" / "run.json"
    source = ["--instance", exa_json] if command == "solve" else ["--dir", str(tmp_path)]
    assert main([command, *source, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
    assert not out.parent.exists()


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_an_out_that_is_a_directory_exits_1_before_the_oracle(capsys, tmp_path, monkeypatch, exa_json, command):
    # the error line is the one opening the directory would give
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle or the sweep ran before --out was checked")

    monkeypatch.setattr(cli, "exact_solve", refuse)
    monkeypatch.setattr(cli, "phqc", refuse)
    out = tmp_path / "out"
    out.mkdir()
    source = ["--instance", exa_json] if command == "solve" else ["--dir", str(tmp_path)]
    assert main([command, *source, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(out)!r}\n"
    assert not any(out.iterdir())


def test_config_file_precedence(tmp_path, capsys, exa_json):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"shots": 32, "seed": 3, "grid_points": 3}))
    code, rec = run_json(
        capsys, ["solve", "--instance", exa_json, "--config", str(config)]
    )
    assert code == 0
    assert rec["config"]["shots"] == 32
    assert rec["config"]["seed"] == 3
    assert rec["result"]["total_shots"] == 9 * 32
    # an explicit flag beats the file
    code, rec = run_json(
        capsys,
        ["solve", "--instance", exa_json, "--config", str(config), "--shots", "64"],
    )
    assert code == 0
    assert rec["config"]["shots"] == 64
    assert rec["result"]["total_shots"] == 9 * 64


def test_missing_config_file(capsys, exa_json):
    assert main(["solve", "--instance", exa_json, "--config", "/no/cfg.json"]) == 2


def test_jobs_env_var(capsys, monkeypatch, exa_json):
    monkeypatch.setenv("COLORPERM_JOBS", "2")
    code, rec = run_json(
        capsys, ["solve", "--instance", exa_json, "--grid-points", "3", "--shots", "64"]
    )
    assert code == 0
    assert rec["config"]["jobs"] == 2


def test_solve_binary_register_matches_onehot_best(capsys, exa_json):
    code, rec1 = run_json(
        capsys, ["solve", "--instance", exa_json, "--grid-points", "5", "--shots", "216"]
    )
    assert code == 0
    code, rec2 = run_json(
        capsys,
        [
            "solve",
            "--instance",
            exa_json,
            "--grid-points",
            "5",
            "--shots",
            "216",
            "--register",
            "binary",
        ],
    )
    assert code == 0
    assert rec1["match"] is True and rec2["match"] is True
    assert rec2["result"]["best_score"] == pytest.approx(
        rec1["result"]["best_score"], abs=1e-9
    )
    assert len(rec2["result"]["best_bitstring"]) == 9


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def _single_error_line(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and len(err.splitlines()) == 1


def test_jobs_env_var_not_an_integer(capsys, monkeypatch, exa_json):
    monkeypatch.setenv("COLORPERM_JOBS", "abc")
    assert main(["solve", "--instance", exa_json, "--shots", "16", "--grid-points", "2"]) == 1
    assert _single_error_line(capsys)


def _brute_record(tmp_path, record):
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))
    return main(["brute", "--instance", str(path)])


def test_object_close_legs_exit_with_one_error_line(tmp_path, capsys):
    assert _brute_record(tmp_path, {"W": [[0, 1], [1, 0]], "d": [1, 1], "Q": [2], "to_dep": {}}) == 1
    assert _single_error_line(capsys)


def test_object_distance_matrix_exits_with_one_error_line(tmp_path, capsys):
    assert _brute_record(tmp_path, {"W": {"a": 1}, "d": [1, 1], "Q": [2]}) == 1
    assert _single_error_line(capsys)


@pytest.mark.parametrize("field", ["W", "dep_to", "to_dep"])
@pytest.mark.parametrize(
    "value",
    [{"a": 1}, [1, {"a": 1}], None, True, [True, 1], ["1", 1], [10**400, 1]],
    ids=["object", "list-holding-an-object", "null", "bool", "list-holding-a-bool", "string", "past-float"],
)
def test_real_valued_field_that_is_no_real_exits_with_one_error_line(tmp_path, capsys, field, value):
    record = {"W": [[0, 1], [1, 0]], "d": [1, 1], "Q": [2], field: value}
    assert _brute_record(tmp_path, record) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be finite nonnegative numbers, not ") and len(err.splitlines()) == 1


def test_malformed_config_file(tmp_path, capsys, exa_json):
    config = tmp_path / "cfg.json"
    config.write_text('{"shots": 32,')
    assert main(["solve", "--instance", exa_json, "--config", str(config)]) == 1
    assert _single_error_line(capsys)


def test_config_file_not_an_object(tmp_path, capsys, exa_json):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps([["shots", 32]]))
    assert main(["solve", "--instance", exa_json, "--config", str(config)]) == 1
    assert _single_error_line(capsys)


def test_config_file_unknown_key(tmp_path, capsys, exa_json):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"shots": 32, "shot": 64}))
    assert main(["solve", "--instance", exa_json, "--config", str(config)]) == 1
    assert _single_error_line(capsys)


@pytest.mark.parametrize(
    "entry",
    [{"shots": "32"}, {"lam_once": "4.0"}, {"register": "dense"}],
    ids=["string-int", "string-float", "bad-choice"],
)
def test_config_file_value_types(tmp_path, capsys, exa_json, entry):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(entry))
    assert main(["solve", "--instance", exa_json, "--config", str(config)]) == 1
    assert _single_error_line(capsys)


def test_instance_path_is_a_directory(tmp_path, capsys):
    assert main(["brute", "--instance", str(tmp_path)]) == 1
    assert _single_error_line(capsys)


def test_config_path_is_a_directory(tmp_path, capsys, exa_json):
    assert main(["brute", "--instance", exa_json, "--config", str(tmp_path)]) == 1
    assert _single_error_line(capsys)


def test_out_path_is_a_directory(tmp_path, capsys, exa_json):
    assert main(["brute", "--instance", exa_json, "--out", str(tmp_path)]) == 1
    assert _single_error_line(capsys)


@pytest.mark.parametrize(
    "record",
    [["W", "d", "Q"], {"W": 5, "d": [1], "Q": [3]}],
    ids=["list", "scalar-W"],
)
def test_malformed_json_instance(tmp_path, capsys, record):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    assert main(["brute", "--instance", str(path)]) == 1
    assert _single_error_line(capsys)


def test_bound_binary_register_padded_alphabet(capsys, exa_json):
    # exA has S = 6, not a power of two: the binary register has padding
    from colorperm.encoding import digits_label, label_digits

    args = ["bound", "--instance", exa_json, "--gamma", "0.05", "--beta", "1.1", "--depth", "2"]
    code, onehot = run_json(capsys, args)
    assert code == 0
    code, binary = run_json(capsys, args + ["--register", "binary"])
    assert code == 0
    assert binary["report"] == onehot["report"]
    expect = [digits_label(label_digits(z, 3, 6), 8) for z in onehot["optimal_labels"]]
    assert binary["optimal_labels"] == expect


def test_solve_binary_grid_rows_equal_onehot(tmp_path, exa_json):
    rows = {}
    for register in ("onehot", "binary"):
        out = tmp_path / f"{register}.json"
        argv = ["solve", "--instance", exa_json, "--grid-points", "4", "--shots", "216"]
        assert main(argv + ["--register", register, "--out", str(out)]) == 0
        lines = (tmp_path / f"{register}.grid.csv").read_text().splitlines()
        assert lines[0].startswith("# config ")
        rows[register] = lines[1:]
    assert len(rows["binary"]) == 1 + 16
    assert rows["binary"] == rows["onehot"]


@pytest.mark.parametrize(
    "field, value",
    [("d", [1.5, 1, 1]), ("d", [None, 1, 1]), ("d", {"a": 1}), ("Q", [1e30])],
    ids=["fractional", "null", "object", "overflow"],
)
def test_malformed_instance_numbers(tmp_path, capsys, field, value):
    record = {"W": np.asarray(EXA_W).tolist(), "d": [1, 1, 1], "Q": [3, 3]}
    record[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    assert main(["brute", "--instance", str(path)]) == 1
    assert _single_error_line(capsys)


def test_overflowing_vrp_demand(tmp_path, capsys, demo_vrp_path):
    text = demo_vrp_path.read_text()
    lines = text.splitlines()
    at = lines.index("DEMAND_SECTION") + 2
    node = lines[at].split()[0]
    lines[at] = f"{node} 12345678901234567890"
    path = tmp_path / "big.vrp"
    path.write_text("\n".join(lines) + "\n")
    assert main(["brute", "--instance", str(path)]) == 1
    assert _single_error_line(capsys)


def _fleet_json(tmp_path, name, **extra):
    record = {"W": EXA_W, "d": [1, 1, 1], "Q": [2], "dep_to": EXA_LEGS, "to_dep": EXA_LEGS, **extra}
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return str(path), record


def _brute_fleet(capsys, argv, record, K):
    from colorperm.instances import from_matrices
    from colorperm.solver import exact_solve

    code, rec = run_json(capsys, ["brute", *argv])
    assert code == 0
    assert rec["exact"] == json.loads(json.dumps(exact_solve(from_matrices(record, K=K)).to_dict()))
    return {k for a in rec["exact"]["optimal_assignments"] for _, k in a}


def test_brute_reads_json_fleet_size(tmp_path, capsys):
    path, record = _fleet_json(tmp_path, "fleet-k2.json", K=3)
    assert _brute_fleet(capsys, ["--instance", path], record, 3) == {1, 2, 3}


def test_brute_fleet_flag_overrides_json_record(tmp_path, capsys):
    path, record = _fleet_json(tmp_path, "fleet.json", K=3)
    assert _brute_fleet(capsys, ["--instance", path, "--K", "2"], record, 2) == {1, 2}


def test_brute_json_without_fleet_reads_filename_token(tmp_path, capsys):
    path, record = _fleet_json(tmp_path, "fleet-k3.json")
    assert _brute_fleet(capsys, ["--instance", path], record, 3) == {1, 2, 3}


@pytest.mark.parametrize("K", ["3", 2.5, True, [3]], ids=["string", "fraction", "bool", "list"])
def test_json_fleet_size_not_an_integer(tmp_path, capsys, K):
    path, _ = _fleet_json(tmp_path, "fleet.json", K=K)
    assert main(["brute", "--instance", path]) == 1
    assert _single_error_line(capsys)


def test_json_non_finite_distances_exit_with_one_error_line(tmp_path, capsys):
    # json.loads reads Infinity as a float; the instance refuses it
    path = tmp_path / "inf.json"
    path.write_text(
        '{"W": [[0, Infinity, 1], [1, 0, 1], [1, 1, 0]], "d": [1, 1, 1], "Q": [2, 2],'
        ' "dep_to": [Infinity, Infinity, Infinity]}'
    )
    assert main(["brute", "--instance", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "finite" in err


def test_vrp_overflowing_distances_exit_with_one_error_line(tmp_path, capsys, demo_vrp_path):
    # 1e200 squared overflows, so the customer's distances come out inf
    text = Path(demo_vrp_path).read_text()
    assert "\n2 2 1\n" in text
    path = tmp_path / "far.vrp"
    path.write_text(text.replace("\n2 2 1\n", "\n2 1e200 1\n"))
    assert main(["brute", "--instance", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "finite" in err


@pytest.mark.parametrize(
    "argv, name",
    [(["brute", "--lam-obj", "inf"], "lam_obj"), (["brute", "--lam-obj", "nan"], "lam_obj"),
     (["solve", "--lam-once", "nan", "--grid-points", "2"], "lam_once"),
     (["brute", "--lam-pad", "inf"], "lam_pad")],
    ids=["brute-inf-obj", "brute-nan-obj", "solve-nan-once", "brute-inf-pad"],
)
def test_non_finite_weights_exit_with_one_error_line(capsys, exa_json, argv, name):
    assert main([*argv, "--instance", exa_json]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be a finite") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, name",
    [(["brute", "--lam-obj", "1e308"], "lam_obj=1e+308"),
     (["bound", "--lam-obj", "1e308", "--gamma", "0.1", "--beta", "0.2"], "lam_obj=1e+308"),
     *((["solve", f"--lam-{term}", "1e308", "--grid-points", "2"], f"lam_{term}=1e+308") for term in ("obj", "once", "cap")),
     (["solve", "--lam-obj", "2e306", "--grid-points", "2"], "gamma 3.141592653589793")],
    ids=["brute-obj", "bound-obj", "solve-obj", "solve-once", "solve-cap", "solve-gamma-times-obj"],
)
def test_weights_whose_energies_overflow_exit_with_one_error_line(capsys, monkeypatch, demo_vrp_path, argv, name):
    # refused where the model is built, or the sweep where it is admitted:
    # before the oracle and any row, not by numpy later
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle or the sweep ran before the weights were refused")

    monkeypatch.setattr(cli, "exact_solve", refuse)
    monkeypatch.setattr(cli, "phqc", refuse)
    assert main([*argv, "--instance", str(demo_vrp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and len(err.splitlines()) == 1


def test_finite_energies_run_where_no_gamma_takes_them_past_float_range(capsys, demo_vrp_path):
    # 2e306 leaves every energy finite; only a gamma above 0 overflows it
    assert main(["brute", "--lam-obj", "2e306", "--instance", str(demo_vrp_path)]) == 0
    assert main(["solve", "--lam-obj", "2e306", "--grid-points", "1", "--instance", str(demo_vrp_path)]) == 0
    capsys.readouterr()


def test_non_finite_config_weight_exits_with_one_error_line(tmp_path, capsys, exa_json):
    config = tmp_path / "cfg.json"
    config.write_text('{"lam_cap": NaN}')
    assert main(["brute", "--instance", exa_json, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: lam_cap must be a finite") and len(err.splitlines()) == 1


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_exit_with_one_error_line(capsys, monkeypatch, exa_json, tmp_path, jobs):
    out = tmp_path / "run.json"
    argv = ["solve", "--instance", exa_json, "--grid-points", "2", "--out", str(out)]
    assert main([*argv, "--jobs", jobs]) == 1
    assert _single_error_line(capsys)
    monkeypatch.setenv("COLORPERM_JOBS", jobs)
    assert main(argv) == 1
    assert _single_error_line(capsys)
    config = tmp_path / "cfg.json"
    config.write_text(f'{{"jobs": {jobs}}}')
    monkeypatch.delenv("COLORPERM_JOBS")
    assert main([*argv, "--config", str(config)]) == 1
    assert _single_error_line(capsys)
    assert not out.exists()


def test_bench_budget_counts_onehot_labels_of_a_binary_row(tmp_path, capsys, exa_json):
    # exa: 216 one-hot labels, 512 binary labels; a binary sweep holds the 216
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "exa.json").write_text(Path(exa_json).read_text())
    argv = ["bench", "--dir", str(bench_dir), "--register", "binary", "--grid-points", "3", "--shots", "216"]
    assert main([*argv, "--phqc-budget", "216"]) == 0
    row = capsys.readouterr().out.splitlines()[2].split(",")
    assert row[6] not in ("", "budget-exceeded")
    assert row[7] in ("yes", "no")
    assert main([*argv, "--phqc-budget", "215"]) == 0
    assert capsys.readouterr().out.splitlines()[2].split(",")[6] == "budget-exceeded"


@pytest.mark.parametrize("K", ["0", "-1"])
def test_decode_fleet_below_one_exits_with_one_error_line(capsys, K):
    assert main(["decode", "--bits", EXA_ONEHOT, "--K", K]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: K must be at least 1, not {K}") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [["--gamma", "nan", "--beta", "0.5"], ["--gamma=-inf", "--beta", "0.5"],
     ["--gamma", "0.1", "--beta", "inf"], ["--gamma", "0.1", "--beta", "0.5,nan"],
     ["--gamma", "0.1", "--beta", "0.5", "--depth", "0"], ["--gamma", "0.1", "--beta", "0.5", "--depth", "-2"]],
    ids=["nan-gamma", "inf-gamma", "inf-beta", "nan-beta-in-schedule", "depth-0", "depth-negative"],
)
def test_bound_refuses_non_finite_angles_and_depth_below_one(tmp_path, capsys, exa_json, argv):
    out = tmp_path / "bound.json"
    assert main(["bound", "--instance", exa_json, *argv, "--out", str(out)]) == 1
    assert _single_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "config",
    ['{"gamma": NaN, "beta": "0.5"}', '{"gamma": 0.1, "beta": Infinity}', '{"gamma": 0.1, "beta": 0.5, "depth": 0}'],
    ids=["nan-gamma", "inf-beta", "depth-0"],
)
def test_bound_config_refuses_non_finite_angles_and_depth_below_one(tmp_path, capsys, exa_json, config):
    path = tmp_path / "cfg.json"
    path.write_text(config)
    assert main(["bound", "--instance", exa_json, "--config", str(path)]) == 1
    assert _single_error_line(capsys)


@pytest.mark.parametrize(
    "flag, value, name",
    [("--seed", "-1", "seed"), ("--shots", "0", "shots"), ("--depth", "0", "depth"),
     ("--grid-points", "0", "grid_points"), ("--K", "0", "K")],
    ids=["seed", "shots", "depth", "grid-points", "K"],
)
def test_bench_refuses_out_of_range_settings_once(tmp_path, capsys, exa_json, flag, value, name):
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "exa.json").write_text(Path(exa_json).read_text())
    out = tmp_path / "bench.csv"
    assert main(["bench", "--dir", str(bench_dir), flag, value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {name} must be at least {0 if name == 'seed' else 1}, not {value}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "config", ['{"seed": -1}', '{"shots": 0}', '{"grid_points": -3}'], ids=["seed", "shots", "grid-points"]
)
def test_solve_refuses_out_of_range_settings_from_a_config_file(tmp_path, capsys, exa_json, config):
    path = tmp_path / "cfg.json"
    path.write_text(config)
    assert main(["solve", "--instance", exa_json, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {next(iter(json.loads(config)))} must be at least ")
    assert len(err.splitlines()) == 1


def test_solve_refuses_shots_past_a_64_bit_count(tmp_path, capsys, exa_json):
    out = tmp_path / "run.json"
    assert main(["solve", "--instance", exa_json, "--shots", str(2**63), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: shots must be below 2**63, not {2**63}\n"
    assert not out.exists()
    assert main(["solve", "--instance", exa_json, "--shots", "99999999999999999999", "--grid-points", "1"]) == 1
    assert _single_error_line(capsys)


@pytest.mark.parametrize(
    "command, layers_per_depth, head, points, flag",
    [
        (["solve", "--grid-points", "3", "--shots", "4"], 3, 108, 3, "--depth"),
        (["bound", "--gamma", "0.1", "--beta", "0.5"], 1, 216, 0, "--depth"),
        (["bound", "--gamma", "0.1"], 1, 216, 0, "--beta"),
    ],
    ids=["solve", "bound", "bound-beta-list"],
)
def test_depth_whose_schedules_pass_the_budget_is_refused_in_one_line(tmp_path, capsys, monkeypatch, exa_json, command, layers_per_depth, head, points, flag):
    # exA's 216 one-hot labels, of which a sweep's table and factor hold the
    # 108 its interchangeable vehicles leave, its 6 x 6 edge matrix, ten
    # layers of each schedule the run holds, and a sweep's two axes of
    # `points` points and its points**2 grid points; a --beta list of ten
    # angles holds ten layers, as --depth 10 does
    labels = BYTES_PER_AMPLITUDE * 216 - (simulator.TABLE_BYTES + simulator.FACTOR_BYTES) * (216 - head)
    grid = AXIS_BYTES * 2 * points + POINT_BYTES * points**2
    budget = labels + EDGE_BYTES * 36 + SCHEDULE_BYTES * layers_per_depth * 10 + grid
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", budget)
    out = tmp_path / "run.json"
    argv = [command[0], "--instance", exa_json, *command[1:], "--out", str(out)]

    def schedule(layers):
        return [flag, str(layers) if flag == "--depth" else ",".join(["0.5"] * layers)]

    assert main(argv + schedule(10)) == 0
    out.unlink()
    assert main(argv + schedule(11)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a onehot run on 216 labels and ") and "over the memory budget" in err
    assert len(err.splitlines()) == 1 and not out.exists()


def rows_held(monkeypatch):
    """Record the labels each sweep row's factor holds, and a copy of each
    distribution it yields with its schedule."""
    held, dists = [], []

    def row(params, parts, schedules, head):
        held.append(head)
        for schedule, probs in zip(schedules, simulator.evolve_row(params, parts, schedules, head)):
            dists.append((schedule, probs.copy()))
            yield probs

    monkeypatch.setattr(solver, "evolve_row", row)
    return held, dists


def off_mirror_parts(model):
    """exA's parts one ulp off their mirror: the last pair of multisets, all
    on vehicle 2, against those on vehicle 1."""
    built = hamiltonian.table_parts(model)
    pair = built.pair.copy()
    pair[-1, -1] = np.nextafter(pair[-1, -1], np.inf)
    return dataclasses.replace(built, pair=pair)


def test_a_head_charged_table_that_is_not_mirrored_is_charged_every_label(tmp_path, monkeypatch, exa_json):
    # exA is first charged its head; parts off their mirror cannot keep it,
    # so the admission charges the sweep on every label and, admitted, each
    # row holds its factor on all of them
    monkeypatch.setattr(solver, "table_parts", off_mirror_parts)
    held, _ = rows_held(monkeypatch)
    out = tmp_path / "run.json"
    assert main(["solve", "--instance", exa_json, "--grid-points", "2", "--out", str(out)]) == 0
    assert held == [216, 216] and out.exists()


def test_a_head_charged_table_that_is_not_mirrored_is_refused_in_one_line(tmp_path, capsys, monkeypatch, exa_json):
    # a budget one byte below the charge on every label, and above the head's
    # (two layers in one thread, the table's and the factor's bytes left out
    # on the 108 labels past the head, and a 2 x 2 grid): check_budget's line
    # is the one refusal, and the oracle never runs
    monkeypatch.setattr(solver, "table_parts", off_mirror_parts)
    held, _ = rows_held(monkeypatch)
    oracle = []
    monkeypatch.setattr(cli, "exact_solve", lambda *args: oracle.append(args))
    need = BYTES_PER_AMPLITUDE * 216 + SCHEDULE_BYTES * 2 + EDGE_BYTES * 36 + AXIS_BYTES * 4 + POINT_BYTES * 4
    assert need - (simulator.TABLE_BYTES + simulator.FACTOR_BYTES) * 108 < need - 1
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", need - 1)
    out = tmp_path / "run.json"
    assert main(["solve", "--instance", exa_json, "--grid-points", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: a onehot run on 216 labels and 2 schedule layers in 1 thread, with its 6 x 6 edge matrix,"
        f" needs about {need} bytes, over the memory budget of {need - 1} bytes\n"
    )
    assert held == [] and oracle == [] and not out.exists()


def test_capacity_penalties_past_2_53_that_miss_their_mirror_still_run(tmp_path, monkeypatch):
    # demands near 10^12 (their total below 2**53) on K = 3 vehicles of one
    # capacity: the squared overloads round differently when the vehicles
    # add in reversed order, so the parts miss their mirror and every row
    # holds its factor on all 729 labels, to run_ansatz's distributions; the
    # admission charges the head of two vehicles' 486 labels, then all 729
    path = tmp_path / "k3.json"
    record = {"W": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "d": [1259697105427, 2103708207250, 552261955215], "Q": [862918], "K": 3}
    path.write_text(json.dumps(record))
    model = hamiltonian.EnergyModel.for_instance(load_instance(path))
    params = model.params
    charged = []

    def charge(*args):
        charged.append(args[4])
        return simulator.check_budget(*args)

    monkeypatch.setattr(solver, "check_budget", charge)
    held, dists = rows_held(monkeypatch)
    assert main(["solve", "--instance", str(path), "--grid-points", "3", "--out", str(tmp_path / "run.json")]) == 0
    assert charged == [486, 729] and held == [729] * 3 and len(dists) == 9
    for schedule, probs in dists:
        assert probs.tobytes() == simulator.exact_distribution(simulator.run_ansatz(params, model, schedule)).tobytes()


def test_solve_charges_the_edge_matrix_before_the_energy_table(tmp_path, capsys, monkeypatch):
    # one customer on K = 20 vehicles: 20 labels, but a 20 x 20 edge matrix
    K = 20
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"W": [[0]], "d": [1], "Q": [1] * K, "K": K}))

    def no_table(*args, **kwargs):
        raise AssertionError("the energy table was built before the budget check")

    monkeypatch.setattr(solver, "table_parts", no_table)
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", EDGE_BYTES * K**2 - 1)
    assert BYTES_PER_AMPLITUDE * K + SCHEDULE_BYTES < simulator.MEMORY_BUDGET
    assert main(["solve", "--instance", str(path), "--no-reference", "--grid-points", "1", "--out", str(tmp_path / "run.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: a onehot run on {K} labels ") and f"with its {K} x {K} edge matrix" in err
    assert len(err.splitlines()) == 1 and not (tmp_path / "run.json").exists()


def test_brute_refuses_oracle_tables_over_the_budget_in_one_line(capsys, monkeypatch, exa_json):
    # n = 3, K = 2: route tables of K (n + 2) 2^n entries
    need = solver.ROUTE_BYTES * 2 * 5 * 8
    monkeypatch.setattr(solver, "MEMORY_BUDGET", need - 1)
    assert main(["brute", "--instance", exa_json]) == 1
    err = capsys.readouterr().err
    assert err == f"error: the exact oracle's tables at n = 3, K = 2 need about {need} bytes, over the memory budget of {need - 1} bytes\n"


@pytest.fixture
def n10_json(tmp_path):
    # n = 10, K = 2: past any enumeration, inside the oracle's work ceiling
    rng = np.random.default_rng(4)
    W = rng.integers(1, 30, size=(10, 10))
    np.fill_diagonal(W, 0)
    record = {"W": W.tolist(), "d": [1, 2] * 5, "Q": [9, 9], "K": 2, "dep_to": rng.integers(1, 30, size=10).tolist()}
    path = tmp_path / "n10.json"
    path.write_text(json.dumps(record))
    return str(path)


def test_brute_answers_n10(capsys, n10_json):
    sol = solver.exact_solve(load_instance(n10_json))
    code, rec = run_json(capsys, ["brute", "--instance", n10_json])
    assert code == 0 and sol.feasible_count > 0
    assert (rec["exact"]["optimal_cost"], rec["exact"]["feasible_count"]) == (sol.optimal_cost, sol.feasible_count)


def test_bench_row_of_n10_carries_the_oracle_optimum(tmp_path, capsys, n10_json):
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "n10.json").write_text(Path(n10_json).read_text())
    assert main(["bench", "--dir", str(bench_dir)]) == 0
    row = capsys.readouterr().out.splitlines()[2].split(",")
    optimum = solver.exact_solve(load_instance(n10_json)).optimal_cost
    assert row == ["n10", "10", "2", "200", "50", repr(optimum), "budget-exceeded", "", ""]


def n10_budget_line():
    # one capacity and shared legs: the table and the factor hold half the labels
    labels = 20**10
    need = (simulator.TABLE_BYTES + simulator.WORKER_BYTES) * labels - (simulator.TABLE_BYTES + simulator.FACTOR_BYTES) * labels // 2
    need += SCHEDULE_BYTES * 21 + EDGE_BYTES * 400
    # the default grid: two axes of 21 points, 21 x 21 grid points
    need += AXIS_BYTES * 2 * 21 + POINT_BYTES * 21**2
    return (
        f"error: a onehot run on {labels} labels and 21 schedule layers in 1 thread, with its 20 x 20 edge matrix,"
        f" needs about {need} bytes, over the memory budget of {simulator.MEMORY_BUDGET} bytes\n"
    )


def test_solve_on_n10_prints_the_sweep_budget_line(capsys, n10_json):
    # the sweep over 20^10 labels and the 21 x 1 layers of its default grid
    # is refused before the oracle runs
    assert main(["solve", "--instance", n10_json]) == 1
    assert capsys.readouterr().err == n10_budget_line()


def test_solve_charges_the_sweep_before_the_oracle(capsys, monkeypatch, n10_json):
    def oracle(*args, **kwargs):
        raise AssertionError("the oracle ran before the sweep's charge")

    monkeypatch.setattr(cli, "exact_solve", oracle)
    assert main(["solve", "--instance", n10_json]) == 1
    assert capsys.readouterr().err == n10_budget_line()


def no_grid_axes(monkeypatch):
    """Fail the test if any grid axis is built."""

    def refuse(*args, **kwargs):
        raise AssertionError("a grid axis was built")

    monkeypatch.setattr(np, "linspace", refuse)
    monkeypatch.setattr(solver.GridSpec, "default", classmethod(refuse))


def demo_grid_line(points):
    # demo-n4-k2: 4,096 labels, whose table and factor hold the 2,048 of
    # its head, one thread, one schedule layer per beta, an 8 x 8 edge
    # matrix, two axes of `points` points and points**2 grid points
    need = (simulator.TABLE_BYTES + simulator.WORKER_BYTES) * 4096 - (simulator.TABLE_BYTES + simulator.FACTOR_BYTES) * 2048
    need += SCHEDULE_BYTES * points + EDGE_BYTES * 64
    need += AXIS_BYTES * 2 * points + POINT_BYTES * points**2
    return (
        f"a onehot run on 4096 labels and {points} schedule layers in 1 thread, with its 8 x 8 edge matrix,"
        f" needs about {need} bytes, over the memory budget of {simulator.MEMORY_BUDGET} bytes"
    )


@pytest.mark.parametrize("points", [10**8, 10**6])
def test_solve_refuses_a_grid_over_the_budget_before_building_it(tmp_path, capsys, monkeypatch, demo_vrp_path, points):
    # 10**8 points per axis: building the axes alone would take about 10 GB,
    # and the schedules 6.6 GB; 10**6: the schedules fit, 10**12 grid points do not
    no_grid_axes(monkeypatch)
    out = tmp_path / "run.json"
    assert main(["solve", "--instance", str(demo_vrp_path), "--grid-points", str(points), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {demo_grid_line(points)}\n"
    assert not out.exists()


def test_bench_reports_a_grid_over_the_budget_in_its_error_column(tmp_path, capsys, monkeypatch, demo_vrp_path):
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "demo-n4-k2.vrp").write_text(Path(demo_vrp_path).read_text())
    no_grid_axes(monkeypatch)
    assert main(["bench", "--dir", str(bench_dir), "--grid-points", str(10**8)]) == 0
    header, row = csv.reader(capsys.readouterr().out.splitlines()[1:])
    assert dict(zip(header, row))["error"] == demo_grid_line(10**8)


def test_brute_past_the_work_ceiling_exits_with_one_error_line(capsys, monkeypatch, n10_json):
    # shared legs and K = 2: one Held-Karp table, no middle vehicle
    work = 10 * 10 * (2**10 + solver.STEP_WORK)
    monkeypatch.setattr(solver, "WORK_CEILING", work)
    assert main(["brute", "--instance", n10_json]) == 0
    capsys.readouterr()
    monkeypatch.setattr(solver, "WORK_CEILING", work - 1)
    assert main(["brute", "--instance", n10_json]) == 1
    assert _single_error_line(capsys)


def test_bound_refuses_a_gamma_that_overflows_the_phases(tmp_path, capsys, exa_json):
    out = tmp_path / "bound.json"
    argv = ["bound", "--instance", exa_json, "--gamma", "1e308", "--beta", "0.5", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: gamma must be finite") and len(err.splitlines()) == 1
    assert not out.exists()


EXA = "data/exa.json"
BOUND = ["bound", "--instance", EXA, "--gamma", "0.1", "--beta", "0.5"]
SWEEP = ["solve", "--instance", EXA, "--grid-points", "2"]
SOLVE = SWEEP + ["--shots", "16"]
ENCODE = ["encode", "--pairs", "1:1,2:2,3:2"]

# option -> (a cheap command that takes its flag and reads its value,
# without the flag; the flag's value; the same value in a config file).
# Paths are relative to a directory holding data/exa.json and
# data/demo-n4-k2.vrp.
FLAG_CASES = {
    "instance": (["brute"], EXA, EXA),
    "K": (ENCODE, "3", 3),
    "register": (BOUND, "binary", "binary"),
    "cap_mode": (BOUND, "filter-only", "filter-only"),
    "rounding": (["brute", "--instance", "data/demo-n4-k2.vrp"], "nearest-integer", "nearest-integer"),
    "lam_once": (BOUND, "2.5", 2.5),
    "lam_cap": (BOUND, "2.5", 2.5),
    "lam_obj": (["brute", "--instance", EXA], "2.5", 2.5),
    "lam_pad": (BOUND + ["--register", "binary"], "2.5", 2.5),
    "seed": (SOLVE, "3", 3),
    "out": (ENCODE, "out.json", "out.json"),
    "grid_points": (["solve", "--instance", EXA, "--shots", "16"], "3", 3),
    "shots_rule": (SWEEP, "fifty-cubed", "fifty-cubed"),
    "shots": (SWEEP, "8", 8),
    "depth": (BOUND, "2", 2),
    "jobs": (SOLVE, "2", 2),
    "score": (SOLVE, "total", "total"),
    "no_reference": (SOLVE, None, True),
    "skip_phqc": (["bench", "--dir", "data", "--shots", "16", "--grid-points", "2"], None, True),
    "phqc_budget": (["bench", "--dir", "data"], "100", 100),
    "gamma": (["bound", "--instance", EXA, "--beta", "0.5"], "0.2", 0.2),
    "beta": (["bound", "--instance", EXA, "--gamma", "0.1"], "0.5,0.7", "0.5,0.7"),
    "pairs": (["encode"], "1:1,2:2,3:2", "1:1,2:2,3:2"),
    "zero_based": (["encode", "--pairs", "0:0,1:1,2:1"], None, True),
    "bits": (["decode"], EXA_ONEHOT, EXA_ONEHOT),
    "dir": (["bench", "--skip-phqc"], "data", "data"),
}


def _run_bytes(capsys, tmp_path, argv):
    """Exit code, stdout and every file the command wrote, as bytes."""
    code = main(argv)
    written = {}
    for path in sorted(tmp_path.glob("out*")):
        written[path.name] = path.read_bytes()
        path.unlink()
    return code, capsys.readouterr().out, written


@pytest.mark.parametrize("key", sorted(_OPTIONS))
def test_flag_and_config_file_give_the_same_bytes(tmp_path, capsys, monkeypatch, exa_json, demo_vrp_path, key):
    argv, flag_value, config_value = FLAG_CASES[key]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data").mkdir()
    (tmp_path / EXA).write_text(Path(exa_json).read_text())
    (tmp_path / "data" / "demo-n4-k2.vrp").write_text(demo_vrp_path.read_text())
    (tmp_path / "cfg.json").write_text(json.dumps({key: config_value}))
    flag = ["--" + key.replace("_", "-")] + ([] if flag_value is None else [flag_value])
    by_flag = _run_bytes(capsys, tmp_path, [*argv, *flag])
    by_file = _run_bytes(capsys, tmp_path, [*argv, "--config", "cfg.json"])
    assert by_flag[0] == 0
    assert by_flag == by_file
    # the value is not the default: without it the output differs
    assert _run_bytes(capsys, tmp_path, argv) != by_flag


def test_check_out_writes_the_verdicts_to_the_file(tmp_path, capsys, monkeypatch, exa_json):
    stream = EXA_ONEHOT + "\n" + NONCONTIG + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(stream))
    assert main(["check", "--instance", exa_json]) == 1
    printed = capsys.readouterr().out
    out = tmp_path / "verdicts.jsonl"
    monkeypatch.setattr("sys.stdin", io.StringIO(stream))
    assert main(["check", "--instance", exa_json, "--out", str(out)]) == 1
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed and len(printed.splitlines()) == 2


def test_vrp_dimension_past_the_listed_nodes_exits_with_one_short_error_line(tmp_path, capsys):
    path = tmp_path / "gap.vrp"
    path.write_text("NAME : gap\nDIMENSION : 1000000\nCAPACITY : 3\nNODE_COORD_SECTION\n1 0 0\n2 1 0\nEOF\n")
    assert main(["brute", "--instance", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert len(err.encode()) < 200 and "DIMENSION" in err and "node 3" in err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_bound_refuses_a_depth_that_contradicts_the_beta_list(tmp_path, capsys, exa_json, source):
    out = tmp_path / "bound.json"
    argv = ["bound", "--instance", exa_json, "--gamma", "0.4", "--beta", "0.9,1.3", "--out", str(out)]
    if source == "flag":
        extra = ["--depth", "3"]
    else:
        config = tmp_path / "cfg.json"
        config.write_text('{"depth": 3}')
        extra = ["--config", str(config)]
    assert main([*argv, *extra]) == 1
    assert _single_error_line(capsys)
    assert not out.exists()
    assert main([*argv, "--depth", "2"]) == 0
    assert json.loads(out.read_text())["report"]["p"] == 2


def _k3_json(tmp_path):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps({"W": np.zeros((4, 4)).tolist(), "d": [1, 1, 1, 1], "Q": [2], "K": 3}))
    return str(path)


def test_encode_takes_the_fleet_size_from_the_instance(tmp_path, capsys):
    argv = ["encode", "--instance", _k3_json(tmp_path), "--pairs", "1:1,2:1,3:2,4:2"]
    code, rec = run_json(capsys, argv)
    assert code == 0 and rec["K"] == 3 and rec["S"] == 12
    code, rec = run_json(capsys, [*argv, "--K", "2"])
    assert code == 0 and rec["K"] == 2


def test_decode_takes_the_fleet_size_from_the_instance(tmp_path, capsys):
    pairs = [(1, 1), (2, 1), (3, 2), (4, 3)]
    bits = "".join("".join("1" if s == i - 1 + 4 * (k - 1) else "0" for s in range(12)) for i, k in pairs)
    code, rec = run_json(capsys, ["decode", "--instance", _k3_json(tmp_path), "--bits", bits])
    assert code == 0
    assert (rec["K"], rec["n"], rec["detected_register"]) == (3, 4, "onehot")
    assert rec["pairs_one_based"] == [list(p) for p in pairs]


def test_brute_on_a_thousand_vehicles(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"W": [[0]], "d": [1], "Q": [1], "dep_to": [2], "to_dep": [3]}))
    code, rec = run_json(capsys, ["brute", "--instance", str(path), "--K", "1000"])
    assert code == 0
    # one customer on 1,000 identical vehicles: every vehicle's route wins
    assert (rec["exact"]["optimal_cost"], rec["exact"]["feasible_count"]) == (5.0, 1000)
    assert rec["exact"]["optimal_assignments"] == [[[1, k]] for k in range(1, 1001)]


def test_brute_past_the_winner_ceiling_exits_with_one_error_line(tmp_path, capsys, monkeypatch):
    from colorperm import solver

    path = tmp_path / "ties.json"
    path.write_text(json.dumps({"W": np.zeros((4, 4)).tolist(), "d": [1, 1, 1, 1], "Q": [4]}))
    monkeypatch.setattr(solver, "MEMORY_BUDGET", solver.WINNER_BYTES * 4 * 10)
    assert main(["brute", "--instance", str(path)]) == 1
    assert _single_error_line(capsys)


def test_out_of_memory_exits_with_one_error_line(capsys, monkeypatch, exa_json):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("colorperm.cli.load_instance", exhausted)
    assert main(["brute", "--instance", exa_json]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"


def exit_text(run, capsys):
    with pytest.raises(SystemExit) as stop:
        run()
    out = capsys.readouterr()
    return stop.value.code, out.out, out.err


@pytest.mark.parametrize("flags", [["--help"], ["--bogus"], ["--seed", "x"], ["stray"]], ids=["help", "unknown", "bad-value", "extra"])
@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_one_command_parser_prints_what_the_full_parser_prints(command, flags, capsys):
    # main builds only the named command's flags; its help and errors must not show it
    argv = [command, *flags]
    assert exit_text(lambda: main(argv), capsys) == exit_text(lambda: build_parser().parse_args(argv), capsys)


@pytest.mark.parametrize(
    "argv",
    [[], ["bogus"], ["solve", "--bogus"], ["--help"], ["brute", "--help"], ["-h", "brute"], ["brute", "--seed"]],
    ids=["none", "bogus", "solve-bogus", "help", "brute-help", "help-brute", "brute-seed"],
)
def test_main_prints_what_the_full_parser_prints(argv, capsys):
    assert exit_text(lambda: main(argv), capsys) == exit_text(lambda: build_parser().parse_args(argv), capsys)


def test_a_named_command_builds_its_own_parser_only(monkeypatch, exa_json):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["brute", "--instance", exa_json]) == 0
    assert built == ["colorperm", "colorperm brute"]


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--register", "binary", "--depth", "2", "--score", "total"],
        ["bound", "--register", "binary", "--gamma", "0.4", "--beta", "0.9"],
    ],
)
def test_lam_pad_changes_no_output_byte_but_its_echo(capsys, demo_vrp_path, argv):
    # padded words exist only in energy_components, and no command scores one
    outputs = []
    for pad in ([], ["--lam-pad", "9"]):
        assert main([*argv, "--instance", str(demo_vrp_path), *pad]) == 0
        outputs.append(capsys.readouterr().out)
    default, padded = outputs
    assert '"lam_pad": null' in default
    assert padded.replace('"lam_pad": 9.0', '"lam_pad": null') == default


# Values drawn for any field of a JSON record: every JSON type, the floats
# json.loads reads beyond the standard, an integer past int64, and nested
# and ragged lists of them.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.sampled_from(["", "1", "ab"])
    | st.sampled_from([0, 1, 2, 3, -1, 2**70, 0.5, float("nan"), float("inf"), float("-inf")]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(["a", "W"]), inner, max_size=2),
    max_leaves=12,
)
RECORD_KEYS = ["W", "d", "Q", "dep_to", "to_dep", "K"]
VRP_TOKENS = ["0", "1", "-1", "2.5", "1e308", "nan", "inf", "x", ":", "EOF", "DEPOT_SECTION", "99999999999999999999"]
EXIT_CODES = (0, 1, 2, 3)


def _run_every_command(path):
    """brute, bound and a 2 x 2 solve on one instance file; the exit codes."""
    out = str(path.with_suffix(".out"))
    return [
        main(["brute", "--instance", str(path), "--out", out]),
        main(["bound", "--instance", str(path), "--gamma", "0.3", "--beta", "0.5", "--out", out]),
        main(["solve", "--instance", str(path), "--grid-points", "2", "--shots", "16", "--out", out]),
    ]


@st.composite
def json_records(draw):
    # a valid three-customer record with some fields replaced or dropped
    record = {"W": np.asarray(EXA_W).tolist(), "d": [1, 1, 1], "Q": [2, 2], "dep_to": EXA_LEGS, "to_dep": EXA_LEGS}
    for key in draw(st.lists(st.sampled_from(RECORD_KEYS), max_size=3, unique=True)):
        if draw(st.booleans()):
            record[key] = draw(JSON_VALUES)
        else:
            record.pop(key, None)
    return json.dumps(record)


@st.composite
def vrp_mutations(draw):
    lines = (Path(__file__).parent / "data" / "demo-n4-k2.vrp").read_text().splitlines()
    at = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(["delete", "duplicate", "insert", "replace"]))
    if edit == "delete":
        del lines[at]
    elif edit == "duplicate":
        lines.insert(at, lines[at])
    elif edit == "insert":
        lines.insert(at, " ".join(draw(st.lists(st.sampled_from(VRP_TOKENS), min_size=1, max_size=3))))
    elif lines[at].split():
        tokens = lines[at].split()
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(VRP_TOKENS))
        lines[at] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@given(st.one_of(json_records().map(lambda text: ("record-k2.json", text)), vrp_mutations().map(lambda text: ("mutant-n4-k2.vrp", text))))
@settings(max_examples=60, deadline=None)
def test_malformed_input_exits_with_a_documented_code(case):
    # no exception escapes main, whatever the record or .vrp file holds
    name, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text)
        for code in _run_every_command(path):
            assert code in EXIT_CODES
