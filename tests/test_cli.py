"""End-to-end command-line tests, run in process through main(argv).

File outputs land in tmp_path; stdout JSON is parsed back and compared
against the library calls the commands wrap.
"""

import io
import json
from pathlib import Path

import numpy as np
import pytest

from colorperm.cli import _OPTIONS, main
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


def test_non_finite_config_weight_exits_with_one_error_line(tmp_path, capsys, exa_json):
    config = tmp_path / "cfg.json"
    config.write_text('{"lam_cap": NaN}')
    assert main(["brute", "--instance", exa_json, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: lam_cap must be a finite") and len(err.splitlines()) == 1


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_exit_with_one_error_line(capsys, monkeypatch, exa_json, tmp_path, jobs):
    monkeypatch.delenv("COLORPERM_JOBS", raising=False)
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
    monkeypatch.delenv("COLORPERM_JOBS", raising=False)
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
