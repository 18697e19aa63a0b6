"""Golden output bytes of every command on the committed n = 4 demo
instance.

Each `solve` configuration writes run.json, run.grid.csv and run.hist.csv;
each `brute` configuration writes one JSON record; `bound`, `encode`,
`decode`, `check` and `bench` are pinned on what they print (one `bench`
case writes through `--out` instead). Their sha256 digests are
pinned here, so a change that moves any output byte fails tier-1 instead of
waiting for a manual comparison. The `brute` digests were taken from the
permutation enumeration the route dynamic program replaced. The outputs echo
the instance path as given, so the command runs from the repository root
with the relative path. Float text is rendered with repr, so the digests
hold for one numpy build (they were taken with numpy 2.4 on x86-64);
`p_star_exact` in the grid CSV is the column most exposed to a change in
rounding.
"""

import hashlib
import io
from pathlib import Path

import pytest

from colorperm.cli import main

ROOT = Path(__file__).resolve().parent.parent
INSTANCE = "tests/data/demo-n4-k2.vrp"

GOLDEN = {
    "onehot": (
        [],
        {
            "run.json": "a5b2d5f30373ef1dc72a4e8328c51e6c2e72e635a2f736d42374976d1c7fd28a",
            "run.grid.csv": "2342a32ff8cfa1303d59ee8f3f5c708b92b1e3205f9a451087e269144a47201e",
            "run.hist.csv": "7ccc77692065cac4477fe68378c84553f95d38a1ef09c0ca230107fbae32dc77",
        },
    ),
    "binary-depth2-total": (
        ["--register", "binary", "--depth", "2", "--score", "total"],
        {
            "run.json": "e578d5a16a349cde6971a446c7dcb6987e0fe2817447d23fc4d44052d19d4ba4",
            "run.grid.csv": "0fb7f7610c1bf86443da358688c489d802d49256ba13e0b5a4ab9c4ba7b3e377",
            "run.hist.csv": "6165ba7ca5f554fc7588184241cd238a654df50267c31b097448029f12775511",
        },
    ),
    "jobs2": (
        ["--jobs", "2"],
        {
            "run.json": "28cd564cc5c476d4951394a474d587cf09f3a8173ebaf2575b1a4311f5f62a6a",
            "run.grid.csv": "7e0403ab6feaf3a0cc5fbaf8d14ecb2fb57bfa67ad8cd21d62f21d4e3a704f25",
            "run.hist.csv": "ab354bc803ad373c4d5bb1b165ff74f803190b641fdb9f3e2b488cabae85c584",
        },
    ),
}


@pytest.mark.parametrize("config", sorted(GOLDEN))
def test_solve_output_digests(tmp_path, monkeypatch, config):
    flags, expected = GOLDEN[config]
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("COLORPERM_JOBS", raising=False)
    assert main(["solve", "--instance", INSTANCE, *flags, "--out", str(tmp_path / "run.json")]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in expected}
    assert digests == expected


BRUTE_GOLDEN = {
    "K2": ([], "f730905d36ef6f559c87ca594ba7df7e613d7007bc992715079730499ffb34d2"),
    "K3": (["--K", "3"], "e9c2b3e6e3ec3ded93c05c60ea2c9bccda777981e52c7156eecc316a2f67dae3"),
}


@pytest.mark.parametrize("config", sorted(BRUTE_GOLDEN))
def test_brute_output_digests(tmp_path, monkeypatch, config):
    flags, expected = BRUTE_GOLDEN[config]
    monkeypatch.chdir(ROOT)
    out = tmp_path / "brute.json"
    assert main(["brute", "--instance", INSTANCE, *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


ONEHOT = "10000000" "01000000" "00000010" "00000001"  # pairs 1:1,2:1,3:2,4:2
REPEATED = "10000000" "10000000" "00000010" "00000001"  # customer 1 twice

# name -> (argv, stdin, exit code, sha256 of the output); "{out}" names a
# file under tmp_path, whose bytes are then hashed instead of stdout's
COMMAND_GOLDEN = {
    "bound-onehot": (
        ["bound", "--instance", INSTANCE, "--gamma", "0.4", "--beta", "0.9,1.3"],
        "",
        0,
        "3e7eb53ac53bc10d07da3da8f8c456f6d28739550def24088c7340ed8782a619",
    ),
    "bound-binary-depth3": (
        ["bound", "--instance", INSTANCE, "--gamma", "0.4", "--beta", "0.9", "--depth", "3", "--register", "binary"],
        "",
        0,
        "6d903dcfefb8123ffc15e1ea79b4124cfea0cc2b75e3857bbb252135e72505c7",
    ),
    "encode": (["encode", "--pairs", "1:1,2:1,3:2,4:2"], "", 0, "f527338a127b73aa1f4206c64d3e70ad25e03336b5cb2ae5b605ec29bf8696d6"),
    "decode": (["decode", "--bits", ONEHOT], "", 0, "cc176b249c5e90c132e583a43f6a9749f947a85c75fb0027d714bfbc17d1b780"),
    "check": (["check", "--instance", INSTANCE], f"{ONEHOT}\n{REPEATED}\n0101\n", 1, "4a10156d7f14b62f3a0b17c6f3536795e4a77dc3be7a9ff83901de0a24bc3b05"),
    "bench": (["bench", "--dir", "tests/data"], "", 0, "92dfbc9a96a1a9af8d2c88bf10b3db432e97b2c921bdb4f7c48374a42f44f502"),
    "bench-skip-phqc-binary": (
        ["bench", "--dir", "tests/data", "--skip-phqc", "--register", "binary", "--out", "{out}"],
        "",
        0,
        "a43ec1715061fac99c32e1ea97088cf1d183c71a24873aab3a56ed2955137f6f",
    ),
}


@pytest.mark.parametrize("config", sorted(COMMAND_GOLDEN))
def test_command_output_digests(tmp_path, monkeypatch, capsys, config):
    argv, stdin, code, expected = COMMAND_GOLDEN[config]
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("COLORPERM_JOBS", raising=False)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    out = tmp_path / "out"
    assert main([arg.format(out=out) for arg in argv]) == code
    data = out.read_bytes() if out.exists() else capsys.readouterr().out.encode()
    assert hashlib.sha256(data).hexdigest() == expected
