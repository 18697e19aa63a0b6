"""Shared fixtures: the two worked mini instances and their golden strings.

exA: 3 customers, 2 vehicles, unit demands, capacity 3 per vehicle.
exB: 4 customers, 2 vehicles, unit demands, capacity 3 per vehicle.
Both use a single shared depot, so dep_to == to_dep.
"""

import pathlib

import pytest

from colorperm.encoding import EncodingParams
from colorperm.instances import Instance

DATA_DIR = pathlib.Path(__file__).parent / "data"

EXA_W = [
    [0.0, 30.41, 36.40],
    [30.41, 0.0, 6.08],
    [36.40, 6.08, 0.0],
]
EXA_LEGS = [25.55, 26.02, 30.02]

EXB_W = [
    [0.0, 43.01, 37.07, 23.09],
    [43.01, 0.0, 30.41, 59.08],
    [37.07, 30.41, 0.0, 60.01],
    [23.09, 59.08, 60.01, 0.0],
]
EXB_LEGS = [59.03, 53.04, 78.10, 61.41]

# golden 18-bit / 32-bit strings and their binary compressions
EXA_ONEHOT = "100000" "000010" "000001"
EXA_BINARY = "000" "100" "101"
EXA_PAIRS_1B = [(1, 1), (2, 2), (3, 2)]

EXB_ONEHOT = "00000010" "00001000" "00010000" "01000000"
EXB_PAIRS_1B = [(3, 2), (1, 2), (4, 1), (2, 1)]


@pytest.fixture(autouse=True)
def _no_jobs_from_the_environment(monkeypatch):
    """Every test sees the default jobs, whatever COLORPERM_JOBS the shell exports."""
    monkeypatch.delenv("COLORPERM_JOBS", raising=False)


@pytest.fixture
def exA():
    return Instance("exA", 3, 2, [1, 1, 1], [3, 3], EXA_W, EXA_LEGS, EXA_LEGS)


@pytest.fixture
def exB():
    return Instance("exB", 4, 2, [1, 1, 1, 1], [3, 3], EXB_W, EXB_LEGS, EXB_LEGS)


@pytest.fixture
def params3():
    return EncodingParams(3, 2)


@pytest.fixture
def params4():
    return EncodingParams(4, 2)


@pytest.fixture
def demo_vrp_path():
    return DATA_DIR / "demo-n4-k2.vrp"
