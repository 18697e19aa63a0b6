"""Oracle tests, including the independent naive checker used for the
equivalence sweeps.

The naive checker below rederives every verdict straight from the
constraint definitions (block one-hot, once-each, capacity, contiguity)
with numpy array arithmetic, sharing no code with the scanning oracle.
Failure precedence mirrors the documented scan order: blocks in position
order (multi-hot detected within a block before its zero-hot check is
irrelevant since they are exclusive), repeated customer at its second
position, then per-vehicle capacity before contiguity for k = 0..K-1.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorperm.encoding import REGISTERS, EncodingParams, label_to_binary, label_to_onehot
from colorperm.feasibility import (
    CAPACITY_VIOLATION,
    MULTI_HOT,
    NON_CONTIGUOUS,
    OK,
    PADDING_LEAK,
    REASONS,
    REPEATED_CUSTOMER,
    ZERO_HOT,
    FeasibilityVerdict,
    decode_binary_and_check,
    feasible_global_positions,
    label_reasons,
    scan_cost,
)
from colorperm.instances import Instance
from tests.conftest import EXA_BINARY, EXA_ONEHOT


def naive_verdict(bits, inst):
    n, K = inst.n, inst.K
    S = n * K
    arr = np.frombuffer(bits.encode(), dtype=np.uint8).reshape(n, S) - ord("0")
    ones = arr.sum(axis=1)
    seen = set()
    symbols = []
    for j in range(n):
        if ones[j] > 1:
            return FeasibilityVerdict(False, MULTI_HOT, (j,))
        if ones[j] == 0:
            return FeasibilityVerdict(False, ZERO_HOT, (j,))
        s = int(np.argmax(arr[j]))
        i, k = s % n, s // n
        if i in seen:
            return FeasibilityVerdict(False, REPEATED_CUSTOMER, (i,))
        seen.add(i)
        symbols.append((i, k))
    loads = [0] * K
    positions = [[] for _ in range(K)]
    for j, (i, k) in enumerate(symbols):
        loads[k] += int(inst.d[i])
        positions[k].append(j)
    spans = tuple(
        (pos[0], pos[-1], len(pos)) if pos else (-1, -1, 0) for pos in positions
    )
    for k in range(K):
        if loads[k] > inst.Q[k]:
            return FeasibilityVerdict(
                False, CAPACITY_VIOLATION, (k, loads[k], int(inst.Q[k])), tuple(loads), spans
            )
        pos = positions[k]
        if pos and pos[-1] - pos[0] + 1 != len(pos):
            return FeasibilityVerdict(
                False, NON_CONTIGUOUS, (k, pos[0], pos[-1], len(pos)), tuple(loads), spans
            )
    return FeasibilityVerdict(True, OK, (), tuple(loads), spans)


def test_example_a_feasible(exA):
    v = feasible_global_positions(EXA_ONEHOT, exA)
    assert v.feasible and v.reason == OK
    assert v.loads == (1, 2)
    assert v.spans == ((0, 0, 1), (1, 2, 2))


def test_non_contiguous(exA):
    # vehicle 0 serves positions 0 and 2 with vehicle 1 in between
    bits = "100000" + "000010" + "001000"
    v = feasible_global_positions(bits, exA)
    assert not v.feasible
    assert v.reason == NON_CONTIGUOUS
    assert v.args == (0, 0, 2, 2)


def test_capacity_violation_zero_capacity():
    W = [[0.0, 30.41, 36.40], [30.41, 0.0, 6.08], [36.40, 6.08, 0.0]]
    legs = [25.55, 26.02, 30.02]
    inst = Instance("exA0", 3, 2, [1, 1, 1], [0, 3], W, legs, legs)
    v = feasible_global_positions(EXA_ONEHOT, inst)
    assert v.reason == CAPACITY_VIOLATION
    assert v.args == (0, 1, 0)


def test_repeated_customer(exA):
    bits = "100000" + "000100" + "000001"  # customer 0 on both vehicles
    v = feasible_global_positions(bits, exA)
    assert v.reason == REPEATED_CUSTOMER
    assert v.args == (0,)


def test_zero_and_multi_hot(exA):
    assert feasible_global_positions("0" * 18, exA).reason == ZERO_HOT
    v = feasible_global_positions("101000" + "000010" + "000001", exA)
    assert v.reason == MULTI_HOT
    assert v.args == (0,)


def test_length_mismatch_is_error(exA):
    with pytest.raises(Exception):
        feasible_global_positions("1010", exA)


def test_verdict_consistency_guard():
    with pytest.raises(ValueError):
        FeasibilityVerdict(True, ZERO_HOT)
    with pytest.raises(ValueError):
        FeasibilityVerdict(False, "Nonsense")


def test_zero_demand_counts_for_contiguity():
    W = np.zeros((3, 3))
    inst = Instance("zd", 3, 2, [0, 1, 1], [1, 1], W, [0, 0, 0], [0, 0, 0])
    # vehicle 0 takes customers 0 (demand 0) and 1 contiguously
    bits = "100000" + "010000" + "000001"
    v = feasible_global_positions(bits, inst)
    assert v.feasible
    assert v.loads == (1, 1)
    # same customers split around vehicle 1 break contiguity regardless
    # of the zero demand
    bits = "100000" + "000001" + "010000"
    v = feasible_global_positions(bits, inst)
    assert v.reason == NON_CONTIGUOUS


def test_oracle_equivalence_exhaustive_216(exA):
    p = EncodingParams(3, 2)
    disagreements = 0
    for z in range(6**3):
        bits = label_to_onehot(z, p)
        if feasible_global_positions(bits, exA) != naive_verdict(bits, exA):
            disagreements += 1
    assert disagreements == 0


def test_oracle_equivalence_random_arbitrary_strings(exB):
    rng = np.random.default_rng(20240817)
    length = 4 * 8
    disagreements = 0
    for _ in range(10_000):
        bits = "".join(rng.choice(("0", "1"), size=length))
        if feasible_global_positions(bits, exB) != naive_verdict(bits, exB):
            disagreements += 1
    assert disagreements == 0


def test_feasible_count_36(exA):
    p = EncodingParams(3, 2)
    count = sum(
        feasible_global_positions(label_to_onehot(z, p), exA).feasible
        for z in range(6**3)
    )
    assert count == 36


def test_scan_cost_bound(exA):
    p = EncodingParams(3, 2)
    full = 3 * 3 * 2
    for z in range(6**3):
        bits = label_to_onehot(z, p)
        cost = scan_cost(bits, exA)
        assert cost <= full
        if feasible_global_positions(bits, exA).feasible:
            assert cost == full


def test_scan_cost_early_exit(exA):
    # a double bit in the first block stops the scan inside that block
    assert scan_cost("110000" + "000010" + "000001", exA) <= 6


def test_binary_check_ok(exA):
    v = decode_binary_and_check(EXA_BINARY, exA)
    assert v.feasible and v.loads == (1, 2)


def test_binary_check_padding_leak(exA):
    v = decode_binary_and_check("111" + "100" + "101", exA)
    assert v.reason == PADDING_LEAK
    assert v.args == (0,)


def test_binary_check_matches_decompressed(exA):
    p = EncodingParams(3, 2)
    rng = np.random.default_rng(5)
    for _ in range(300):
        y = "".join(rng.choice(("0", "1"), size=9))
        v = decode_binary_and_check(y, exA)
        words = [int(y[3 * j : 3 * j + 3], 2) for j in range(3)]
        if all(w < 6 for w in words):
            bits = "".join(
                "".join("1" if s == w else "0" for s in range(6)) for w in words
            )
            assert v == feasible_global_positions(bits, exA)
        else:
            assert v.reason == PADDING_LEAK


def _reference_reason(z, inst, register):
    p = EncodingParams.for_instance(inst)
    if register == "onehot":
        return feasible_global_positions(label_to_onehot(z, p), inst).reason
    return decode_binary_and_check(label_to_binary(z, p), inst).reason


@st.composite
def instances_and_labels(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    K = draw(st.integers(min_value=1, max_value=3))
    d = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n))
    Q = draw(st.lists(st.integers(min_value=0, max_value=6), min_size=K, max_size=K))
    inst = Instance("h", n, K, d, Q, np.zeros((n, n)), np.zeros(n), np.zeros(n))
    register = draw(st.sampled_from(REGISTERS))
    top = EncodingParams(n, K).dim(register) - 1
    labels = draw(st.lists(st.integers(min_value=0, max_value=top), min_size=1, max_size=30))
    return inst, register, labels


@given(instances_and_labels())
@settings(max_examples=200, deadline=None)
def test_label_reasons_match_the_reference_scan(case):
    # binary registers whose S is not a power of two include padded words
    inst, register, labels = case
    codes = label_reasons(labels, inst, register)
    assert [REASONS[c] for c in codes] == [_reference_reason(z, inst, register) for z in labels]


@pytest.mark.parametrize("register", REGISTERS)
def test_label_reasons_exhaustive_example_a(exA, register):
    # S = 6: 512 binary labels, 296 of them with a padded word
    labels = list(range(EncodingParams(3, 2).dim(register)))
    codes = label_reasons(labels, exA, register)
    assert [REASONS[c] for c in codes] == [_reference_reason(z, exA, register) for z in labels]
    assert (codes == REASONS.index(PADDING_LEAK)).sum() == (296 if register == "binary" else 0)


def test_label_reasons_exhaustive_first_failing_vehicle():
    # tight unequal capacities: one vehicle can fail capacity while the
    # other fails contiguity, so the verdict must come from the lower k
    inst = Instance("tight", 4, 2, [1, 2, 2, 1], [2, 4], np.zeros((4, 4)), np.zeros(4), np.zeros(4))
    labels = list(range(EncodingParams(4, 2).dim("onehot")))
    codes = label_reasons(labels, inst, "onehot")
    reasons = [_reference_reason(z, inst, "onehot") for z in labels]
    assert [REASONS[c] for c in codes] == reasons
    assert {CAPACITY_VIOLATION, NON_CONTIGUOUS, OK} <= set(reasons)
