"""Diagonal energy tests.

The vectorized energy_components path is checked against scalar
recomputation from decoded assignments over the full 216-state register,
so the two implementations never share a code path for the same number.
"""


import tracemalloc

import numpy as np
import pytest

from colorperm.encoding import (
    ColoredAssignment,
    EncodingParams,
    digits_label,
    label_assignment,
    label_digits,
    label_digits_array,
)
from colorperm.feasibility import NON_CONTIGUOUS, OK, feasible_global_positions
from colorperm.hamiltonian import (
    EnergyModel,
    PenaltyWeights,
    _penalties,
    edge_cost,
    edge_cost_matrix,
    energy_capacity,
    energy_components,
    energy_objective,
    energy_once,
    energy_table,
    energy_total,
    export_qubo,
)
from colorperm.instances import Instance
from colorperm.solver import exact_solve
from tests.conftest import EXA_PAIRS_1B

W0 = PenaltyWeights()


def assignment_a():
    return ColoredAssignment.from_pairs(EXA_PAIRS_1B, 2, one_based=True)


def test_weights_defaults_and_validation():
    w = PenaltyWeights()
    assert (w.lam_once, w.lam_cap, w.lam_obj) == (4.0, 4.0, 1.0)
    assert w.lam_pad == w.lam_once
    assert PenaltyWeights(lam_once=2.0, lam_pad=7.0).lam_pad == 7.0
    with pytest.raises(ValueError):
        PenaltyWeights(lam_cap=-1.0)
    with pytest.raises(ValueError):
        PenaltyWeights(cap_mode="soft")


@pytest.mark.parametrize("name", ["lam_once", "lam_cap", "lam_obj", "lam_pad"])
@pytest.mark.parametrize("value", [float("inf"), float("nan"), -float("inf")])
def test_weights_must_be_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be a finite nonnegative number"):
        PenaltyWeights(**{name: value})


def test_model_shapes(exA):
    m = EnergyModel.for_instance(exA)
    assert (m.params.dim(m.register), m.radix) == (216, 6)
    b = EnergyModel.for_instance(exA, register="binary")
    assert (b.params.dim(b.register), b.radix) == (512, 8)
    with pytest.raises(ValueError):
        EnergyModel.for_instance(exA, register="gray")
    with pytest.raises(ValueError):
        EnergyModel(exA, W0, EncodingParams(4, 2))


def test_surrogate_needs_uniform_capacity(exA):
    inst = Instance("uneven", 3, 2, exA.d, [2, 3], exA.W, exA.dep_to, exA.to_dep)
    with pytest.raises(ValueError):
        EnergyModel.for_instance(inst, PenaltyWeights(cap_mode="quadratic-surrogate"))


def test_edge_cost_goldens(exA):
    assert edge_cost(1, 1, 2, 1, exA) == pytest.approx(6.08, abs=1e-12)
    # vehicle change: close 25.55 plus start 26.02
    assert edge_cost(0, 0, 1, 1, exA) == pytest.approx(51.57, abs=1e-12)
    assert edge_cost(1, 0, 1, 0, exA) == 0.0


def test_edge_cost_matrix_agrees(exA):
    edges, start, close = edge_cost_matrix(exA)
    assert edges.shape == (6, 6)
    for s1 in range(6):
        i1, k1 = s1 % 3, s1 // 3
        assert start[s1] == exA.dep_out(i1, k1)
        assert close[s1] == exA.dep_in(i1, k1)
        for s2 in range(6):
            i2, k2 = s2 % 3, s2 // 3
            assert edges[s1, s2] == edge_cost(i1, k1, i2, k2, exA)


def test_edge_cost_matrix_per_vehicle_legs():
    W = np.zeros((2, 2))
    dep = np.array([[1.0, 2.0], [3.0, 4.0]])
    inst = Instance("pv", 2, 2, [1, 1], [2, 2], W, dep, 10 * dep)
    edges, start, close = edge_cost_matrix(inst)
    # symbol 3 is customer 1 on vehicle 1
    assert start[3] == 4.0 and close[3] == 40.0
    assert edges[0, 3] == 10.0 + 4.0


def test_energy_once_counts():
    assert energy_once([1, 1, 1], W0) == 0.0
    assert energy_once([2, 1, 0], W0) == 2 * W0.lam_once
    assert energy_once([3, 0, 0], W0) == 6 * W0.lam_once
    assert energy_once(assignment_a(), W0) == 0.0
    with pytest.raises(ValueError):
        energy_once([1, 1], W0, n=3)


def test_energy_capacity_modes():
    hinge = PenaltyWeights(cap_mode="hinge")
    assert energy_capacity([4], [3], hinge) == hinge.lam_cap
    assert energy_capacity([2, 3], [3, 3], hinge) == 0.0
    surro = PenaltyWeights(cap_mode="quadratic-surrogate")
    assert energy_capacity([2], [3], surro) == surro.lam_cap
    assert energy_capacity([4], [3], surro) == surro.lam_cap
    with pytest.raises(ValueError):
        energy_capacity([1, 1], [2, 3], surro)
    off = PenaltyWeights(cap_mode="filter-only")
    assert energy_capacity([99], [1], off) == 0.0


def test_energy_capacity_surrogate_shift_identity():
    # with the once-each constraint the total load is fixed, so the
    # surrogate is the load-balance term plus a constant offset
    rng = np.random.default_rng(3)
    surro = PenaltyWeights(cap_mode="quadratic-surrogate")
    d = np.array([2, 5, 1, 3])
    Q = np.array([9.0, 9.0])
    for _ in range(200):
        owner = rng.integers(0, 2, size=4)
        loads = np.array([d[owner == k].sum() for k in range(2)], dtype=float)
        mean = loads.mean()
        balance = ((loads - mean) ** 2).sum() + 2 * (mean - Q[0]) ** 2
        assert energy_capacity(loads, Q, surro) == pytest.approx(
            surro.lam_cap * balance, abs=1e-9
        )


def test_energy_objective_golden(exA):
    assert energy_objective(assignment_a(), exA) == pytest.approx(113.22, abs=1e-9)
    assert energy_objective(assignment_a(), exA, lam_obj=2.5) == pytest.approx(
        2.5 * 113.22, abs=1e-9
    )


def test_energy_objective_single_customer():
    inst = Instance("one", 1, 1, [1], [1], [[0.0]], [7.5], [7.5])
    a = ColoredAssignment(((0, 0),), 1)
    assert energy_objective(a, inst) == 15.0


def test_energy_total_feasible_is_objective(exA):
    model = EnergyModel.for_instance(exA)
    p = model.params
    from colorperm.encoding import assignment_label

    z = assignment_label(assignment_a(), p)
    assert energy_total(z, model) == pytest.approx(113.22, abs=1e-9)


def test_components_match_scalar_recomputation(exA):
    for mode in ("hinge", "quadratic-surrogate", "filter-only"):
        w = PenaltyWeights(lam_once=3.0, lam_cap=2.0, lam_obj=1.5, cap_mode=mode)
        model = EnergyModel.for_instance(exA, w)
        comp = energy_components(model, np.arange(216))
        for z in range(216):
            a = label_assignment(z, model.params)
            loads = [0.0, 0.0]
            for i, k in a.symbols:
                loads[k] += float(exA.d[i])
            expect_once = energy_once(a.customer_counts(), w)
            expect_cap = energy_capacity(loads, exA.Q, w)
            expect_obj = energy_objective(a, exA, w.lam_obj)
            assert comp["once"][z] == pytest.approx(expect_once, abs=1e-12)
            assert comp["cap"][z] == pytest.approx(expect_cap, abs=1e-12)
            assert comp["obj"][z] == pytest.approx(expect_obj, abs=1e-10)
            assert comp["pad"][z] == 0.0
            total = expect_once + expect_cap + expect_obj
            assert comp["total"][z] == pytest.approx(total, abs=1e-10)


def test_zero_penalty_characterization(exA):
    # the diagonal penalties vanish exactly on once-each, within-capacity
    # states; contiguity stays a filter and is never charged
    from colorperm.encoding import label_to_onehot

    model = EnergyModel.for_instance(exA)
    comp = energy_components(model, np.arange(216))
    for z in range(216):
        verdict = feasible_global_positions(label_to_onehot(z, model.params), exA)
        zero = comp["once"][z] + comp["cap"][z] == 0.0
        assert zero == (verdict.reason in (OK, NON_CONTIGUOUS))


def test_binary_register_matches_onehot_on_valid_words(exA):
    onehot = EnergyModel.for_instance(exA)
    binary = EnergyModel.for_instance(exA, register="binary")
    for z in range(216):
        digits = label_digits(z, 3, 6)
        zb = digits_label(digits, 8)
        assert energy_total(zb, binary) == energy_total(z, onehot)


def test_binary_padding_energy(exA):
    binary = EnergyModel.for_instance(exA, register="binary")
    all_padded = digits_label([7, 7, 7], 8)
    w = binary.weights
    assert energy_total(all_padded, binary) == 3 * (w.lam_once + w.lam_pad)
    # one valid block, two padded: uncovered customers pay their once
    # terms and the valid block still opens the timeline
    mixed = digits_label([0, 7, 7], 8)
    expect = 2 * w.lam_once + 2 * w.lam_pad + w.lam_obj * exA.dep_out(0, 0)
    assert energy_total(mixed, binary) == pytest.approx(expect, abs=1e-12)


def test_binary_padding_custom_weight(exA):
    w = PenaltyWeights(lam_pad=2.0)
    binary = EnergyModel.for_instance(exA, w, register="binary")
    assert energy_total(digits_label([7, 7, 7], 8), binary) == 3 * (4.0 + 2.0)


def test_energy_table_and_limit(exA):
    model = EnergyModel.for_instance(exA)
    table = energy_table(model)
    assert table.shape == (216,)
    assert table[np.argmin(table)] <= table.min() + 1e-12


def test_label_energies_and_oracle_winners_read_legs_without_the_edge_matrix():
    # n = 2, K = 3,000 with per-vehicle legs: S = 6,000, so an S x S edge
    # matrix is 288 MB of floats; four labels and the oracle's winners are
    # scored leg by leg, each under 8 MB
    n, K = 2, 3000
    rng = np.random.default_rng(3)
    legs = rng.uniform(1.0, 9.0, (2, n, K))
    inst = Instance("fleet", n, K, [1] * n, [n] * K, np.array([[0.0, 2.0], [3.0, 0.0]]), *legs)
    model = EnergyModel.for_instance(inst)
    S = model.params.S
    labels = [0, S + 1, S * (S - 1) + 3, S * S - 1]
    for run in (lambda: energy_components(model, labels), lambda: exact_solve(inst, model)):
        tracemalloc.start()
        try:
            result = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
    assert all(result.optimal_cost == energy_objective(a, inst) for a in result.optimal_assignments)
    objs = energy_components(model, labels)["obj"]
    assert objs.tolist() == [energy_objective(label_assignment(z, model.params), inst) for z in labels]


def test_penalties_read_each_position_once_for_every_vehicle():
    # n = 2, K = 3,000: S = 6,000. The capacity term of four labels reads each
    # position's vehicle and demand once and sums them per vehicle, so no
    # S-length per-vehicle array (48 KB of floats) is built
    n, K = 2, 3000
    inst = Instance("fleet", n, K, [1, 2], [1] * K, np.array([[0.0, 2.0], [3.0, 0.0]]), np.ones(n), np.ones(n))
    S = n * K
    sym = label_digits_array([0, S + 1, S * (S - 1) + 3, S * S - 1], n, S)
    for mode in ("hinge", "quadratic-surrogate"):
        model = EnergyModel.for_instance(inst, PenaltyWeights(cap_mode=mode))
        tracemalloc.start()
        try:
            _, cap = _penalties(model, sym)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * S
        loads = np.zeros((sym.shape[1], K), dtype=np.int64)
        for col, row in enumerate(sym.T):
            for s in row:
                loads[col, s // n] += inst.d[s % n]
        assert cap.tolist() == [energy_capacity(load, inst.Q, model.weights) for load in loads]


def test_label_out_of_range_rejected(exA):
    model = EnergyModel.for_instance(exA)
    with pytest.raises(ValueError):
        energy_total(216, model)


def test_energy_objective_reads_an_asymmetric_matrix_in_route_order():
    # customer 0 then 1 on one vehicle pays W[0, 1], not W[1, 0]; a
    # vehicle change pays the close leg of 0 and the start leg of 1
    inst = Instance("asym", 2, 2, [1, 1], [2, 2], [[0.0, 2.0], [3.0, 0.0]], [5.0, 6.0], [7.0, 8.0])
    same = ColoredAssignment(((0, 0), (1, 0)), 2)
    assert energy_objective(same, inst) == 5.0 + 2.0 + 8.0
    change = ColoredAssignment(((0, 0), (1, 1)), 2)
    assert energy_objective(change, inst) == 5.0 + (7.0 + 6.0) + 8.0


def test_qubo_refuses_hinge(exA):
    with pytest.raises(ValueError):
        export_qubo(EnergyModel.for_instance(exA))


@pytest.mark.parametrize("mode", ["quadratic-surrogate", "filter-only"])
def test_qubo_matches_energy_on_register(exA, mode):
    from colorperm.encoding import label_to_onehot

    w = PenaltyWeights(cap_mode=mode)
    model = EnergyModel.for_instance(exA, w)
    qubo = export_qubo(model)
    assert qubo.num_vars == 18
    for z in range(216):
        bits = label_to_onehot(z, model.params)
        assert qubo.value(bits) == pytest.approx(energy_total(z, model), abs=1e-9)


def test_qubo_objective_coefficients(exA):
    w = PenaltyWeights(lam_obj=2.0, cap_mode="filter-only")
    qubo = export_qubo(EnergyModel.for_instance(exA, w))
    S = 6
    # adjacent positions, same vehicle, distinct customers: lam_obj * W
    a = 0 * S + 0  # (i=0, k=0) at position 0
    b = 1 * S + 1  # (i=1, k=0) at position 1
    assert qubo.coefficient(a, b) == pytest.approx(2.0 * 30.41, abs=1e-12)
    # vehicle change pays the two depot legs
    c = 1 * S + 4  # (i=1, k=1) at position 1
    assert qubo.coefficient(a, c) == pytest.approx(2.0 * (25.55 + 26.02), abs=1e-12)
    # non-adjacent positions carry no objective coupling
    assert qubo.coefficient(0, 2 * S + 1) == 0.0
    assert qubo.coefficient(a, a) == qubo.linear.get(a, 0.0)


def test_qubo_once_block_on_arbitrary_bits():
    # with zero distances and filter-only capacity the QUBO is exactly the
    # once-penalty polynomial, valid on every bit vector
    W = np.zeros((3, 3))
    inst = Instance("flat", 3, 2, [1, 1, 1], [3, 3], W, [0, 0, 0], [0, 0, 0])
    w = PenaltyWeights(cap_mode="filter-only")
    qubo = export_qubo(EnergyModel.for_instance(inst, w))
    rng = np.random.default_rng(11)
    for _ in range(400):
        x = rng.integers(0, 2, size=18)
        counts = np.zeros(3, dtype=int)
        for pos in range(3):
            for s in range(6):
                if x[pos * 6 + s]:
                    counts[s % 3] += 1
        expect = w.lam_once * ((counts - 1) ** 2).sum()
        assert qubo.value(x) == pytest.approx(expect, abs=1e-12)


def test_qubo_surrogate_capacity_coupling():
    W = np.zeros((2, 2))
    inst = Instance("cap", 2, 1, [2, 3], [4], W, [0, 0], [0, 0])
    w = PenaltyWeights(lam_once=0.0, lam_obj=0.0, cap_mode="quadratic-surrogate")
    qubo = export_qubo(EnergyModel.for_instance(inst, w))
    # (d0 x_a + d1 x_b + ... - Q)^2 cross term is 2 lam d0 d1
    a = 0 * 2 + 0  # position 0, customer 0
    b = 1 * 2 + 1  # position 1, customer 1
    assert qubo.coefficient(a, b) == pytest.approx(2.0 * w.lam_cap * 2 * 3, abs=1e-12)
    assert qubo.constant == pytest.approx(w.lam_cap * 16.0, abs=1e-12)


def test_qubo_value_length_guard(exA):
    qubo = export_qubo(EnergyModel.for_instance(exA, PenaltyWeights(cap_mode="filter-only")))
    with pytest.raises(ValueError):
        qubo.value("01")


def test_qubo_to_dict_roundtrip(exA):
    qubo = export_qubo(EnergyModel.for_instance(exA, PenaltyWeights(cap_mode="filter-only")))
    d = qubo.to_dict()
    assert d["num_vars"] == 18
    assert all("," in key for key in d["quadratic"])


# sha256 of the sorted-key JSON of to_dict() and the constant, taken when
# the QUBO was still built one coefficient at a time
QUBO_PINS = [
    ("exA", "quadratic-surrogate", 0, "a6ea970d8f2a8460675f7455ba278def447b9d78e32e6dfc8dc25783982ca7e5", 84.0),
    ("exA", "quadratic-surrogate", 1, "dc0616a758aea3ad05bfe98bb18064e52beb214b65643ccc76e03dddce7260c3", 12.899999999999999),
    ("exA", "filter-only", 0, "274f885b509196cf4bb63f359c24e8ddf975c3b340c751450bf851e17adb2d63", 12.0),
    ("exA", "filter-only", 1, "e939c5b37f617a87aef88d95ee629d1b85b8e506147d5a1dc79c0844d858b177", 0.30000000000000004),
    ("exB", "quadratic-surrogate", 0, "6648b935ed3e9e70d16882c6e5cb637a5fccd7a2a17350179406114ceced9ff0", 88.0),
    ("exB", "quadratic-surrogate", 1, "e897010776bb055636c959cf7df7d639fe8db2d563faae09f88f5c7a815cf4df", 12.999999999999998),
    ("exB", "filter-only", 0, "bdd1b5355a239c29d759e3ddaf74f9fea3799406f1cfc4fae83aff33a1d812ff", 16.0),
    ("exB", "filter-only", 1, "2aaa7062ec24383b37512668387e24fbde45c19909ecc41c7e9e85e86114f2af", 0.4),
]
QUBO_WEIGHTS = ({}, {"lam_once": 0.1, "lam_cap": 0.7, "lam_obj": 1.3})


@pytest.mark.parametrize("name,mode,weights,digest,constant", QUBO_PINS)
def test_qubo_export_is_pinned(request, name, mode, weights, digest, constant):
    import hashlib
    import json

    inst = request.getfixturevalue(name)
    qubo = export_qubo(EnergyModel.for_instance(inst, PenaltyWeights(cap_mode=mode, **QUBO_WEIGHTS[weights])))
    assert hashlib.sha256(json.dumps(qubo.to_dict(), sort_keys=True).encode()).hexdigest() == digest
    assert qubo.constant == constant
