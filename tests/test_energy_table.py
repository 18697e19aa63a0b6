"""The broadcast energy table against the per-label reference, and its
reuse across a sweep.

energy_table is the S^n one-hot diagonal of either register: it must
equal energy_components at every one-hot label exactly (not to a
tolerance), in every capacity mode, under arbitrary weights. Its parts'
evaluator must equal both on any range of labels; phqc must build the
parts once per sweep and no S^n table. Energies are read at one-hot
labels only: a binary model's every energy term and table part must equal
the one-hot model's, whatever its padded-word weight.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorperm import simulator, solver
from colorperm.hamiltonian import (
    CAP_MODES,
    REGISTERS,
    EnergyModel,
    PenaltyWeights,
    energy_components,
    energy_table,
    table_parts,
)
from colorperm.instances import Instance
from colorperm.solver import GridSpec, exact_solve, phqc, phqc_histogram

weight = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)
distance = st.floats(min_value=0.0, max_value=150.0, allow_nan=False)


@st.composite
def models(draw, registers=REGISTERS, top_K=3):
    n = draw(st.integers(min_value=1, max_value=4))
    K = draw(st.integers(min_value=1, max_value=top_K if n <= 3 else 2))
    cap_mode = draw(st.sampled_from(CAP_MODES))
    register = draw(st.sampled_from(registers))
    W = np.array(draw(st.lists(distance, min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(W, 0.0)
    leg_shape = draw(st.sampled_from([(n,), (n, K)]))
    size = int(np.prod(leg_shape))
    dep_to = np.array(draw(st.lists(distance, min_size=size, max_size=size))).reshape(leg_shape)
    to_dep = np.array(draw(st.lists(distance, min_size=size, max_size=size))).reshape(leg_shape)
    d = draw(st.lists(st.integers(min_value=0, max_value=6), min_size=n, max_size=n))
    capacity = st.integers(min_value=0, max_value=12)
    if cap_mode == "quadratic-surrogate":
        Q = [draw(capacity)] * K
    else:
        Q = draw(st.lists(capacity, min_size=K, max_size=K))
    inst = Instance("prop", n, K, d, Q, W, dep_to, to_dep)
    weights = PenaltyWeights(
        lam_once=draw(weight),
        lam_cap=draw(weight),
        lam_obj=draw(weight),
        lam_pad=draw(st.one_of(st.none(), weight, st.just(1e308))),
        cap_mode=cap_mode,
    )
    return EnergyModel.for_instance(inst, weights, register=register)


@given(models(registers=("binary",), top_K=4))
@settings(max_examples=100, deadline=None)
def test_a_binary_model_reads_the_one_hot_models_energies(model):
    # the sweep scores one-hot labels with the model itself, whatever its
    # register: each energy term and each table part of a binary model must
    # equal the one-hot model's bit for bit, and lam_pad must show in none
    onehot = dataclasses.replace(model, register="onehot")
    labels = np.arange(model.params.dim("onehot"))
    ours, theirs = energy_components(model, labels), energy_components(onehot, labels)
    assert list(ours) == list(theirs) == ["once", "cap", "obj", "total"]
    for term in ours:
        assert ours[term].tobytes() == theirs[term].tobytes(), term
    parts, reference = table_parts(model), table_parts(onehot)
    for field in dataclasses.fields(parts):
        assert np.asarray(getattr(parts, field.name)).tobytes() == np.asarray(getattr(reference, field.name)).tobytes(), field.name
    assert parts[:].tobytes() == reference[:].tobytes()


@given(models())
@settings(max_examples=150, deadline=None)
def test_table_equals_reference_exactly(model):
    p = model.params
    table = energy_table(model)
    reference = energy_components(model, np.arange(p.dim("onehot")))["total"]
    assert table.shape == (p.dim("onehot"),)
    assert np.array_equal(table, reference)


def seeded_model(n, K, cap_mode, legs, seed):
    """Float distances and legs, integer demands, and capacities some
    loads exceed, so every term and every rounding shows."""
    rng = np.random.default_rng(seed)
    W = rng.uniform(0.0, 100.0, (n, n))
    np.fill_diagonal(W, 0.0)
    leg_shape = (n,) if legs == "shared" else (n, K)
    d = rng.integers(0, 7, n)
    Q = [int(d.sum()) // K] * K if cap_mode == "quadratic-surrogate" else rng.integers(0, int(d.sum()) + 1, K)
    inst = Instance("seeded", n, K, d, Q, W, rng.uniform(0.0, 100.0, leg_shape), rng.uniform(0.0, 100.0, leg_shape))
    weights = PenaltyWeights(lam_once=3.7, lam_cap=1.3, lam_obj=0.9, cap_mode=cap_mode)
    return EnergyModel.for_instance(inst, weights)


@st.composite
def ranges(draw):
    """A model of n <= 5 customers on K <= 4 vehicles (at most 10^5
    labels), of one capacity or one per vehicle, float or integer
    distances, lam_obj 1.7, in every capacity mode; and a range of its
    labels, aligned to S or to nothing."""
    n = draw(st.integers(1, 5))
    K = draw(st.integers(1, 4 if n <= 4 else 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W = rng.uniform(0.0, 100.0, (n, n)) if draw(st.booleans()) else rng.integers(0, 100, (n, n)).astype(float)
    np.fill_diagonal(W, 0.0)
    shape = draw(st.sampled_from([(n,), (n, K)]))
    cap_mode = draw(st.sampled_from(CAP_MODES))
    d = rng.integers(0, 7, n)
    Q = [int(d.sum()) // K] * K if cap_mode == "quadratic-surrogate" or draw(st.booleans()) else rng.integers(0, int(d.sum()) + 1, K)
    inst = Instance("range", n, K, d, Q, W, rng.uniform(0.0, 100.0, shape), rng.uniform(0.0, 100.0, shape))
    model = EnergyModel.for_instance(inst, PenaltyWeights(lam_once=draw(weight), lam_cap=draw(weight), lam_obj=1.7, cap_mode=cap_mode))
    size, unit = model.params.dim("onehot"), draw(st.sampled_from([1, model.params.S]))
    lo = unit * draw(st.integers(0, size // unit))
    return model, lo, unit * draw(st.integers(lo // unit, size // unit))


@given(ranges())
@settings(max_examples=100, deadline=None)
def test_parts_evaluate_any_range_exactly(case):
    model, lo, hi = case
    parts = table_parts(model)
    got = parts[lo:hi]
    assert got.tobytes() == energy_table(model)[lo:hi].tobytes()
    assert got.tobytes() == energy_components(model, np.arange(lo, hi))["total"].tobytes()


@pytest.mark.parametrize("legs", ["shared", "per-vehicle"])
@pytest.mark.parametrize("cap_mode", CAP_MODES)
@pytest.mark.parametrize("n, K", [(5, 2), (5, 3), (6, 2), (6, 3)])
def test_half_table_equals_reference_on_seeded_labels(n, K, cap_mode, legs):
    # n = 5 splits its digits 2 + 3, n = 6 3 + 3; one table of up to 18^6 labels each
    model = seeded_model(n, K, cap_mode, legs, seed=1000 * n + 10 * K + CAP_MODES.index(cap_mode))
    table = energy_table(model)
    size = model.params.dim("onehot")
    labels = np.concatenate([[0, size - 1], np.random.default_rng(n * K).integers(0, size, 20000)])
    assert table.shape == (size,)
    assert np.array_equal(table[labels], energy_components(model, labels)["total"])


@pytest.fixture
def build_counter(monkeypatch):
    """Count the sweep's table_parts builds, and refuse any S^n table."""
    calls = []

    def counted(model):
        calls.append(model)
        return table_parts(model)

    def whole(model):
        raise AssertionError("a sweep built the S^n table")

    monkeypatch.setattr(solver, "table_parts", counted)
    monkeypatch.setattr(simulator, "energy_table", whole)
    return calls


def sweep(inst, register, jobs):
    model = EnergyModel.for_instance(inst, register=register)
    grid = GridSpec(tuple(np.linspace(0, np.pi, 3)), tuple(np.linspace(0, np.pi, 2)))
    return phqc(inst, model, grid, 96, 5, jobs=jobs, exact_reference=exact_solve(inst, model))


@pytest.mark.parametrize("register", REGISTERS)
def test_table_built_once_per_sweep(exB, register, build_counter):
    one = sweep(exB, register, jobs=1)
    assert len(build_counter) == 1
    two = sweep(exB, register, jobs=2)
    assert len(build_counter) == 2
    assert one.records == two.records
    assert one.best_bitstring == two.best_bitstring
    assert one.best_score == two.best_score
    params = EnergyModel.for_instance(exB).params
    assert phqc_histogram(one, params) == phqc_histogram(two, params)
