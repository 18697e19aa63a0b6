"""The broadcast energy table against the per-label reference, and its
reuse across a sweep.

energy_table is the S^n one-hot diagonal of either register: it must
equal energy_components at every one-hot label, or at its binary label
(`EncodingParams.binary_labels`) on the binary register, exactly (not to
a tolerance), in every capacity mode, under arbitrary weights; phqc must
build it once per sweep.
"""

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
)
from colorperm.instances import Instance
from colorperm.solver import GridSpec, exact_solve, phqc, phqc_histogram

weight = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)
distance = st.floats(min_value=0.0, max_value=150.0, allow_nan=False)


@st.composite
def models(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    K = draw(st.integers(min_value=1, max_value=3 if n <= 3 else 2))
    cap_mode = draw(st.sampled_from(CAP_MODES))
    register = draw(st.sampled_from(REGISTERS))
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
        lam_pad=draw(st.one_of(st.none(), weight)),
        cap_mode=cap_mode,
    )
    return EnergyModel.for_instance(inst, weights, register=register)


@given(models())
@settings(max_examples=150, deadline=None)
def test_table_equals_reference_exactly(model):
    p = model.params
    table = energy_table(model)
    labels = np.arange(p.dim("onehot")) if model.register == "onehot" else p.binary_labels()
    reference = energy_components(model, labels)["total"]
    assert table.shape == (p.dim("onehot"),)
    assert np.array_equal(table, reference)


@pytest.fixture
def build_counter(monkeypatch):
    """Count energy_table builds through every binding a sweep can use."""
    calls = []

    def counted(model, *args, **kwargs):
        calls.append(model)
        return energy_table(model, *args, **kwargs)

    monkeypatch.setattr(solver, "energy_table", counted)
    monkeypatch.setattr(simulator, "energy_table", counted)
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
