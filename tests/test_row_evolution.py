"""The in-place kernels and the row-wise sweep against their references.

The mixer runs the closed form x <- dg*x + off*sum(x) in place on each
block axis; it must match the block_mixer_matrix tensordot contraction.
The chunked in-place phase must equal the whole-vector product
amplitudes * exp(-i*gamma*E) bit for bit, from its own table or a
given one.
The row's phase factor, built from the table's parts a block at a time,
must equal exp(-i*gamma*E) bit for bit on every label, whether or not the
labels past its head read their vehicle-reversed partners, and the parts'
mirror verdict must imply the S^n table's; a gamma-0 row run on one slab
and one sub-block must equal run_ansatz bit for bit, and so must a streamed
depth-1 row on its head, which is all it holds: past it, the head's
reversed view agrees with run_ansatz within 1e-12 relative.
A sweep evolves each gamma row, whose every layer takes its one gamma (a
row with a layer of another is refused), from one shared first phase
layer; its records, best and histogram must equal a per-point run_ansatz
loop, for any thread count, in one process. Either register samples the
one-hot state, with its phases from one energy table. The memory ceiling,
charged per thread, refuses a run before allocating or starting a pool.
"""

import dataclasses
import functools
import importlib.util
import itertools
import os
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colorperm import simulator, solver
from colorperm.cli import main
from colorperm.encoding import REGISTERS, EncodingParams
from colorperm.feasibility import OK, REASONS, label_reasons
from colorperm.hamiltonian import EnergyModel, PenaltyWeights, energy_components, energy_table, table_parts
from colorperm.instances import Instance, load_instance, parse_vrp
from colorperm.simulator import (
    BYTES_PER_AMPLITUDE,
    EDGE_BYTES,
    MEMORY_BUDGET,
    AXIS_BYTES,
    POINT_BYTES,
    SCHEDULE_BYTES,
    FACTOR_BYTES,
    TABLE_BYTES,
    WORKER_BYTES,
    AmplitudeBudgetError,
    EncodedState,
    Schedule,
    apply_mixer,
    apply_phase,
    block_mixer_matrix,
    check_budget,
    evolve_row,
    exact_distribution,
    initial_state,
    run_ansatz,
)
from colorperm.solver import GridSpec, exact_solve, phqc, phqc_histogram

ROOT = Path(__file__).resolve().parent.parent


def tensordot_mixer(amps, params, beta):
    """The block unitary contracted into every axis, one axis at a time."""
    U = block_mixer_matrix(params.S, beta)
    tensor = amps.reshape((params.S,) * params.n)
    for axis in range(params.n):
        tensor = np.moveaxis(np.tensordot(U, tensor, axes=(1, axis)), 0, axis)
    return tensor.reshape(-1)


@st.composite
def mixer_cases(draw):
    S = draw(st.integers(min_value=1, max_value=6))
    n, K = draw(st.sampled_from([(n, S // n) for n in range(1, 5) if S % n == 0]))
    params = EncodingParams(n, K)
    beta = draw(st.floats(min_value=-2 * np.pi, max_value=2 * np.pi, allow_nan=False))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    dim = params.dim("onehot")
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return params, beta, amps


@given(mixer_cases())
@settings(max_examples=120, deadline=None)
def test_mixer_matches_tensordot_reference(case):
    params, beta, amps = case
    state = EncodedState(amps.copy(), "onehot", params)
    mixed = apply_mixer(state, beta)
    assert np.array_equal(state.amplitudes, amps)
    assert np.abs(mixed.amplitudes - tensordot_mixer(amps, params, beta)).max() < 1e-12


def test_single_symbol_mixer_is_identity():
    params = EncodingParams(1, 1)
    state = EncodedState(np.array([0.6 - 0.8j]), "onehot", params)
    assert np.array_equal(apply_mixer(state, 1.3).amplitudes, state.amplitudes)


@pytest.mark.parametrize("source", ["table", "given"])
@pytest.mark.parametrize("chunk", [7, 50, 2**20])
def test_chunked_phase_equals_whole_vector_product(exA, params3, monkeypatch, source, chunk):
    # the phase runs PHASE_BLOCK labels at a time; 2**20 takes the state whole
    monkeypatch.setattr(simulator, "PHASE_BLOCK", chunk)
    model = EnergyModel.for_instance(exA)
    state = run_ansatz(params3, model, Schedule.constant(0.3, 0.8))
    energies = energy_components(model, np.arange(model.params.dim(model.register)))["total"]
    for gamma in (0.0, 0.05, 1.7):
        expected = state.amplitudes * np.exp(-1j * gamma * energies)
        got = apply_phase(state, gamma, model, energies if source == "given" else None)
        assert np.array_equal(got.amplitudes, expected)


@pytest.mark.parametrize("register", REGISTERS)
def test_row_states_equal_run_ansatz(exA, params3, register):
    model = EnergyModel.for_instance(exA, register=register)
    schedules = [
        Schedule.constant(0.04, 0.3),
        Schedule.constant(0.04, 1.9, p=2),
        Schedule((0.04, 0.04), (2.5, 0.6)),
        Schedule.constant(0.04, 0.0),
    ]
    # each yielded distribution is overwritten by the next, so keep copies
    dists = [probs.copy() for probs in evolve_row(params3, energy_table(model), schedules)]
    for probs, schedule in zip(dists, schedules):
        # the row squares the one-hot labels; run_ansatz relabels them into its register
        expected = exact_distribution(run_ansatz(params3, model, schedule))
        assert np.array_equal(probs, expected[params3.binary_labels()] if register == "binary" else expected)


def seeded_instance(n):
    """Two vehicles, symmetric integer distances and shared legs, demands
    1 and 2, room for every customer on one vehicle."""
    rng = np.random.default_rng(0)
    W = rng.integers(1, 60, size=(n, n)).astype(float)
    W = W + W.T
    np.fill_diagonal(W, 0.0)
    legs = rng.integers(1, 60, size=n).astype(float)
    d = [1 + i % 2 for i in range(n)]
    return Instance(f"n{n}k2", n, 2, d, [sum(d)] * 2, W, legs, legs)


# Rows of one gamma, at depths 1 to 3 with per-layer betas. The last
# schedule of "factor-last" is one layer, the uniform amplitude times the
# factor, after deeper schedules left the work buffer; that of "work-last"
# multiplies the work buffer by the factor again. A zero angle is the
# identity: "gamma-0" builds no factor (its layers take 0.0 and -0.0), and
# the beta-0 layers mix no axis. run_ansatz takes every pass at every angle,
# so it checks the skips bit for bit.
ROWS = {
    "gamma-0": [
        Schedule.constant(0.0, 0.0),
        Schedule.constant(-0.0, 0.3),
        Schedule((0.0, -0.0), (0.0, 0.6)),
        Schedule((-0.0, 0.0, -0.0), (2.5, -0.0, 1.3)),
        Schedule.constant(0.0, 1.9, p=3),
    ],
    "gamma-pi": [
        Schedule.constant(np.pi, np.pi),
        Schedule((np.pi, np.pi), (0.0, np.pi)),
        Schedule((np.pi,) * 3, (np.pi, 0.4, 0.0)),
    ],
    "factor-last": [
        Schedule.constant(0.04, 0.3),
        Schedule.constant(0.04, 1.9, p=2),
        Schedule((0.04,) * 3, (2.5, 0.0, 1.3)),
        Schedule.constant(0.04, 0.7, p=3),
        Schedule.constant(0.04, np.pi),
    ],
    "work-last": [Schedule((0.04, 0.04), (2.5, np.pi)), Schedule((0.04,) * 3, (1.1, 0.0, 1.1))],
}


@pytest.mark.parametrize("row", sorted(ROWS))
@pytest.mark.parametrize("register", REGISTERS)
@pytest.mark.parametrize("n", [4, 5])
def test_multiblock_row_distributions_equal_run_ansatz(n, register, row):
    # n = 4, K = 2: 4,096 labels in one sub-block, squared aside; n = 5:
    # 10^5 labels in ten sub-blocks, all but the first squared into the
    # float64 bytes of sub-blocks already done
    params = EncodingParams(n, 2)
    assert (params.dim("onehot") > simulator.MIX_BLOCK) == (n == 5)
    model = EnergyModel.for_instance(seeded_instance(n), register=register)
    dists = [probs.copy() for probs in evolve_row(params, energy_table(model), ROWS[row])]
    assert len(dists) == len(ROWS[row])
    for probs, schedule in zip(dists, ROWS[row]):
        expected = exact_distribution(run_ansatz(params, model, schedule))
        assert np.array_equal(probs, expected[params.binary_labels()] if register == "binary" else expected)


# n = 6, K = 2: 12^6 labels, two leading axes and a 20,736-label prefix, so
# a gamma-0 row evolves one slab and one sub-block at depths 1 to 3, at
# betas 0 and pi
PREFIX_ROW = [
    Schedule.constant(0.0, np.pi),
    Schedule.constant(0.0, 0.0),
    Schedule((0.0, -0.0), (0.0, np.pi)),
    Schedule.constant(-0.0, np.pi, p=3),
    Schedule((0.0,) * 3, (np.pi, 0.0, np.pi)),
]


def test_a_gamma_0_prefix_row_equals_run_ansatz(monkeypatch):
    params = EncodingParams(6, 2)
    lead, cols = simulator._blocking(params)
    assert lead == 2 and params.S ** max(lead + cols, params.n - lead) == 20736 < params.dim("onehot")
    model = EnergyModel.for_instance(seeded_instance(6))
    energies = energy_table(model)
    # run_ansatz builds its own table; it is the same one, so build it once
    monkeypatch.setattr(simulator, "energy_table", lambda _: energies)
    for probs, schedule in zip(evolve_row(params, energies, PREFIX_ROW), PREFIX_ROW):
        assert np.array_equal(probs, exact_distribution(run_ansatz(params, model, schedule)))


def perfbench_instance(workload, demands, K):
    """A perfbench workload's instance at seed 11, through its .vrp text."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return parse_vrp(gen.to_vrp(gen.generate(gen.instance_rng(11, workload), demands, K), workload), K=K)


def asymmetric_instance(K, legs):
    """Three customers on K vehicles: with shared depot legs and a capacity
    per vehicle, or with per-vehicle legs (n x K) and one capacity."""
    n = 3
    W = np.array([[0.0, 4.0, 7.5], [4.0, 0.0, 3.25], [7.5, 3.25, 0.0]])
    dep = np.arange(1.0, 1.0 + n * K).reshape(n, K) if legs == "per-vehicle" else np.array([2.0, 5.0, 1.5])
    Q = [2 + k for k in range(K)] if legs == "shared" else [6] * K
    return Instance(f"asym-k{K}-{legs}", n, K, [1, 2, 2], Q, W, dep, dep + 0.5)


def exp_sizes(monkeypatch):
    """Record the size of every array np.exp runs on."""
    sizes, original = [], np.exp

    def counting(x, *args, **kwargs):
        sizes.append(np.size(x))
        return original(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    return sizes


def signed_zero_parts():
    """n = 3, K = 2 parts whose every value is -0.0, but one start leg 0.0:
    the labels that start at symbol 0 sum to 0.0, their vehicle-reversed
    labels to -0.0, as a float compare cannot tell."""
    model = EnergyModel.for_instance(seeded_instance(3))
    S = model.params.S
    start, edges = np.full(S, -0.0), np.full((S, S), -0.0)
    start[0] = 0.0
    # the objective of the first n - 2 positions: the start legs, 0.0 at symbol 0
    level = start.copy()
    parts = table_parts(model)
    return model, dataclasses.replace(parts, pair=np.full_like(parts.pair, -0.0), edges=edges, start=start, close=np.full(S, -0.0), level=level)


def factor_case(table):
    """(model, table parts, whether every label past the first ceil(K/2)
    vehicles of the first symbol has its vehicle-reversed label's energy).
    The signed-zero parts are planted on a model of their size."""
    if table == "signed-zero":
        return (*signed_zero_parts(), False)
    if table == "n6k2":
        inst, mirrored = load_instance(ROOT / "tests" / "data" / "n6" / "n6-k2.vrp"), True
    elif table == "perfbench-n4k3":
        inst, mirrored = perfbench_instance("sweep-n4k3-binary", (1, 2, 3, 4), 3), True
    elif table.startswith("seeded"):
        # n = 5, K = 2, or n = 4 on four vehicles of one capacity
        inst, mirrored = seeded_instance(int(table[8])), True
        if table.endswith("k4"):
            inst = Instance("n4k4", 4, 4, inst.d, [6] * 4, inst.W, inst.dep_to, inst.to_dep)
    else:
        _, K, legs = table.split("-", 2)
        inst, mirrored = asymmetric_instance(int(K[1:]), legs), False
    model = EnergyModel.for_instance(inst)
    return model, table_parts(model), mirrored


FACTOR_TABLES = ["n6k2", "perfbench-n4k3", "signed-zero"] + [f"asym-k{K}-{legs}" for K in (2, 3, 4) for legs in ("shared", "per-vehicle")]


@pytest.mark.parametrize("table", FACTOR_TABLES)
def test_the_row_factor_equals_the_phase_of_every_label(monkeypatch, table):
    # the factor covers the labels of the first ceil(K/2) vehicles of the
    # first symbol when the parts are mirrored, and every label otherwise;
    # exp runs PHASE_BLOCK labels at a time on those, and through the head
    # and its reversed view every label reads its own phase
    model, parts, mirrored = factor_case(table)
    params = model.params
    K, labels = params.K, params.dim("onehot")
    head = simulator.orbit_labels(params, parts)
    assert head == (labels * -(-K // 2) // K if mirrored else labels)
    energies = parts[:]
    for gamma in (0.3, np.pi):
        sizes = exp_sizes(monkeypatch)
        factor = simulator._phases(np.empty(head, dtype=complex), gamma, parts)
        monkeypatch.undo()
        assert sum(sizes) == head and max(sizes) <= simulator.PHASE_BLOCK
        expected = np.exp(-1j * gamma * energies)
        blocks = [(simulator._digit_block(params, factor, d), simulator._digit_block(params, expected, d)) for d in range(params.S)]
        assert all(got.tobytes() == want.tobytes() for got, want in blocks)


def table_mirrored(params, energies):
    """The S^n compare: every label past the head (`_digit_block`) equals
    its vehicle-reversed label as uint64 bits."""
    bits = energies.view(np.uint64)
    size = len(bits) // params.K * -(-params.K // 2)
    return all(np.array_equal(simulator._digit_block(params, bits, d), simulator._digit_block(params, bits[:size], d)) for d in range(params.S))


@st.composite
def mirror_models(draw):
    """Models of n <= 4 customers on K <= 4 vehicles, of one capacity or one
    per vehicle, with 1-D or per-vehicle (2-D) legs, float or integer
    distances, in every capacity mode."""
    n = draw(st.integers(1, 4))
    K = draw(st.integers(1, 4 if n <= 3 else 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W = rng.uniform(0.0, 50.0, (n, n)) if draw(st.booleans()) else rng.integers(0, 50, (n, n)).astype(float)
    np.fill_diagonal(W, 0.0)
    shape = draw(st.sampled_from([(n,), (n, K)]))
    legs = rng.uniform(0.0, 50.0, shape)
    if len(shape) == 2 and draw(st.booleans()):
        legs[:] = legs[:, :1]  # 2-D, but equal on every vehicle
    cap_mode = draw(st.sampled_from(["hinge", "quadratic-surrogate", "filter-only"]))
    Q = [int(rng.integers(0, 8))] * K if cap_mode == "quadratic-surrogate" or draw(st.booleans()) else rng.integers(0, 8, K).tolist()
    inst = Instance("mirror", n, K, rng.integers(0, 4, n), Q, W, legs, legs[::-1].copy() if len(shape) == 1 else legs)
    return EnergyModel.for_instance(inst, PenaltyWeights(lam_once=2.5, lam_cap=1.3, lam_obj=1.7, cap_mode=cap_mode))


@given(mirror_models())
@settings(max_examples=150, deadline=None)
def test_the_parts_mirror_implies_the_table_mirror(model):
    # a head from the parts keeps only labels whose energies equal their
    # reversed labels' bit for bit; one capacity and 1-D legs always give one
    params, inst = model.params, model.inst
    parts = table_parts(model)
    head = simulator.orbit_labels(params, parts)
    least = params.dim("onehot") // params.K * -(-params.K // 2)
    assert head in (params.dim("onehot"), least)
    if head < params.dim("onehot"):
        assert table_mirrored(params, parts[:])
    if inst.uniform_capacity() is not None and inst.dep_to.ndim == inst.to_dep.ndim == 1:
        assert head == least


def test_a_planted_signed_zero_breaks_both_mirrors():
    # the table tells 0.0 from -0.0, and so does the parts' verdict
    model, parts = signed_zero_parts()
    assert not table_mirrored(model.params, parts[:])
    assert simulator.orbit_labels(model.params, parts) == model.params.dim("onehot")


head_case = functools.cache(factor_case)


@st.composite
def head_rows(draw):
    """A table of FACTOR_TABLES or a mirrored one, at n <= 5, and a row of
    one to three schedules (depths 1-3) of one gamma, whose zero layers
    take 0.0 or -0.0, with angles that include 0 and pi."""
    table = draw(st.sampled_from([t for t in FACTOR_TABLES if t != "n6k2"] + ["seeded-n5", "seeded-n4-k4"]))
    angle = st.sampled_from([0.0, -0.0, np.pi]) | st.floats(-4.0, 4.0, allow_nan=False)
    gamma = draw(angle)
    layer = st.sampled_from([0.0, -0.0]) if gamma == 0 else st.just(gamma)
    row = []
    for _ in range(draw(st.integers(1, 3))):
        depth = draw(st.integers(1, 3))
        row.append(Schedule(draw(st.lists(layer, min_size=depth, max_size=depth)), draw(st.lists(angle, min_size=depth, max_size=depth))))
    return table, row


@given(head_rows())
@example(("seeded-n5", [Schedule.constant(0.4, 0.9), Schedule.constant(0.4, np.pi)]))
@example(("seeded-n4-k4", [Schedule.constant(1.3, 0.4), Schedule.constant(1.3, 0.0)]))
@settings(max_examples=60, deadline=None)
def test_row_distributions_from_the_head_equal_run_ansatz(case):
    # a row on mirrored parts holds its factor on their head alone, any
    # other on every label; a depth-1 row with leading mixer axes (n = 5,
    # K = 2 and n = 4, K = 4 here) streams the head and yields it alone,
    # and so does a gamma-0 one
    table, row = case
    model, parts, mirrored = head_case(table)
    params = model.params
    head = simulator.orbit_labels(params, parts)
    assert (head < params.dim("onehot")) == mirrored
    streamed = simulator._blocking(params)[0] and max(s.p for s in row) == 1
    dists = [probs.copy() for probs in evolve_row(params, parts, row, head)]
    with pytest.MonkeyPatch.context() as patch:
        # run_ansatz builds the whole table itself: the signed-zero parts are planted
        patch.setattr(simulator, "energy_table", lambda _: parts[:])
        for probs, schedule in zip(dists, row):
            assert_head_then_reversed(params, probs, exact_distribution(run_ansatz(params, model, schedule)), head if streamed else params.dim("onehot"))


def assert_head_then_reversed(params, probs, reference, held):
    """A row's distribution holds its first `held` labels (the head of a
    streamed depth-1 row on mirrored parts, else every label) and equals
    run_ansatz's `reference` on them bit for bit; past them the head's
    vehicle-reversed view, which the sampler reads there, sums the same
    values in another order, so it agrees within 1e-12 relative: to each
    label's own mass, or to the largest where a sum cancels to near 0 (at
    n = 6 a label of mass 1.4e-15 moves by 1e-11 of itself)."""
    assert len(probs) == held and probs.tobytes() == reference[:held].tobytes()
    past = [simulator._digit_block(params, probs, d).reshape(-1) for d in range(held // params.S ** (params.n - 1), params.S)]
    np.testing.assert_allclose(np.concatenate([probs[:0]] + past), reference[held:], rtol=1e-12, atol=1e-12 * reference.max())


def test_a_head_factor_built_seven_labels_at_a_time_equals_run_ansatz(monkeypatch):
    # the factor is built from the parts seven labels at a time here, on the
    # head, and taken in every layer; a gamma-0 row builds none
    monkeypatch.setattr(simulator, "PHASE_BLOCK", 7)
    model = EnergyModel.for_instance(seeded_instance(3))
    parts = table_parts(model)
    head = simulator.orbit_labels(model.params, parts)
    assert head == model.params.dim("onehot") // 2
    for row in ([Schedule((0.3, 0.3), (0.4, 0.5)), Schedule((0.3,) * 3, (0.4, 0.0, 2.0))], [Schedule((0.0, -0.0), (0.4, 0.5))]):
        for probs, schedule in zip(evolve_row(model.params, parts, row, head), row):
            assert probs.tobytes() == exact_distribution(run_ansatz(model.params, model, schedule)).tobytes()


def row_peak(params, schedules, table=energy_table, head=None):
    """tracemalloc's peak while `evolve_row` yields every distribution of
    a row, its factor on `head` labels, on a table (or its parts) built
    before tracing starts. A streamed depth-1 row yields the head alone."""
    streamed = simulator._blocking(params)[0] and max(s.p for s in schedules) == 1
    held = head if streamed and head is not None else params.dim("onehot")
    energies = table(EnergyModel.for_instance(seeded_instance(params.n)))
    tracemalloc.start()
    try:
        for probs in evolve_row(params, energies, schedules, head):
            assert probs.dtype == np.float64 and len(probs) == held and probs.base is not None
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_row_on_the_head_holds_half_a_factor():
    # n = 6, K = 2, mirrored: the work buffer (16 B/label) and the factor of
    # the head (8); the whole factor would lift the peak to 32
    params = EncodingParams(6, 2)
    schedules = [Schedule.constant(np.pi, 0.0), Schedule.constant(np.pi, np.pi)]
    peak = row_peak(params, schedules, table_parts, params.dim("onehot") // 2)
    assert peak < 25 * params.dim("onehot")


def test_a_sweep_row_at_n6_holds_no_table():
    # n = 6, K = 2: a float64 array of half the labels takes 4 B/label.
    # Building the parts, building the head's factor (8 B/label) and a row
    # on it (16 more for its work buffer) each peak less than that above
    # what they keep, so none of them allocates such an array
    params = EncodingParams(6, 2)
    labels = params.dim("onehot")
    model = EnergyModel.for_instance(seeded_instance(6))
    tracemalloc.start()
    try:
        parts = table_parts(model)
        assert tracemalloc.get_traced_memory()[1] < 4 * labels
        head = simulator.orbit_labels(params, parts)
        assert head == labels // 2
        kept = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        factor = simulator._phases(np.empty(head, dtype=complex), np.pi, parts)
        assert tracemalloc.get_traced_memory()[1] - kept < (8 + 4) * labels
        del factor
        tracemalloc.reset_peak()
        # a row that multiplies its factor in at depths 1 and 2
        for _ in evolve_row(params, parts, [Schedule.constant(np.pi, np.pi), Schedule((np.pi, np.pi), (np.pi, 0.0))], head):
            pass
        assert tracemalloc.get_traced_memory()[1] - kept < (8 + 16 + 4) * labels
    finally:
        tracemalloc.stop()


def test_a_row_holds_its_distributions_in_its_state_buffers():
    # n = 5, K = 2: 10^5 labels. Both schedules keep a work buffer beside
    # the factor, so an S^n float64 distribution of their own would lift
    # the peak to 40 B/label.
    params = EncodingParams(5, 2)
    constant = [Schedule.constant(0.04, 0.3, p=2), Schedule.constant(0.04, 1.9, p=2)]
    peak = row_peak(params, constant)
    assert peak <= WORKER_BYTES * params.dim("onehot")
    assert peak < (16 + 16 + 8) * params.dim("onehot")
    # per-layer betas, 0 and pi among them, keep the same two buffers
    varying = [Schedule((0.04, 0.04), (0.3, 0.0)), Schedule((0.04, 0.04), (np.pi, 0.2))]
    peak = row_peak(params, varying)
    assert peak <= WORKER_BYTES * params.dim("onehot")
    assert peak < (16 + 16 + 8) * params.dim("onehot")


def test_a_gamma_0_row_allocates_no_phase_factor():
    # a row with a factor holds two 16-byte buffers per label; this one
    # holds its work buffer alone. At n = 6 its slab and sub-block take
    # 0.2 B/label, so any other S^n array, even a bool one, would cross 17.
    params = EncodingParams(6, 2)
    schedules = [Schedule.constant(0.0, 0.3, p=2), Schedule((-0.0, 0.0), (1.9, 0.2))]
    assert row_peak(params, schedules) < 17 * params.dim("onehot")


def fleet_instance(n, K, mirrored):
    """n customers on K vehicles with shared depot legs: of one capacity,
    whose parts mirror, or of a capacity per vehicle, whose parts do not
    (at K >= 2)."""
    base = seeded_instance(n)
    Q = [sum(base.d)] * K if mirrored else [sum(base.d) - k for k in range(K)]
    return Instance(f"n{n}k{K}", n, K, base.d, Q, base.W, base.dep_to, base.to_dep)


@st.composite
def streamed_rows(draw):
    """A shape at n = 3-5, K = 1-5 of at most 10^5 labels, a MIX_BLOCK
    that gives it 1 to n - 2 leading axes, mirrored parts or not, a
    register, and a row of one to three schedules of one depth, 1 (which
    streams) or 2, of one gamma (0 or not), with angles that include 0 and
    pi."""
    n, K = draw(st.sampled_from([(n, K) for n in (3, 4, 5) for K in range(1, 6) if (n * K) ** n <= 10**5]))
    lead = draw(st.integers(1, n - 2))
    angle = st.sampled_from([0.0, -0.0, np.pi]) | st.floats(-4.0, 4.0, allow_nan=False)
    # mostly a factor, on mirrored parts: the head's reversed view is read
    gamma, depth = draw(st.sampled_from([np.pi, 0.7]) | angle), draw(st.integers(1, 2))
    layer = st.sampled_from([0.0, -0.0]) if gamma == 0 else st.just(gamma)
    row = []
    for _ in range(draw(st.integers(1, 3))):
        row.append(Schedule(draw(st.lists(layer, min_size=depth, max_size=depth)), draw(st.lists(angle, min_size=depth, max_size=depth))))
    return n, K, lead, draw(st.integers(0, 3)) > 0, draw(st.sampled_from(REGISTERS)), row


@given(streamed_rows())
@example((4, 3, 2, True, "binary", [Schedule.constant(0.7, 0.4), Schedule.constant(0.7, 0.0), Schedule.constant(0.7, np.pi)]))
@example((3, 3, 1, True, "onehot", [Schedule.constant(np.pi, 1.3)]))
@settings(max_examples=120, deadline=None)
def test_streamed_rows_equal_run_ansatz(case):
    # with MIX_BLOCK patched small, a depth-1 row on a factor streams the
    # blocks of its leading digit in the head (an (n - 1)-digit `_mix` per
    # block), ceil(K/2) of K vehicles on mirrored parts, and yields the
    # head, as a gamma-0 depth-1 row does; its distributions on the head,
    # and a deeper row's on every label, equal run_ansatz's under the
    # default blocking bit for bit. At K = 3 the head's middle vehicle is
    # its own reverse
    n, K, lead, mirrored, register, row = case
    model = EnergyModel.for_instance(fleet_instance(n, K, mirrored), register=register)
    params, parts = model.params, table_parts(model)
    head = simulator.orbit_labels(params, parts)
    assert head == (params.dim("onehot") // K * -(-K // 2) if mirrored else params.dim("onehot"))
    expected = [exact_distribution(run_ansatz(params, model, schedule)) for schedule in row]
    digits = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "MIX_BLOCK", params.S ** (n - lead))
        assert simulator._blocking(params)[0] == lead
        original = simulator._mix
        patch.setattr(simulator, "_mix", lambda *args, **kwargs: digits.append(kwargs.get("digits")) or original(*args, **kwargs))
        dists = [probs.copy() for probs in evolve_row(params, parts, row, head)]
    streamed = row[0].p == 1 and row[0].gammas[0] != 0
    for probs, reference in zip(dists, expected):
        reference = reference[params.binary_labels()] if register == "binary" else reference
        assert_head_then_reversed(params, probs, reference, head if row[0].p == 1 else params.dim("onehot"))
    assert (n - 1 in digits) == streamed
    if streamed:
        assert digits.count(n - 1) == (params.S // K * -(-K // 2) if mirrored else params.S) * len(row)


def test_a_streamed_row_holds_its_distribution_and_three_blocks():
    # n = 6, K = 2, depth 1: the float64 distribution of the head (4 B per
    # label), the factor on the head (8), and the leading digit's sum, its
    # product with off and one scratch block (48 / S = 4); a complex state
    # would add 8
    params = EncodingParams(6, 2)
    schedules = [Schedule.constant(np.pi, np.pi), Schedule.constant(np.pi, 0.0), Schedule.constant(np.pi, 0.3)]
    peak = row_peak(params, schedules, table_parts, params.dim("onehot") // 2)
    assert peak < (4 + 8 + 48 / params.S + 1) * params.dim("onehot")


def test_a_streamed_row_holds_its_distribution_and_one_block():
    # n = 6, K = 2, depth 1: the float64 distribution of the head (4 B per
    # label), the factor on the head (8), the leading digit's sum (16 / S)
    # and the one digit of floats the buffer holds past the distribution
    # (8 / S); each block is built in the buffer, so any other block
    # (16 / S) would cross
    params = EncodingParams(6, 2)
    schedules = [Schedule.constant(np.pi, np.pi), Schedule.constant(np.pi, 0.0), Schedule.constant(np.pi, 0.3)]
    peak = row_peak(params, schedules, table_parts, params.dim("onehot") // 2)
    assert peak < (4 + 8 + 24 / params.S + 1) * params.dim("onehot")


@pytest.mark.parametrize("gamma, factor", [(np.pi, 8), (0.0, 0)])
def test_a_streamed_row_and_its_draws_allocate_no_float_per_label(gamma, factor):
    # n = 6, K = 2, depth 1, 1,728 shots a point: the head's distribution (4
    # B/label), one digit past it (8 / S), the factor on the head (8, none at
    # gamma 0), the leading digit's sum (16 / S) and the sampler's buffers of
    # REPLICA_CHUNK labels (under 3 B/label); the draws read the labels past
    # the head through its reversed view, so a float64 array of every label
    # (8) would cross
    params = EncodingParams(6, 2)
    labels = params.dim("onehot")
    parts = table_parts(EnergyModel.for_instance(seeded_instance(6)))
    tracemalloc.start()
    try:
        row = [Schedule.constant(gamma, beta) for beta in (np.pi, 0.0, 0.3)]
        for j, probs in enumerate(evolve_row(params, parts, row, labels // 2)):
            assert len(probs) == labels // 2
            assert simulator.sample(probs, 1728, (11, j), params, "onehot").shots == 1728
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (4 + factor + 24 / params.S + 3) * labels


def test_the_benchmark_shapes_keep_their_mixer_path():
    # perfbench's sweeps: n = 6, K = 2 has leading axes, so its depth-1
    # rows stream the 12 blocks of the leading digit; n = 4, K = 3 is one
    # block, mixed whole. n = 7, K = 2 has a one-column slab. A MIX_BLOCK
    # change that moves any of them shows here first
    assert simulator._blocking(EncodingParams(6, 2)) == (2, 2)
    assert simulator._blocking(EncodingParams(4, 3)) == (0, 4)
    assert simulator._blocking(EncodingParams(7, 2)) == (4, 1)


@pytest.mark.parametrize("gammas", [(0.3, 0.7, 0.3), (0.0, -0.0, 0.05), (0.2, 0.2, 1.1)])
def test_mixed_gamma_ansatz_equals_the_layer_chain(exA, params3, gammas):
    # run_ansatz is the layer chain, whatever gamma each layer takes
    model = EnergyModel.for_instance(exA)
    schedule = Schedule(gammas, (0.4, 2.2, 1.3))
    state = initial_state(params3)
    for gamma, beta in zip(schedule.gammas, schedule.betas):
        state = apply_mixer(apply_phase(state, gamma, model), beta)
    assert run_ansatz(params3, model, schedule).amplitudes.tobytes() == state.amplitudes.tobytes()


def test_row_needs_one_first_gamma(exA, params3):
    model = EnergyModel.for_instance(exA)
    with pytest.raises(ValueError):
        list(evolve_row(params3, energy_table(model), [Schedule.constant(0.1, 0.2), Schedule.constant(0.2, 0.2)]))


@pytest.mark.parametrize(
    "row",
    [
        [Schedule((0.3, 0.7), (0.4, 0.5))],
        [Schedule((0.0, 0.05), (0.4, 0.5))],
        [Schedule((0.2, 0.0), (0.4, 0.5))],
        [Schedule.constant(0.3, 0.4, p=2), Schedule((0.3, 0.3, 1.1), (0.4, 2.2, 1.3))],
    ],
    ids=["later", "after-zero", "to-zero", "second-schedule"],
)
def test_a_row_whose_later_layer_changes_gamma_is_refused(exA, params3, row):
    # every layer of a row takes its one gamma; no distribution is yielded
    # for a row with a layer of another, even after schedules that have none
    model = EnergyModel.for_instance(exA)
    dists = evolve_row(params3, energy_table(model), row)
    with pytest.raises(ValueError, match="the row's gamma"):
        next(dists)


def per_point_sweep(inst, model, grid, shots, seed, depth, score, exact):
    """The sweep's reduction over points prepared one by one with
    run_ansatz, each from its own uniform state."""
    labels = exact.optimal_labels(model.params, model.register)
    records, best, pooled = [], None, {}
    for index, (gamma, beta) in enumerate(itertools.product(grid.gammas, grid.betas)):
        state = run_ansatz(model.params, model, Schedule.constant(gamma, beta, depth))
        [(record, local_best, feasible_bits)] = solver.grid_row(
            model, state.register, gamma, (beta,), [exact_distribution(state)], shots, seed, index, score, (labels, exact.optimal_cost)
        )
        records.append(record)
        for bits, count in feasible_bits.items():
            pooled[bits] = pooled.get(bits, 0) + count
        if local_best is not None and (best is None or local_best[:3] < best[:3]):
            best = local_best
    return tuple(records), best, pooled


@pytest.mark.parametrize(
    "instance, register, depth, cap_mode, shots",
    [
        *(pytest.param("exB", register, depth, "hinge", 300, id=f"{depth}-{register}") for depth in (1, 2) for register in REGISTERS),
        pytest.param("exB", "binary", 2, "quadratic-surrogate", 300, id="surrogate"),
        pytest.param("exB", "onehot", 1, "hinge", 6, id="empty-point"),
        # S = 6: every binary word pads, so the loop's distributions hold zeros
        pytest.param("exA", "binary", 1, "hinge", 300, id="padded-binary"),
    ],
)
def test_rowwise_sweep_equals_per_point_loop(request, instance, register, depth, cap_mode, shots):
    inst = request.getfixturevalue(instance)
    model = EnergyModel.for_instance(inst, PenaltyWeights(cap_mode=cap_mode), register)
    exact = exact_solve(inst, model)
    grid = GridSpec((0.0, 0.02, 0.05), (0.3, 1.2, 2.9))
    result = phqc(inst, model, grid, shots, 11, depth=depth, score="total", exact_reference=exact)
    records, best, pooled = per_point_sweep(inst, model, grid, shots, 11, depth, "total", exact)
    assert result.records == records
    assert (result.best_score, result.best_bitstring) == (best[0], best[3])
    assert result.feasible_counts == pooled
    assert all(r.p_star_exact is not None for r in records)
    # 6 shots leave some points of the grid without an accepted label
    assert any(r.feasible_count == 0 for r in records) == (shots == 6)


@pytest.mark.parametrize("register", REGISTERS)
def test_jobs_parity_over_three_gamma_rows(exA, register):
    model = EnergyModel.for_instance(exA, register=register)
    exact = exact_solve(exA, model)
    grid = GridSpec((0.0, 0.03, 0.06, 0.1), (0.5, 1.5, 2.5))
    one = phqc(exA, model, grid, 200, 3, depth=2, exact_reference=exact)
    two = phqc(exA, model, grid, 200, 3, depth=2, jobs=2, exact_reference=exact)
    assert one.records == two.records
    assert (one.best_bitstring, one.best_score) == (two.best_bitstring, two.best_score)
    assert phqc_histogram(one, model.params) == phqc_histogram(two, model.params)


def squared_and_drawn(monkeypatch):
    """Record the buffer each mixer layer squares, and the distribution
    and register each sample draws from; refuse any other squaring of a
    state."""
    squared, drawn = [], []
    original_mix, original_sample = simulator._mix, simulator.sample

    def mix(amps, params, beta, square=False, **first_visit):
        if square:
            squared.append(amps)
        original_mix(amps, params, beta, square, **first_visit)

    def draw(probs, shots, seed, params, register):
        drawn.append((probs, register))
        return original_sample(probs, shots, seed, params, register)

    def distribution(state):
        raise AssertionError("the sweep squared a state outside the mixer")

    monkeypatch.setattr(simulator, "_mix", mix)
    monkeypatch.setattr(solver, "sample", draw)
    monkeypatch.setattr(simulator, "exact_distribution", distribution)
    return squared, drawn


def test_one_distribution_per_grid_point(exA, params3, monkeypatch):
    squared, drawn = squared_and_drawn(monkeypatch)
    model = EnergyModel.for_instance(exA)
    grid = GridSpec.default(params3, 3)
    phqc(exA, model, grid, 100, 5, exact_reference=exact_solve(exA, model))
    # one square per grid point, in its last mixer layer, and the sample
    # draws from the float64 view of the buffer it squared: a gamma-0 row
    # squares a prefix of its buffer, which the distribution starts at and covers
    assert len(squared) == len(drawn) == len(grid)
    for (probs, _), square in zip(drawn, squared):
        assert probs.base is (square if square.base is None else square.base)
        assert probs.ctypes.data == square.ctypes.data and len(probs) >= len(square)


@pytest.mark.parametrize("register", REGISTERS)
def test_each_point_frees_its_sample_before_the_next_draw(exA, monkeypatch, register):
    # a row keeps only its points' accepted labels and counts: a full
    # sample can be as large as the state (about 48 MB at 10**7 shots on
    # n = 6), so a row holding all of them would hold that once per point
    samples = []
    original = solver.sample

    def draw(*args):
        assert all(ref() is None for ref in samples), "an earlier point's sample is still held"
        drawn = original(*args)
        samples.append(weakref.ref(drawn))
        return drawn

    monkeypatch.setattr(solver, "sample", draw)
    model = EnergyModel.for_instance(exA, register=register)
    grid = GridSpec((0.1, 0.4), (0.2, 0.9, 1.7))
    phqc(exA, model, grid, 500, 3, exact_reference=exact_solve(exA, model))
    assert len(samples) == len(grid) and all(ref() is None for ref in samples)


def test_sweep_checks_the_budget_before_allocating(exA, monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("the energy table was built before the budget check")

    monkeypatch.setattr(solver, "table_parts", no_table)
    # exA's vehicles are interchangeable: its table and factor hold 108 of
    # its 216 labels; one byte below the charge of one depth-1 row
    charge = BYTES_PER_AMPLITUDE * 216 - (TABLE_BYTES + FACTOR_BYTES) * 108 + SCHEDULE_BYTES + EDGE_BYTES * 36
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", charge - 1)
    model = EnergyModel.for_instance(exA)
    with pytest.raises(AmplitudeBudgetError):
        phqc(exA, model, GridSpec((0.1,), (0.2,)), 10, 1)


def test_a_sweep_of_10_12_grid_points_is_refused_before_any_row(exA, monkeypatch):
    # 10**6 gammas and betas: the schedules fit, the grid points do not
    axis = (0.5,) * 10**6

    def refuse(*args, **kwargs):
        raise AssertionError("built before the admission")

    grid = GridSpec(axis, axis)
    monkeypatch.setattr(np, "linspace", refuse)
    monkeypatch.setattr(GridSpec, "default", classmethod(refuse))
    monkeypatch.setattr(solver, "evolve_row", refuse)
    with pytest.raises(AmplitudeBudgetError, match="216 labels and 1000000 schedule layers in 1 thread"):
        phqc(exA, EnergyModel.for_instance(exA), grid, 10, 1)


def test_sweep_decides_the_mirror_once_per_table(exB, monkeypatch):
    # one compare for the sweep's one set of parts, whatever the thread
    # count, and every row holds its factor on the head
    heads, tables = [], []

    def head(params, parts=None):
        if parts is not None:
            heads.append(len(parts.head_of) * len(parts.tail_of))
        return simulator.orbit_labels(params, parts)

    def row(params, parts, schedules, held):
        tables.append(held)
        return evolve_row(params, parts, schedules, held)

    monkeypatch.setattr(solver, "orbit_labels", head)
    monkeypatch.setattr(solver, "evolve_row", row)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    model = EnergyModel.for_instance(exB)
    grid = GridSpec((0.0, 0.1, 0.2), (0.4, 0.9))
    results = []
    for jobs in (1, 2):
        heads.clear()
        tables.clear()
        results.append(phqc(exB, model, grid, 50, 3, jobs=jobs).records)
        assert heads == [4096] and tables == [2048] * 3
    assert results[0] == results[1]


def test_budget_charges_the_head_of_interchangeable_vehicles(exA, monkeypatch):
    # exA: 216 labels, 108 of them in the head. The admission charges the
    # head its parts decide: a per-vehicle capacity that a load passes, or
    # per-vehicle legs that differ, keep the whole table; a second capacity
    # no load reaches, or 2-D legs equal on both vehicles, keep the head.
    # Each sweep has one depth-1 row per thread, of one beta.
    def variant(Q, legs):
        return Instance("variant", 3, 2, exA.d, Q, exA.W, legs, legs)

    equal, unequal = (np.stack([exA.dep_to, exA.dep_to + shift], axis=1) for shift in (0, 1))
    cases = ((exA, 108), (variant([2, 3], exA.dep_to), 216), (variant([3, 3], unequal), 216), (variant([3, 4], exA.dep_to), 108), (variant([3, 3], equal), 108))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for workers in (1, 2):
        for inst, head in cases:
            model = EnergyModel.for_instance(inst)
            need = (TABLE_BYTES + WORKER_BYTES * workers) * 216 - (TABLE_BYTES + FACTOR_BYTES * workers) * (216 - head)
            need += EDGE_BYTES * 36 + SCHEDULE_BYTES * workers + AXIS_BYTES * (workers + 1) + POINT_BYTES * workers
            monkeypatch.setattr(simulator, "MEMORY_BUDGET", need)
            assert solver.charge_sweep(model, (workers, 1), 1, workers)[::2] == (workers, head)
            monkeypatch.setattr(simulator, "MEMORY_BUDGET", need - 1)
            with pytest.raises(AmplitudeBudgetError):
                solver.charge_sweep(model, (workers, 1), 1, workers)


def test_budget_admits_one_n7_k2_row_of_interchangeable_vehicles(monkeypatch):
    # a one-thread sweep of one capacity and shared legs holds half the
    # table and half the factor; two threads, or parts without the mirror,
    # are refused. Nothing of size 14^7 is allocated: only the parts, whose
    # largest is the pair table of 560 x 2,380 multisets (the objective level
    # holds 14^5 values)
    model = EnergyModel.for_instance(seeded_instance(7))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert solver.charge_sweep(model, (2, 2), 2, 1)[::2] == (1, 14**7 // 2)
    with pytest.raises(AmplitudeBudgetError, match="in 2 threads"):
        solver.charge_sweep(model, (2, 2), 2, 2)
    monkeypatch.setattr(solver, "orbit_labels", lambda params, parts=None: simulator.orbit_labels(params) if parts is None else params.dim("onehot"))
    with pytest.raises(AmplitudeBudgetError, match="105413504 labels and 4 schedule layers in 1 thread"):
        solver.charge_sweep(model, (2, 2), 2, 1)


def test_budget_counts_the_binary_vector(params3, monkeypatch):
    # exA: 216 one-hot labels and 512 binary labels, and a 6 x 6 edge matrix
    edges = EDGE_BYTES * 36
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", BYTES_PER_AMPLITUDE * 216 + edges)
    check_budget(params3, "onehot")
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", BYTES_PER_AMPLITUDE * (216 + 512) + edges)
    check_budget(params3, "binary")
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", BYTES_PER_AMPLITUDE * (216 + 512) + edges - 1)
    with pytest.raises(AmplitudeBudgetError):
        check_budget(params3, "binary")


def test_budget_refuses_n7_k2_and_admits_n6(monkeypatch):
    # arithmetic only: nothing of size 14^7 is allocated
    assert BYTES_PER_AMPLITUDE * 14**7 > MEMORY_BUDGET
    with pytest.raises(AmplitudeBudgetError, match="105413504 labels"):
        check_budget(EncodingParams(7, 2), "onehot")
    check_budget(EncodingParams(6, 2), "onehot")
    check_budget(EncodingParams(6, 2), "binary")


def test_budget_refuses_one_customer_on_a_fleet_of_20000():
    # arithmetic only: 20,000 labels take 1.3 MB, but the 20,000 x 20,000
    # edge matrix the energy table starts from would take 10 GB
    assert BYTES_PER_AMPLITUDE * 20000 < MEMORY_BUDGET < EDGE_BYTES * 20000**2
    with pytest.raises(AmplitudeBudgetError, match="20000 labels"):
        check_budget(EncodingParams(1, 20000), "onehot")


def test_solve_over_budget_exits_with_one_error_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", 1000)
    path = tmp_path / "exa.json"
    path.write_text('{"W": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "d": [1, 1, 1], "Q": [3]}')
    assert main(["solve", "--instance", str(path), "--out", str(tmp_path / "run.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "memory budget" in err
    assert not (tmp_path / "run.json").exists()



@pytest.mark.parametrize("register", REGISTERS)
def test_sweep_draws_from_the_onehot_distribution(exA, params3, monkeypatch, register):
    # exA: 216 one-hot labels; a binary sweep never builds its 512 labels
    squared, drawn = squared_and_drawn(monkeypatch)
    model = EnergyModel.for_instance(exA, register=register)
    grid = GridSpec.default(params3, 3)
    phqc(exA, model, grid, 100, 5, exact_reference=exact_solve(exA, model))
    sizes = [len(amps) for amps in squared] + [len(probs) for probs, _ in drawn]
    assert len(sizes) == 2 * len(grid)
    assert set(sizes) == {params3.dim("onehot")}
    assert {register for _, register in drawn} == {"onehot"}


@pytest.mark.parametrize("register", REGISTERS)
def test_sweep_phases_come_from_one_table(exA, monkeypatch, register):
    # the parts of one S^n table (exA: 216 labels) serve every phase,
    # whatever the register, and no S^n table is built
    tables, scored = [], []

    def parts(model):
        built = table_parts(model)
        tables.append(len(built.head_of) * len(built.tail_of))
        return built

    def table(model):
        raise AssertionError("the sweep built an S^n table")

    def components(model, labels):
        scored.append(np.asarray(labels, dtype=np.int64))
        return energy_components(model, labels)

    monkeypatch.setattr(solver, "table_parts", parts)
    monkeypatch.setattr(simulator, "energy_table", table)
    monkeypatch.setattr(solver, "energy_components", components)
    model = EnergyModel.for_instance(exA, register=register)
    grid = GridSpec((0.1, 0.2, 0.3), (0.4, 0.9))
    phqc(exA, model, grid, 40, 3)
    assert tables == [216]
    # one scoring call per gamma row, on its points' accepted labels only
    assert len(scored) == len(grid.gammas)
    for labels in scored:
        assert len(labels) <= 40 * len(grid.betas)
        assert (label_reasons(labels, exA, register) == REASONS.index(OK)).all()


def test_budget_charges_the_table_once_and_each_worker(params3, monkeypatch):
    # arithmetic on exA's 216 one-hot labels; its 6 x 6 edge matrix is charged once
    assert BYTES_PER_AMPLITUDE == TABLE_BYTES + WORKER_BYTES
    for workers in (1, 2, 3):
        monkeypatch.setattr(simulator, "MEMORY_BUDGET", (TABLE_BYTES + WORKER_BYTES * workers) * 216 + EDGE_BYTES * 36)
        check_budget(params3, "onehot", workers=workers)
        with pytest.raises(AmplitudeBudgetError, match=f"in {workers + 1} threads"):
            check_budget(params3, "onehot", workers=workers + 1)


class PoolStarted(Exception):
    pass


def test_sweep_charges_a_worker_per_gamma_row_before_the_pool_starts(exA, monkeypatch):
    sizes = []

    def pool(*args, max_workers, **kwargs):
        sizes.append(max_workers)
        raise PoolStarted

    monkeypatch.setattr(solver, "ThreadPoolExecutor", pool)
    # enough CPUs that only jobs and the gamma rows bound the threads
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    # two threads, each holding its row's one depth-1 schedule, and one edge matrix
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", (TABLE_BYTES + 2 * WORKER_BYTES) * 216 + 2 * SCHEDULE_BYTES + EDGE_BYTES * 36)
    model = EnergyModel.for_instance(exA)
    three_rows = GridSpec((0.1, 0.2, 0.3), (0.4,))
    with pytest.raises(AmplitudeBudgetError, match="in 3 threads"):
        phqc(exA, model, three_rows, 10, 1, jobs=3)
    # jobs beyond the gamma rows add no thread, to the charge or to the
    # pool; one thread needs no pool
    with pytest.raises(PoolStarted):
        phqc(exA, model, GridSpec((0.1, 0.2), (0.4,)), 10, 1, jobs=3)
    assert sizes == [2]
    assert phqc(exA, model, three_rows, 10, 1, jobs=1).total_shots == 30
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs >= 1"):
            phqc(exA, model, three_rows, 10, 1, jobs=jobs)


@pytest.mark.parametrize("cpus, threads", [(1, 1), (2, 2), (3, 3), (None, 1)])
def test_sweep_threads_stop_at_the_cpu_count(monkeypatch, cpus, threads):
    # charge_sweep alone: 2,000 gamma rows and jobs, never a thread started
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    model = EnergyModel.for_instance(Instance("one", 1, 1, [1], [1], [[0.0]], [1.0], [1.0]))
    assert solver.charge_sweep(model, (2000, 2000), 1, 2000)[0] == threads
    assert solver.charge_sweep(model, (2000, 2000), 1, 2)[0] == min(threads, 2)


def test_sweep_under_jobs_runs_in_one_process(exA, monkeypatch):
    # the parent's result, with os.fork refusing to start any process
    model = EnergyModel.for_instance(exA)
    grid = GridSpec((0.1, 0.2, 0.3), (0.4, 0.9))
    one = phqc(exA, model, grid, 40, 3, jobs=1)

    def fork():
        raise AssertionError("the sweep forked")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert phqc(exA, model, grid, 40, 3, jobs=2) == one


def test_threads_past_the_cores_keep_the_serial_result(exA, monkeypatch):
    # more threads than cores, switching often: a buffer that two rows
    # shared would change a record, the best or the histogram
    model = EnergyModel.for_instance(exA)
    grid = GridSpec(tuple(np.linspace(0.1, 1.2, 8)), (0.4, 0.9, 2.0))
    exact = exact_solve(exA, model)
    one = phqc(exA, model, grid, 200, 5, depth=2, jobs=1, exact_reference=exact)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = phqc(exA, model, grid, 200, 5, depth=2, jobs=8, exact_reference=exact)
    finally:
        sys.setswitchinterval(interval)
    assert many == one


def test_one_job_never_constructs_a_pool(exA, monkeypatch):
    def pool(*args, **kwargs):
        raise PoolStarted

    monkeypatch.setattr(solver, "ThreadPoolExecutor", pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    model = EnergyModel.for_instance(exA)
    grid = GridSpec((0.1, 0.2, 0.3), (0.4,))
    assert phqc(exA, model, grid, 10, 1, jobs=1).total_shots == 30
    # a single gamma row or a single CPU holds any jobs to one thread
    assert phqc(exA, model, GridSpec((0.1,), (0.4, 0.9)), 10, 1, jobs=4).total_shots == 20
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert phqc(exA, model, grid, 10, 1, jobs=4).total_shots == 30
