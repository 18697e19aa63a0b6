"""The in-place kernels and the row-wise sweep against their references.

The mixer runs the closed form x <- dg*x + off*sum(x) in place on each
block axis; it must match the block_mixer_matrix tensordot contraction.
The chunked in-place phase must equal the whole-vector product
amplitudes * exp(-i*gamma*E) bit for bit, from its own table or a
given one.
A sweep evolves each gamma row from one shared first phase layer; its
records, best and histogram must equal a per-point run_ansatz loop, for
any worker count. Either register samples the one-hot state, with its
phases from one energy table. The memory ceiling, charged per worker,
refuses a run before allocating or starting a pool.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorperm import simulator, solver
from colorperm.cli import main
from colorperm.encoding import REGISTERS, EncodingParams
from colorperm.feasibility import OK, REASONS, label_reasons
from colorperm.hamiltonian import EnergyModel, energy_components, energy_table
from colorperm.simulator import (
    BYTES_PER_AMPLITUDE,
    MEMORY_BUDGET,
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
    run_ansatz,
)
from colorperm.solver import GridSpec, exact_solve, phqc, phqc_histogram


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
@pytest.mark.parametrize("chunk", [7, 50, simulator.PHASE_CHUNK])
def test_chunked_phase_equals_whole_vector_product(exA, params3, monkeypatch, source, chunk):
    monkeypatch.setattr(simulator, "PHASE_CHUNK", chunk)
    model = EnergyModel.for_instance(exA)
    state = run_ansatz(params3, model, Schedule.constant(0.3, 0.8))
    energies = energy_components(model, np.arange(model.dim))["total"]
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
        Schedule((0.04, 0.07), (2.5, 0.6)),
        Schedule.constant(0.04, 0.0),
    ]
    # each yielded state is overwritten by the next, so keep copies
    row = [state.amplitudes.copy() for state in evolve_row(params3, model, schedules)]
    for amps, schedule in zip(row, schedules):
        assert np.array_equal(amps, run_ansatz(params3, model, schedule).amplitudes)


def test_row_needs_one_first_gamma(exA, params3):
    model = EnergyModel.for_instance(exA)
    with pytest.raises(ValueError):
        list(evolve_row(params3, model, [Schedule.constant(0.1, 0.2), Schedule.constant(0.2, 0.2)]))


def per_point_sweep(inst, model, grid, shots, seed, depth, score, exact):
    """The sweep's reduction over points prepared one by one with
    run_ansatz, each from its own uniform state."""
    labels = exact.optimal_labels(model.params, model.register)
    records, best, pooled = [], None, {}
    for index, gamma, beta in grid.points():
        state = run_ansatz(model.params, model, Schedule.constant(gamma, beta, depth))
        record, local_best, feasible_bits = solver._grid_point(
            model, state, gamma, beta, shots, seed, index, score, labels, exact.optimal_cost
        )
        records.append(record)
        for bits, count in feasible_bits.items():
            pooled[bits] = pooled.get(bits, 0) + count
        if local_best is not None and (best is None or local_best[:3] < best[:3]):
            best = local_best
    return tuple(records), best, pooled


@pytest.mark.parametrize("register", REGISTERS)
@pytest.mark.parametrize("depth", [1, 2])
def test_rowwise_sweep_equals_per_point_loop(exB, register, depth):
    model = EnergyModel.for_instance(exB, register=register)
    exact = exact_solve(exB, model)
    grid = GridSpec((0.0, 0.02, 0.05), (0.3, 1.2, 2.9))
    result = phqc(exB, model, grid, 300, 11, depth=depth, score="total", exact_reference=exact)
    records, best, pooled = per_point_sweep(exB, model, grid, 300, 11, depth, "total", exact)
    assert result.records == records
    assert (result.best_score, result.best_bitstring) == (best[0], best[3])
    assert result.feasible_counts == pooled
    assert all(r.p_star_exact is not None for r in records)


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


def test_one_distribution_per_grid_point(exA, params3, monkeypatch):
    calls = []
    original = simulator.exact_distribution

    def counted(state):
        calls.append(state.register)
        return original(state)

    monkeypatch.setattr(solver, "exact_distribution", counted)
    monkeypatch.setattr(simulator, "exact_distribution", counted)
    model = EnergyModel.for_instance(exA)
    grid = GridSpec.default(params3, 3)
    phqc(exA, model, grid, 100, 5, exact_reference=exact_solve(exA, model))
    assert len(calls) == len(grid)


def test_sweep_checks_the_budget_before_allocating(exA, monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("the energy table was built before the budget check")

    monkeypatch.setattr(solver, "energy_table", no_table)
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", BYTES_PER_AMPLITUDE * 215)
    model = EnergyModel.for_instance(exA)
    with pytest.raises(AmplitudeBudgetError):
        phqc(exA, model, GridSpec((0.1,), (0.2,)), 10, 1)


def test_budget_counts_the_binary_vector(params3, monkeypatch):
    # exA: 216 one-hot labels and 512 binary labels
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", BYTES_PER_AMPLITUDE * 216)
    check_budget(params3, "onehot")
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", BYTES_PER_AMPLITUDE * (216 + 512))
    check_budget(params3, "binary")
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", BYTES_PER_AMPLITUDE * (216 + 512) - 1)
    with pytest.raises(AmplitudeBudgetError):
        check_budget(params3, "binary")


def test_budget_refuses_n7_k2_and_admits_n6(monkeypatch):
    # arithmetic only: nothing of size 14^7 is allocated
    assert BYTES_PER_AMPLITUDE * 14**7 > MEMORY_BUDGET
    with pytest.raises(AmplitudeBudgetError, match="105413504 labels"):
        check_budget(EncodingParams(7, 2), "onehot")
    check_budget(EncodingParams(6, 2), "onehot")
    check_budget(EncodingParams(6, 2), "binary")


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
    sizes = []
    original_distribution, original_sample = simulator.exact_distribution, simulator.sample

    def distribution(state):
        sizes.append(state.dim)
        return original_distribution(state)

    def draw(state, shots, seed, probs=None):
        sizes.extend([state.dim, len(probs)])
        return original_sample(state, shots, seed, probs)

    monkeypatch.setattr(solver, "exact_distribution", distribution)
    monkeypatch.setattr(solver, "sample", draw)
    model = EnergyModel.for_instance(exA, register=register)
    grid = GridSpec.default(params3, 3)
    phqc(exA, model, grid, 100, 5, exact_reference=exact_solve(exA, model))
    assert len(sizes) == 3 * len(grid)
    assert set(sizes) == {params3.dim("onehot")}


@pytest.mark.parametrize("register", REGISTERS)
def test_sweep_phases_come_from_one_table(exA, monkeypatch, register):
    # one S^n table (exA: 216 labels) serves every phase, whatever the register
    tables, scored = [], []

    def table(model):
        built = energy_table(model)
        tables.append(len(built))
        return built

    def components(model, labels):
        scored.append(np.asarray(labels, dtype=np.int64))
        return energy_components(model, labels)

    monkeypatch.setattr(solver, "energy_table", table)
    monkeypatch.setattr(simulator, "energy_table", table)
    monkeypatch.setattr(solver, "energy_components", components)
    model = EnergyModel.for_instance(exA, register=register)
    grid = GridSpec((0.1, 0.2, 0.3), (0.4, 0.9))
    phqc(exA, model, grid, 40, 3)
    assert tables == [216]
    # one scoring call per grid point, on the accepted labels only
    assert len(scored) == len(grid)
    for labels in scored:
        assert len(labels) <= 40
        assert (label_reasons(labels, exA, register) == REASONS.index(OK)).all()


def test_budget_charges_the_table_once_and_each_worker(params3, monkeypatch):
    # arithmetic on exA's 216 one-hot labels
    assert BYTES_PER_AMPLITUDE == TABLE_BYTES + WORKER_BYTES
    for workers in (1, 2, 3):
        monkeypatch.setattr(simulator, "MEMORY_BUDGET", (TABLE_BYTES + WORKER_BYTES * workers) * 216)
        check_budget(params3, "onehot", workers=workers)
        with pytest.raises(AmplitudeBudgetError, match=f"in {workers + 1} worker processes"):
            check_budget(params3, "onehot", workers=workers + 1)


class PoolStarted(Exception):
    pass


def test_sweep_charges_a_worker_per_gamma_row_before_the_pool_starts(exA, monkeypatch):
    def pool(*args, **kwargs):
        raise PoolStarted

    monkeypatch.setattr(solver, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", (TABLE_BYTES + 2 * WORKER_BYTES) * 216)
    model = EnergyModel.for_instance(exA)
    three_rows = GridSpec((0.1, 0.2, 0.3), (0.4,))
    with pytest.raises(AmplitudeBudgetError, match="in 3 worker processes"):
        phqc(exA, model, three_rows, 10, 1, jobs=3)
    # jobs beyond the gamma rows add no worker; one process needs no pool
    with pytest.raises(PoolStarted):
        phqc(exA, model, GridSpec((0.1, 0.2), (0.4,)), 10, 1, jobs=3)
    assert phqc(exA, model, three_rows, 10, 1, jobs=1).total_shots == 30
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs >= 1"):
            phqc(exA, model, three_rows, 10, 1, jobs=jobs)
