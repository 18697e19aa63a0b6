"""Statevector propagation tests.

The ansatz is checked against a dense oracle that builds the full layer
unitary explicitly (scipy expm for the block mixer, a kron product over
blocks, a diagonal phase from scalar energy recomputation) so the
closed-form mixer and the axis-wise tensor contraction are both covered
by independent linear algebra.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from colorperm import simulator
from colorperm.encoding import EncodingParams, digits_label, label_assignment, label_digits
from colorperm.hamiltonian import (
    EnergyModel,
    PenaltyWeights,
    energy_capacity,
    energy_objective,
    energy_once,
)
from colorperm.instances import Instance
from colorperm.simulator import (
    BYTES_PER_AMPLITUDE,
    AmplitudeBudgetError,
    EncodedState,
    SampleSet,
    Schedule,
    apply_mixer,
    apply_phase,
    block_mixer_matrix,
    exact_distribution,
    initial_state,
    run_ansatz,
    sample,
)


def scalar_energies(model):
    inst = model.inst
    w = model.weights
    out = []
    for z in range(model.dim):
        a = label_assignment(z, model.params)
        loads = [0.0] * inst.K
        for i, k in a.symbols:
            loads[k] += float(inst.d[i])
        out.append(
            energy_once(a.customer_counts(), w)
            + energy_capacity(loads, inst.Q, w)
            + energy_objective(a, inst, w.lam_obj)
        )
    return np.array(out)


def mixer_generator(S):
    J = np.ones((S, S))
    return (J - np.eye(S)) / (S - 1)


def test_register_dim(params3):
    assert params3.dim("onehot") == 216
    assert params3.dim("binary") == 512
    with pytest.raises(ValueError):
        params3.dim("dense")


def test_schedule_validation():
    s = Schedule.constant(0.3, 0.7, p=2)
    assert s.p == 2 and s.gammas == (0.3, 0.3)
    with pytest.raises(ValueError):
        Schedule((), ())
    with pytest.raises(ValueError):
        Schedule((0.1,), (0.1, 0.2))


@pytest.mark.parametrize(
    "gammas, betas", [((np.nan,), (0.1,)), ((0.1,), (np.inf,)), ((0.1, 0.2), (0.3, -np.inf))]
)
def test_schedule_refuses_non_finite_angles(gammas, betas):
    with pytest.raises(ValueError, match="finite"):
        Schedule(gammas, betas)


def test_initial_state_single_customer():
    p = EncodingParams(1, 2)
    st = initial_state(p)
    assert np.allclose(st.amplitudes, np.full(2, 1 / np.sqrt(2)))


def test_initial_state_uniform(params3):
    st = initial_state(params3)
    assert st.dim == 216
    assert np.allclose(st.amplitudes, 1 / np.sqrt(216))
    assert st.norm() == pytest.approx(1.0, abs=1e-12)


def test_initial_state_binary_support(params3):
    st = initial_state(params3, "binary")
    assert st.dim == 512
    nonzero = np.nonzero(st.amplitudes)[0]
    assert len(nonzero) == 216
    assert np.allclose(st.amplitudes[nonzero], 1 / np.sqrt(216))
    # every supported label decodes to valid words only
    for z in nonzero:
        assert all(w < 6 for w in label_digits(int(z), 3, 8))
    assert st.norm() == pytest.approx(1.0, abs=1e-12)


def test_state_length_guard(params3):
    with pytest.raises(ValueError):
        EncodedState(np.zeros(10, dtype=complex), "onehot", params3)


def test_block_mixer_identity_at_zero():
    for S in (1, 2, 5, 9):
        assert np.allclose(block_mixer_matrix(S, 0.0), np.eye(S), atol=1e-15)


def test_block_mixer_two_level_closed_form():
    for beta in np.linspace(-2.0, 2.0, 9):
        U = block_mixer_matrix(2, beta)
        expect = np.array(
            [
                [np.cos(beta), -1j * np.sin(beta)],
                [-1j * np.sin(beta), np.cos(beta)],
            ]
        )
        assert np.abs(U - expect).max() < 1e-14


@pytest.mark.parametrize("S", range(2, 13))
def test_block_mixer_matches_expm(S):
    for beta in np.linspace(0.0, np.pi, 7):
        U = block_mixer_matrix(S, beta)
        ref = expm(-1j * beta * mixer_generator(S))
        assert np.abs(U - ref).max() < 1e-10


@pytest.mark.parametrize("S", [2, 3, 6, 12])
def test_block_mixer_unitary_and_doubly_stochastic(S):
    for beta in (0.37, 1.1, 2.9):
        U = block_mixer_matrix(S, beta)
        assert np.abs(U @ U.conj().T - np.eye(S)).max() < 1e-12
        P = np.abs(U) ** 2
        assert np.abs(P.sum(axis=0) - 1).max() < 1e-12
        assert np.abs(P.sum(axis=1) - 1).max() < 1e-12


def test_apply_mixer_fixes_uniform(params3):
    st = initial_state(params3)
    mixed = apply_mixer(st, 0.9)
    # the uniform state is an eigenvector; only a global phase moves
    assert np.allclose(exact_distribution(mixed), exact_distribution(st), atol=1e-12)
    phase = np.exp(-1j * 0.9 * 3)
    assert np.abs(mixed.amplitudes - phase * st.amplitudes).max() < 1e-12


def test_apply_mixer_preserves_norm(params3):
    rng = np.random.default_rng(0)
    amps = rng.normal(size=216) + 1j * rng.normal(size=216)
    amps /= np.linalg.norm(amps)
    st = EncodedState(amps, "onehot", params3)
    assert apply_mixer(st, 1.23).norm() == pytest.approx(1.0, abs=1e-12)


def test_apply_phase_zero_and_modulus(exA, params3):
    model = EnergyModel.for_instance(exA)
    st = initial_state(params3)
    assert np.allclose(apply_phase(st, 0.0, model).amplitudes, st.amplitudes)
    rot = apply_phase(st, 0.61, model)
    assert np.allclose(np.abs(rot.amplitudes), np.abs(st.amplitudes), atol=1e-14)


def test_apply_phase_additivity(exA, params3):
    model = EnergyModel.for_instance(exA)
    st = initial_state(params3)
    twice = apply_phase(apply_phase(st, 0.35, model), 0.35, model)
    once = apply_phase(st, 0.70, model)
    assert np.abs(twice.amplitudes - once.amplitudes).max() < 1e-12


def test_apply_phase_register_mismatch(exA, params3):
    model = EnergyModel.for_instance(exA, register="binary")
    with pytest.raises(ValueError):
        apply_phase(initial_state(params3), 0.1, model)


def test_run_ansatz_gamma_zero_stays_uniform(exA, params3):
    model = EnergyModel.for_instance(exA)
    st = run_ansatz(params3, model, Schedule.constant(0.0, 1.3, p=2))
    assert np.abs(exact_distribution(st) - 1 / 216).max() < 1e-12


@pytest.mark.parametrize("p", [1, 2])
def test_run_ansatz_matches_dense_oracle(exA, params3, p):
    model = EnergyModel.for_instance(exA)
    energies = scalar_energies(model)
    rng = np.random.default_rng(p)
    for _ in range(4):
        gammas = rng.uniform(0.0, 0.06, size=p)
        betas = rng.uniform(0.0, np.pi, size=p)
        st = run_ansatz(params3, model, Schedule(tuple(gammas), tuple(betas)))
        psi = np.full(216, 1 / np.sqrt(216), dtype=complex)
        for gamma, beta in zip(gammas, betas):
            psi = np.exp(-1j * gamma * energies) * psi
            U = expm(-1j * beta * mixer_generator(6))
            psi = np.kron(np.kron(U, U), U) @ psi
        assert np.abs(st.amplitudes - psi).max() < 1e-10


def test_run_ansatz_binary_matches_onehot(exA, params3):
    onehot = EnergyModel.for_instance(exA)
    binary = EnergyModel.for_instance(exA, register="binary")
    sched = Schedule((0.03,), (0.9,))
    st1 = run_ansatz(params3, onehot, sched)
    st2 = run_ansatz(params3, binary, sched)
    for z in range(216):
        digits = label_digits(z, 3, 6)
        zb = digits_label(digits, 8)
        assert abs(st2.amplitudes[zb] - st1.amplitudes[z]) < 1e-10
    # no amplitude ever leaks onto padded words
    valid = {digits_label(label_digits(z, 3, 6), 8) for z in range(216)}
    padded = np.array([z for z in range(512) if z not in valid])
    assert (np.abs(st2.amplitudes[padded]) ** 2).sum() < 1e-14


def test_run_ansatz_budget(exA, params3, monkeypatch):
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", BYTES_PER_AMPLITUDE * 100)
    model = EnergyModel.for_instance(exA)
    with pytest.raises(AmplitudeBudgetError):
        run_ansatz(params3, model, Schedule.constant(0.1, 0.1))


def test_run_ansatz_params_mismatch(exA):
    model = EnergyModel.for_instance(exA)
    with pytest.raises(ValueError):
        run_ansatz(EncodingParams(4, 2), model, Schedule.constant(0.1, 0.1))


def test_exact_distribution_normalized(exA, params3):
    model = EnergyModel.for_instance(exA)
    st = run_ansatz(params3, model, Schedule.constant(0.02, 1.1, p=2))
    probs = exact_distribution(st)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert (probs >= 0).all()


def test_sample_single_shot(params3):
    st = initial_state(params3)
    ss = sample(st, 1, 42)
    assert ss.shots == 1
    assert len(ss.counts) == 1
    (z,) = ss.counts
    assert 0 <= z < 216 and ss.counts[z] == 1


def test_sample_seed_reproducibility(params3):
    st = initial_state(params3)
    a = sample(st, 500, 1234)
    b = sample(st, 500, 1234)
    assert a.counts == b.counts
    c = sample(st, 500, (1234, 0))
    d = sample(st, 500, (1234, 0))
    assert c.counts == d.counts
    assert sample(st, 500, (1234, 1)).counts != c.counts


def test_sample_statistics(params3):
    st = initial_state(params3)
    shots = 1_000_000
    ss = sample(st, shots, 7)
    freqs = np.zeros(216)
    for z, c in ss.counts.items():
        freqs[z] = c / shots
    # six-sigma band around the uniform probability
    sigma = np.sqrt((1 / 216) * (1 - 1 / 216) / shots)
    assert np.abs(freqs - 1 / 216).max() < 6 * sigma


def test_sample_validation(params3):
    st = initial_state(params3)
    with pytest.raises(ValueError):
        sample(st, 0, 1)
    with pytest.raises(ValueError):
        SampleSet({0: 2}, 3, 1, "onehot", params3)


def test_sampleset_views(params3):
    st = initial_state(params3)
    ss = sample(st, 200, 99)
    labels = ss.labels()
    assert labels == sorted(labels)
    bc = ss.bitstring_counts()
    assert sum(bc.values()) == 200
    assert all(len(bits) == 18 and set(bits) <= {"0", "1"} for bits in bc)
    binary = sample(initial_state(params3, "binary"), 50, 3)
    assert all(len(bits) == 9 for bits in binary.bitstring_counts())


def _binary_label(z, n, S, q):
    return digits_label(label_digits(z, n, S), 1 << q)


@pytest.mark.parametrize("K_demands", [(2, [1, 1, 1]), (3, [1, 2, 1])])
def test_binary_run_is_exact_relabelling(exA, K_demands):
    # (n, K) = (3, 2): S = 6, radix 8; (3, 3): S = 9, radix 16
    K, demands = K_demands
    inst = Instance(f"n3k{K}", 3, K, demands, [3] * K, exA.W, exA.dep_to, exA.to_dep)
    params = EncodingParams(3, K)
    sched = Schedule((0.03, 0.05), (0.9, 0.4))
    st1 = run_ansatz(params, EnergyModel.for_instance(inst), sched)
    st2 = run_ansatz(params, EnergyModel.for_instance(inst, register="binary"), sched)
    assert st2.register == "binary" and st2.dim == 1 << (3 * params.q)
    relabel = np.array([_binary_label(z, 3, params.S, params.q) for z in range(st1.dim)])
    assert np.array_equal(params.binary_labels(), relabel)
    assert np.array_equal(st2.amplitudes[relabel], st1.amplitudes)
    padded = np.setdiff1d(np.arange(st2.dim), relabel)
    assert len(padded) == st2.dim - st1.dim
    assert (st2.amplitudes[padded] == 0).all()


def test_apply_mixer_refuses_binary_state(params3):
    with pytest.raises(ValueError):
        apply_mixer(initial_state(params3, "binary"), 0.4)
