"""Reference-model and diagnostics tests.

The filter is checked against the direct geometric-sum definition, the
success-mass bound against direct summation of the reference law, and
the shot count against a Monte Carlo repetition experiment.
"""

import math

import numpy as np
import pytest

from colorperm.analysis import (
    EnvelopeState,
    circle_distance,
    dephased_kernel,
    envelope,
    fejer_bound,
    fejer_kernel,
    phase_profile,
    phase_profile_from_energies,
    required_shots,
)
from colorperm.encoding import EncodingParams, label_bitstrings, label_to_onehot
from colorperm.feasibility import feasible_global_positions
from colorperm.hamiltonian import EnergyModel, energy_table
from colorperm.instances import load_instance
from colorperm import analysis, simulator, solver
from colorperm.simulator import BYTES_PER_AMPLITUDE, AmplitudeBudgetError, SampleSet
from colorperm.solver import exact_solve, feasible_histogram

TWO_PI = 2 * math.pi


def fejer_direct(p, theta):
    total = sum(np.exp(1j * r * np.asarray(theta)) for r in range(p + 1))
    return np.abs(total) ** 2 / (p + 1)


def optimal_feasible_labels(inst, model):
    table = energy_table(model)
    p = model.params
    feasible = np.array(
        [feasible_global_positions(label_to_onehot(z, p), inst).feasible for z in range(p.dim(model.register))]
    )
    best = table[feasible].min()
    return np.nonzero(feasible & (table <= best + 1e-9))[0]


def test_circle_distance():
    assert circle_distance(0.1, TWO_PI - 0.1) == pytest.approx(0.2, abs=1e-12)
    assert circle_distance(0.4, 0.4) == 0.0
    assert circle_distance(0.0, math.pi) == pytest.approx(math.pi, abs=1e-12)
    grid = np.linspace(0, 4 * math.pi, 200)
    d = circle_distance(grid, 1.0)
    assert (d >= 0).all() and (d <= math.pi + 1e-12).all()


def test_fejer_kernel_peak_exact():
    for p in (0, 1, 2, 7):
        assert fejer_kernel(p, 0.0) == float(p + 1)


def test_fejer_kernel_goldens():
    assert fejer_kernel(1, math.pi) == pytest.approx(0.0, abs=1e-12)
    theta = np.linspace(0.0, TWO_PI, 300)
    vals = fejer_kernel(2, theta)
    assert (vals >= -1e-12).all()
    assert np.abs(fejer_kernel(2, theta + TWO_PI) - vals).max() < 1e-9


@pytest.mark.parametrize("p", [0, 1, 2, 5])
def test_fejer_kernel_matches_direct_sum(p):
    theta = np.linspace(1e-4, TWO_PI - 1e-4, 500)
    assert np.abs(fejer_kernel(p, theta) - fejer_direct(p, theta)).max() < 1e-10


def test_fejer_kernel_rejects_negative_order():
    with pytest.raises(ValueError):
        fejer_kernel(-1, 0.0)


def test_phase_profile_gamma_zero():
    prof = phase_profile_from_energies([1.0, 2.0, 3.0], 0.0, [0])
    assert np.all(prof.theta == 0.0)
    assert prof.theta_star == 0.0
    assert prof.delta == 0.0


def test_phase_profile_two_level_antipodal():
    prof = phase_profile_from_energies([0.0, 5.0, 5.0], math.pi / 5.0, [0])
    assert prof.delta == pytest.approx(math.pi, abs=1e-12)


def test_phase_profile_wraps():
    prof = phase_profile_from_energies([0.0, 10.0], 1.0, [0])
    assert 0.0 <= prof.theta[1] < TWO_PI
    assert prof.theta[1] == pytest.approx(10.0 - TWO_PI, abs=1e-12)


def test_phase_profile_errors():
    with pytest.raises(ValueError):
        phase_profile_from_energies([1.0, 2.0], 0.3, [])
    with pytest.raises(ValueError):
        phase_profile_from_energies([1.0, 2.0], 0.3, [0, 1])


def test_phase_profile_all_optimal():
    prof = phase_profile_from_energies([3.0, 3.0], 0.7, [0, 1])
    assert prof.delta == pytest.approx(math.pi)


def test_phase_profile_from_model(exA):
    model = EnergyModel.for_instance(exA)
    opt = optimal_feasible_labels(exA, model)
    prof = phase_profile(model, 0.037, opt)
    table = energy_table(model)
    assert np.abs(prof.theta - np.mod(0.037 * table, TWO_PI)).max() < 1e-12
    assert prof.delta > 0.0


def test_dephased_kernel_doubly_stochastic():
    for S, beta in ((2, 0.4), (6, 1.3), (9, 2.2)):
        kern = dephased_kernel(S, beta)
        assert (kern >= -1e-15).all()
        assert np.abs(kern.sum(axis=0) - 1).max() < 1e-12
        assert np.abs(kern.sum(axis=1) - 1).max() < 1e-12


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
def test_phase_profile_refuses_non_finite_gamma(gamma):
    with pytest.raises(ValueError, match="gamma must be finite"):
        phase_profile_from_energies([1.0, 2.0], gamma, [0])


@pytest.mark.parametrize("gamma", [1e308, -1e300])
def test_phase_profile_refuses_a_gamma_that_overflows_the_phases(gamma):
    # gamma itself is finite; gamma * E is not, for the largest |E| = 1e10
    with pytest.raises(ValueError, match="gamma must be finite, and so must gamma"):
        phase_profile_from_energies([1.0, -1e10, 2.0], gamma, [0])
    assert phase_profile_from_energies([1.0, -1e10, 2.0], 1e290, [0]).delta >= 0


@pytest.mark.parametrize("betas", [[math.nan], [0.4, math.inf], [-math.inf]])
def test_envelope_refuses_non_finite_betas(params3, betas):
    with pytest.raises(ValueError, match="beta angles must be finite"):
        envelope(params3, betas)


def test_envelope_identity_at_zero(params3):
    env = envelope(params3, [0.0, 0.0])
    assert np.allclose(env.per_block, 1.0 / 6.0, atol=1e-15)


def test_envelope_uniform_fixed_point(params3):
    # uniform marginals survive any doubly stochastic update
    for betas in ([0.9], [1.7, 0.3], [2.5, 0.1, 1.1]):
        env = envelope(params3, betas)
        assert np.abs(env.per_block - 1.0 / 6.0).max() < 1e-12
        assert np.abs(env.per_block.sum(axis=1) - 1.0).max() < 1e-12


def test_envelope_full_distribution(params3, monkeypatch):
    env = envelope(params3, [0.8])
    full = env.full_distribution()
    assert full.shape == (216,)
    assert full.sum() == pytest.approx(1.0, abs=1e-12)
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", BYTES_PER_AMPLITUDE * 100)
    with pytest.raises(AmplitudeBudgetError):
        env.full_distribution()


def test_envelope_nonuniform_block_expansion(params3):
    # expansion multiplies per-block marginals in block order
    per_block = np.array([[1.0, 0.0], [0.5, 0.5], [0.25, 0.75]])
    env = EnvelopeState(EncodingParams(3, 1), per_block)
    full = env.full_distribution()
    assert full.shape == (8,)
    assert full[0] == pytest.approx(1.0 * 0.5 * 0.25)
    assert full[3] == pytest.approx(1.0 * 0.5 * 0.75)
    assert full[4] == 0.0


def test_fejer_bound_invariants(exA, params3):
    model = EnergyModel.for_instance(exA)
    opt = optimal_feasible_labels(exA, model)
    env = envelope(params3, [1.1])
    for p in (1, 2, 5):
        prof = phase_profile(model, 0.05, opt)
        rep = fejer_bound(prof, env, opt, p)
        assert 0.0 <= rep.C_beta <= 1.0
        assert rep.M_p_delta <= rep.M_p_bound + 1e-12
        assert rep.q0_lower <= rep.q0_exact_ref + 1e-12
        assert not rep.degenerate
        assert set(rep.required_shots) == {0.90, 0.95, 0.99}


def test_fejer_bound_random_profiles(params3):
    rng = np.random.default_rng(42)
    env = envelope(params3, [0.7])
    for _ in range(20):
        energies = rng.uniform(0.0, 200.0, size=216)
        opt = [int(np.argmin(energies))]
        gamma = rng.uniform(0.005, 0.25)
        prof = phase_profile_from_energies(energies, gamma, opt)
        rep = fejer_bound(prof, env, opt, p=2)
        assert rep.M_p_delta <= rep.M_p_bound + 1e-12
        assert rep.q0_lower <= rep.q0_exact_ref + 1e-12
        assert 0.0 <= rep.q0_lower <= 1.0


@pytest.mark.parametrize("chunk", [7, 50, analysis.PHASE_CHUNK])
@pytest.mark.parametrize("K", [2, 3])
def test_chunked_filter_equals_the_default_chunk(demo_vrp_path, monkeypatch, chunk, K):
    # demo-n4-k2 has 4,096 labels at K = 2 and 20,736 at K = 3, one default chunk
    inst = load_instance(demo_vrp_path, K=K)
    model = EnergyModel.for_instance(inst)
    labels = exact_solve(inst, model).optimal_labels(model.params)
    profile = phase_profile(model, 0.4, labels)
    for betas in ([0.9, 1.3], [0.9] * 3):
        env = envelope(model.params, betas)
        expected = fejer_bound(profile, env, labels, len(betas)).to_dict()
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "PHASE_CHUNK", chunk)
            chunked = phase_profile(model, 0.4, labels)
            assert fejer_bound(profile, env, labels, len(betas)).to_dict() == expected
            assert fejer_bound(chunked, env, labels, len(betas)).to_dict() == expected
        assert np.array_equal(chunked.theta, profile.theta)
        assert (chunked.theta_star, chunked.delta) == (profile.theta_star, profile.delta)


def test_fejer_bound_full_optimal_set_collapses():
    params = EncodingParams(1, 1)
    env = envelope(params, [0.4])
    prof = phase_profile_from_energies([5.0], 0.2, [0])
    rep = fejer_bound(prof, env, [0], p=3)
    assert rep.C_beta == 1.0
    assert rep.q0_lower == 1.0
    assert rep.q0_exact_ref == 1.0


def test_fejer_bound_degenerate_at_gamma_zero(exA, params3):
    model = EnergyModel.for_instance(exA)
    opt = optimal_feasible_labels(exA, model)
    prof = phase_profile(model, 0.0, opt)
    rep = fejer_bound(prof, envelope(params3, [0.9]), opt, p=2)
    assert rep.degenerate
    assert rep.M_p_bound == math.inf
    # with every phase on the peak the bound and the exact mass both
    # collapse to the envelope weight
    assert rep.q0_lower == pytest.approx(rep.C_beta, abs=1e-12)
    assert rep.q0_exact_ref == pytest.approx(rep.C_beta, abs=1e-12)


def test_fejer_bound_errors(exA, params3):
    model = EnergyModel.for_instance(exA)
    opt = optimal_feasible_labels(exA, model)
    prof = phase_profile(model, 0.05, opt)
    with pytest.raises(ValueError):
        fejer_bound(prof, envelope(params3, [0.9]), [], p=1)
    with pytest.raises(ValueError):
        fejer_bound(prof, envelope(EncodingParams(4, 2), [0.9]), opt, p=1)


def test_fejer_report_to_dict(exA, params3):
    model = EnergyModel.for_instance(exA)
    opt = optimal_feasible_labels(exA, model)
    rep = fejer_bound(phase_profile(model, 0.05, opt), envelope(params3, [0.9]), opt, p=1)
    d = rep.to_dict()
    assert set(d["required_shots"]) == {"0.90", "0.95", "0.99"}
    assert d["p"] == 1


def test_required_shots_goldens():
    assert required_shots(0.5, 0.99) == 10
    assert required_shots(1.0, 0.99) == 5
    grid = np.linspace(0.05, 1.0, 25)
    shots = [required_shots(float(p), 0.95) for p in grid]
    assert all(a >= b for a, b in zip(shots, shots[1:]))
    assert required_shots(0.3, 0.99) >= required_shots(0.3, 0.90)


def test_required_shots_validation():
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            required_shots(bad)
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError):
            required_shots(0.5, bad)


def test_required_shots_monte_carlo():
    # the count must deliver at least one hit in >= 95% of repetitions
    # for any per-shot success probability at or above p_star
    rng = np.random.default_rng(123)
    for p_star in (0.08, 0.13, 0.4):
        shots = required_shots(p_star, 0.95)
        hits = (rng.random((1000, shots)) < p_star).any(axis=1)
        assert hits.mean() >= 0.94


def feasible_label(exA, params3):
    for z in range(216):
        if feasible_global_positions(label_to_onehot(z, params3), exA).feasible:
            return z
    raise AssertionError("no feasible label")


def feasible_samples(ss, inst, register):
    # the accepted (one-hot labels, counts) of one drawn SampleSet of one-hot
    # labels, through a one-point row of the sweep, and their bitstrings in
    # `register`, as the sweep renders its pooled labels
    model = EnergyModel.for_instance(inst, register=register)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "sample", lambda *args: ss)
        [(_, _, feasible)] = solver.grid_row(model, 0.0, (0.0,), [None], ss.shots, 0, 0, "objective", None)
    labels = list(feasible)
    return labels, list(feasible.values()), label_bitstrings(np.array(labels, dtype=np.int64), model.params, register)


def feasible_rows(ss, inst):
    # the feasible histogram of one SampleSet, as solve builds hist.csv
    _, counts, bits = feasible_samples(ss, inst, "onehot")
    return feasible_histogram(dict(zip(bits, counts)), ss.shots, EncodingParams.for_instance(inst))


def test_anticoncentration_single_outcome(exA, params3):
    z = feasible_label(exA, params3)
    ss = SampleSet(np.array([z]), np.array([50]), 50)
    rows, share = feasible_rows(ss, exA)
    assert share == 1.0
    assert rows == [(label_to_onehot(z, params3), 50, 1.0, pytest.approx(50.0 / 50.0 * 216))]


def test_anticoncentration_filters_infeasible(exA, params3):
    z = feasible_label(exA, params3)
    bad = 0  # label 0 repeats customer 0 three times
    assert not feasible_global_positions(label_to_onehot(bad, params3), exA).feasible
    ss = SampleSet(np.array([bad, z]), np.array([20, 30]), 50)
    labels, counts, _ = feasible_samples(ss, exA, "onehot")
    assert labels == [z] and counts == [30]
    # frequencies stay out of all 50 shots, infeasible ones included
    rows, _ = feasible_rows(ss, exA)
    assert [row[2] for row in rows] == [30 / 50]


def test_anticoncentration_histogram_order(exA, params3):
    labels = [
        z
        for z in range(216)
        if feasible_global_positions(label_to_onehot(z, params3), exA).feasible
    ][:3]
    ss = SampleSet(np.array(labels), np.array([5, 20, 5]), 30)
    rows, share = feasible_rows(ss, exA)
    counts = [row[1] for row in rows]
    assert counts == [20, 5, 5]
    # the uniform baseline is 1/D, D = 216
    assert [row[3] for row in rows] == pytest.approx([count / 30 * 216 for count in counts])
    assert share == 1.0


def test_anticoncentration_binary_register(exA, params3):
    from colorperm.encoding import digits_label, label_digits, label_to_binary

    # a binary sweep draws, judges and keeps one-hot labels, and renders the
    # accepted ones as the binary words of their binary labels
    z = feasible_label(exA, params3)
    zb = digits_label(label_digits(z, 3, 6), 8)
    bad = 0  # label 0 repeats customer 0 three times
    ss = SampleSet(np.array([bad, z]), np.array([10, 10]), 20)
    labels, counts, bits = feasible_samples(ss, exA, "binary")
    assert labels == [z] and counts == [10]
    assert bits == [label_to_binary(zb, params3)]
