"""Reference-model and diagnostics tests.

The filter is checked against the direct geometric-sum definition, the
success-mass bound against direct summation of the reference law, and
the shot count against a Monte Carlo repetition experiment.
"""

import math

import numpy as np
import pytest

from colorperm.analysis import (
    AnticoncentrationReport,
    EnvelopeState,
    angle_preselect,
    anticoncentration_report,
    circle_distance,
    dephased_kernel,
    envelope,
    fejer_bound,
    fejer_kernel,
    phase_profile,
    phase_profile_from_energies,
    required_shots,
    surrogate_scores,
)
from colorperm.encoding import EncodingParams, label_to_onehot
from colorperm.feasibility import feasible_global_positions
from colorperm.hamiltonian import EnergyModel, PenaltyWeights, energy_table
from colorperm.instances import Instance
from colorperm import simulator
from colorperm.simulator import ANALYSIS_BYTES, AmplitudeBudgetError, SampleSet

TWO_PI = 2 * math.pi


def fejer_direct(p, theta):
    total = sum(np.exp(1j * r * np.asarray(theta)) for r in range(p + 1))
    return np.abs(total) ** 2 / (p + 1)


def optimal_feasible_labels(inst, model):
    table = energy_table(model)
    p = model.params
    feasible = np.array(
        [feasible_global_positions(label_to_onehot(z, p), inst).feasible for z in range(model.dim)]
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
        assert np.abs(env.block_mass() - 1.0).max() < 1e-12


def test_envelope_full_distribution(params3, monkeypatch):
    env = envelope(params3, [0.8])
    full = env.full_distribution()
    assert full.shape == (216,)
    assert full.sum() == pytest.approx(1.0, abs=1e-12)
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", ANALYSIS_BYTES * 100)
    with pytest.raises(AmplitudeBudgetError):
        env.full_distribution()


def test_envelope_nonuniform_block_expansion(params3):
    # expansion multiplies per-block marginals in block order
    per_block = np.array([[1.0, 0.0], [0.5, 0.5], [0.25, 0.75]])
    env = EnvelopeState(EncodingParams(3, 1), (), per_block)
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


def test_surrogate_scores_match_enumeration(exA, params3):
    model = EnergyModel.for_instance(exA)
    costs = energy_table(model)
    lam = 0.02
    rows = surrogate_scores(model, params3, [0.3, 1.2], lam, rho=0.5, alpha=0.0)
    for row in rows:
        W = envelope(params3, [row["beta"]]).full_distribution()
        mu = float(W @ costs)
        sigma = math.sqrt(float(W @ (costs - mu) ** 2))
        log_z = math.log(float(W @ np.exp(-lam * costs)))
        assert row["mu"] == pytest.approx(mu, abs=1e-12)
        assert row["sigma"] == pytest.approx(sigma, abs=1e-12)
        assert row["log_z"] == pytest.approx(log_z, abs=1e-12)
        assert row["score"] == pytest.approx(log_z - 0.5 * sigma, abs=1e-12)


def test_surrogate_lp_weights(exA, params3):
    model = EnergyModel.for_instance(exA)
    rng = np.random.default_rng(8)
    X = rng.uniform(0.0, 1.0, size=(6, 6))
    rows = surrogate_scores(model, params3, [0.5], lam=0.1, alpha=2.0, lp_weights=X)
    u = np.full(6, 1.0 / 6.0)
    expect = 2 * float(u @ X @ u)
    assert rows[0]["s_lp"] == pytest.approx(expect, abs=1e-12)
    with pytest.raises(ValueError):
        surrogate_scores(model, params3, [0.5], lam=0.1, lp_weights=np.ones((2, 2)))


def test_surrogate_validation(exA, params3):
    model = EnergyModel.for_instance(exA)
    with pytest.raises(ValueError):
        surrogate_scores(model, params3, [], lam=0.1)
    with pytest.raises(ValueError):
        surrogate_scores(model, params3, [0.5], lam=0.0)


def test_angle_preselect_constant_costs():
    inst = Instance("flat", 1, 1, [1], [1], [[0.0]], [3.0], [3.0])
    w = PenaltyWeights(cap_mode="filter-only")
    model = EnergyModel.for_instance(inst, w)
    grid = [0.4, 1.0, 2.0]
    assert angle_preselect(model, EncodingParams(1, 1), grid, lam=0.5) == 0.4
    rows = surrogate_scores(model, EncodingParams(1, 1), grid, lam=0.5)
    # single label of cost 6: log Z = -lam * 6 for every beta
    for row in rows:
        assert row["log_z"] == pytest.approx(-0.5 * 6.0, abs=1e-12)


def test_angle_preselect_first_index_tie(exA, params3):
    # the uniform start makes the surrogate beta-independent, so the
    # first grid angle must win the tie deterministically
    model = EnergyModel.for_instance(exA)
    assert angle_preselect(model, params3, [1.7, 0.2, 2.9], lam=0.05) == 1.7


def feasible_label(exA, params3):
    for z in range(216):
        if feasible_global_positions(label_to_onehot(z, params3), exA).feasible:
            return z
    raise AssertionError("no feasible label")


def test_anticoncentration_single_outcome(exA, params3):
    model = EnergyModel.for_instance(exA)
    z = feasible_label(exA, params3)
    ss = SampleSet({z: 50}, 50, 0, "onehot", params3)
    rep = anticoncentration_report(ss, model, params3)
    assert rep.D == 216
    assert rep.baseline == pytest.approx(1 / 216)
    assert rep.share_above_baseline == 1.0
    assert rep.feasible_distinct == 1
    assert rep.feasible_shots == 50
    assert rep.histogram[0][0] == label_to_onehot(z, params3)
    assert rep.histogram[0][3] == pytest.approx(50.0 / 50.0 * 216)


def test_anticoncentration_filters_infeasible(exA, params3):
    model = EnergyModel.for_instance(exA)
    z = feasible_label(exA, params3)
    bad = 0  # label 0 repeats customer 0 three times
    assert not feasible_global_positions(label_to_onehot(bad, params3), exA).feasible
    ss = SampleSet({z: 30, bad: 20}, 50, 0, "onehot", params3)
    rep = anticoncentration_report(ss, model, params3)
    assert rep.feasible_distinct == 1
    assert rep.feasible_shots == 30
    assert rep.total_shots == 50


def test_anticoncentration_histogram_order(exA, params3):
    model = EnergyModel.for_instance(exA)
    labels = [
        z
        for z in range(216)
        if feasible_global_positions(label_to_onehot(z, params3), exA).feasible
    ][:3]
    ss = SampleSet({labels[0]: 5, labels[1]: 20, labels[2]: 5}, 30, 0, "onehot", params3)
    rep = anticoncentration_report(ss, model, params3)
    counts = [row[1] for row in rep.histogram]
    assert counts == sorted(counts, reverse=True)
    d = rep.to_dict()
    assert d["D"] == 216 and d["total_shots"] == 30


def test_anticoncentration_binary_register(exA, params3):
    from colorperm.encoding import digits_label, label_digits

    model = EnergyModel.for_instance(exA, register="binary")
    z = feasible_label(exA, params3)
    zb = digits_label(label_digits(z, 3, 6), 8)
    padded = digits_label([7, 7, 7], 8)
    ss = SampleSet({zb: 10, padded: 10}, 20, 0, "binary", params3)
    rep = anticoncentration_report(ss, model, params3)
    assert rep.feasible_distinct == 1
    assert rep.feasible_shots == 10


def test_surrogate_scores_binary_model_matches_onehot(exA, params3):
    # exA has S = 6, so the binary register carries padded words; the
    # surrogate still scores the S^n envelope against one-hot energies
    onehot = EnergyModel.for_instance(exA)
    binary = EnergyModel.for_instance(exA, register="binary")
    args = (params3, [0.3, 1.2], 0.02)
    assert surrogate_scores(binary, *args, rho=0.5) == surrogate_scores(onehot, *args, rho=0.5)
