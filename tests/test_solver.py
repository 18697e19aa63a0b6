"""Grid-search solver and exhaustive-oracle tests.

exact_solve is cross-checked against a flat scan of all 216 register
labels filtered by the feasibility oracle, so the permutation-times-
segmentation enumeration and the label-space view must agree on both
the optimum and the feasible count.
"""

import numpy as np
import pytest

from colorperm import solver
from colorperm.encoding import REGISTERS, EncodingParams, assignment_label, label_assignment, label_to_onehot
from colorperm.feasibility import (
    OK,
    PADDING_LEAK,
    REASONS,
    REPEATED_CUSTOMER,
    decode_binary_and_check,
    feasible_global_positions,
    label_reasons,
)
from colorperm.hamiltonian import (
    EnergyModel,
    PenaltyWeights,
    energy_components,
    energy_objective,
    energy_total,
)
from colorperm.instances import Instance
from colorperm.solver import (
    ENUMERATION_CEILING,
    ExactSolution,
    GridSpec,
    contiguous_labelings,
    default_shots,
    exact_solve,
    p_star,
    phqc,
    phqc_histogram,
)


def flat_scan(inst, params):
    """Minimum objective and count over labels accepted by the oracle."""
    from colorperm.encoding import label_assignment

    best = None
    count = 0
    for z in range(params.S**params.n):
        bits = label_to_onehot(z, params)
        if not feasible_global_positions(bits, inst).feasible:
            continue
        count += 1
        cost = energy_objective(label_assignment(z, params), inst)
        if best is None or cost < best:
            best = cost
    return best, count


def test_grid_default_axes(params3):
    grid = GridSpec.default(params3)
    assert len(grid.gammas) == 7 and len(grid.betas) == 7
    assert grid.gammas[0] == 0.0 and grid.gammas[-1] == pytest.approx(np.pi)
    assert len(grid) == 49
    assert len(GridSpec.default(params3, points=9)) == 81


def test_grid_points_row_major(params3):
    grid = GridSpec(gammas=(0.0, 1.0), betas=(0.5, 1.5, 2.5))
    pts = list(grid.points())
    assert [i for i, _, _ in pts] == list(range(6))
    assert pts[0][1:] == (0.0, 0.5)
    assert pts[2][1:] == (0.0, 2.5)
    assert pts[3][1:] == (1.0, 0.5)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec((), (0.1,))
    with pytest.raises(ValueError):
        GridSpec((0.1,), ())


def test_default_shots(params3, params4):
    assert default_shots(params3) == 216
    assert default_shots(params3, "fifty-cubed") == 10800
    assert default_shots(params4) == 512
    assert default_shots(EncodingParams(1, 1)) == 1
    with pytest.raises(ValueError):
        default_shots(params3, "squared")


def test_contiguous_labelings_count():
    assert len(list(contiguous_labelings(3, 2))) == 6
    assert len(list(contiguous_labelings(4, 2))) == 8
    assert len(list(contiguous_labelings(1, 3))) == 3


def test_contiguous_labelings_are_contiguous():
    seen = set()
    for seq in contiguous_labelings(4, 3):
        assert len(seq) == 4
        key = tuple(int(v) for v in seq)
        assert key not in seen
        seen.add(key)
        for k in set(key):
            pos = [j for j, v in enumerate(key) if v == k]
            assert pos[-1] - pos[0] + 1 == len(pos)
    # sanity: every contiguous sequence over 3 labels shows up
    brute = 0
    for key in np.ndindex(3, 3, 3, 3):
        ok = True
        for k in set(key):
            pos = [j for j, v in enumerate(key) if v == k]
            ok &= pos[-1] - pos[0] + 1 == len(pos)
        brute += ok
    assert len(seen) == brute


def test_exact_solve_golden(exA):
    sol = exact_solve(exA)
    assert sol.optimal_cost == pytest.approx(92.06, abs=1e-9)
    assert sol.feasible_count == 36
    assert len(sol.optimal_assignments) == 4
    for a in sol.optimal_assignments:
        assert energy_objective(a, exA) == pytest.approx(sol.optimal_cost, abs=1e-9)
    syms = [a.symbols for a in sol.optimal_assignments]
    assert syms == sorted(syms)


def test_exact_solve_matches_flat_scan(exA, params3):
    sol = exact_solve(exA)
    best, count = flat_scan(exA, params3)
    assert sol.optimal_cost == pytest.approx(best, abs=1e-12)
    assert sol.feasible_count == count


def test_exact_solve_single_customer():
    inst = Instance("one", 1, 1, [1], [1], [[0.0]], [7.0], [9.0])
    sol = exact_solve(inst)
    assert sol.optimal_cost == 16.0
    assert sol.feasible_count == 1
    assert sol.optimal_assignments[0].symbols == ((0, 0),)


def test_exact_solve_lam_obj_scaling(exA):
    model = EnergyModel.for_instance(exA, PenaltyWeights(lam_obj=2.0))
    sol = exact_solve(exA, model)
    assert sol.optimal_cost == pytest.approx(2 * 92.06, abs=1e-9)


def test_exact_solve_ceiling():
    n = ENUMERATION_CEILING + 1
    big = Instance(
        "big", n, 2, [1] * n, [n, n], np.zeros((n, n)), np.zeros(n), np.zeros(n)
    )
    with pytest.raises(ValueError):
        exact_solve(big)


def test_exact_solve_all_infeasible(exA):
    starved = Instance("starved", 3, 2, exA.d, [0, 0], exA.W, exA.dep_to, exA.to_dep)
    sol = exact_solve(starved)
    assert sol == ExactSolution(None, (), 0)


def test_exact_solution_labels_and_dict(exA, params3):
    sol = exact_solve(exA)
    labels = sol.optimal_labels(params3)
    assert labels == sorted(labels)
    assert len(labels) == 4
    for z in labels:
        assert feasible_global_positions(label_to_onehot(z, params3), exA).feasible
    d = sol.to_dict()
    assert d["feasible_count"] == 36
    assert len(d["optimal_assignments"]) == 4
    assert all(min(min(pair) for pair in a) >= 1 for a in d["optimal_assignments"])


def test_p_star_uniform_at_zero_angles(exA, params3):
    model = EnergyModel.for_instance(exA)
    assert p_star(exA, model, 0.0, 0.0) == pytest.approx(4 / 216, abs=1e-12)


def test_p_star_bounds_and_reference(exA):
    model = EnergyModel.for_instance(exA)
    sol = exact_solve(exA, model)
    rng = np.random.default_rng(2)
    for _ in range(5):
        v = p_star(exA, model, rng.uniform(0, 0.2), rng.uniform(0, np.pi), exact=sol)
        assert 0.0 <= v <= 1.0


def test_p_star_all_infeasible(exA):
    starved = Instance("starved", 3, 2, exA.d, [0, 0], exA.W, exA.dep_to, exA.to_dep)
    model = EnergyModel.for_instance(starved)
    assert p_star(starved, model, 0.1, 0.2) == 0.0


def run_sweep(exA, params3, **kw):
    model = kw.pop("model", None) or EnergyModel.for_instance(exA)
    grid = kw.pop("grid", None) or GridSpec.default(params3)
    return phqc(exA, model, grid, kw.pop("shots", 216), kw.pop("seed", 7), **kw)


def test_phqc_recovers_optimum(exA, params3):
    sol = exact_solve(exA)
    res = run_sweep(exA, params3, exact_reference=sol)
    assert res.best_score == pytest.approx(sol.optimal_cost, abs=1e-9)
    assert res.total_shots == 49 * 216
    assert res.shots_per_point == 216
    assert len(res.records) == 49
    # the reported best survives independent checking and re-scoring
    assert feasible_global_positions(res.best_bitstring, exA).feasible
    from colorperm.encoding import decode_bitstring

    a = decode_bitstring(res.best_bitstring, params3)
    assert energy_objective(a, exA) == pytest.approx(res.best_score, abs=1e-12)
    assert a.symbols == res.best_assignment.symbols


def test_phqc_reference_diagnostics(exA, params3):
    sol = exact_solve(exA)
    res = run_sweep(exA, params3, exact_reference=sol)
    rec0 = res.records[0]
    assert rec0.gamma == 0.0 and rec0.beta == 0.0
    assert rec0.p_star_exact == pytest.approx(4 / 216, abs=1e-12)
    for rec in res.records:
        assert rec.optimal_hits is not None
        assert 0.0 <= rec.p_star_exact <= 1.0
        assert 0 <= rec.feasible_count <= 216
        assert 0.0 <= rec.share_above_baseline <= 1.0
    assert sum(r.optimal_hits for r in res.records) > 0


def test_phqc_never_beats_oracle(exA, params3):
    sol = exact_solve(exA)
    res = run_sweep(exA, params3)
    assert res.best_score >= sol.optimal_cost - 1e-9


def test_phqc_grid_alignment(exA, params3):
    grid = GridSpec((0.0, 0.11), (0.3, 0.7))
    res = run_sweep(exA, params3, grid=grid, shots=64)
    assert [r.index for r in res.records] == [0, 1, 2, 3]
    expect = list(grid.points())
    for rec, (_, g, b) in zip(res.records, expect):
        assert rec.gamma == g and rec.beta == b
    assert res.total_shots == 4 * 64


def test_phqc_deterministic(exA, params3):
    a = run_sweep(exA, params3)
    b = run_sweep(exA, params3)
    assert a.best_bitstring == b.best_bitstring
    assert a.best_score == b.best_score
    assert a.records == b.records
    assert a.feasible_counts == b.feasible_counts


def test_phqc_seed_changes_sweep(exA, params3):
    a = run_sweep(exA, params3)
    c = run_sweep(exA, params3, seed=11)
    assert a.records != c.records


def test_phqc_jobs_parity(exA, params3):
    grid = GridSpec(tuple(np.linspace(0, np.pi, 3)), tuple(np.linspace(0, np.pi, 3)))
    one = run_sweep(exA, params3, grid=grid, shots=128, jobs=1)
    two = run_sweep(exA, params3, grid=grid, shots=128, jobs=2)
    assert one.best_bitstring == two.best_bitstring
    assert one.best_score == two.best_score
    assert one.records == two.records
    assert one.feasible_counts == two.feasible_counts


def test_phqc_binary_register(exA, params3):
    model = EnergyModel.for_instance(exA, register="binary")
    res = run_sweep(exA, params3, model=model, shots=128)
    assert res.register == "binary"
    assert len(res.best_bitstring) == 9
    assert decode_binary_and_check(res.best_bitstring, exA).feasible
    sol = exact_solve(exA)
    assert res.best_score >= sol.optimal_cost - 1e-9


def test_phqc_all_infeasible(exA, params3):
    starved = Instance("starved", 3, 2, exA.d, [0, 0], exA.W, exA.dep_to, exA.to_dep)
    model = EnergyModel.for_instance(starved)
    grid = GridSpec((0.0, 0.1), (0.2, 0.4))
    res = phqc(starved, model, grid, 64, 7)
    assert res.best_bitstring is None
    assert res.best_score is None
    assert res.best_assignment is None
    assert res.feasible_counts == {}
    assert all(r.feasible_count == 0 for r in res.records)


def test_phqc_total_score_mode(exA, params3):
    # under the quadratic surrogate a feasible state can still carry a
    # capacity term, so the two score modes genuinely differ
    w = PenaltyWeights(cap_mode="quadratic-surrogate")
    model = EnergyModel.for_instance(exA, w)
    grid = GridSpec((0.0, 0.05), (0.4, 1.1))
    res = phqc(exA, model, grid, 128, 7, score="total")
    from colorperm.encoding import onehot_to_label

    z = onehot_to_label(res.best_bitstring, params3)
    assert res.best_score == pytest.approx(energy_total(z, model), abs=1e-12)
    best_obj = phqc(exA, model, grid, 128, 7, score="objective").best_score
    assert res.best_score != best_obj


def test_phqc_validation(exA, params3):
    model = EnergyModel.for_instance(exA)
    grid = GridSpec((0.1,), (0.1,))
    with pytest.raises(ValueError):
        phqc(exA, model, grid, 0, 7)
    with pytest.raises(ValueError):
        phqc(exA, model, grid, 10, 7, score="energy")


def test_phqc_histogram(exA, params3):
    res = run_sweep(exA, params3)
    rows = phqc_histogram(res, params3)
    assert sum(r[1] for r in rows) == sum(res.feasible_counts.values())
    assert sum(r[1] for r in rows) == sum(r.feasible_count for r in res.records)
    counts = [r[1] for r in rows]
    assert counts == sorted(counts, reverse=True)
    for bits, count, freq, ratio in rows:
        assert freq == pytest.approx(count / res.total_shots, abs=1e-15)
        assert ratio == pytest.approx(freq * 216, abs=1e-12)
        assert feasible_global_positions(bits, exA).feasible


def test_phqc_result_to_dict(exA, params3):
    res = run_sweep(exA, params3)
    d = res.to_dict()
    assert d["grid_points"] == 49
    assert d["register"] == "onehot"
    assert d["seed"] == 7
    assert isinstance(d["best_assignment"], list)


@pytest.mark.parametrize("register", REGISTERS)
def test_sweep_scores_equal_the_scalar_evaluators(exA, monkeypatch, register):
    # the sweep scores its accepted labels in one energy_components call;
    # each "obj" and "total" must equal the scalar scores exactly
    scored = []

    def spy(model, labels):
        comp = energy_components(model, labels)
        scored.append((model, list(labels), comp))
        return comp

    monkeypatch.setattr(solver, "energy_components", spy)
    w = PenaltyWeights(lam_obj=1.7, cap_mode="quadratic-surrogate")
    model = EnergyModel.for_instance(exA, w, register)
    grid = GridSpec((0.0, 0.3), (0.4, 1.1))
    for score in ("objective", "total"):
        res = phqc(exA, model, grid, 128, 7, score=score)
        if score == "objective":
            assert res.best_score == energy_objective(res.best_assignment, exA, 1.7)
        else:
            z = assignment_label(res.best_assignment, model.params, register)
            assert res.best_score == energy_total(z, model)
    assert sum(len(labels) for _, labels, _ in scored) > 8
    for m, labels, comp in scored:
        for z, obj, total in zip(labels, comp["obj"].tolist(), comp["total"].tolist()):
            assert obj == energy_objective(label_assignment(z, m.params, register), exA, 1.7)
            assert total == energy_total(z, m)


def test_binary_sweep_draws_no_padding_leak(exA, params3, monkeypatch):
    # exA has S = 6, so 296 of the 512 binary labels carry a padded word;
    # the relabelled state gives them exactly zero mass
    codes = []

    def spy(labels, inst, register):
        out = label_reasons(labels, inst, register)
        codes.extend(out.tolist())
        return out

    monkeypatch.setattr(solver, "label_reasons", spy)
    model = EnergyModel.for_instance(exA, register="binary")
    phqc(exA, model, GridSpec.default(params3, 4), 216, 7)
    assert REASONS.index(OK) in codes and REASONS.index(REPEATED_CUSTOMER) in codes
    assert REASONS.index(PADDING_LEAK) not in codes
