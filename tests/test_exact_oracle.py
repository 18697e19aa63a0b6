"""The route dynamic program of `exact_solve` against the plain enumeration.

`reference_exact_solve` is the slow oracle: it enumerates customer
permutations crossed with the contiguous vehicle labelings of the timeline,
applies capacity, and scores survivors vectorized over all permutations at
once. The fast oracle must return the same `ExactSolution` on every instance:
the same optimum under ==, the same winners in the same order and the same
feasible count, so its JSON bytes cannot move.

`reference_vehicle_tables` is the slow reference of the vehicle DP alone:
one (mask, submask) pair at a time on Python lists. Its G tables must equal
the array DP's exactly and its count must be the same integer, also past
n = 8 where the enumeration no longer runs; there the all-fit count is also
checked against its closed form.
"""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorperm import hamiltonian, solver
from colorperm.encoding import ColoredAssignment, EncodingParams
from colorperm.hamiltonian import EnergyModel, PenaltyWeights, edge_cost_matrix, energy_objective
from colorperm.instances import Instance
from colorperm.solver import SCORE_TOL, ExactSolution, exact_solve


def contiguous_labelings(n, K):
    """All vehicle-label sequences along the timeline in which every used
    label occupies one contiguous run; yields int arrays of length n."""
    for r in range(1, min(n, K) + 1):
        for cuts in itertools.combinations(range(1, n), r - 1):
            bounds = (0,) + cuts + (n,)
            lengths = [bounds[t + 1] - bounds[t] for t in range(r)]
            for labels in itertools.permutations(range(K), r):
                yield np.repeat(np.asarray(labels, dtype=np.int64), lengths)


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


def reference_exact_solve(inst, model=None):
    """Enumerate every feasible configuration and return the optimum."""
    n, K = inst.n, inst.K
    lam_obj = model.weights.lam_obj if model is not None else 1.0
    edges, start, close = edge_cost_matrix(inst)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    demand = np.asarray(inst.d, dtype=np.int64)
    dem_rows = demand[perms]
    feasible_count = 0
    best = np.inf
    batches = []
    for kseq in contiguous_labelings(n, K):
        ok = np.ones(len(perms), dtype=bool)
        for k in range(K):
            cols = np.nonzero(kseq == k)[0]
            if len(cols):
                ok &= dem_rows[:, cols].sum(axis=1) <= inst.Q[k]
        feasible_count += int(ok.sum())
        if not ok.any():
            continue
        syms = perms + n * kseq[None, :]
        cost = start[syms[:, 0]] + close[syms[:, -1]]
        for j in range(n - 1):
            cost = cost + edges[syms[:, j], syms[:, j + 1]]
        cost = lam_obj * cost
        masked = np.where(ok, cost, np.inf)
        batches.append((kseq, masked))
        lo = float(masked.min())
        if lo < best:
            best = lo
    if not batches:
        return ExactSolution(None, (), 0)
    assignments = []
    for kseq, masked in batches:
        for row in np.nonzero(masked <= best + SCORE_TOL)[0]:
            symbols = tuple((int(perms[row, j]), int(kseq[j])) for j in range(n))
            assignments.append(ColoredAssignment(symbols, K))
    rescored = [(energy_objective(a, inst, lam_obj), a) for a in assignments]
    optimum = min(s for s, _ in rescored)
    winners = sorted(
        (a for s, a in rescored if s <= optimum + SCORE_TOL), key=lambda a: a.symbols
    )
    return ExactSolution(float(optimum), tuple(winners), feasible_count)


def _model(inst, lam_obj):
    return EnergyModel(inst, PenaltyWeights(lam_obj=lam_obj), EncodingParams(inst.n, inst.K))


def assert_same(inst, lam_obj=1.0):
    model = _model(inst, lam_obj)
    fast = exact_solve(inst, model)
    slow = reference_exact_solve(inst, model)
    assert fast.optimal_cost == slow.optimal_cost
    assert fast.to_dict() == slow.to_dict()
    return fast


@st.composite
def instances(draw):
    n = draw(st.integers(1, 6))
    K = draw(st.integers(1, 3))
    top = draw(st.sampled_from([0, 2, 9]))
    W = np.array(draw(st.lists(st.integers(0, top), min_size=n * n, max_size=n * n)), dtype=float).reshape(n, n)
    if draw(st.booleans()):
        W = np.triu(W, 1) + np.triu(W, 1).T
    np.fill_diagonal(W, 0.0)
    if draw(st.booleans()):
        # non-integer distances: scores then depend on summation order
        W = W * draw(st.sampled_from([0.1, 1.7, 33.3]))
    shape = draw(st.sampled_from([(n,), (n, K)]))
    size = int(np.prod(shape))
    dep_to = np.array(draw(st.lists(st.integers(0, 5), min_size=size, max_size=size)), dtype=float).reshape(shape)
    to_dep = np.array(draw(st.lists(st.integers(0, 5), min_size=size, max_size=size)), dtype=float).reshape(shape)
    d = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    Q = draw(st.lists(st.integers(0, max(sum(d), 1)), min_size=K, max_size=K))
    lam_obj = draw(st.sampled_from([1.0, 1.0, 0.3, 2.5]))
    return Instance("prop", n, K, d, Q, W, dep_to, to_dep), lam_obj


@given(instances())
@settings(max_examples=150, deadline=None)
def test_route_dp_matches_enumeration(case):
    inst, lam_obj = case
    assert_same(inst, lam_obj)


def _euclidean_instance(demands, K, seed):
    """Integer points and exact EUC_2D distances, node 0 the depot, with
    the smallest capacity at least 1.25 * total / K."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 100, size=(len(demands) + 1, 2)).astype(float)
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    Q = max(max(demands), int(np.ceil(1.25 * sum(demands) / K)))
    n = len(demands)
    return Instance("euc", n, K, demands, [Q] * K, dist[1:, 1:], dist[0, 1:], dist[0, 1:])


def test_route_dp_n8_euclidean():
    inst = _euclidean_instance([1, 1, 1, 2, 2, 3, 3, 4], 2, seed=3)
    sol = assert_same(inst)
    assert sol.feasible_count > 0 and sol.optimal_assignments


def test_route_dp_n10_k1_against_all_orders():
    # past n = 8 the labelled enumeration no longer runs; at K = 1 the
    # feasible timelines are the 10! customer orders, scored here 8! at a time
    # in energy_objective's order; costs in tenths tie, up to the last bits
    n = 10
    rng = np.random.default_rng(10)
    W = rng.integers(0, 3, size=(n, n)) * 0.1
    np.fill_diagonal(W, 0.0)
    start, close = rng.integers(0, 3, size=(2, n)) * 0.1
    inst = Instance("orders", n, 1, [1] * n, [n], W, start, close)
    tails = np.array(list(itertools.permutations(range(n - 2))), dtype=np.int64)
    chunks = []
    for head in itertools.permutations(range(n), 2):
        rest = np.array([c for c in range(n) if c not in head])
        orders = np.column_stack([np.tile(head, (len(tails), 1)), rest[tails]])
        cost = start[orders[:, 0]]
        for j in range(n - 1):
            cost = cost + W[orders[:, j], orders[:, j + 1]]
        cost = cost + close[orders[:, -1]]
        low = cost.min()
        chunks.append((low, cost[cost <= low + SCORE_TOL], orders[cost <= low + SCORE_TOL]))
    best = min(low for low, _, _ in chunks)
    winners = sorted(
        tuple((c, 0) for c in row) for _, cost, orders in chunks for row in orders[cost <= best + SCORE_TOL].tolist()
    )
    sol = exact_solve(inst)
    assert sum(len(tails) for _ in chunks) == sol.feasible_count == math.factorial(n)
    assert sol.optimal_cost == best
    assert [a.symbols for a in sol.optimal_assignments] == winners and len(winners) > 1


def test_route_dp_all_infeasible():
    inst = Instance("starved", 4, 2, [1, 2, 1, 1], [0, 0], np.ones((4, 4)) - np.eye(4), [1.0] * 4, [1.0] * 4)
    assert exact_solve(inst) == ExactSolution(None, (), 0)
    assert reference_exact_solve(inst) == ExactSolution(None, (), 0)


@pytest.mark.parametrize("K", [1, 2, 3])
def test_route_dp_all_ties(K):
    # every timeline scores 0, so every feasible timeline is a winner
    n = 5
    inst = Instance("ties", n, K, [1, 2, 1, 3, 1], [8, 4, 5][:K], np.zeros((n, n)), np.zeros(n), np.zeros(n))
    sol = assert_same(inst)
    assert sol.optimal_cost == 0.0
    assert len(sol.optimal_assignments) == sol.feasible_count > 0


@pytest.mark.parametrize("n, K", [(1, 5), (2, 25), (3, 7)])
def test_route_dp_counts_fleets_larger_than_n(n, K):
    # at most n of the K vehicles carry a route, so the count step keeps
    # n + 1 route counts per mask; the count must still be the enumeration's
    W = np.ones((n, n)) - np.eye(n)
    inst = Instance("fleet", n, K, [1] * n, [n] * K, W, np.arange(1.0, n + 1), np.ones(n))
    sol = assert_same(inst)
    assert sol.feasible_count > 0


def test_gathering_stops_at_the_winner_ceiling(monkeypatch):
    n = 5
    inst = Instance("ties", n, 2, [1] * n, [n, n], np.zeros((n, n)), np.zeros(n), np.zeros(n))
    ties = len(exact_solve(inst).optimal_assignments)
    monkeypatch.setattr(solver, "MEMORY_BUDGET", solver.WINNER_BYTES * n * ties)
    assert len(exact_solve(inst).optimal_assignments) == ties
    monkeypatch.setattr(solver, "MEMORY_BUDGET", solver.WINNER_BYTES * n * (ties - 1))
    with pytest.raises(ValueError, match=f"more than {ties - 1} timelines tie for the optimum"):
        exact_solve(inst)


def test_a_tied_route_stops_listing_orders_past_the_winner_ceiling(monkeypatch):
    # one vehicle and all 9! orders tied: the walk lists ceiling + 1 orders
    # of the one route, not all 362,880 (about 46 MB of tuples)
    n = 9
    inst = Instance("ties", n, 1, [1] * n, [n], np.zeros((n, n)), np.zeros(n), np.zeros(n))
    need = solver.ROUTE_BYTES * ((n + 2) << n)
    monkeypatch.setattr(solver, "MEMORY_BUDGET", need)
    tracemalloc.start()
    with pytest.raises(ValueError, match=f"more than {need // (solver.WINNER_BYTES * n)} timelines tie"):
        exact_solve(inst)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 10 * need


def test_oracle_tables_are_charged_before_they_are_built(monkeypatch):
    # one route on either vehicle wins: two winners, under the winner
    # ceiling of need // (WINNER_BYTES * n)
    n, K = 3, 2
    W = np.array([[0.0, 1.0, 5.0], [4.0, 0.0, 2.0], [6.0, 7.0, 0.0]])
    inst = Instance("two-winners", n, K, [1] * n, [n] * K, W, [1.0, 3.0, 8.0], [9.0, 6.0, 2.0])
    need = solver.ROUTE_BYTES * (K * (n + 2) << n)
    assert need // (solver.WINNER_BYTES * n) >= 2
    monkeypatch.setattr(solver, "MEMORY_BUDGET", need)
    assert len(exact_solve(inst).optimal_assignments) == 2
    monkeypatch.setattr(solver, "MEMORY_BUDGET", need - 1)
    monkeypatch.setattr(solver, "_route_tables", None)
    with pytest.raises(ValueError, match=f"exact oracle's tables at n = 3, K = 2 need about {need} bytes"):
        exact_solve(inst)


def test_gathering_ties_over_a_large_fleet_takes_linear_time(monkeypatch):
    # one customer: every vehicle's route ties, and each walk down the fleet
    # stops at the first vehicle past the bound, so gathering stays linear in
    # K; the winners are scored without the K x K edge matrix
    def no_matrix(inst):
        raise AssertionError("exact_solve built the edge matrix")

    monkeypatch.setattr(hamiltonian, "edge_cost_matrix", no_matrix)
    monkeypatch.setattr(solver, "edge_cost_matrix", no_matrix, raising=False)
    K = 4000
    inst = Instance("fleet", 1, K, [1], [1] * K, np.zeros((1, 1)), [1.0], [1.0])
    start = time.perf_counter()
    sol = exact_solve(inst)
    assert time.perf_counter() - start < 2.0
    assert sol.feasible_count == len(sol.optimal_assignments) == K
    assert [a.symbols for a in sol.optimal_assignments] == [((0, k),) for k in range(K)]


def reference_vehicle_tables(costs, fits, n):
    """The vehicle DP one (mask, submask) pair at a time on Python lists and
    integers: G[k][mask] for every vehicle (the last one on the full mask
    only) and the feasible timeline count."""
    full = (1 << n) - 1
    fact = [math.factorial(r) for r in range(n + 1)]
    # N[mask][r]: weighted ways on r <= |mask| routes
    G, N = [[0.0] + [np.inf] * full], [[1]] + [[0]] * full
    for k, (cost, fit) in enumerate(zip(costs.tolist(), fits.tolist())):
        prev, g = G[-1], list(G[-1])
        cnt = [c + [0] if len(c) <= mask.bit_count() else list(c) for mask, c in enumerate(N)]
        for mask in range(1, full + 1) if k < len(costs) - 1 else (full,):
            sub = mask
            while sub:
                if fit[sub]:
                    g[mask] = min(g[mask], prev[mask ^ sub] + cost[sub])
                    for r, c in enumerate(N[mask ^ sub]):
                        cnt[mask][r + 1] += c * fact[sub.bit_count()]
                sub = (sub - 1) & mask
        G.append(g)
        N = cnt
    return G, sum(fact[r] * c for r, c in enumerate(N[full]))


def all_fit_count(n, K):
    """Feasible timelines when every subset fits: n! orders of the customers
    times, for r routes, C(n - 1, r - 1) cuts and K!/(K - r)! vehicles."""
    return math.factorial(n) * sum(math.comb(n - 1, r - 1) * math.perm(K, r) for r in range(1, min(n, K) + 1))


def vehicle_tables(inst):
    _, start, close = edge_cost_matrix(inst)
    costs, fits, _ = solver._route_tables(inst, start, close)
    return costs, fits


def assert_same_tables(inst):
    costs, fits = vehicle_tables(inst)
    G, count = solver._vehicle_tables(costs, fits, inst.n)
    ref_G, ref_count = reference_vehicle_tables(costs, fits, inst.n)
    assert G.shape == (inst.K + 1, 1 << inst.n)
    for k in range(inst.K):
        assert np.array_equal(G[k], ref_G[k])
    assert G[inst.K, -1] == ref_G[inst.K][-1]
    assert count == ref_count
    return count


@st.composite
def fleets(draw):
    n = draw(st.integers(1, 10))
    K = draw(st.integers(1, 4))
    W = np.array(draw(st.lists(st.integers(0, 9), min_size=n * n, max_size=n * n)), dtype=float).reshape(n, n)
    np.fill_diagonal(W, 0.0)
    legs = [np.array(draw(st.lists(st.integers(0, 5), min_size=n * K, max_size=n * K)), dtype=float).reshape(n, K) for _ in "io"]
    d = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    Q = draw(st.lists(st.integers(0, sum(d) + 1), min_size=K, max_size=K))
    return Instance("fleet", n, K, d, Q, W * draw(st.sampled_from([1.0, 0.1, 1.7])), *legs)


@given(fleets())
@settings(max_examples=40, deadline=None)
def test_vehicle_dp_matches_the_pairwise_reference(inst):
    assert_same_tables(inst)


def test_vehicle_dp_matches_the_pairwise_reference_at_n11_k3():
    inst = _euclidean_instance([1, 2, 1, 3, 2, 1, 1, 2, 3, 1, 2], 3, seed=5)
    assert 0 < assert_same_tables(inst) < all_fit_count(11, 3)


def test_all_fit_count_closed_form_on_exA(exA):
    assert all_fit_count(3, 2) == exact_solve(exA).feasible_count == 36


@pytest.mark.parametrize("n", [10, 11, 12])
def test_vehicle_dp_counts_the_closed_form_when_every_subset_fits(n):
    K = 3
    inst = _euclidean_instance([1] * n, K, seed=n)
    inst = Instance("roomy", n, K, inst.d, [n] * K, inst.W, inst.dep_to, inst.to_dep)
    assert solver._vehicle_tables(*vehicle_tables(inst), n)[1] == all_fit_count(n, K)


def test_vehicle_dp_counts_in_python_integers_past_the_int64_limit(monkeypatch):
    n, K = 10, 3
    inst = _euclidean_instance([1, 2, 1, 3, 2, 1, 1, 2, 3, 1], K, seed=9)
    roomy = Instance("roomy", n, K, inst.d, [sum(inst.d)] * K, inst.W, inst.dep_to, inst.to_dep)
    tables = [vehicle_tables(case) for case in (inst, roomy)]
    wide = [solver._vehicle_tables(*t, n) for t in tables]
    monkeypatch.setattr(solver, "COUNT_LIMIT", 0)
    for t, (G, count) in zip(tables, wide):
        exact_G, exact_count = solver._vehicle_tables(*t, n)
        assert np.array_equal(exact_G[:K], G[:K]) and exact_G[K, -1] == G[K, -1]
        assert type(exact_count) is int and exact_count == count
    assert 0 < wide[0][1] < wide[1][1] == all_fit_count(n, K)
