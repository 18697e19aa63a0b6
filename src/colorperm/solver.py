"""Hybrid grid-search solver and the exhaustive classical oracle.

The solver sweeps a coarse (gamma, beta) grid row by row: the points of
one gamma row share their first phase layer. At each point it prepares
the depth-p state, draws a seeded multinomial sample, rejects every
label the digit-level feasibility verdict refuses, scores the survivors
with the timeline objective (or the full diagonal cost on request) in one
vectorized call, and keeps the strict minimum. The energy table does not
depend on the angles, so a sweep builds it once (at any size its budget
admits) and hands it to every grid point (to each worker process once,
through the pool initializer). Either register evolves and samples the
one-hot labels; a binary sweep relabels only the labels it accepts. Grid
rows are independent work items; the reduction is an associative min
keyed by (score, grid_index, label), so worker count never changes the
result.

The exact oracle splits the timeline cost into routes: each used vehicle
serves one contiguous run and pays its start leg, W along the run and its
close leg. A Held-Karp table prices every customer subset on every vehicle
(O(K 2^n n^2)); a dynamic program over the vehicles in index order gives
the optimum and the feasible count (O(K 3^n)); backtracking recovers every
timeline near the optimum, scored as the permutation enumeration scores
it. The tables stay small well past n = 9 but the winner set does not: at
n = 8, K = 2 with W and the depot legs all 0, each of the 645,120 feasible
timelines wins and rescoring them takes seconds, hence
ENUMERATION_CEILING = 9.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .encoding import ColoredAssignment, assignment_label, label_assignment, label_bitstring, recode_labels
from .feasibility import OK, REASONS, label_reasons
from .hamiltonian import edge_cost_matrix, energy_components, energy_objective, energy_table
from .simulator import Schedule, check_budget, evolve_row, exact_distribution, run_ansatz, sample

ENUMERATION_CEILING = 9
SCORE_TOL = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Angle grid, swept gamma-outer then beta-inner (row-major)."""

    gammas: tuple
    betas: tuple

    def __post_init__(self):
        gammas = tuple(float(g) for g in self.gammas)
        betas = tuple(float(b) for b in self.betas)
        if not gammas or not betas:
            raise ValueError("grid axes must be nonempty")
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "betas", betas)

    @classmethod
    def default(cls, params, points=None):
        """The uniform grid linspace(0, pi, S + 1) on each axis."""
        pts = points if points is not None else params.S + 1
        axis = tuple(np.linspace(0.0, np.pi, pts))
        return cls(axis, axis)

    def __len__(self):
        return len(self.gammas) * len(self.betas)

    def points(self):
        index = 0
        for g in self.gammas:
            for b in self.betas:
                yield index, g, b
                index += 1


def default_shots(params, rule="cubed"):
    """Per-grid-point shot budget: (nK)^3, or 50*(nK)^3 under the
    fifty-cubed rule."""
    base = (params.n * params.K) ** 3
    if rule == "cubed":
        return base
    if rule == "fifty-cubed":
        return 50 * base
    raise ValueError(f"unknown shots rule {rule!r}")


@dataclass(frozen=True)
class ExactSolution:
    """Global optimum over all feasible configurations."""

    optimal_cost: float | None
    optimal_assignments: tuple
    feasible_count: int

    def optimal_labels(self, params, register="onehot"):
        return sorted(assignment_label(a, params, register) for a in self.optimal_assignments)

    def to_dict(self):
        return {
            "optimal_cost": self.optimal_cost,
            "feasible_count": self.feasible_count,
            "optimal_assignments": [
                [[i, k] for i, k in a.one_based()] for a in self.optimal_assignments
            ],
        }


def contiguous_labelings(n, K):
    """All vehicle-label sequences along the timeline in which every used
    label occupies one contiguous run; yields int arrays of length n."""
    for r in range(1, min(n, K) + 1):
        for cuts in itertools.combinations(range(1, n), r - 1):
            bounds = (0,) + cuts + (n,)
            lengths = [bounds[t + 1] - bounds[t] for t in range(r)]
            for labels in itertools.permutations(range(K), r):
                yield np.repeat(np.asarray(labels, dtype=np.int64), lengths)


def _route_tables(inst, start, close):
    """Per vehicle, as lists: the Held-Karp table P[mask][last] (start leg
    plus W along the cheapest path over mask that ends at last), the steps
    [W | close legs] (column n is the depot), each subset's route cost
    (min over last of P plus the close leg) and whether it fits."""
    n = inst.n
    masks = np.arange(1 << n)
    members = (masks[:, None] >> np.arange(n)) & 1
    loads = members @ np.asarray(inst.d, dtype=np.int64)
    tables = []
    for k in range(inst.K):
        first, last = start[k * n : (k + 1) * n], close[k * n : (k + 1) * n]
        P = np.full((1 << n, n), np.inf)
        P[1 << np.arange(n), np.arange(n)] = first
        for layer in (masks[members.sum(axis=1) == m] for m in range(2, n + 1)):
            for j in range(n):
                on = layer[members[layer, j] == 1]
                P[on, j] = (P[on ^ (1 << j)] + inst.W[:, j]).min(axis=1)
        steps = np.column_stack([inst.W, last])
        tables.append((P.tolist(), steps.tolist(), (P + last).min(axis=1).tolist(), (loads <= inst.Q[k]).tolist()))
    return tables


def _vehicle_tables(tables, n):
    """G[k][mask], the least cost of serving mask with vehicles 0..k-1,
    each unused or on one route (the last vehicle fills the full mask
    only), and the feasible timeline count: over route sets, r! orders of
    the r routes times |B|! orders within each route B."""
    full = (1 << n) - 1
    fact = [1, *np.cumprod(np.arange(1, max(n, len(tables)) + 1)).tolist()]
    G, N = [[0.0] + [np.inf] * full], [[1]] + [[0]] * full  # N[mask][r]: weighted ways on r routes
    for k, (_, _, cost, fits) in enumerate(tables):
        prev, g, cnt = G[-1], list(G[-1]), [c + [0] for c in N]
        for mask in range(1, full + 1) if k < len(tables) - 1 else (full,):
            sub = mask
            while sub:
                if fits[sub]:
                    g[mask] = min(g[mask], prev[mask ^ sub] + cost[sub])
                    for r, c in enumerate(N[mask ^ sub]):
                        cnt[mask][r + 1] += c * fact[sub.bit_count()]
                sub = (sub - 1) & mask
        G.append(g)
        N = cnt
    return G, sum(fact[r] * c for r, c in enumerate(N[full]))


def _timelines(tables, G, n, bound):
    """Symbol rows i + n*k of every feasible timeline whose route costs sum
    to at most bound: each route set within it, each in-route order within
    it, and every order of the routes along the timeline."""

    def sets(k, mask, acc, chosen):
        # vehicles 0..k-1 still to serve mask; the chosen routes cost acc
        if k == 0:
            if not mask:
                yield chosen
            return
        cost, fits = tables[k - 1][2:]
        if G[k - 1][mask] + acc <= bound:
            yield from sets(k - 1, mask, acc, chosen)
        sub = mask
        while sub:
            if fits[sub] and G[k - 1][mask ^ sub] + cost[sub] + acc <= bound:
                yield from sets(k - 1, mask ^ sub, acc + cost[sub], chosen + ((k - 1, sub),))
            sub = (sub - 1) & mask

    def orders(P, steps, k, mask, head, tail, others, seq, found):
        # orders of mask before seq, which starts at head (n: the depot)
        # and costs tail from there on
        if not mask:
            found.append(seq)
        for i in range(n):
            step = steps[i][head] + tail
            if mask >> i & 1 and P[mask][i] + step + others <= bound:
                orders(P, steps, k, mask ^ (1 << i), i, step, others, (i + n * k,) + seq, found)
        return found

    for chosen in sets(len(tables), (1 << n) - 1, 0.0, ()):
        runs = [
            orders(*tables[k][:2], k, sub, n, 0.0, sum(tables[o][2][b] for o, b in chosen if o != k), (), [])
            for k, sub in chosen
        ]
        for order in itertools.permutations(runs):
            yield from map(tuple, map(itertools.chain.from_iterable, itertools.product(*order)))


def exact_solve(inst, model=None):
    """Return the optimum over every feasible configuration.

    Scores use the timeline objective scaled by the model's lam_obj
    (1.0 without a model). Argmins are gathered to a 1e-9 tolerance and
    re-scored with the scalar evaluator, so the reported optimal_cost is
    bit-comparable with per-sample scores elsewhere.
    """
    n, K = inst.n, inst.K
    if n > ENUMERATION_CEILING:
        raise ValueError(f"n = {n} exceeds the enumeration ceiling {ENUMERATION_CEILING}")
    lam_obj = model.weights.lam_obj if model is not None else 1.0
    edges, start, close = edge_cost_matrix(inst)
    tables = _route_tables(inst, start, close)
    G, feasible_count = _vehicle_tables(tables, n)
    if not feasible_count:
        return ExactSolution(None, (), 0)
    # The tables sum route by route, a timeline's score along the timeline;
    # the two can differ in the last bits. So recover every timeline within
    # a margin past the tolerance and gather them on their timeline scores.
    best = G[K][-1]
    bound = best + (SCORE_TOL / lam_obj if lam_obj > 0 else np.inf) + 1e-9 * (1 + best)
    syms = np.fromiter(_timelines(tables, G, n, bound), dtype=np.dtype((np.int64, (n,))))
    cost = start[syms[:, 0]] + close[syms[:, -1]]
    for j in range(n - 1):
        cost = cost + edges[syms[:, j], syms[:, j + 1]]
    cost = lam_obj * cost
    pairs = [(s % n, s // n) for s in range(n * K)]
    assignments = [
        ColoredAssignment(tuple(map(pairs.__getitem__, row)), K)
        for row in syms[cost <= cost.min() + SCORE_TOL].tolist()
    ]
    rescored = [(energy_objective(a, inst, lam_obj), a) for a in assignments]
    optimum = min(s for s, _ in rescored)
    winners = sorted(
        (a for s, a in rescored if s <= optimum + SCORE_TOL), key=lambda a: a.symbols
    )
    return ExactSolution(float(optimum), tuple(winners), feasible_count)


@dataclass(frozen=True)
class GridPointRecord:
    """Per-grid-point diagnostics."""

    index: int
    gamma: float
    beta: float
    feasible_count: int
    share_above_baseline: float
    optimal_hits: int | None = None
    p_star_exact: float | None = None

    def to_row(self):
        return [
            self.index,
            repr(self.gamma),
            repr(self.beta),
            self.feasible_count,
            "" if self.optimal_hits is None else self.optimal_hits,
            "" if self.p_star_exact is None else repr(self.p_star_exact),
            repr(self.share_above_baseline),
        ]


@dataclass(frozen=True)
class PhqcResult:
    """Best feasible sample and the sweep diagnostics.

    feasible_counts pools the accepted samples over all grid points,
    keyed by bitstring; it feeds the outcome-histogram CSV.
    """

    best_bitstring: str | None
    best_score: float | None
    best_assignment: ColoredAssignment | None
    records: tuple
    total_shots: int
    shots_per_point: int
    seed: int
    depth: int
    register: str
    feasible_counts: dict

    def to_dict(self):
        return {
            "best_bitstring": self.best_bitstring,
            "best_score": self.best_score,
            "best_assignment": None
            if self.best_assignment is None
            else [[i, k] for i, k in self.best_assignment.one_based()],
            "total_shots": self.total_shots,
            "shots_per_point": self.shots_per_point,
            "seed": self.seed,
            "depth": self.depth,
            "register": self.register,
            "grid_points": len(self.records),
        }


def feasible_samples(samples, inst, register):
    """The distinct sampled labels the feasibility oracle accepts, in
    ascending order, as (labels, counts, bitstrings) of `register`. One
    digit-level verdict covers every label; only the accepted ones are
    relabelled and rendered."""
    labels = np.asarray(samples.labels(), dtype=np.int64)
    labels = labels[label_reasons(labels, inst, samples.register) == REASONS.index(OK)]
    counts = [samples.counts[z] for z in labels.tolist()]
    labels = recode_labels(labels, samples.params, samples.register, register).tolist()
    bits = [label_bitstring(z, samples.params, register) for z in labels]
    return labels, counts, bits


def _grid_point(model, state, gamma, beta, shots, base_seed, index, score_mode, optimal_labels, optimal_cost):
    """One grid point of a prepared state (`optimal_labels` in its
    register): sample, filter, score. Returns the record, the local best
    as (score, index, label, bits) and the accepted {bits: count}, both
    in the model's register."""
    params = model.params
    probs = exact_distribution(state)
    p_star_exact = None
    if optimal_labels is not None:
        p_star_exact = float(probs[np.asarray(optimal_labels, dtype=np.int64)].sum())
    # sample normalises the one distribution in place
    samples = sample(state, shots, (base_seed, index), probs)
    labels, counts, bits = feasible_samples(samples, model.inst, model.register)
    # for feasible labels "obj" equals energy_objective bit for bit
    scores = energy_components(model, labels)["obj" if score_mode == "objective" else "total"].tolist()
    local_best = min(zip(scores, [index] * len(labels), labels, bits), default=None)
    feasible_bits = dict(zip(bits, counts))
    _, share = feasible_histogram(feasible_bits, shots, params)
    hits = None
    if optimal_labels is not None:
        hits = sum(c for c, score in zip(counts, scores) if abs(score - optimal_cost) <= SCORE_TOL)
    record = GridPointRecord(
        index=index,
        gamma=gamma,
        beta=beta,
        feasible_count=sum(counts),
        share_above_baseline=share,
        optimal_hits=hits,
        p_star_exact=p_star_exact,
    )
    return record, local_best, feasible_bits


def _grid_row(
    model, gamma, betas, first_index, depth, shots, base_seed, score_mode, optimal_labels, optimal_cost, energies=None
):
    """The grid points (gamma, beta) for every beta of one row, evolved
    one-hot from one shared first phase layer; outcomes in index order."""
    schedules = [Schedule.constant(gamma, beta, depth) for beta in betas]
    states = evolve_row(model.params, replace(model, register="onehot"), schedules, energies=energies)
    return [
        _grid_point(model, state, gamma, beta, shots, base_seed, first_index + j, score_mode, optimal_labels, optimal_cost)
        for j, (beta, state) in enumerate(zip(betas, states))
    ]


# The sweep's energy table in a worker process, set once by the pool
# initializer so it is never pickled into a task.
_worker_energies = None


def _init_worker(energies):
    global _worker_energies
    _worker_energies = energies


def _grid_row_star(args):
    return _grid_row(*args, energies=_worker_energies)


def phqc(
    inst,
    model,
    grid,
    shots_per_point,
    seed,
    depth=1,
    score="objective",
    jobs=1,
    exact_reference=None,
):
    """Grid sweep with feasibility filtering and strict-minimum scoring.

    The sweep runs row by row: one task per gamma evolves every beta of
    its row from a shared first phase layer. When `exact_reference` (an
    ExactSolution) is given, per-point records also carry optimal-hit
    counts and the exact optimal mass of the prepared state. The
    histogram of all feasible samples pooled over the sweep is available
    through `phqc_histogram`. Refuses runs over the memory budget, with
    one charge per worker that gets a gamma row, before allocating the
    table or any state.
    """
    if shots_per_point < 1:
        raise ValueError("need shots_per_point >= 1")
    if score not in ("objective", "total"):
        raise ValueError(f"unknown score mode {score!r}")
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, not {jobs}")
    params = model.params
    check_budget(params, "onehot", workers=min(jobs, len(grid.gammas)))
    optimal_labels = None
    optimal_cost = None
    if exact_reference is not None and exact_reference.optimal_assignments:
        optimal_labels = exact_reference.optimal_labels(params)
        optimal_cost = exact_reference.optimal_cost
    energies = energy_table(model)
    tasks = [
        (model, g, grid.betas, row * len(grid.betas), depth, shots_per_point, seed, score, optimal_labels, optimal_cost)
        for row, g in enumerate(grid.gammas)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(energies,)
        ) as pool:
            rows = list(pool.map(_grid_row_star, tasks, chunksize=1))
    else:
        rows = [_grid_row(*t, energies=energies) for t in tasks]
    records = []
    best = None
    pooled = {}
    for record, local_best, feasible_bits in itertools.chain.from_iterable(rows):
        records.append(record)
        for bits, count in feasible_bits.items():
            pooled[bits] = pooled.get(bits, 0) + count
        if local_best is not None and (best is None or local_best[:3] < best[:3]):
            best = local_best
    return PhqcResult(
        best_bitstring=None if best is None else best[3],
        best_score=None if best is None else float(best[0]),
        best_assignment=None if best is None else label_assignment(best[2], params, model.register),
        records=tuple(records),
        total_shots=shots_per_point * len(grid),
        shots_per_point=shots_per_point,
        seed=seed,
        depth=depth,
        register=model.register,
        feasible_counts=pooled,
    )


def feasible_histogram(feasible_counts, shots, params):
    """Plot-ready rows (bitstring, count, frequency, baseline_ratio) of
    feasible outcomes {bitstring: count} out of `shots`, most frequent
    first, and the share of them above the uniform baseline 1/D,
    D = S^n."""
    baseline = 1.0 / params.dim("onehot")
    rows = []
    above = 0
    for bits, count in feasible_counts.items():
        freq = count / shots
        rows.append((bits, count, freq, freq / baseline))
        above += freq > baseline
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows, (above / len(rows) if rows else 0.0)


def phqc_histogram(result, params):
    """Histogram rows of the pooled feasible counts of a sweep."""
    return feasible_histogram(result.feasible_counts, result.total_shots, params)[0]


def p_star(inst, model, gamma, beta, depth=1, exact=None):
    """Exact optimal feasible mass of the depth-p state at (gamma, beta)."""
    if exact is None:
        exact = exact_solve(inst, model)
    if not exact.optimal_assignments:
        return 0.0
    params = model.params
    labels = exact.optimal_labels(params, model.register)
    state = run_ansatz(params, model, Schedule.constant(gamma, beta, depth))
    probs = exact_distribution(state)
    return float(probs[np.asarray(labels, dtype=np.int64)].sum())
