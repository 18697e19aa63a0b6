"""Hybrid grid-search solver and the exhaustive classical oracle.

The solver sweeps a coarse (gamma, beta) grid. At each point it prepares
the depth-p state, draws a seeded multinomial sample, rejects every
label the digit-level feasibility verdict refuses, scores the survivors
with the timeline objective (or the full diagonal cost on request) in one
vectorized call, and keeps the strict minimum. The energy table does not
depend on the angles, so a sweep builds it once and hands it to every
grid point (to each worker process once, through the pool initializer);
it is the one-hot table for either register, since the ansatz always
evolves the one-hot labels. Grid points are independent work items; the
reduction is an associative min keyed by (score, grid_index, label), so
worker count never changes the result.

The exact oracle enumerates customer permutations crossed with the
contiguous vehicle labelings of the timeline (ordered segmentations into
at most K runs with pairwise distinct labels), applies capacity, and
scores survivors vectorized over all permutations at once.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .encoding import ColoredAssignment, assignment_label, label_assignment, label_bitstring
from .feasibility import OK, REASONS, label_reasons
from .hamiltonian import TABLE_LIMIT, edge_cost_matrix, energy_components, energy_objective, energy_table
from .simulator import Schedule, exact_distribution, run_ansatz, sample

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


def exact_solve(inst, model=None, ceiling=ENUMERATION_CEILING):
    """Enumerate every feasible configuration and return the optimum.

    Scores use the timeline objective scaled by the model's lam_obj
    (1.0 without a model). Argmins are gathered to a 1e-9 tolerance and
    re-scored with the scalar evaluator, so the reported optimal_cost is
    bit-comparable with per-sample scores elsewhere.
    """
    n, K = inst.n, inst.K
    if n > ceiling:
        raise ValueError(f"n = {n} exceeds the enumeration ceiling {ceiling}")
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


def feasible_samples(samples, inst):
    """The distinct sampled labels the feasibility oracle accepts, in
    ascending order, as (labels, counts, bitstrings). One digit-level
    verdict covers every label; only the accepted ones are rendered."""
    labels = np.asarray(samples.labels(), dtype=np.int64)
    labels = labels[label_reasons(labels, inst, samples.register) == REASONS.index(OK)].tolist()
    counts = [samples.counts[z] for z in labels]
    bits = [label_bitstring(z, samples.params, samples.register) for z in labels]
    return labels, counts, bits


def _grid_point(
    model, gamma, beta, depth, shots, base_seed, index, score_mode, optimal_labels, optimal_cost, energies=None
):
    """One grid point: evolve, sample, filter, score. Returns the record,
    the local best as (score, index, label, bits) and the accepted
    {bits: count}."""
    params = model.params
    schedule = Schedule.constant(gamma, beta, depth)
    state = run_ansatz(params, model, schedule, energies=energies)
    samples = sample(state, shots, (base_seed, index))
    labels, counts, bits = feasible_samples(samples, model.inst)
    # for feasible labels "obj" equals energy_objective bit for bit
    scores = energy_components(model, labels)["obj" if score_mode == "objective" else "total"].tolist()
    local_best = min(zip(scores, [index] * len(labels), labels, bits), default=None)
    feasible_bits = dict(zip(bits, counts))
    _, share = feasible_histogram(feasible_bits, shots, params)
    hits = p_star_exact = None
    if optimal_labels is not None:
        hits = sum(c for c, score in zip(counts, scores) if abs(score - optimal_cost) <= SCORE_TOL)
        probs = exact_distribution(state)
        p_star_exact = float(probs[np.asarray(optimal_labels, dtype=np.int64)].sum())
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


# The sweep's energy table in a worker process, set once by the pool
# initializer so it is never pickled into a task.
_worker_energies = None


def _init_worker(energies):
    global _worker_energies
    _worker_energies = energies


def _grid_point_star(args):
    return _grid_point(*args, energies=_worker_energies)


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

    When `exact_reference` (an ExactSolution) is given, per-point records
    also carry optimal-hit counts and the exact optimal mass of the
    prepared state. The histogram of all feasible samples pooled over the
    sweep is available through `phqc_histogram`.
    """
    if shots_per_point < 1:
        raise ValueError("need shots_per_point >= 1")
    if score not in ("objective", "total"):
        raise ValueError(f"unknown score mode {score!r}")
    params = model.params
    optimal_labels = None
    optimal_cost = None
    if exact_reference is not None and exact_reference.optimal_assignments:
        optimal_labels = exact_reference.optimal_labels(params, model.register)
        optimal_cost = exact_reference.optimal_cost
    # The ansatz evolves every register on the one-hot labels.
    onehot = replace(model, register="onehot")
    energies = energy_table(onehot) if onehot.dim <= TABLE_LIMIT else None
    tasks = [
        (model, g, b, depth, shots_per_point, seed, idx, score, optimal_labels, optimal_cost)
        for idx, g, b in grid.points()
    ]
    if jobs > 1:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(energies,)
        ) as pool:
            outcomes = list(pool.map(_grid_point_star, tasks, chunksize=1))
    else:
        outcomes = [_grid_point(*t, energies=energies) for t in tasks]
    records = []
    best = None
    pooled = {}
    for record, local_best, feasible_bits in outcomes:
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
