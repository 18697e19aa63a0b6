"""Hybrid grid-search solver and the exhaustive classical oracle.

The solver sweeps a coarse (gamma, beta) grid row by row: the points of
one gamma row share their first phase layer. At each point it prepares
the depth-p state, draws a seeded multinomial sample and keeps only the
labels the digit-level feasibility verdict accepts, freeing the sample
before the next draw. Each row then scores all its points' survivors at
once, with the timeline objective (or the full diagonal cost on
request) in one vectorized call, and keeps the strict minimum.
The energy table does not depend on the angles, so a sweep builds its
small parts once, decides on them whether its vehicles mirror
(`orbit_labels`), and every gamma row builds its phase factor from them;
under `jobs` > 1 the gamma rows are dealt to threads of the one process.
Either register evolves, draws, judges, scores and reduces one-hot
labels, and a sweep renders its pooled labels once. Grid rows are
independent work items, each point drawn from its own (seed, index); the
reduction is an associative min keyed by (score, grid_index, label),
taken in grid order, so the thread count never changes the result.

The exact oracle splits the timeline cost into routes: each used vehicle
serves one contiguous run and pays its start leg, W along the run and its
close leg. A Held-Karp table prices every customer subset (O(2^n n^2)),
once per distinct start-leg vector, so once for a `.vrp` file; each
vehicle's close legs and capacity then give its route costs and fits. A
dynamic program over the vehicles in index order gives the optimum and the
feasible count: O(K 3^n) (rest, submask) pairs, taken as one numpy step per
reachable rest (the last vehicle: one step in all), with int64 counts
while the all-fit count stays below 2^63 and Python integers past it.
Backtracking recovers every timeline near the optimum, each scored once
by `_timeline`, the sampled labels' own scorer. Before any table is
built, one admission step refuses with a ValueError an instance whose
route tables would pass MEMORY_BUDGET or whose dynamic program, its
counts weighed by their dtype, would pass WORK_CEILING; many ties
can still pass the winner ceiling, MEMORY_BUDGET // (WINNER_BYTES * n)
timelines, and then gathering stops with a ValueError.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .encoding import ColoredAssignment, assignment_label, label_assignment, label_bitstrings
from .feasibility import OK, REASONS, label_reasons
from .hamiltonian import _timeline, depot_legs, energy_components, table_parts
from .simulator import MEMORY_BUDGET, Schedule, _digit_block, check_budget, evolve_row, orbit_labels, sample

SCORE_TOL = 1e-9
# Bytes a `brute` run holds per customer position of each gathered timeline,
# through its JSON text (VmHWM above a one-customer run): 639 and 635 at n = 6
# and 7 (all tied, K = 2), 617 and 609 at n = 10 and 12 (tied blocks, K = 1).
WINNER_BYTES = 640
# Bytes the oracle holds per entry of its route tables, K (n + 2) 2^n in all:
# route costs, fits and the vehicle DP's G as arrays, and as the lists the
# winner walk reads with the Held-Karp rows. VmHWM above the RSS before the
# call, all-fit with per-vehicle legs at the work ceiling: 192.6 at n = 1 (each
# vehicle's lists outweigh its 6 entries), 97.2 at n = 3, 51.4 at n = 9, 53.3
# at n = 14; 63.0 at n = 18, K = 2 and 59.6 at n = 15, K = 3.
ROUTE_BYTES = 224
# The oracle's work in Held-Karp entries (about 22 ns each): per distinct
# start-leg vector a table of n^2 2^n entries in n^2 numpy steps, and for
# each vehicle but the first and the last up to 2^n steps over up to 3^n
# (rest, submask) pairs of n counts each; a numpy step costs STEP_WORK and a
# count COUNT_WORK, or INT64_COUNT_WORK in int64 (fitted 0.37-0.44 on all-fit
# K = 3, n = 14-17). The ceiling admits n = 9, K = 1,359 with per-vehicle
# legs, the slowest instance an n <= 9 limit admitted.
STEP_WORK = 1360
COUNT_WORK = 4
INT64_COUNT_WORK = 0.5
WORK_CEILING = 1359 * 81 * (2**9 + STEP_WORK) + 1357 * (STEP_WORK * 2**9 + COUNT_WORK * 9 * 3**9)
# Vehicle DP counts are int64 while the all-fit count is below this.
COUNT_LIMIT = 2**63


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


def _route_tables(inst, start, close):
    """The route cost of every customer subset on every vehicle (min over
    the last customer of the Held-Karp table P[mask][last], start leg plus
    W along the cheapest path over mask that ends at last, plus its close
    leg) and whether it fits, as (K, 2^n) arrays for the vehicle DP; and
    per vehicle the lists (P, steps, cost, fits) that `_timelines` walks,
    steps = [W | close legs] (column n is the depot). P depends on the
    start legs only, so it is built once per distinct start-leg vector."""
    n, K = inst.n, inst.K
    masks = np.arange(1 << n)
    members = (masks[:, None] >> np.arange(n)) & 1
    loads = members @ np.asarray(inst.d, dtype=np.int64)
    costs = np.empty((K, 1 << n))
    fits = np.empty((K, 1 << n), dtype=bool)
    tables = [None] * K
    by_start = {}
    for k in range(K):
        by_start.setdefault(start[k * n : (k + 1) * n].tobytes(), []).append(k)
    for ks in by_start.values():
        P = np.full((1 << n, n), np.inf)
        P[1 << np.arange(n), np.arange(n)] = start[ks[0] * n : (ks[0] + 1) * n]
        for layer in (masks[members.sum(axis=1) == m] for m in range(2, n + 1)):
            for j in range(n):
                on = layer[members[layer, j] == 1]
                P[on, j] = (P[on ^ (1 << j)] + inst.W[:, j]).min(axis=1)
        rows = P.tolist()
        for k in ks:
            last = close[k * n : (k + 1) * n]
            costs[k] = (P + last).min(axis=1)
            fits[k] = loads <= inst.Q[k]
            tables[k] = (rows, np.column_stack([inst.W, last]).tolist(), costs[k].tolist(), fits[k].tolist())
    return costs, fits, tables


def _count_dtype(n, K):
    """The vehicle DP's count dtype: int64 while the all-fit count, which
    bounds every count, is below COUNT_LIMIT; Python integers past it."""
    total = math.factorial(n) * sum(math.comb(n - 1, r - 1) * math.perm(K, r) for r in range(1, n + 1))
    return np.int64 if total < COUNT_LIMIT else object


def _vehicle_tables(costs, fits, n):
    """G[k][mask], the least cost of serving mask with vehicles 0..k-1,
    each unused or on one route (the last vehicle fills the full mask
    only), and the feasible timeline count: over route sets, r! orders of
    the r routes times |B|! orders within each route B. Each vehicle is one
    vector step per reachable rest over the fitting submasks of its
    complement (the last vehicle: one step onto the full mask)."""
    K, full = len(costs), (1 << n) - 1
    bits = (np.arange(full + 1)[:, None] >> np.arange(n)) & 1
    size = bits.sum(axis=1)
    dtype = _count_dtype(n, K)
    fact = np.array([math.factorial(r) for r in range(n + 1)], dtype=dtype)
    G = np.full((K + 1, full + 1), np.inf)
    G[0, 0] = 0.0
    # N[mask, r]: ways on r routes, each weighted by its in-route orders
    N = np.zeros((full + 1, n + 1), dtype=dtype)
    N[0, 0] = 1
    for k in range(K):
        prev, g = G[k], G[k + 1]
        g[:] = prev
        cnt = N.copy()
        # reachable masks a route can still join
        rests = np.flatnonzero((N[:-1] != 0).any(axis=1))
        if k < K - 1:
            for rest in rests.tolist():
                # the nonempty submasks of free: each index below 2^|free|
                # with its bits dealt onto free's members
                free = full ^ rest
                subs = bits[1 : 1 << size[free], : size[free]] @ (1 << np.flatnonzero(bits[free]))
                subs = subs[fits[k][subs]]
                to = rest | subs
                g[to] = np.minimum(g[to], prev[rest] + costs[k][subs])
                cnt[to, 1:] += N[rest, :-1] * fact[size[subs], None]
        else:
            rests = rests[fits[k][full ^ rests]]
            subs = full ^ rests
            g[full] = min(g[full], (prev[rests] + costs[k][subs]).min(initial=np.inf))
            cnt[full, 1:] += (N[rests, :-1] * fact[size[subs], None]).sum(axis=0)
        N = cnt
    return G, int((fact * N[full]).sum())


def _timelines(tables, G, n, bound, limit):
    """Symbol rows i + n*k of every feasible timeline whose route costs sum
    to at most bound: each route set within it, each in-route order within
    it, and every order of the routes along the timeline. A route lists at
    most limit + 1 orders: each order makes a timeline of its own."""

    def sets(k, mask, acc, chosen):
        # vehicles 0..k-1 still to serve mask; the chosen routes cost acc.
        # The next route is on the highest used vehicle v; G[v + 1][mask]
        # does not fall as v does, so the first v past the bound ends the
        # walk, and the depth is the number of routes, not of vehicles.
        if not mask:
            yield chosen
            return
        for v in range(k - 1, -1, -1):
            if G[v + 1][mask] + acc > bound:
                break
            cost, fits = tables[v][2:]
            sub = mask
            while sub:
                if fits[sub] and G[v][mask ^ sub] + cost[sub] + acc <= bound:
                    yield from sets(v, mask ^ sub, acc + cost[sub], chosen + ((v, sub),))
                sub = (sub - 1) & mask

    def orders(P, steps, k, mask, head, tail, others, seq, found):
        # orders of mask before seq, which starts at head (n: the depot)
        # and costs tail from there on
        if not mask:
            found.append(seq)
        for i in range(n):
            step = steps[i][head] + tail
            if len(found) <= limit and mask >> i & 1 and P[mask][i] + step + others <= bound:
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
    (1.0 without a model), each summed once by `_timeline`, the sampled
    labels' own scorer, so the reported optimal_cost is bit-comparable
    with per-sample scores elsewhere. Argmins are gathered to a 1e-9
    tolerance. Refuses, before building anything, route tables over the
    memory budget (ROUTE_BYTES per entry) and work over WORK_CEILING.
    """
    n, K = inst.n, inst.K
    need = ROUTE_BYTES * (K * (n + 2) << n)
    if need > MEMORY_BUDGET:
        raise ValueError(f"the exact oracle's tables at n = {n}, K = {K} need about {need} bytes, over the memory budget of {MEMORY_BUDGET} bytes")
    start, close = depot_legs(inst)
    starts = len({start[k * n : (k + 1) * n].tobytes() for k in range(K)})
    count_work = INT64_COUNT_WORK if _count_dtype(n, K) is np.int64 else COUNT_WORK
    work = starts * n * n * (2**n + STEP_WORK) + max(K - 2, 0) * (STEP_WORK * 2**n + math.ceil(count_work * n * 3**n))
    if work > WORK_CEILING:
        raise ValueError(f"the exact oracle at n = {n}, K = {K} needs about {work} units of work, over its work ceiling of {WORK_CEILING}")
    lam_obj = model.weights.lam_obj if model is not None else 1.0
    costs, fits, tables = _route_tables(inst, start, close)
    G, feasible_count = _vehicle_tables(costs, fits, n)
    if not feasible_count:
        return ExactSolution(None, (), 0)
    G = G.tolist()
    # The tables sum route by route, a timeline's score along the timeline;
    # the two can differ in the last bits. So recover every timeline within
    # a margin past the tolerance and gather them on their timeline scores,
    # added by `_timeline`, so each equals energy_objective bit for bit.
    best = G[K][-1]
    bound = best + (SCORE_TOL / lam_obj if lam_obj > 0 else np.inf) + 1e-9 * (1 + best)
    ceiling = MEMORY_BUDGET // (WINNER_BYTES * n)
    found = itertools.islice(_timelines(tables, G, n, bound, ceiling), ceiling + 1)
    syms = np.fromiter(found, dtype=np.dtype((np.int64, (n,))))
    if len(syms) > ceiling:
        raise ValueError(f"more than {ceiling} timelines tie for the optimum, over the winner ceiling at n = {n}")
    cost = _timeline(inst, syms.T, lam_obj)
    optimum = cost.min()
    pairs = [(s % n, s // n) for s in range(n * K)]
    winners = sorted(
        (ColoredAssignment(tuple(map(pairs.__getitem__, r)), K) for r in syms[cost <= optimum + SCORE_TOL].tolist()),
        key=lambda a: a.symbols,
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
    keyed by bitstring; it feeds the outcome-histogram CSV. best_objective
    is the best sample's timeline objective, its score under "objective".
    """

    best_bitstring: str | None
    best_score: float | None
    best_objective: float | None
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


def grid_row(model, gamma, betas, dists, shots, seed, first, score_mode, optimal):
    """One gamma row, from each beta's distribution over the one-hot
    labels or their head (`sample`), whose optimal labels are read through
    their leading digit's `_digit_block` view; `optimal` is None or the
    exact oracle's (ascending one-hot labels as an int64 array, cost).
    Each point draws its sample, keeps the labels the digit-level verdict
    accepts and frees the rest before the next draw; the row's accepted
    labels are then scored at once by the model, whatever its register.
    Returns per point, in index order, the record, the local best (score,
    index, label, objective) and {label: count}, all on one-hot labels."""
    params = model.params
    stars, labels, counts = [None] * len(betas), [], []
    for j, probs in enumerate(dists):
        if optimal is not None:
            digits, at = np.divmod(optimal[0], params.S ** (params.n - 1))
            blocks = [_digit_block(params, probs, d).flat[at[digits == d]] for d in sorted(set(digits.tolist()))]
            stars[j] = float(np.concatenate([np.zeros(0), *blocks]).sum())
        # a draw under the spread rule normalises a whole distribution in place
        drawn = sample(probs, shots, (seed, first + j), params)
        ok = label_reasons(drawn.labels, model.inst) == REASONS.index(OK)
        labels.append(drawn.labels[ok])
        counts.append(drawn.counts[ok])
        # a full sample can be the size of the state: hold one at a time
        del drawn
    ends = np.cumsum([0] + [len(a) for a in labels]).tolist()
    accepted = np.concatenate(labels)
    # for feasible labels "obj" equals energy_objective bit for bit, and
    # optimal hits are judged on it whatever the ranking score
    parts = energy_components(model, accepted)
    objs = parts["obj"].tolist()
    scores = objs if score_mode == "objective" else parts["total"].tolist()
    counts = np.concatenate(counts)
    hits = None if optimal is None else np.where(np.abs(parts["obj"] - optimal[1]) <= SCORE_TOL, counts, 0).tolist()
    accepted, counts = accepted.tolist(), counts.tolist()
    points = []
    for j, (beta, star) in enumerate(zip(betas, stars)):
        cut = slice(ends[j], ends[j + 1])
        local_best = min(zip(scores[cut], itertools.repeat(first + j), accepted[cut], objs[cut]), default=None)
        feasible = dict(zip(accepted[cut], counts[cut]))
        _, share = feasible_histogram(feasible, shots, params)
        hit = None if hits is None else sum(hits[cut])
        record = GridPointRecord(first + j, gamma, beta, sum(counts[cut]), share, hit, star)
        points.append((record, local_best, feasible))
    return points


def charge_sweep(model, shape, depth, jobs, gamma=math.pi):
    """Admit a sweep of a (gamma rows, betas) grid `shape` at `depth`, its
    largest |gamma| `gamma` times `largest_energy` finite, before its grid,
    any row or the oracle is built; return its threads, its `table_parts`
    and the labels each row's factor holds. Threads: `jobs`, but no more
    than its gamma rows or the machine's CPUs (past either, a thread adds a
    state and no speed). `check_budget` charges each thread a row's state,
    factor and schedules, and the sweep its grid: on the vehicle-orbit head,
    the least a sweep holds, before the parts are built (its table charge
    holds them), then on the head the parts decide (`orbit_labels`)."""
    params, (rows, betas) = model.params, shape
    if not math.isfinite(gamma * model.largest_energy):
        raise ValueError(f"gamma {gamma!r} times the energies of {model.weights} on {model.inst.name!r} is past float range")
    workers = min(jobs, rows, os.cpu_count() or 1)
    check_budget(params, "onehot", workers, depth * betas, orbit_labels(params), shape)
    parts = table_parts(model)
    head = orbit_labels(params, parts)
    check_budget(params, "onehot", workers, depth * betas, head, shape)
    return workers, parts, head


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
    admission=None,
):
    """Grid sweep with feasibility filtering and strict-minimum scoring.

    The sweep runs row by row, on up to `jobs` threads: one call per
    gamma evolves every beta of its row from a shared first phase layer,
    and `grid_row` scores the row's accepted samples in one pass. When
    `exact_reference` (an ExactSolution) is given, per-point records also
    carry optimal-hit counts and the exact optimal mass of the prepared
    state. The accepted labels pooled over the sweep (`phqc_histogram`)
    and the best are rendered in the model's register by one
    `label_bitstrings` call, after the reduce. The sweep runs on the
    threads, parts and head of its `admission`, which `charge_sweep`
    returned for this grid, depth and `jobs`; without one, `charge_sweep`
    admits it here, and refuses runs over the memory budget before any
    state or schedule is built.
    """
    if not 1 <= shots_per_point < 2**63:
        raise ValueError(f"need 1 <= shots_per_point < 2**63, not {shots_per_point}")
    if score not in ("objective", "total"):
        raise ValueError(f"unknown score mode {score!r}")
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, not {jobs}")
    params = model.params
    workers, parts, head = admission or charge_sweep(model, (len(grid.gammas), len(grid.betas)), depth, jobs, max(map(abs, grid.gammas)))
    optimal = None
    if exact_reference is not None and exact_reference.optimal_assignments:
        optimal = np.asarray(exact_reference.optimal_labels(params), dtype=np.int64), exact_reference.optimal_cost
    betas = grid.betas

    def row(r):
        # every beta of one gamma row, evolved from one shared first phase layer
        gamma = grid.gammas[r]
        dists = evolve_row(params, parts, [Schedule.constant(gamma, beta, depth) for beta in betas], head)
        return grid_row(model, gamma, betas, dists, shots_per_point, seed, r * len(betas), score, optimal)

    records = []
    best = None
    pooled = {}
    # each row is reduced as it is yielded, in grid order: only the rows that
    # finish ahead of the reduce are held
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext() as pool:
        rows = (pool.map if pool else map)(row, range(len(grid.gammas)))
        for record, local_best, feasible in itertools.chain.from_iterable(rows):
            records.append(record)
            for label, count in feasible.items():
                pooled[label] = pooled.get(label, 0) + count
            if local_best is not None and (best is None or local_best[:3] < best[:3]):
                best = local_best
    # the sweep's one rendering: every pooled label, the best among them
    bits = dict(zip(pooled, label_bitstrings(np.fromiter(pooled, np.int64, len(pooled)), params, model.register)))
    return PhqcResult(
        best_bitstring=None if best is None else bits[best[2]],
        best_score=None if best is None else float(best[0]),
        best_objective=None if best is None else float(best[3]),
        best_assignment=None if best is None else label_assignment(best[2], params),
        records=tuple(records),
        total_shots=shots_per_point * len(grid),
        shots_per_point=shots_per_point,
        seed=seed,
        depth=depth,
        register=model.register,
        feasible_counts={bits[label]: count for label, count in pooled.items()},
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

