"""Seeded CVRP instance generator and an independent exhaustive oracle.

Both work from plain numpy on the generated data and import nothing from
the program, so the optimum they report can check the program's own
oracle and solver.
"""

from __future__ import annotations

import itertools
import math
import zlib

import numpy as np

COORD_RANGE = 100


def instance_rng(seed, workload):
    """A generator of its own for each (workload seed, workload name)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), zlib.crc32(workload.encode())]))


def _splits(demand, K, Q):
    """True when the customers can be split over K vehicles of capacity Q."""
    for owner in itertools.product(range(K), repeat=len(demand)):
        loads = np.bincount(owner, weights=demand, minlength=K)
        if (loads <= Q).all():
            return True
    return False


def generate(rng, demands, K):
    """Integer depot/customer coordinates and the given small integer
    demands dealt to the customers in a random order, with the smallest
    capacity >= 1.25 * total / K at which the fleet can carry the load; it
    stays below the total, so K = 2 must split the load.

    The seed moves the points and which customer carries which demand.
    The demand multiset is fixed per workload: it sets how many
    configurations are feasible, and so how much work the oracle and the
    feasibility filter do, which should not change from seed to seed.
    """
    n = len(demands)
    coords = rng.integers(0, COORD_RANGE, size=(n + 1, 2))
    demand = rng.permutation(np.asarray(demands, dtype=np.int64))
    total = int(demand.sum())
    Q = max(int(demand.max()), math.ceil(1.25 * total / K))
    while not _splits(demand, K, Q):
        Q += 1
    if Q >= total:
        raise ValueError("generated capacity does not force a split")
    return {"coords": coords, "demand": demand, "Q": Q, "K": K, "n": n}


def to_vrp(inst, name):
    """TSPLIB text: node 1 is the depot, nodes 2..n+1 the customers."""
    lines = [
        f"NAME : {name}",
        "TYPE : CVRP",
        f"DIMENSION : {inst['n'] + 1}",
        "EDGE_WEIGHT_TYPE : EUC_2D",
        f"CAPACITY : {inst['Q']}",
        "NODE_COORD_SECTION",
    ]
    lines += [f"{node + 1} {x} {y}" for node, (x, y) in enumerate(inst["coords"].tolist())]
    lines.append("DEMAND_SECTION")
    lines.append("1 0")
    lines += [f"{i + 2} {d}" for i, d in enumerate(inst["demand"].tolist())]
    lines += ["DEPOT_SECTION", "1", "-1", "EOF", ""]
    return "\n".join(lines)


def _distances(inst):
    pts = inst["coords"].astype(float)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    return dist[1:, 1:], dist[0, 1:]


def oracle(inst):
    """(optimal cost, feasible count) over customer orders crossed with
    contiguous vehicle runs carrying pairwise distinct labels."""
    n, K = inst["n"], inst["K"]
    W, leg = _distances(inst)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    loads = inst["demand"][perms]
    base = leg[perms[:, 0]] + leg[perms[:, -1]]
    step_same = W[perms[:, :-1], perms[:, 1:]]
    step_change = leg[perms[:, :-1]] + leg[perms[:, 1:]]
    best, count = math.inf, 0
    for runs in range(1, min(n, K) + 1):
        for cuts in itertools.combinations(range(1, n), runs - 1):
            bounds = (0,) + cuts + (n,)
            ok = np.ones(len(perms), dtype=bool)
            for a, b in zip(bounds, bounds[1:]):
                ok &= loads[:, a:b].sum(axis=1) <= inst["Q"]
            if not ok.any():
                continue
            change = np.zeros(n - 1, dtype=bool)
            change[[c - 1 for c in cuts]] = True
            cost = base + np.where(change, step_change, step_same).sum(axis=1)
            # Every ordered choice of distinct labels for the runs has the
            # same cost under a shared depot and a uniform capacity.
            count += int(ok.sum()) * math.perm(K, runs)
            best = min(best, float(cost[ok].min()))
    return best, count
