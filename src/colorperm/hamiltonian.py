"""Diagonal cost model over the encoded registers.

The total energy of a basis state is

    E = once_penalty + capacity_penalty + objective (+ padding_penalty)

where the once-penalty charges lam_once * (count_i - 1)^2 per customer,
the capacity term is a hinge lam_cap * max(0, load_k - Q_k)^2 per vehicle
(or the quadratic surrogate lam_cap * (load_k - Q)^2 under a uniform Q,
or nothing in filter-only mode), and the objective walks the timeline:
adjacent positions on the same vehicle pay the customer-customer
distance, a vehicle change pays close-to-depot plus start-from-depot, and
the first and last positions pay their depot legs.

On the binary register a block whose word value is >= S is "padded": it
contributes lam_pad and is excluded from the once/capacity/objective
sums, which are built from projectors onto valid words only. A customer
covered by no valid block therefore still pays its (0 - 1)^2 once-term.

Everything here is a plain function of the basis-state label, and each
term has one arithmetic over rows of symbols: `_penalties` (once and
capacity) and `_timeline` (objective). `energy_components` applies both to
labels of either register and is the reference; padded words exist only
there. `table_parts` holds the one diagonal the simulator and the analysis
read, over the S^n one-hot labels whatever the model's register, in small
parts: `_penalties` on the pairs of distinct symbol multisets of the two
halves of a label, and the objective of all but the last two positions.
Its evaluator gives any range of labels, `energy_table` all; they equal
the reference bit for bit while every load is an integer below 2**53
(instances refuse a larger total demand).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import REGISTERS, EncodingParams, label_digits_array

CAP_MODES = ("hinge", "quadratic-surrogate", "filter-only")


@dataclass(frozen=True)
class PenaltyWeights:
    """Penalty and objective weights; lam_pad defaults to lam_once."""

    lam_once: float = 4.0
    lam_cap: float = 4.0
    lam_obj: float = 1.0
    lam_pad: float | None = None
    cap_mode: str = "hinge"

    def __post_init__(self):
        if self.lam_pad is None:
            object.__setattr__(self, "lam_pad", self.lam_once)
        for name in ("lam_once", "lam_cap", "lam_obj", "lam_pad"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite nonnegative number, not {value!r}")
        if self.cap_mode not in CAP_MODES:
            raise ValueError(f"unknown cap_mode {self.cap_mode!r}")


@dataclass(frozen=True)
class EnergyModel:
    """An instance, weights, and a register choice; energies are pure
    functions of the basis-state label, and `largest_energy` must be finite."""

    inst: object
    weights: PenaltyWeights
    params: EncodingParams
    register: str = "onehot"

    def __post_init__(self):
        if self.register not in REGISTERS:
            raise ValueError(f"unknown register {self.register!r}")
        if self.params.n != self.inst.n or self.params.K != self.inst.K:
            raise ValueError("encoding params do not match the instance")
        if self.weights.cap_mode == "quadratic-surrogate":
            if self.inst.uniform_capacity() is None:
                raise ValueError("quadratic-surrogate needs a uniform capacity")
        if not np.isfinite(self.largest_energy):
            raise ValueError(f"{self.weights} give instance {self.inst.name!r} energies past float range")

    @property
    def radix(self):
        return self.params.radix(self.register)

    @property
    def largest_energy(self):
        """A bound on every energy: n**2 once pairs, K loads n * max d off Q,
        n + 1 legs of twice the longest, n padded words, each times its weight."""
        inst, w, n = self.inst, self.weights, self.params.n
        load = (n * float(inst.d.max()) + float(inst.Q.max())) * (w.cap_mode != "filter-only")
        leg = max(float(inst.W.max()), float(inst.dep_to.max()), float(inst.to_dep.max()))
        return n * n * w.lam_once + load * load * self.params.K * w.lam_cap + 2 * (n + 1) * leg * w.lam_obj + (self.register == "binary") * n * w.lam_pad

    @classmethod
    def for_instance(cls, inst, weights=None, register="onehot"):
        return cls(inst, weights or PenaltyWeights(), EncodingParams.for_instance(inst), register)


def edge_cost(i, k, i2, k2, inst):
    """Timeline cost of symbol (i, k) followed by (i2, k2).

    Same vehicle pays W[i, i2]; a vehicle change pays the close-to-depot
    leg of (i, k) plus the start-from-depot leg of (i2, k2).
    """
    if k == k2:
        return float(inst.W[i, i2])
    return inst.dep_in(i, k) + inst.dep_out(i2, k2)


def depot_legs(inst):
    """The depot-start and depot-close vectors indexed by symbol i + n*k."""
    k_of, i_of = np.divmod(np.arange(inst.n * inst.K), inst.n)
    return tuple((legs[i_of] if legs.ndim == 1 else legs[i_of, k_of]).astype(float) for legs in (inst.dep_to, inst.to_dep))


def edge_cost_matrix(inst):
    """S x S matrix of edge_cost over symbol pairs, plus the depot-start
    and depot-close vectors indexed by symbol."""
    k_of, i_of = np.divmod(np.arange(inst.n * inst.K), inst.n)
    start, close = depot_legs(inst)
    same = k_of[:, None] == k_of[None, :]
    edges = np.where(same, inst.W[i_of[:, None], i_of[None, :]], close[:, None] + start[None, :])
    return edges, start, close


def energy_once(assignment_or_counts, weights, n=None):
    """Once-penalty lam_once * sum_i (count_i - 1)^2."""
    x = assignment_or_counts
    counts = x.customer_counts() if hasattr(x, "customer_counts") else list(x)
    if n is not None and len(counts) != n:
        raise ValueError("counts length must equal n")
    return weights.lam_once * sum((c - 1) ** 2 for c in counts)


def energy_capacity(loads, Q, weights):
    """Capacity penalty of per-vehicle loads under the configured mode."""
    loads = np.asarray(loads, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if weights.cap_mode == "filter-only":
        return 0.0
    if weights.cap_mode == "hinge":
        over = np.maximum(0.0, loads - Q)
        return float(weights.lam_cap * (over**2).sum())
    if (Q != Q[0]).any():
        raise ValueError("quadratic-surrogate needs a uniform capacity")
    return float(weights.lam_cap * ((loads - Q[0]) ** 2).sum())


def energy_objective(a, inst, lam_obj=1.0):
    """Timeline objective of an assignment: adjacent edge costs plus the
    opening and closing depot legs."""
    syms = a.symbols
    i0, k0 = syms[0]
    total = inst.dep_out(i0, k0)
    for (i, k), (i2, k2) in zip(syms, syms[1:]):
        total += edge_cost(i, k, i2, k2, inst)
    iN, kN = syms[-1]
    total += inst.dep_in(iN, kN)
    return lam_obj * total


def _penalties(model, sym, valid=None):
    """The once-each and capacity terms of n rows of symbols that broadcast
    together, a position whose `valid` is False (a padded word) covering no
    customer. Pairs and loads are counted exactly in integers (at most n*n;
    instances keep the total demand below 2**53), then scaled once."""
    inst, w = model.inst, model.weights
    n, K = model.params.n, model.params.K
    ok = [True] * n if valid is None else valid
    # once: sum_i (count_i - 1)**2 is 2 per same-customer pair of valid
    # positions plus 1 per padded one, whose customer n pairs with none
    cust = [np.where(ok[j], sym[j] % n, n) for j in range(n)]
    same = np.diag(2 * (np.arange(n + 1) < n)).astype(np.int16)
    count = np.zeros(np.broadcast_shapes(*map(np.shape, sym)), dtype=np.int16)
    for j1 in range(n):
        for j2 in range(j1 + 1, n):
            count += same[cust[j1], cust[j2]]
    count += n - np.sum(ok, axis=0)
    once = count.astype(float)
    once *= w.lam_once

    cap = np.zeros(once.shape)
    if w.cap_mode != "filter-only":
        # each position's vehicle and (valid) demand, read once for all K vehicles
        veh, demand = [s // n for s in sym], [inst.d[s % n] * ok[j] for j, s in enumerate(sym)]
        for k in range(K):
            load = np.zeros(once.shape)
            for j in range(n):
                load += np.where(veh[j] == k, demand[j], 0.0)
            # in place: hinge max(0, load - Q_k)**2 or surrogate (load - Q)**2
            if w.cap_mode == "hinge":
                load -= inst.Q[k]
                np.maximum(load, 0.0, out=load)
            else:
                load -= inst.uniform_capacity()
            load *= load
            cap += load
        cap *= w.lam_cap
    return once, cap


def _timeline(inst, sym, lam_obj, valid=None):
    """The timeline objective of n rows of symbols that broadcast together:
    the start leg, each adjacent pair's leg (W on one vehicle, else the edge
    matrix's entry, close leg plus start leg) and the close leg in position
    order, with no S x S matrix, then scaled once; a padded word's legs add 0."""
    n = inst.n
    ok = [True] * n if valid is None else valid
    start, close = depot_legs(inst)
    obj = start[sym[0]] * ok[0]
    for a, b, both in zip(sym[:-1], sym[1:], np.logical_and(ok[:-1], ok[1:])):
        obj = obj + np.where(a // n == b // n, inst.W[a % n, b % n], close[a] + start[b]) * both
    obj = obj + close[sym[-1]] * ok[-1]
    return obj * lam_obj


def energy_components(model, labels):
    """Vectorized energy breakdown for an array of basis-state labels.

    Returns a dict of equally shaped float arrays with keys "once",
    "cap", "obj", "pad", "total": `_penalties` and `_timeline` on the
    labels' digits, each padded binary word (digit >= S) masked out.
    """
    p = model.params
    digits = label_digits_array(np.atleast_1d(np.asarray(labels, dtype=np.int64)), p.n, model.radix)
    valid = digits < p.S
    sym = np.minimum(digits, p.S - 1)
    once, cap = _penalties(model, sym, valid)
    obj = _timeline(model.inst, sym, model.weights.lam_obj, valid)
    pad = model.weights.lam_pad * (p.n - valid.sum(axis=0)).astype(float)
    return {"once": once, "cap": cap, "obj": obj, "pad": pad, "total": once + cap + obj + pad}


def energy_total(z, model):
    """Total energy of one basis-state label."""
    return float(energy_components(model, [z])["total"][0])


def _half_multisets(S, digits):
    """The distinct symbol multisets of `digits` positions, each as its
    sorted symbols (a (digits, u) array), and every label's multiset index."""
    sym = label_digits_array(np.arange(S**digits), digits, S)
    sym.sort(axis=0)
    keys, inverse = np.unique(S ** np.arange(digits - 1, -1, -1) @ sym, return_inverse=True)
    return label_digits_array(keys, digits, S), inverse


@dataclass(frozen=True, eq=False)
class TableParts:
    """The parts of the S^n energy table (`table_parts`), and its one
    evaluator: `parts[lo:hi]` is the energy of the labels lo..hi-1."""

    pair: np.ndarray
    head_of: np.ndarray
    tail_of: np.ndarray
    edges: np.ndarray
    start: np.ndarray
    close: np.ndarray
    level: np.ndarray
    lam_obj: float

    def __getitem__(self, labels):
        S, T = len(self.close), len(self.tail_of)
        lo, hi, _ = labels.indices(len(self.head_of) * T)
        # `level` takes the last two positions' legs (at n = 1, the one), at
        # n <= 2 the start leg first onto its one empty sum -0.0 (an exact zero),
        # each leg on the whole groups of values, one per last symbol, in lo..hi
        obj, first, width = self.level, 0, len(self.head_of) * T // len(self.level)
        for leg in [self.edges if len(self.level) > 1 else self.start[None]] + [self.edges] * (len(self.head_of) > 1):
            span = width * len(leg)
            a, b = (lo - first) // span * len(leg), -(-(hi - first) // span) * len(leg)
            obj, first, width = _leg(obj[a:b], leg), first + a * width, width // S
        last = obj.reshape(-1, S)
        last += self.close
        obj *= self.lam_obj
        out = obj[lo - first : hi - first]
        for h in range(lo // T, -(-hi // T)):
            a, b = max(lo, h * T), min(hi, h * T + T)
            out[a - lo : b - lo] += self.pair[self.head_of[h], self.tail_of[a - h * T : b - h * T]]
        return out


def _leg(level, leg):
    """Each value of `level` plus the row of `leg` (edges, or start legs as one row) its last symbol picks."""
    return (level.reshape(-1, len(leg), 1) + leg).reshape(-1)


def table_parts(model):
    """The parts of the S^n one-hot energy table, whatever the register:
    `pair`, the once and capacity terms of each pair of symbol multisets
    of a label's first n // 2 digits and of the rest (they depend only on
    those multisets), which is `_penalties` on the pairs' broadcast rows,
    the reference's own arithmetic; each half-label's multiset (`head_of`,
    `tail_of`); and `level`, the objective of the first max(n - 2, 0)
    positions built one position at a time, each level the last plus an
    edge. The evaluator adds the legs in `_timeline`'s order, so it equals
    `energy_components` exactly."""
    n, S = model.params.n, model.params.S
    (head, head_of), (tail, tail_of) = _half_multisets(S, n // 2), _half_multisets(S, n - n // 2)
    # the symbol at each position of every (head, tail) pair of multisets
    pair, cap = _penalties(model, [row[:, None] for row in head] + [row[None, :] for row in tail])
    pair += cap
    edges, start, close = edge_cost_matrix(model.inst)
    level = np.array([-0.0])
    for j in range(n - 2):
        level = _leg(level, edges if j else start[None])
    return TableParts(pair, head_of, tail_of, edges, start, close, level, model.weights.lam_obj)


def energy_table(model):
    """Total energy of every S^n one-hot label, whatever the register, from
    its `table_parts`. Allocates at any size: its callers charge the
    memory budget first (`simulator.check_budget`)."""
    return table_parts(model)[:]


@dataclass(frozen=True)
class QuboExport:
    """Sparse QUBO: E(x) = constant + sum linear[a]*x_a + sum quad[a,b]*x_a*x_b.

    Variables are the n^2*K one-hot bits, id = j*S + (i + n*k) for
    position j. Quadratic keys are (a, b) with a < b, stored once.
    """

    num_vars: int
    linear: dict
    quadratic: dict
    constant: float

    def coefficient(self, a, b=None):
        if b is None or a == b:
            return self.linear.get(a, 0.0)
        key = (a, b) if a < b else (b, a)
        return self.quadratic.get(key, 0.0)

    def value(self, bits):
        x = [int(c) for c in bits] if isinstance(bits, str) else list(bits)
        if len(x) != self.num_vars:
            raise ValueError(f"expected {self.num_vars} bits")
        total = self.constant
        for a, coef in self.linear.items():
            total += coef * x[a]
        for (a, b), coef in self.quadratic.items():
            total += coef * x[a] * x[b]
        return total

    def to_dict(self):
        return {
            "num_vars": self.num_vars,
            "constant": self.constant,
            "linear": {str(a): c for a, c in sorted(self.linear.items())},
            "quadratic": {f"{a},{b}": c for (a, b), c in sorted(self.quadratic.items())},
        }


def export_qubo(model):
    """QUBO over the one-hot variables matching energy_total on every
    block-one-hot assignment.

    Only the quadratic capacity surrogate (or filter-only) fits a
    quadratic polynomial; the hinge mode is refused. Each coefficient sums
    its once, capacity and objective terms in that order on an (n, S)
    linear and an (n, S, n, S) coupling array, the pairs read from the
    coupling's strict upper triangle.
    """
    w = model.weights
    if w.cap_mode == "hinge":
        raise ValueError("hinge capacity is not quadratic; use quadratic-surrogate or filter-only")
    inst = model.inst
    n, K, S = model.params.n, model.params.K, model.params.S
    cust, veh = np.arange(S) % n, np.arange(S) // n
    # once-penalty: (sum_a x_a - 1)^2 per customer over its n*K variables
    terms = [w.lam_once] * n
    linear = np.full((n, S), -w.lam_once)
    coupling = np.zeros((n, S, n, S)) + (2.0 * w.lam_once * (cust[:, None] == cust))[None, :, None]
    if w.cap_mode == "quadratic-surrogate":
        Q0 = inst.uniform_capacity()
        d = np.asarray(inst.d, dtype=float)[cust]
        terms += [w.lam_cap * Q0 * Q0] * K
        linear += w.lam_cap * (d * d - 2.0 * Q0 * d)
        coupling += np.where(veh[:, None] == veh, 2.0 * w.lam_cap * d[:, None] * d, 0.0)[None, :, None]
    edges, start, close = edge_cost_matrix(inst)
    for j in range(n - 1):
        coupling[j, :, j + 1] += w.lam_obj * edges
    linear[0] += w.lam_obj * start
    linear[n - 1] += w.lam_obj * close
    constant = 0.0
    for term in terms:
        constant += term
    coupling = coupling.reshape(n * S, n * S)
    a, b = np.nonzero(np.triu(coupling, 1))
    coupling = coupling[a, b]  # only the kept values stay alive
    ids = np.flatnonzero(linear)
    linear = dict(zip(ids.tolist(), linear.reshape(-1)[ids].tolist()))
    return QuboExport(n * S, linear, dict(zip(zip(a.tolist(), b.tolist()), coupling.tolist())), constant)
