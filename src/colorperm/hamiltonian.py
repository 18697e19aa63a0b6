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

Everything here is a plain function of the basis-state label.
`energy_components` evaluates it over an array of labels of either
register and is the reference; padded words exist only there.
`energy_table` builds the one diagonal the simulator and the analysis
read, over the S^n one-hot labels whatever the model's register, by
broadcasting per-digit terms over an (S,)*n array and adding them in the
reference's order so the two agree bit for bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .encoding import REGISTERS, EncodingParams, label_digits_array, symbol_index

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
    functions of the basis-state label."""

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

    @property
    def dim(self):
        return self.params.dim(self.register)

    @property
    def radix(self):
        return self.params.radix(self.register)

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


def edge_cost_matrix(inst):
    """S x S matrix of edge_cost over symbol pairs, plus the depot-start
    and depot-close vectors indexed by symbol."""
    n, K = inst.n, inst.K
    S = n * K
    i_of = np.arange(S) % n
    k_of = np.arange(S) // n
    if inst.dep_to.ndim == 1:
        start = inst.dep_to[i_of]
    else:
        start = inst.dep_to[i_of, k_of]
    if inst.to_dep.ndim == 1:
        close = inst.to_dep[i_of]
    else:
        close = inst.to_dep[i_of, k_of]
    same = k_of[:, None] == k_of[None, :]
    edges = np.where(same, inst.W[i_of[:, None], i_of[None, :]], close[:, None] + start[None, :])
    return edges, start.astype(float), close.astype(float)


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


# Pickup-and-delivery tours score the same way: PdpInstance.W is its
# dead-mile matrix Wtilde.
energy_objective_pdp = energy_objective


def energy_components(model, labels):
    """Vectorized energy breakdown for an array of basis-state labels.

    Returns a dict of equally shaped float arrays with keys "once",
    "cap", "obj", "pad", "total".
    """
    inst = model.inst
    p = model.params
    w = model.weights
    n, K, S = p.n, p.K, p.S
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    m = len(labels)
    digits = label_digits_array(labels, n, model.radix)
    valid = (
        np.ones((n, m), dtype=bool) if model.register == "onehot" else digits < S
    )
    sym = np.minimum(digits, S - 1)
    cust = sym % n
    veh = sym // n

    n_valid = valid.sum(axis=0)
    once = np.zeros(m)
    for j1 in range(n):
        for j2 in range(j1 + 1, n):
            pair = valid[j1] & valid[j2] & (cust[j1] == cust[j2])
            once += 2.0 * pair
    once += n - n_valid
    once *= w.lam_once

    cap = np.zeros(m)
    if w.cap_mode != "filter-only":
        loads = np.zeros((K, m))
        demand = np.asarray(inst.d, dtype=float)
        for j in range(n):
            dj = np.where(valid[j], demand[cust[j]], 0.0)
            for k in range(K):
                loads[k] += np.where(veh[j] == k, dj, 0.0)
        if w.cap_mode == "hinge":
            for k in range(K):
                over = np.maximum(0.0, loads[k] - inst.Q[k])
                cap += over**2
        else:
            Q0 = inst.uniform_capacity()
            cap = ((loads - Q0) ** 2).sum(axis=0)
        cap *= w.lam_cap

    edges, start, close = edge_cost_matrix(inst)
    obj = np.where(valid[0], start[sym[0]], 0.0)
    for j in range(n - 1):
        pair = valid[j] & valid[j + 1]
        obj += np.where(pair, edges[sym[j], sym[j + 1]], 0.0)
    obj = obj + np.where(valid[n - 1], close[sym[n - 1]], 0.0)
    obj *= w.lam_obj

    pad = w.lam_pad * (n - n_valid).astype(float)
    return {"once": once, "cap": cap, "obj": obj, "pad": pad, "total": once + cap + obj + pad}


def energy_total(z, model):
    """Total energy of one basis-state label."""
    return float(energy_components(model, [z])["total"][0])


def _axis_view(vec_or_mat, axes, n):
    """Reshape a per-digit vector (one axis) or a pair matrix (two
    ascending axes) so it broadcasts over a (radix,)*n array."""
    shape = [1] * n
    for axis, size in zip(axes, vec_or_mat.shape):
        shape[axis] = size
    return vec_or_mat.reshape(shape)


def energy_table(model):
    """Total energy of every S^n one-hot label, whatever the register.

    Allocates at any size: its callers charge the memory budget first
    (`simulator.check_budget`). Each term of `energy_components` is a sum
    of per-digit or per-digit-pair pieces, so it is built by broadcasting
    small vectors and matrices over an (S,)*n array; the additions run in
    the reference's order and the result equals `energy_components` of
    the one-hot model at arange(S^n) exactly.
    """
    inst = model.inst
    p = model.params
    w = model.weights
    n, K, S = p.n, p.K, p.S
    shape = (S,) * n
    sym = np.arange(S)
    cust = sym % n
    veh = sym // n

    # once: 2 per same-customer digit pair, counted exactly in integers
    # (at most n*n) and scaled once
    same = 2 * (cust[:, None] == cust[None, :]).astype(np.int16)
    count = np.zeros(shape, dtype=np.int16)
    for j1 in range(n):
        for j2 in range(j1 + 1, n):
            count += _axis_view(same, (j1, j2), n)
    total = count.astype(float)
    total *= w.lam_once

    if w.cap_mode != "filter-only":
        demand = np.asarray(inst.d, dtype=float)
        cap = np.zeros(shape)
        load = np.empty(shape)
        for k in range(K):
            per_digit = np.where(veh == k, demand[cust], 0.0)
            load.fill(0.0)
            for j in range(n):
                load += _axis_view(per_digit, (j,), n)
            # in place: hinge max(0, load - Q_k)**2 or surrogate (load - Q)**2
            if w.cap_mode == "hinge":
                load -= inst.Q[k]
                np.maximum(load, 0.0, out=load)
            else:
                load -= inst.uniform_capacity()
            load *= load
            cap += load
        cap *= w.lam_cap
        total += cap
        del load, cap

    edges, start, close = edge_cost_matrix(inst)
    obj = np.empty(shape)
    obj[...] = _axis_view(start, (0,), n)
    for j in range(n - 1):
        obj += _axis_view(edges, (j, j + 1), n)
    obj += _axis_view(close, (n - 1,), n)
    obj *= w.lam_obj
    total += obj
    return total.reshape(-1)


def energy_trace_csv(model, path, labels=None):
    """Write a per-label CSV trace (label, E_once, E_cap, E_obj, E_total)."""
    if labels is None:
        labels = np.arange(model.dim)
    comp = energy_components(model, labels)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "E_once", "E_cap", "E_obj", "E_total"])
        for idx, z in enumerate(labels):
            writer.writerow(
                [
                    int(z),
                    repr(float(comp["once"][idx])),
                    repr(float(comp["cap"][idx])),
                    repr(float(comp["obj"][idx])),
                    repr(float(comp["total"][idx])),
                ]
            )


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
        if b is None:
            return self.linear.get(a, 0.0)
        if a == b:
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
    quadratic polynomial; the hinge mode is refused.
    """
    w = model.weights
    if w.cap_mode == "hinge":
        raise ValueError("hinge capacity is not quadratic; use quadratic-surrogate or filter-only")
    inst = model.inst
    p = model.params
    n, K, S = p.n, p.K, p.S
    linear = {}
    quadratic = {}

    def add_lin(a, coef):
        if coef:
            linear[a] = linear.get(a, 0.0) + coef

    def add_quad(a, b, coef):
        if not coef:
            return
        key = (a, b) if a < b else (b, a)
        quadratic[key] = quadratic.get(key, 0.0) + coef

    constant = 0.0
    # once-penalty: (sum_a x_a - 1)^2 per customer over its n*K variables
    for i in range(n):
        group = [j * S + symbol_index(i, k, n, K) for j in range(n) for k in range(K)]
        constant += w.lam_once
        for a in group:
            add_lin(a, -w.lam_once)
        for ai in range(len(group)):
            for bi in range(ai + 1, len(group)):
                add_quad(group[ai], group[bi], 2.0 * w.lam_once)

    if w.cap_mode == "quadratic-surrogate":
        Q0 = inst.uniform_capacity()
        for k in range(K):
            group = [
                (j * S + symbol_index(i, k, n, K), float(inst.d[i]))
                for j in range(n)
                for i in range(n)
            ]
            constant += w.lam_cap * Q0 * Q0
            for a, di in group:
                add_lin(a, w.lam_cap * (di * di - 2.0 * Q0 * di))
            for ai in range(len(group)):
                for bi in range(ai + 1, len(group)):
                    a, da = group[ai]
                    b, db = group[bi]
                    add_quad(a, b, 2.0 * w.lam_cap * da * db)

    edges, start, close = edge_cost_matrix(inst)
    for j in range(n - 1):
        for s1 in range(S):
            for s2 in range(S):
                add_quad(j * S + s1, (j + 1) * S + s2, w.lam_obj * float(edges[s1, s2]))
    for s in range(S):
        add_lin(s, w.lam_obj * float(start[s]))
        add_lin((n - 1) * S + s, w.lam_obj * float(close[s]))

    linear = {a: c for a, c in linear.items() if c != 0.0}
    quadratic = {k: c for k, c in quadratic.items() if c != 0.0}
    return QuboExport(n * S, linear, quadratic, constant)
