"""Routing problem data: file parsing, distance matrices, register sizes.

A CVRP instance is n customers with integer demands served by K vehicles
with integer capacities from a shared depot (per-vehicle depot legs are
supported by passing n x K leg matrices instead of length-n vectors).
Distances are held in precomputed matrices so every edge query afterwards
is a plain array lookup.
"""

from __future__ import annotations

import json
import math
import numbers
import pathlib
import re
from dataclasses import dataclass

import numpy as np

from .encoding import EncodingParams

ROUNDING_MODES = ("exact", "nearest-integer")


class ParseError(ValueError):
    """An instance file that cannot be interpreted."""


def _nint(x):
    # TSPLIB nint convention: round half away from zero for positive reals.
    return np.floor(np.asarray(x, dtype=float) + 0.5)


def build_matrices(coords, depot_coord, rounding_mode="exact"):
    """Euclidean distance matrices from customer and depot coordinates.

    Parameters
    ----------
    coords : sequence of (x, y)
        Customer coordinates, length n.
    depot_coord : (x, y)
        Depot coordinate.
    rounding_mode : {"exact", "nearest-integer"}
        "nearest-integer" applies floor(x + 0.5) to every distance.

    Returns
    -------
    (W, dep_to, to_dep)
        n x n customer matrix and the two length-n depot leg vectors.
    """
    if rounding_mode not in ROUNDING_MODES:
        raise ValueError(f"unknown rounding mode {rounding_mode!r}")
    pts = np.asarray(coords, dtype=float).reshape(len(coords), 2)
    dep = np.asarray(depot_coord, dtype=float).reshape(2)
    # coordinates too large (or not finite) give inf or nan distances,
    # which Instance refuses
    with np.errstate(over="ignore", invalid="ignore"):
        diff = pts[:, None, :] - pts[None, :, :]
        W = np.sqrt((diff**2).sum(axis=-1))
        legs = np.sqrt(((pts - dep) ** 2).sum(axis=-1))
    if rounding_mode == "nearest-integer":
        W = _nint(W)
        legs = _nint(legs)
    return W, legs, legs.copy()


def qubit_counts(n, K):
    """Register widths (one_hot, binary) for n customers and K vehicles.

    One-hot needs K*n^2 bits (n blocks of S = n*K), the binary register
    needs n*ceil(log2(S)) bits, with ceil(log2(1)) = 0 for the degenerate
    single-symbol alphabet.
    """
    p = EncodingParams(n, K)
    return p.onehot_len, p.binary_len


def _as_readonly(a, dtype=float):
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


_INT64 = np.iinfo(np.int64)


def _integers(values, what):
    """`values` as a read-only int64 array. Each entry must be an integer
    (an integral float such as 2.0 counts) that fits in 64 bits; anything
    else is a ParseError rather than a truncation or a TypeError."""
    items = np.asarray(values, dtype=object)
    for v in items.flat:
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v) or v != int(v):
            raise ParseError(f"{what} must be integers, not {v!r}")
        if not _INT64.min <= v <= _INT64.max:
            raise ParseError(f"{what} must fit in 64 bits, not {v!r}")
    return _as_readonly(items, dtype=np.int64)


def _reals(values, what):
    """`values` as a float array. Each entry must be a real number within
    float range, not a bool, a string or null; anything else is a
    ParseError that names the field rather than a TypeError. `Instance`
    then checks that the entries are finite and nonnegative."""
    items = np.asarray(values, dtype=object)
    for v in items.flat:
        try:
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise TypeError
            float(v)
        except (TypeError, OverflowError):
            raise ParseError(f"{what} must be finite nonnegative numbers, not {v!r}") from None
    return items.astype(float)


@dataclass(frozen=True)
class Instance:
    """Immutable CVRP problem datum: n customers, K vehicles, integer
    demands `d` and capacities `Q`, an n x n distance matrix `W` with a
    zero diagonal, and the depot legs `dep_to` / `to_dep`, each a length-n
    vector (shared depot) or an n x K matrix (per-vehicle depots); use
    `dep_out` / `dep_in` to read a leg without caring which.
    """

    name: str
    n: int
    K: int
    d: np.ndarray
    Q: np.ndarray
    W: np.ndarray
    dep_to: np.ndarray
    to_dep: np.ndarray

    def __post_init__(self):
        """Check the fields and freeze them read-only."""
        n = self.n
        if n < 1 or self.K < 1:
            raise ValueError("need n >= 1 and K >= 1")
        d = _integers(self.d, "demands")
        Q = _integers(self.Q, "capacities")
        W = _as_readonly(self.W)
        if d.shape != (n,):
            raise ValueError("demand vector must have length n")
        if Q.shape != (self.K,):
            raise ValueError("capacity vector must have length K")
        if (d < 0).any():
            raise ValueError("demands must be nonnegative")
        total = sum(d.tolist())  # in Python integers, past int64
        if total >= 2**53:  # below it, loads add exactly in any order (`energy_table`)
            raise ValueError(f"total demand must be below 2**53, not {total}")
        if (Q < 0).any():
            raise ValueError("capacities must be nonnegative")
        if W.shape != (n, n):
            raise ValueError("W must be n x n")
        if not (np.isfinite(W) & (W >= 0)).all():
            raise ValueError("distances must be finite nonnegative numbers")
        if np.abs(np.diagonal(W)).max(initial=0.0) > 0:
            raise ValueError("W must have a zero diagonal")
        for name in ("dep_to", "to_dep"):
            v = _as_readonly(getattr(self, name))
            if v.shape not in ((n,), (n, self.K)):
                raise ValueError(f"{name} must have shape (n,) or (n, K)")
            if not (np.isfinite(v) & (v >= 0)).all():
                raise ValueError("depot legs must be finite nonnegative numbers")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "W", W)

    def uniform_capacity(self):
        """The shared capacity value, or None if vehicles differ."""
        if (self.Q == self.Q[0]).all():
            return int(self.Q[0])
        return None

    def dep_out(self, i, k):
        """Depot -> customer i leg for vehicle k."""
        v = self.dep_to
        return float(v[i] if v.ndim == 1 else v[i, k])

    def dep_in(self, i, k):
        """Customer i -> depot leg for vehicle k."""
        v = self.to_dep
        return float(v[i] if v.ndim == 1 else v[i, k])


# data section -> (each field's conversion, what a line holds, repeat message)
_DATA_RULES = {
    "NODE_COORD_SECTION": ((int, float, float), "coordinate", "duplicate node id {}"),
    "DEMAND_SECTION": ((int, int), "demand", "duplicate demand for node {}"),
}
_SECTION_NAMES = {*_DATA_RULES, "DEPOT_SECTION", "EDGE_WEIGHT_SECTION"}


def parse_vrp(text, K=2, rounding_mode="exact", name=None):
    """Parse TSPLIB-style .vrp file content into an Instance.

    Node 1 is the depot and nodes 2..DIMENSION are customers, so the
    instance has DIMENSION - 1 customers. K is supplied by the caller
    (default 2); CAPACITY is replicated across the fleet.
    """
    header, depots, section = {}, [], None
    rows = {rule: {} for rule in _DATA_RULES}
    for raw in map(str.strip, text.splitlines()):
        token = raw.split(":")[0].strip().upper()
        if not raw or raw == "EOF":
            section = None
        elif token in _SECTION_NAMES:
            section = token
        elif section is None:
            if ":" not in raw:
                raise ParseError(f"malformed header line: {raw!r}")
            key, _, value = raw.partition(":")
            header[key.strip().upper()] = value.strip()
        elif section in rows:
            convert, what, repeat = _DATA_RULES[section]
            parts = raw.split()
            if len(parts) != len(convert):
                raise ParseError(f"malformed {what} line: {raw!r}")
            try:
                node, *values = (f(part) for f, part in zip(convert, parts))
            except ValueError as exc:
                raise ParseError(f"nonnumeric {what}: {raw!r}") from exc
            if node in rows[section]:
                raise ParseError(repeat.format(node))
            rows[section][node] = values
        elif section == "DEPOT_SECTION":
            try:
                node = int(raw.split()[0])
            except ValueError as exc:
                raise ParseError(f"malformed depot line: {raw!r}") from exc
            if node != -1:
                depots.append(node)
        else:
            raise ParseError(f"unsupported section {section}")

    if "DIMENSION" not in header:
        raise ParseError("missing DIMENSION")
    if "CAPACITY" not in header:
        raise ParseError("missing CAPACITY")
    try:
        dimension = int(header["DIMENSION"])
        capacity = int(header["CAPACITY"])
    except ValueError as exc:
        raise ParseError("DIMENSION and CAPACITY must be integers") from exc
    if dimension < 2:
        raise ParseError("need at least one customer besides the depot")
    if depots and depots[0] != 1:
        raise ParseError("node 1 must be the depot")

    coords, demands = rows["NODE_COORD_SECTION"], rows["DEMAND_SECTION"]
    gap = next((node for node in range(1, dimension + 1) if node not in coords), None)
    if gap is not None:
        raise ParseError(f"DIMENSION is {dimension} but node {gap} has no coordinates")
    customers = range(2, dimension + 1)
    W, dep_to, to_dep = build_matrices([coords[node] for node in customers], coords[1], rounding_mode)
    return Instance(
        name=name or header.get("NAME", "unnamed"),
        n=dimension - 1,
        K=K,
        d=[demands.get(node, [0])[0] for node in customers],
        Q=[capacity] * K,
        W=W,
        dep_to=dep_to,
        to_dep=to_dep,
    )


def from_matrices(record, K=None, name=None):
    """Build an Instance from an explicit-matrix record (parsed JSON dict).

    Required keys: W, d, Q. Optional: dep_to, to_dep (to_dep defaults to
    dep_to, both default to zeros), name, K (overridden by the argument;
    without either, K is the length of Q).
    """
    if not isinstance(record, dict):
        raise ParseError("instance record must be a JSON object")
    if "W" not in record:
        raise ParseError("record needs a W matrix")
    W = _reals(record["W"], "W")
    if W.ndim != 2:
        raise ParseError("W must be an n x n matrix")
    n = W.shape[0]
    if "d" not in record or "Q" not in record:
        raise ParseError("record needs demand vector d and capacity vector Q")
    Q = np.atleast_1d(_integers(record["Q"], "capacities"))
    if K is None:
        K = record.get("K", len(Q))
        if isinstance(K, bool) or not isinstance(K, int):
            raise ParseError(f"fleet size K must be an integer, not {K!r}")
    if len(Q) == 1 and K > 1:
        Q = np.repeat(Q, K)
    dep_to = _reals(record.get("dep_to", np.zeros(n)), "dep_to")
    to_dep = _reals(record.get("to_dep", dep_to), "to_dep")
    return Instance(
        name=name or record.get("name", "unnamed"),
        n=n,
        K=int(K),
        d=record["d"],
        Q=Q,
        W=W,
        dep_to=dep_to,
        to_dep=to_dep,
    )


_K_IN_NAME = re.compile(r"-k(\d+)", re.IGNORECASE)


def load_instance(path, K=None, rounding_mode="exact"):
    """Load a .vrp or .json instance file; K falls back to a JSON
    record's own "K", then to a -k<digits> filename token, then to 2.
    `rounding_mode` rounds a .vrp file's distances, not a JSON record's."""
    if rounding_mode not in ROUNDING_MODES:
        raise ValueError(f"unknown rounding mode {rounding_mode!r}")
    p = pathlib.Path(path)
    text = p.read_text()
    record = json.loads(text) if p.suffix.lower() == ".json" else None
    if K is None and not (isinstance(record, dict) and "K" in record):
        m = _K_IN_NAME.search(p.stem)
        K = int(m.group(1)) if m else 2
    if record is not None:
        return from_matrices(record, K=K, name=p.stem)
    return parse_vrp(text, K=K, rounding_mode=rounding_mode, name=p.stem)
