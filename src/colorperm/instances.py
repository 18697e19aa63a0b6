"""Routing problem data: file parsing, distance matrices, register sizes.

A CVRP instance is n customers with integer demands served by K vehicles
with integer capacities from a shared depot (per-vehicle depot legs are
supported by passing n x K leg matrices instead of length-n vectors).
Distances are held in precomputed matrices so every edge query afterwards
is a plain array lookup.
"""

from __future__ import annotations

import json
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


@dataclass(frozen=True)
class Instance:
    """Immutable CVRP problem datum.

    `dep_to` / `to_dep` are either length-n vectors (shared depot) or
    n x K matrices (per-vehicle depots); use `dep_out` / `dep_in` to read
    a leg without caring which.
    """

    name: str
    n: int
    K: int
    d: np.ndarray
    Q: np.ndarray
    W: np.ndarray
    dep_to: np.ndarray
    to_dep: np.ndarray
    coords: np.ndarray | None = None
    depot_coord: np.ndarray | None = None
    rounding_mode: str = "exact"

    def __post_init__(self):
        if self.n < 1 or self.K < 1:
            raise ValueError("need n >= 1 and K >= 1")
        if self.rounding_mode not in ROUNDING_MODES:
            raise ValueError(f"unknown rounding mode {self.rounding_mode!r}")
        d = _as_readonly(self.d, dtype=int)
        Q = _as_readonly(self.Q, dtype=int)
        W = _as_readonly(self.W)
        if d.shape != (self.n,):
            raise ValueError("demand vector must have length n")
        if Q.shape != (self.K,):
            raise ValueError("capacity vector must have length K")
        if (d < 0).any():
            raise ValueError("demands must be nonnegative")
        if (Q < 0).any():
            raise ValueError("capacities must be nonnegative")
        if W.shape != (self.n, self.n):
            raise ValueError("W must be n x n")
        if (W < 0).any():
            raise ValueError("distances must be nonnegative")
        if np.abs(np.diagonal(W)).max(initial=0.0) > 0:
            raise ValueError("W must have a zero diagonal")
        legs = []
        for name in ("dep_to", "to_dep"):
            v = _as_readonly(getattr(self, name))
            if v.shape not in ((self.n,), (self.n, self.K)):
                raise ValueError(f"{name} must have shape (n,) or (n, K)")
            if (v < 0).any():
                raise ValueError("depot legs must be nonnegative")
            legs.append(v)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "dep_to", legs[0])
        object.__setattr__(self, "to_dep", legs[1])
        if self.coords is not None:
            object.__setattr__(self, "coords", _as_readonly(self.coords))
        if self.depot_coord is not None:
            object.__setattr__(self, "depot_coord", _as_readonly(self.depot_coord))

    def dep_out(self, i, k):
        """Depot -> customer i leg for vehicle k."""
        v = self.dep_to
        return float(v[i] if v.ndim == 1 else v[i, k])

    def dep_in(self, i, k):
        """Customer i -> depot leg for vehicle k."""
        v = self.to_dep
        return float(v[i] if v.ndim == 1 else v[i, k])

    def uniform_capacity(self):
        """The shared capacity value, or None if vehicles differ."""
        if (self.Q == self.Q[0]).all():
            return int(self.Q[0])
        return None


@dataclass(frozen=True)
class PdpInstance:
    """Pickup-and-delivery data: T atomic tours routed by K vehicles.

    Wtilde[t, t'] is the dead-mile cost of running tour t' right after
    tour t on the same vehicle; it may be asymmetric and its diagonal is
    not required to vanish. Zero tour weights are allowed.
    """

    T: int
    K: int
    d: np.ndarray
    Q: np.ndarray
    Wtilde: np.ndarray
    dep_to: np.ndarray
    to_dep: np.ndarray

    def __post_init__(self):
        if self.T < 1 or self.K < 1:
            raise ValueError("need T >= 1 and K >= 1")
        d = _as_readonly(self.d, dtype=int)
        Q = _as_readonly(self.Q, dtype=int)
        Wt = _as_readonly(self.Wtilde)
        if d.shape != (self.T,) or (d < 0).any():
            raise ValueError("tour weights must be length T and nonnegative")
        if Q.shape != (self.K,) or (Q < 0).any():
            raise ValueError("capacities must be length K and nonnegative")
        if Wt.shape != (self.T, self.T) or (Wt < 0).any():
            raise ValueError("Wtilde must be a nonnegative T x T matrix")
        legs = []
        for name in ("dep_to", "to_dep"):
            v = _as_readonly(getattr(self, name))
            if v.shape not in ((self.T,), (self.T, self.K)):
                raise ValueError(f"{name} must have shape (T,) or (T, K)")
            if (v < 0).any():
                raise ValueError("depot legs must be nonnegative")
            legs.append(v)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "Wtilde", Wt)
        object.__setattr__(self, "dep_to", legs[0])
        object.__setattr__(self, "to_dep", legs[1])

    @property
    def W(self):
        """Wtilde under the CVRP name, so `energy_objective` scores tours."""
        return self.Wtilde

    def dep_out(self, t, k):
        v = self.dep_to
        return float(v[t] if v.ndim == 1 else v[t, k])

    def dep_in(self, t, k):
        v = self.to_dep
        return float(v[t] if v.ndim == 1 else v[t, k])


_SECTION_NAMES = {
    "NODE_COORD_SECTION",
    "DEMAND_SECTION",
    "DEPOT_SECTION",
    "EDGE_WEIGHT_SECTION",
}


def parse_vrp(text, K=2, rounding_mode="exact", name=None):
    """Parse TSPLIB-style .vrp file content into an Instance.

    Node 1 is the depot and nodes 2..DIMENSION are customers, so the
    instance has DIMENSION - 1 customers. K is supplied by the caller
    (default 2); CAPACITY is replicated across the fleet.
    """
    header = {}
    coords = {}
    demands = {}
    depots = []
    lines = text.splitlines()
    idx = 0
    section = None
    while idx < len(lines):
        raw = lines[idx].strip()
        idx += 1
        if not raw or raw == "EOF":
            section = None
            continue
        token = raw.split(":")[0].strip().upper()
        if token in _SECTION_NAMES:
            section = token
            continue
        if section is None:
            if ":" not in raw:
                raise ParseError(f"malformed header line: {raw!r}")
            key, _, value = raw.partition(":")
            header[key.strip().upper()] = value.strip()
            continue
        parts = raw.split()
        if section == "NODE_COORD_SECTION":
            if len(parts) != 3:
                raise ParseError(f"malformed coordinate line: {raw!r}")
            try:
                node, x, y = int(parts[0]), float(parts[1]), float(parts[2])
            except ValueError as exc:
                raise ParseError(f"nonnumeric coordinate: {raw!r}") from exc
            if node in coords:
                raise ParseError(f"duplicate node id {node}")
            coords[node] = (x, y)
        elif section == "DEMAND_SECTION":
            if len(parts) != 2:
                raise ParseError(f"malformed demand line: {raw!r}")
            try:
                node, dem = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ParseError(f"nonnumeric demand: {raw!r}") from exc
            if node in demands:
                raise ParseError(f"duplicate demand for node {node}")
            demands[node] = dem
        elif section == "DEPOT_SECTION":
            try:
                node = int(parts[0])
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

    n = dimension - 1
    missing = [node for node in range(1, dimension + 1) if node not in coords]
    if missing:
        raise ParseError(f"missing coordinates for nodes {missing}")
    depot_xy = coords[1]
    customer_xy = [coords[node] for node in range(2, dimension + 1)]
    d = [demands.get(node, 0) for node in range(2, dimension + 1)]
    if any(v < 0 for v in d):
        raise ParseError("negative demand")
    W, dep_to, to_dep = build_matrices(customer_xy, depot_xy, rounding_mode)
    return Instance(
        name=name or header.get("NAME", "unnamed"),
        n=n,
        K=K,
        d=d,
        Q=[capacity] * K,
        W=W,
        dep_to=dep_to,
        to_dep=to_dep,
        coords=customer_xy,
        depot_coord=depot_xy,
        rounding_mode=rounding_mode,
    )


def from_matrices(record, K=None, rounding_mode="exact", name=None):
    """Build an Instance from an explicit-matrix record (parsed JSON dict).

    Required keys: W, d, Q. Optional: dep_to, to_dep (to_dep defaults to
    dep_to, both default to zeros), name, K (overridden by the argument).
    """
    if not isinstance(record, dict):
        raise ParseError("instance record must be a JSON object")
    if "W" not in record:
        raise ParseError("record needs a W matrix")
    W = np.asarray(record["W"], dtype=float)
    if W.ndim != 2:
        raise ParseError("W must be an n x n matrix")
    n = W.shape[0]
    if "d" not in record or "Q" not in record:
        raise ParseError("record needs demand vector d and capacity vector Q")
    Q = np.atleast_1d(np.asarray(record["Q"], dtype=int))
    k = K if K is not None else record.get("K", len(Q))
    if len(Q) == 1 and k > 1:
        Q = np.repeat(Q, k)
    dep_to = np.asarray(record.get("dep_to", np.zeros(n)), dtype=float)
    to_dep = np.asarray(record.get("to_dep", dep_to), dtype=float)
    return Instance(
        name=name or record.get("name", "unnamed"),
        n=n,
        K=int(k),
        d=record["d"],
        Q=Q,
        W=W,
        dep_to=dep_to,
        to_dep=to_dep,
        rounding_mode=rounding_mode,
    )


_K_IN_NAME = re.compile(r"-k(\d+)", re.IGNORECASE)


def load_instance(path, K=None, rounding_mode="exact"):
    """Load a .vrp or .json instance file; K falls back to a -k<digits>
    filename token, then to 2."""
    p = pathlib.Path(path)
    if K is None:
        m = _K_IN_NAME.search(p.stem)
        K = int(m.group(1)) if m else 2
    text = p.read_text()
    if p.suffix.lower() == ".json":
        return from_matrices(json.loads(text), K=K, rounding_mode=rounding_mode, name=p.stem)
    return parse_vrp(text, K=K, rounding_mode=rounding_mode, name=p.stem)
