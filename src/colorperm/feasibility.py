"""Admissibility oracle for sampled bitstrings.

A one-hot string is accepted iff (1) every block is one-hot, (2) every
customer appears exactly once, (3) no vehicle load exceeds its capacity,
and (4) each used vehicle's positions form one contiguous interval on the
timeline. The scan reads blocks left to right with an early exit on a
second set bit, decodes (i, k) from the unique set bit, and accumulates
per-customer seen flags plus per-vehicle load/count/firstpos/lastpos,
then sweeps the vehicles checking capacity and contiguity. Total work is
O(n^2 K) bit visits.

The verdict reports the first violation in exactly that scan order, so a
given string always fails for the same reason.

The scan is the reference. Sampled register labels are already digit
arrays, so `label_reasons` gives the same reason for many labels at once
straight from their digits, without rendering or scanning a string.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import EncodingParams, PaddingLeakError, _check_bits, decompress, label_digits_array

OK = "OK"
ZERO_HOT = "ZeroHot"
MULTI_HOT = "MultiHot"
REPEATED_CUSTOMER = "RepeatedCustomer"
CAPACITY_VIOLATION = "CapacityViolation"
NON_CONTIGUOUS = "NonContiguous"
PADDING_LEAK = "PaddingLeak"

REASONS = (
    OK,
    ZERO_HOT,
    MULTI_HOT,
    REPEATED_CUSTOMER,
    CAPACITY_VIOLATION,
    NON_CONTIGUOUS,
    PADDING_LEAK,
)


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of the oracle.

    `args` carries the reason-specific indices (0-based): ZeroHot(j),
    MultiHot(j), RepeatedCustomer(i), CapacityViolation(k, load, Q),
    NonContiguous(k, firstpos, lastpos, count), PaddingLeak(j). `loads`
    and `spans` (per-vehicle (firstpos, lastpos, count), (-1, -1, 0) for
    unused vehicles) are filled once the block scan completed, None when
    the scan aborted early.
    """

    feasible: bool
    reason: str
    args: tuple = ()
    loads: tuple | None = None
    spans: tuple | None = None

    def __post_init__(self):
        if self.reason not in REASONS:
            raise ValueError(f"unknown reason {self.reason!r}")
        if self.feasible != (self.reason == OK):
            raise ValueError("feasible must hold exactly when reason is OK")

    def to_dict(self):
        out = {"feasible": self.feasible, "reason": self.reason}
        if self.args:
            out["args"] = list(self.args)
        if self.loads is not None:
            out["loads"] = list(self.loads)
        if self.spans is not None:
            out["spans"] = [list(s) for s in self.spans]
        return out


def feasible_global_positions(b, inst):
    """Run the oracle on a one-hot bitstring of length n^2*K."""
    n, K = inst.n, inst.K
    S = n * K
    _check_bits(b, n * S, "one-hot bitstring")
    seen = [False] * n
    load = [0] * K
    count = [0] * K
    firstpos = [-1] * K
    lastpos = [-1] * K
    for j in range(n):
        base = j * S
        ones = 0
        s_star = -1
        for s in range(S):
            if b[base + s] == "1":
                ones += 1
                s_star = s
                if ones > 1:
                    return FeasibilityVerdict(False, MULTI_HOT, (j,))
        if ones == 0:
            return FeasibilityVerdict(False, ZERO_HOT, (j,))
        i, k = s_star % n, s_star // n
        if seen[i]:
            return FeasibilityVerdict(False, REPEATED_CUSTOMER, (i,))
        seen[i] = True
        load[k] += int(inst.d[i])
        count[k] += 1
        if firstpos[k] == -1:
            firstpos[k] = j
        lastpos[k] = j
    loads = tuple(load)
    spans = tuple(zip(firstpos, lastpos, count))
    for k in range(K):
        if load[k] > inst.Q[k]:
            return FeasibilityVerdict(False, CAPACITY_VIOLATION, (k, load[k], int(inst.Q[k])), loads, spans)
        if count[k] > 0 and lastpos[k] - firstpos[k] + 1 != count[k]:
            return FeasibilityVerdict(False, NON_CONTIGUOUS, (k, firstpos[k], lastpos[k], count[k]), loads, spans)
    return FeasibilityVerdict(True, OK, (), loads, spans)


def decode_binary_and_check(y, inst):
    """Decode a binary-register string, then run the oracle.

    A word value >= S anywhere yields a PaddingLeak verdict for the first
    offending block; otherwise the verdict of the decoded one-hot string.
    """
    params = EncodingParams.for_instance(inst)
    try:
        b = decompress(y, params)
    except PaddingLeakError as exc:
        return FeasibilityVerdict(False, PADDING_LEAK, (exc.block,))
    return feasible_global_positions(b, inst)


def label_reasons(labels, inst, register):
    """Index into REASONS of the reference verdict on each register label.

    A label's blocks are one-hot by construction, so the codes are, in
    the scan's order of precedence: PaddingLeak (a binary word >= S),
    RepeatedCustomer, then per vehicle k = 0..K-1 capacity before
    contiguity, else OK.
    """
    p = EncodingParams.for_instance(inst)
    digits = label_digits_array(labels, p.n, p.radix(register))
    sym = np.minimum(digits, p.S - 1)
    cust, veh = sym % p.n, sym // p.n
    codes = np.zeros(digits.shape[1], dtype=np.int8)
    demand = np.asarray(inst.d)[cust]
    positions = np.arange(p.n)[:, None]
    for k in range(p.K - 1, -1, -1):
        on = veh == k
        count = on.sum(axis=0)
        first = np.where(on, positions, p.n).min(axis=0)
        last = np.where(on, positions, -1).max(axis=0)
        codes[(count > 0) & (last - first + 1 != count)] = REASONS.index(NON_CONTIGUOUS)
        codes[np.where(on, demand, 0).sum(axis=0) > inst.Q[k]] = REASONS.index(CAPACITY_VIOLATION)
    repeated = (np.diff(np.sort(cust, axis=0), axis=0) == 0).any(axis=0)
    codes[repeated] = REASONS.index(REPEATED_CUSTOMER)
    codes[(digits >= p.S).any(axis=0)] = REASONS.index(PADDING_LEAK)
    return codes
