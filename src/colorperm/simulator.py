"""Exact statevector simulation on the encoded manifold.

The one-hot register never represents the full n^2*K qubits: its basis
IS the block-one-hot sector, addressed by mixed-radix labels over n
symbol digits, so the state is a dense complex vector of size S^n. One
ansatz layer applies the diagonal phase exp(-i*gamma*E(z)) and then the
per-block mixer, in place on one buffer.

The block mixer is the exponential of the normalized hopping generator
(J - I)/(S - 1) on one block, evaluated in closed form from its two
eigenspaces: the uniform vector (eigenvalue 1) and its orthogonal
complement (eigenvalue -1/(S-1)),

    U(beta) = exp(-i*beta) * P_u + exp(+i*beta/(S-1)) * (I - P_u)
            = dg * I + off * J,

so each block axis is mixed in place as x <- dg*x + off*sum(x), on
cache-sized blocks; a schedule's last layer squares each block into a
float64 distribution. A sweep holds no S^n energy table: `evolve_row`
builds a grid row's phase factor exp(-i*gamma*E) once, a block at a time
from the table's parts, on the vehicle-orbit head alone when the parts are
mirrored (`orbit_labels`), and reads it a leading digit at a time, the
labels past the head through their reversed view. A depth-1 row streams
its one layer over the head's blocks of the leading digit in its
distribution's buffer, so it holds no complex state, and holds and
yields the head's distribution alone. A zero angle is the identity: a
gamma-0 row builds no factor and evolves on one slab and one sub-block,
and a beta-0 layer mixes no axis; the full passes could only flip the
sign of a zero, which |x|**2 cannot see.
`run_ansatz` is the slow reference, one phase and one
mixer pass per layer on the whole table, whose squares are the row's
distributions bit for bit, but past the head of a streamed row: there the
head's reversed view sums the same values in another order. `sample` divides
a distribution or a head by numpy's own sum of every label (`_total`,
replayed only past a head, through that view), replays numpy's multinomial
a chunk at a time on a spread-out one (`_replica`: inversions on the labels
that can be drawn, numpy's own draw of the others), and writes the caller's
array only to normalise a whole one under the spread rule.

The binary register is a relabelling of the same S^n state, not a
second simulator: `initial_state` and `evolve_row` hold one-hot labels,
whose energies a model reads whatever its register, and `run_ansatz`
scatters a binary model's final amplitudes onto their binary labels
(`EncodingParams.binary_labels`), leaving exact zeros on the padded
words; `sample` draws one-hot labels only, and a sweep renders its
pooled labels as binary words once. `check_budget` is the one
ceiling on S^n-sized work, and every entry charges it before it allocates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoding import EncodingParams
from .hamiltonian import energy_table

# The memory ceiling of a run, in bytes, and its charge per S^n label: the
# energy table once (8 bytes; a sweep holds `table_parts` and slack), and in
# each thread its work buffer and row factor (16 each; a streamed depth-1 row
# holds in the buffer's place its float64 distribution on the head, one
# S^(n-1) digit of floats and the digit's complex sum) and numpy's counts in a
# draw under the spread rule (8; from a head, 8 more for the whole
# distribution it copies); a sweep charges the table and factors on its head
# only (`orbit_labels`). A spread-out draw (`_replica`) needs neither, but
# WORKER_BYTES stays: the shots set the path, and n = 6, K = 2 under
# `--shots-rule fifty-cubed` (86,400 shots for 2,985,984 labels) draws with
# numpy and peaks at 33.9 in one thread at depth 1, so a charge by path must
# read the shots. A sweep's VmHWM above the import (`--grid-points 4`), at
# depths 1 and 2, is 17.9 and 27.8 (n = 6, K = 2) and 17.7 and 27.8 (n = 5,
# K = 5) bytes per label in one thread, 34.1/52.6 and 33.7/54.0 in two;
# rows that hold every label peak at 29.4 and 35.4 in one
# thread with a factor on every label (n = 6, K = 2, per-vehicle Q), and 27.7
# and 32.8 at n = 8, K = 1 (65.0 at depth 2 in two); the other S^n entries
# peak at 40.5 (`apply_phase`) or lower and pay the one-thread charge. A Schedule peaks at
# 66 bytes per layer while built (tracemalloc, depth 10**6), and the S x S
# edge matrix (`edge_cost_matrix`) at 25.0 per entry. A grid axis point peaks
# at 158 bytes as `solve` builds both axes and writes them to run.json
# (tracemalloc, 10**6 points per axis), and a 4-label `solve` at 454-549
# bytes per grid point in one thread and 455-577 in two (its records, the
# rows the threads finish ahead of the reduce and its CSV rows; 10**4 to
# 4 * 10**4 points).
MEMORY_BUDGET = 2**32
TABLE_BYTES = 8
WORKER_BYTES = 40
FACTOR_BYTES = 16
BYTES_PER_AMPLITUDE = TABLE_BYTES + WORKER_BYTES
SCHEDULE_BYTES = 66
EDGE_BYTES = 25
AXIS_BYTES = 160
POINT_BYTES = 640
# Mixer blocks in amplitudes (512 KiB); `_phases` blocks, whose temporaries
# (numpy's 64 KiB cast buffer the largest) stay below glibc's 128 KiB mmap
# threshold; `sample`'s one chunk buffer (`_total`'s leaves past a head, at
# least numpy's own 128-label sum blocks, and `_replica`'s reads), and the
# labels per shot from which `_replica` beats numpy (near 125 at n = 5, K = 2).
MIX_BLOCK = 2**15
PHASE_BLOCK = 2**12
REPLICA_CHUNK = 2**16
REPLICA_SPREAD = 128


class AmplitudeBudgetError(RuntimeError):
    """Register too large for the memory budget."""


@dataclass
class EncodedState:
    """Complex amplitudes over the register's basis labels."""

    amplitudes: np.ndarray
    register: str
    params: EncodingParams

    def __post_init__(self):
        expected = self.params.dim(self.register)
        if self.amplitudes.shape != (expected,):
            raise ValueError(f"amplitude vector must have length {expected}")


@dataclass(frozen=True)
class Schedule:
    """Angle schedule: p layers of (gamma_l, beta_l)."""

    gammas: tuple
    betas: tuple

    def __post_init__(self):
        gammas = tuple(float(g) for g in self.gammas)
        betas = tuple(float(b) for b in self.betas)
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "betas", betas)
        if len(gammas) != len(betas) or not gammas:
            raise ValueError("need p >= 1 gamma/beta pairs")
        if not np.isfinite(gammas + betas).all():
            raise ValueError(f"angles must be finite, not gammas {gammas} and betas {betas}")

    @property
    def p(self):
        return len(self.gammas)

    @classmethod
    def constant(cls, gamma, beta, p=1):
        return cls((gamma,) * p, (beta,) * p)


def check_budget(params, register="onehot", workers=1, layers=0, head=None, grid=(0, 0)):
    """Refuse work that would need more than MEMORY_BUDGET bytes. Any S^n
    work is charged, per S^n label, the table once and WORKER_BYTES in
    each of `workers` threads, less the table's and each factor's bytes
    on the labels past the first `head` (every label by default), plus
    BYTES_PER_AMPLITUDE per label of a relabelled binary state,
    SCHEDULE_BYTES in each thread per layer of its schedules, EDGE_BYTES
    per S x S edge entry, and for a (rows, columns) `grid` AXIS_BYTES per
    axis point and POINT_BYTES per grid point."""
    labels = params.dim("onehot")
    held = labels if head is None else head
    need = (TABLE_BYTES + FACTOR_BYTES * workers) * held + (WORKER_BYTES - FACTOR_BYTES) * workers * labels
    need += SCHEDULE_BYTES * layers * workers + EDGE_BYTES * params.S**2 + AXIS_BYTES * sum(grid) + POINT_BYTES * math.prod(grid)
    if register != "onehot":
        need += BYTES_PER_AMPLITUDE * params.dim(register)
    if need > MEMORY_BUDGET:
        raise AmplitudeBudgetError(
            f"a {register} run on {params.dim(register)} labels and {layers} schedule layers in {workers} thread"
            f"{'s' if workers > 1 else ''}, with its {params.S} x {params.S} edge matrix, needs about {need} bytes,"
            f" over the memory budget of {MEMORY_BUDGET} bytes"
        )


def _amplitude(params):
    """1/sqrt(S^n), the uniform amplitude of every one-hot label."""
    return 1.0 / np.sqrt(float(params.S) ** params.n)


def initial_state(params):
    """Uniform superposition over the one-hot basis: 1/sqrt(S^n) on every
    label (a uniform product of per-block uniform symbol states), once
    `check_budget` admits it."""
    check_budget(params)
    amps = np.full(params.dim("onehot"), _amplitude(params), dtype=complex)
    return EncodedState(amps, "onehot", params)


def block_mixer_matrix(S, beta):
    """Closed-form S x S block mixer exp(-i*beta*(J - I)/(S - 1)).

    S = 1 returns the 1 x 1 identity (a single-symbol block has nothing
    to mix).
    """
    if S < 1:
        raise ValueError("S must be positive")
    if S == 1:
        return np.ones((1, 1), dtype=complex)
    dg, off = _mixer_coefficients(S, beta)
    U = np.full((S, S), off, dtype=complex)
    np.fill_diagonal(U, dg + off)
    return U


def _mixer_coefficients(S, beta):
    """(dg, off) with U(beta) = dg*I + off*J on one block of S > 1 symbols."""
    dg = np.exp(1j * beta / (S - 1))
    return dg, (np.exp(-1j * beta) - dg) / S


def _blocking(params, digits=None):
    """`_mix`'s (lead, cols) on `digits` (n by default) axes: the fewest
    leading axes (at most digits - 2) whose sub-blocks fit in MIX_BLOCK,
    and the most trailing axes, 2 or more (else 1), whose slabs fit too."""
    S, n = params.S, params.n if digits is None else digits
    lead = min(max(n - 2, 0), next(L for L in range(n + 1) if S ** (n - L) <= MIX_BLOCK))
    cols = max([c for c in range(2, n - lead + 1) if S ** (lead + c) <= MIX_BLOCK], default=1)
    return lead, cols


def _mix(amps, params, beta, square=False, digits=None):
    """The block mixer on every axis of the (S,)*digits view (n by default)
    of `amps`, in place; with `square`, |amps|**2 then goes to the float64
    view of the first half of `amps`'s bytes. The `_blocking`
    leading axes are mixed on slabs of whole trailing axes, each gathered
    into one contiguous scratch buffer, then each sub-block's other axes in
    one visit that squares it. Each sum keeps its order of additions (a 1-D
    sub-block or 1-column slab would not), so the bytes do too. A `beta` of
    None mixes no axis. `amps` may be any whole number of slabs and
    sub-blocks of that blocking."""
    S, n = params.S, params.n if digits is None else digits
    lead, cols = _blocking(params, n)
    mixes = S > 1 and beta is not None
    if mixes:
        dg, off = _mixer_coefficients(S, beta)

    def mix_axes(tensor, count):
        for axis in range(count if mixes else 0):
            total = tensor.sum(axis=axis, keepdims=True)
            total *= off
            tensor *= dg
            tensor += total

    head = amps.reshape((S,) * lead + (-1,))
    # without leading axes each slab is contiguous already
    scratch = np.empty(head.shape[:-1] + (S**cols,), dtype=complex) if lead else None
    for lo in range(0, head.shape[-1] if mixes and lead else 0, S**cols):
        np.copyto(scratch, head[..., lo : lo + S**cols])
        mix_axes(scratch, lead)
        head[..., lo : lo + S**cols] = scratch
    size = S ** (n - lead)
    probs = amps.view(np.float64)
    for lo in range(0, len(amps), size):
        block = amps[lo : lo + size]
        mix_axes(block.reshape((S,) * (n - lead)), n - lead)
        if square:
            # floats that overlap their own sub-block's amplitudes (the first
            # one's, squared into its own bytes) take other bits from numpy's
            # abs, so they square aside; any other overlap is of amplitudes done
            into = probs[lo : lo + size]
            part = np.empty(size) if np.may_share_memory(into, block) else into
            np.abs(block, out=part)
            part **= 2
            if part is not into:
                into[...] = part


def _phases(out, gamma, energies, times=False):
    """out = exp(-i*gamma*E), or with `times` out *= exp(-i*gamma*E)
    through one temporary, PHASE_BLOCK labels at a time; `energies` is the
    S^n table or its `table_parts`."""
    turn = np.empty(min(len(out), PHASE_BLOCK), dtype=complex) if times else None
    for lo in range(0, len(out), PHASE_BLOCK):
        part = out[lo : lo + PHASE_BLOCK]
        phase = turn[: len(part)] if times else part
        np.exp(np.multiply(-1j * gamma, energies[lo : lo + len(part)], out=phase), out=phase)
        if times:
            part *= phase
    return out


def apply_mixer(state, beta):
    """One mixer layer: the block unitary on each of the n blocks of a
    one-hot state, returned as a new state. Binary states are only
    relabelled outputs of `run_ansatz`, so they are refused."""
    if state.register != "onehot":
        raise ValueError("the mixer acts on one-hot states; run_ansatz relabels binary runs")
    amps = state.amplitudes.copy()
    _mix(amps, state.params, beta)
    return EncodedState(amps, state.register, state.params)


def apply_phase(state, gamma, model, energies=None):
    """Diagonal phase layer on a one-hot state: amplitude[z] *=
    exp(-i*gamma*E(z)), returned as a new state. Binary states are
    refused, as by `apply_mixer`.

    Pass a precomputed energy table to skip re-evaluation; otherwise the
    table is built here, once `check_budget` admits the state.
    """
    if state.register != "onehot":
        raise ValueError("the phase acts on one-hot states; run_ansatz relabels binary runs")
    check_budget(state.params)
    if energies is None:
        energies = energy_table(model)
    amps = state.amplitudes.copy()
    _phases(amps, gamma, energies, True)
    return EncodedState(amps, state.register, state.params)


# an axis pair (vehicle, customer) of the (K, n) * n shape, vehicles reversed
REVERSED = (slice(None, None, -1), slice(None))


def _digit_block(params, factor, d):
    """The S^(n-1) labels of leading digit d of a row factor held on its
    first len(factor) labels (`orbit_labels`), in the (K, n) * (n - 1) shape
    of (vehicle, customer) symbols: its own labels, or past the head the
    vehicle-reversed view of the head's block of the vehicle-reversed digit."""
    K, n = params.K, params.n
    (k, c), held = divmod(d, n), factor.reshape((-1, n) + (K, n) * (n - 1))
    return held[k, c] if k < len(held) else held[K - 1 - k, c][REVERSED * (n - 1)]


def orbit_labels(params, parts=None):
    """The labels a row's factor holds: the head, the labels of the first
    ceil(K/2) vehicles of the first symbol (`_digit_block`), when each of
    the `table_parts` equals its vehicle-reversed view bit for bit (-0.0 is
    not 0.0), `pair` under the reversal's map on each half's multisets, so
    that every label past the head adds equal operands in its reversed
    label's order; else all; without `parts`, the head."""
    K, n = params.K, params.n
    if parts is None:
        return params.dim("onehot") // K * -(-K // 2)
    symbols, *halves = (np.arange(params.S**d).reshape((K, n) * d)[REVERSED * d].reshape(-1) for d in (1, n // 2, n - n // 2))
    # each multiset's reversed multiset, through its first label
    maps = [of[flipped][np.unique(of, return_index=True)[1]] for of, flipped in zip((parts.head_of, parts.tail_of), halves)]
    views = ((parts.pair, np.ix_(*maps)), (parts.edges, np.ix_(symbols, symbols)), (parts.start, symbols), (parts.close, symbols))
    mirrored = all(part.tobytes() == part[index].tobytes() for part, index in views)
    return orbit_labels(params) if mirrored else params.dim("onehot")


def evolve_row(params, energies, schedules, head=None):
    """Yield the distribution of each schedule, in order, for schedules
    whose every layer takes the row's one gamma (a ValueError otherwise):
    |amplitude|**2 of the one-hot state evolved on `energies`
    (`table_parts`, or the S^n table), squared in the last mixer layer.

    The row's factor exp(-i*gamma*E) is built once on the first `head`
    labels (all by default; a sweep passes `orbit_labels`) and read a
    leading digit at a time (`_digit_block`), times the uniform amplitude
    in a first layer. A depth-1 row on a state with `_blocking` leading
    axes holds no complex state: it streams the head's blocks of its
    leading digit, after all S are summed once per row in the buffer.
    Block d is built in the buffer's floats [d, d + 2) digits (one digit
    past the distribution for the last), times dg plus that sum times off
    a MIX_BLOCK slice at a time, mixed on its other axes (`_mix`) and
    squared into its own first half, its block of the float64
    distribution. The state is invariant under the vehicle reversal that
    maps the head onto the rest, so the row holds and yields the head's
    distribution alone, in a buffer of `head` + S^(n-1) floats; past the
    head, each block is its `_digit_block` view of the head, which `sample`
    reads. Other rows evolve in one work buffer, mixed whole, and yield
    every label: every layer takes the factor, and the last layer squares
    into the buffer's float64 view. A beta-0 layer mixes no axis but still
    takes the factor and the square. A gamma-0 row has no factor; every
    slab and sub-block of `_mix`'s blocking holds the same values through
    the same passes, so all its layers run on the first
    S**max(lead + cols, n - lead) labels, whose label 0 then fills the
    rest of the distribution (the head alone when it streams). Each
    distribution is overwritten by the next. The caller charges
    `check_budget` first.
    """
    S, n, labels = params.S, params.n, params.dim("onehot")
    gamma, amp, digit = schedules[0].gammas[0], _amplitude(params), S ** (n - 1)
    if any(g != gamma for s in schedules for g in s.gammas):
        raise ValueError(f"every layer of a row's schedules must take the row's gamma {gamma}")
    held = labels if head is None else head
    factor = _phases(np.empty(held, dtype=complex), gamma, energies) if gamma else None
    lead, cols = _blocking(params)
    prefix, stream = S ** max(lead + cols, n - lead), lead and max(s.p for s in schedules) == 1
    held = held if stream else labels
    work = np.empty(-(-(held + digit) // 2) if stream else labels, dtype=complex)
    floats, total = work.view(np.float64), None
    probs, turn = floats[:held], np.empty(min(digit, MIX_BLOCK), dtype=complex) if stream else None

    def times_factor(src, out, lo=0):
        # out = src * factor on the labels from lo, a leading digit at a time;
        # src is the uniform amplitude, or out itself
        for d in range(lo // digit, (lo + len(out)) // digit):
            part = _digit_block(params, factor, d)
            block = out[d * digit - lo : (d + 1) * digit - lo].reshape(np.shape(part))
            np.multiply(block if src is out else src, part, out=block)
        return out

    for schedule in schedules:
        if not gamma:
            work[:prefix] = amp
        for layer, beta in enumerate(schedule.betas):
            last, beta = layer == schedule.p - 1, None if beta == 0 else beta
            if not gamma:
                _mix(work[:prefix], params, beta, last)
            elif stream:
                if beta is not None:
                    dg, off = _mixer_coefficients(S, beta)
                    if total is None:
                        # numpy's order of a sum over the leading axis: from 0, a block at a time
                        total = np.add(times_factor(amp, work[:digit]), 0.0)
                        for lo in range(digit, labels, digit):
                            total += times_factor(amp, work[:digit], lo)
                for lo in range(0, held, digit):
                    block = times_factor(amp, floats[lo : lo + 2 * digit].view(complex), lo)
                    if beta is not None:
                        block *= dg
                        for at in range(0, digit, len(turn)):
                            part = block[at : at + len(turn)]
                            part += np.multiply(total[at : at + len(turn)], off, out=turn[: len(part)])
                    _mix(block, params, beta, True, digits=n - 1)
            else:
                times_factor(work if layer else amp, work)
                _mix(work, params, beta, last)
        if not gamma:
            probs[prefix:] = probs[0]
        yield probs


def run_ansatz(params, model, schedule):
    """Alternate phase and mixer layers from the uniform initial state,
    one pass each on one buffer, on the model's energy table: the slow
    reference of `evolve_row`. A binary model's state is then relabelled,
    each amplitude at its binary label and exact zeros on the padded
    words. Refuses runs over the memory budget (`check_budget`) before
    allocating anything."""
    if params != model.params:
        raise ValueError("params do not match the model")
    check_budget(params, model.register)
    energies = energy_table(model)
    amps = initial_state(params).amplitudes
    for gamma, beta in zip(schedule.gammas, schedule.betas):
        _phases(amps, gamma, energies, True)
        _mix(amps, params, beta)
    if model.register == "onehot":
        return EncodedState(amps, "onehot", params)
    vec = np.zeros(params.dim(model.register), dtype=complex)
    vec[params.binary_labels()] = amps
    return EncodedState(vec, model.register, params)


def exact_distribution(state):
    """Probability of every basis label, as a vector indexed by label."""
    probs = np.abs(state.amplitudes)
    probs **= 2
    return probs


@dataclass
class SampleSet:
    """Multinomial measurement outcome: the drawn labels, strictly
    ascending, and their counts, as two int64 arrays."""

    labels: np.ndarray
    counts: np.ndarray
    shots: int

    def __post_init__(self):
        if self.counts.sum() != self.shots:
            raise ValueError("counts must sum to shots")
        if len(self.labels) != len(self.counts) or (np.diff(self.labels) <= 0).any() or (self.counts < 1).any():
            raise ValueError("labels must be strictly ascending, each with a count of at least 1")


def sample(probs, shots, seed, params):
    """Draw a seeded multinomial sample from the distribution `probs`
    over the one-hot labels (`exact_distribution` of a one-hot state, or
    a distribution `evolve_row` yields), or the vehicle-orbit head of a
    mirrored row (`orbit_labels(params)`), whose labels past it are read
    through their reversed view (`_read`). Every label is divided
    by numpy's sum of every label (`_total`; `probs.sum()` bit for bit on
    a whole array): a spread-out draw divides each chunk into one buffer
    as it reads it and writes nothing of `probs`; a draw under the spread
    rule divides a whole `probs` in place, or a copy of every label.

    `seed` is an int, or a tuple (entropy, *spawn_key) for derived
    per-worker seeds. Identical seeds reproduce identical SampleSets: the
    labels `default_rng(seed).multinomial` draws on every label and their
    counts, from `_replica` on spread-out distributions, else from it.
    """
    if shots < 1:
        raise ValueError("need shots >= 1")
    labels = params.dim("onehot")
    head = orbit_labels(params)
    if np.shape(probs) not in ((labels,), (head,)):
        raise ValueError(f"distribution must have length {labels}" + (f" or its head's {head}" if head < labels else ""))
    spread = labels >= REPLICA_SPREAD * shots
    every = probs if spread else _read(params, probs, 0, labels)
    chunk = np.empty(min(labels, REPLICA_CHUNK))
    total = _total(params, every, 0, labels, chunk)
    entropy, *spawn_key = seed if isinstance(seed, tuple) else (seed,)
    rng = np.random.default_rng(np.random.SeedSequence(int(entropy), spawn_key=tuple(map(int, spawn_key))))
    if spread:
        drawn = _replica(lambda lo, hi: np.divide(_read(params, every, lo, hi, chunk), total, out=chunk[: hi - lo]), labels, shots, rng)
        return SampleSet(*drawn, shots)
    counts = rng.multinomial(shots, np.divide(every, total, out=every))
    drawn = np.flatnonzero(counts)
    return SampleSet(drawn, counts[drawn], shots)


def _read(params, probs, lo, hi, out=None):
    """Labels [lo, hi) of the distribution `probs` holds: a view of its own
    labels, or, past them, each leading digit's `_digit_block` view of the
    head copied into `out` (a new array by default)."""
    if hi <= len(probs):
        return probs[lo:hi]
    out = np.empty(hi - lo) if out is None else out[: hi - lo]
    _copy_flat(lambda d: _digit_block(params, probs, d), params.S ** (params.n - 1), lo, out)
    return out


def _copy_flat(part, unit, at, out):
    """out = the labels [at, at + len(out)) of the views part(0), part(1),
    ... of `unit` labels each, in C order: a whole view in one copy, a
    part of one of at most PHASE_BLOCK labels through its flat copy, and of
    a larger one through the sub-arrays of its first axis."""
    for i in range(at // unit, -(-(at + len(out)) // unit)):
        view, lo, hi = part(i), max(at - i * unit, 0), min(at + len(out) - i * unit, unit)
        into = out[i * unit + lo - at : i * unit + hi - at]
        if hi - lo == unit:
            into.reshape(view.shape)[...] = view
        elif unit <= PHASE_BLOCK:
            into[...] = view.reshape(-1)[lo:hi]
        else:
            _copy_flat(view.__getitem__, view[0].size, lo, into)


def _total(params, probs, lo, count, chunk):
    """numpy's float64 sum of `count` labels from `lo` (`_read`), bit for
    bit: its pairwise split at count // 2 rounded down to a multiple of 8,
    replayed past `probs` down to nodes inside it or of len(chunk) labels."""
    if lo + count <= len(probs) or count <= len(chunk):
        return np.add.reduce(_read(params, probs, lo, lo + count, chunk))
    half = count // 2 - count // 2 % 8
    return _total(params, probs, lo, half, chunk) + _total(params, probs, lo + half, count - half, chunk)


def _replica(read, d, shots, rng):
    """`rng.multinomial(shots, probs)` as (labels, counts) of its nonzero
    entries, `read(lo, hi)` returning probs[lo:hi] of its d labels: numpy
    draws binomial(dn, probs[j] / remaining) for j < d - 1 until no shot is
    left. Each chunk refuses a NaN or negative label, as numpy does, and
    drops its zeros, which draw no double; the rest are screened (`_screen`)
    and walked with numpy's inversion from one double (`_inversion`). At a
    label numpy draws otherwise (p outside (0, 0.5], p*dn > 30 for BTPE, or
    an inversion restart) the generator goes back to that label's double,
    `Generator.binomial` draws it, and the chunk's rest is screened again;
    p > 1 draws as 1 (numpy inverts q = 1 - p < 0 as q = 0). p < 0 cannot
    occur: the remainder stays above 0 until a p >= 1 takes the last shot."""
    dn, labels, counts, carry = shots, [], [], 1.0
    buffers = np.empty(REPLICA_CHUNK + 1), np.empty(REPLICA_CHUNK), np.empty(REPLICA_CHUNK, dtype=bool)
    for lo in range(0, d - 1, REPLICA_CHUNK):
        pix, rest = read(lo, min(lo + REPLICA_CHUNK, d - 1)), 0
        low = pix.min()
        if not low >= 0.0:
            raise ValueError("pvals < 0, pvals > 1 or pvals contains NaNs")
        at = np.flatnonzero(pix) if low == 0.0 else range(len(pix))
        pix = pix[at] if low == 0.0 else pix
        while rest < len(pix):
            walk, ps, us, carry = _screen(pix[rest:], carry, dn, rng, *buffers)
            skip, rest = rest, len(pix)
            for j, p, U in zip(walk, ps, us):
                X = _inversion(dn, p, U) if 0.0 < p <= 0.5 and p * dn <= 30.0 else None
                if X is None:
                    rng.bit_generator.advance(skip + j - len(pix))
                    X, rest, carry = int(rng.binomial(dn, min(p, 1.0))), skip + j + 1, float(buffers[0][j + 1])
                if X:
                    labels.append(lo + at[skip + j])
                    counts.append(X)
                    dn -= X
                    if not dn:
                        return np.array(labels), np.array(counts)
                if rest < len(pix):
                    break
    return np.array(labels + [d - 1]), np.array(counts + [dn])


def _screen(pix, carry, dn, rng, rem, v, keep):
    """One chunk of `_replica`, of labels above 0: the positions that may
    draw a shot, their p and U, and numpy's running `remaining` after it,
    in the buffers `rem`, `v` and `keep`; `rem` keeps every remainder. An
    inversion is 0 exactly when U <= (1 - p)**dn (Kachitvichyanukul &
    Schmeiser, CACM 1988), so it is where
    1 - U >= dn*(p + 2**-52)*(1 + 1e-9) + 1e-15 for any dn up to the
    chunk's first. That grows with p, and rounded division is monotone, so
    while every p lies in (0, pix.max() / rem[-2]] inside (0, 0.5], only
    labels that pass at the upper bound are tested. Otherwise (as in a
    draw's last chunk) all are, PHASE_BLOCK labels at a time, and every p
    above 0.5 is kept (the test misses one at dn = 1; numpy inverts 1 - p)."""
    rem, v, keep = rem[: len(pix) + 1], v[: len(pix)], keep[: len(pix)]
    rem[0] = carry
    rem[1:] = pix
    np.subtract.accumulate(rem, out=rem)
    np.subtract(1.0, rng.random(out=v), out=v)  # 1 - U, exactly
    scale = dn * (1.0 + 1e-9)
    # a remainder rounded to 0 or below gives p = inf or below 0
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = pix.max() / rem[-2]
        if rem[-2] > 0.0 and bound <= 0.5:
            walk = np.flatnonzero(np.less(v, (bound + 2.0**-52) * scale + 1e-15, out=keep))
            p = pix[walk] / rem[walk]
            passed = v[walk] < (p + 2.0**-52) * scale + 1e-15
            walk, p = walk[passed], p[passed]
        else:
            for lo in range(0, len(pix), PHASE_BLOCK):
                p = pix[lo : lo + PHASE_BLOCK] / rem[:-1][lo : lo + PHASE_BLOCK]
                np.less(v[lo : lo + PHASE_BLOCK], (p + 2.0**-52) * scale + 1e-15, out=keep[lo : lo + PHASE_BLOCK])
                keep[lo : lo + PHASE_BLOCK] |= p > 0.5
            walk = np.flatnonzero(keep)
            p = pix[walk] / rem[walk]
    return walk.tolist(), p.tolist(), (1.0 - v[walk]).tolist(), float(rem[-1])


def _inversion(n, p, U):
    """numpy's `random_binomial_inversion(n, p)` from U, op for op (with
    numpy's libm), or None where it would draw another double."""
    q, np_ = 1.0 - p, n * p
    cap = np_ + 10.0 * math.sqrt(np_ * q + 1)
    bound, X, px = n if n < cap else int(cap), 0, math.exp(n * math.log(q))
    while U > px:
        X += 1
        if X > bound:
            return None
        U -= px
        px = ((n - X + 1) * p * px) / (X * q)
    return X
