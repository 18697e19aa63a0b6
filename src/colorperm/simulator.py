"""Exact statevector simulation on the encoded manifold.

The one-hot register never represents the full n^2*K qubits: its basis
IS the block-one-hot sector, addressed by mixed-radix labels over n
symbol digits, so the state is a dense complex vector of size S^n. One
ansatz layer applies the diagonal phase exp(-i*gamma*E(z)) and then the
per-block mixer, both in place on one buffer.

The block mixer is the exponential of the normalized hopping generator
(J - I)/(S - 1) on one block, evaluated in closed form from its two
eigenspaces: the uniform vector (eigenvalue 1) and its orthogonal
complement (eigenvalue -1/(S-1)),

    U(beta) = exp(-i*beta) * P_u + exp(+i*beta/(S-1)) * (I - P_u)
            = dg * I + off * J,

so each block axis is mixed in place as x <- dg*x + off*sum(x).

A grid row shares its first layer: from the uniform state, the first
phase layer depends only on the first gamma, so `evolve_row` computes it
once and evolves each schedule of the row from a copy of it.

The binary register is a relabelling of the same S^n state, not a
second simulator: the ansatz always evolves the one-hot labels, with
phases from the one S^n energy table, and `run_ansatz` scatters a binary
model's final amplitudes onto their binary labels
(`EncodingParams.binary_labels`), leaving exact zeros on the padded
words. A sweep never builds that vector: it samples the one-hot state
and relabels only the labels it accepts. `check_budget` is the one
ceiling on S^n-sized work; every entry charges it before it allocates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import EncodingParams, label_bitstring
from .hamiltonian import energy_table

# The memory ceiling of a run, in bytes, and its charge per label of the
# S^n state: the energy table once (8 bytes), and in each process that
# evolves grid rows the evolved state and the shared first layer (16
# each), the distribution and the drawn counts (8 each) plus allocator
# slack. Measured peaks are 55.9 (n = 6, K = 2) and 59.6 (n = 5, K = 5)
# bytes per label for one process, and 43.6 and 52.6 bytes per label of
# each worker's own pages under --jobs 2. The analysis entries (phase
# profile, envelope, surrogate) are charged ANALYSIS_BYTES per label: the
# whole `bound` pipeline peaks at 80.5 (n = 6, K = 2) and 74.2 (n = 5,
# K = 5) bytes per label, `surrogate_scores` at 33.
MEMORY_BUDGET = 2**32
TABLE_BYTES = 8
WORKER_BYTES = 56
BYTES_PER_AMPLITUDE = TABLE_BYTES + WORKER_BYTES
ANALYSIS_BYTES = 88
PHASE_CHUNK = 2**20


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

    @property
    def dim(self):
        return len(self.amplitudes)

    def norm(self):
        return float(np.linalg.norm(self.amplitudes))

    def label_bitstring(self, z):
        return label_bitstring(z, self.params, self.register)


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


def check_budget(params, register="onehot", workers=1, label_bytes=None):
    """Refuse work that would need more than MEMORY_BUDGET bytes. A run
    is charged, per S^n label, the table once and WORKER_BYTES in each of
    `workers` processes, plus BYTES_PER_AMPLITUDE per label of a
    relabelled binary state; other S^n work passes its own `label_bytes`."""
    if label_bytes is None:
        label_bytes = TABLE_BYTES + WORKER_BYTES * workers
    need = label_bytes * params.dim("onehot")
    if register != "onehot":
        need += BYTES_PER_AMPLITUDE * params.dim(register)
    if need > MEMORY_BUDGET:
        raise AmplitudeBudgetError(
            f"a {register} run on {params.dim(register)} labels in {workers} worker process"
            f"{'es' if workers > 1 else ''} needs about {need} bytes, over the memory budget of {MEMORY_BUDGET} bytes"
        )


def _uniform(params):
    """1/sqrt(S^n) on every one-hot label, in a new buffer."""
    amp = 1.0 / np.sqrt(float(params.S) ** params.n)
    return np.full(params.dim("onehot"), amp, dtype=complex)


def initial_state(params, register="onehot"):
    """Uniform superposition over the encoded basis: 1/sqrt(S^n) on every
    one-hot label (a uniform product of per-block uniform symbol states),
    relabelled into `register`."""
    return _relabel(EncodedState(_uniform(params), "onehot", params), register)


def _relabel(state, register):
    """A one-hot state in `register`'s numbering. The binary register
    gets each amplitude at its binary label and exact zeros on padding."""
    if register == "onehot":
        return state
    vec = np.zeros(state.params.dim(register), dtype=complex)
    vec[state.params.binary_labels()] = state.amplitudes
    return EncodedState(vec, register, state.params)


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


def _mix(amps, params, beta):
    """The block mixer on every axis of the (S,)*n view of `amps`, in
    place; only one reduced axis is allocated at a time."""
    if params.S == 1:
        return
    dg, off = _mixer_coefficients(params.S, beta)
    tensor = amps.reshape((params.S,) * params.n)
    for axis in range(params.n):
        total = tensor.sum(axis=axis, keepdims=True)
        total *= off
        tensor *= dg
        tensor += total


def _phase(amps, gamma, energies):
    """amps[z] *= exp(-i*gamma*energies[z]) in place, PHASE_CHUNK labels
    at a time, so the exp temporaries stay small."""
    for lo in range(0, len(amps), PHASE_CHUNK):
        amps[lo : lo + PHASE_CHUNK] *= np.exp(-1j * gamma * energies[lo : lo + PHASE_CHUNK])


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
    if model.register != state.register:
        raise ValueError("model register does not match the state")
    check_budget(state.params)
    if energies is None:
        energies = energy_table(model)
    amps = state.amplitudes.copy()
    _phase(amps, gamma, energies)
    return EncodedState(amps, state.register, state.params)


def evolve_row(params, model, schedules, energies=None):
    """Yield the final state of each schedule, in order, for schedules
    that all open with the same gamma.

    Every register evolves on the S^n one-hot labels; a binary model's
    final states are relabelled into its register. The first phase layer
    on the uniform state is computed once for the whole row; each
    schedule but the last evolves a copy of it in one work buffer, and
    the last evolves the shared layer itself. Every yielded one-hot state
    lives in a buffer that the next one overwrites, so use it before
    drawing the next.

    Refuses runs over the memory budget (`check_budget`) before
    allocating anything.
    `energies` is the energy table when the caller already holds it (a
    sweep builds it once for all its grid points); without it the table
    is built here.
    """
    if params != model.params:
        raise ValueError("params do not match the model")
    if len({s.gammas[0] for s in schedules}) != 1:
        raise ValueError("the schedules of a row must open with one gamma")
    check_budget(params, model.register)
    if energies is None:
        energies = energy_table(model)
    if np.shape(energies) != (params.dim("onehot"),):
        raise ValueError(f"energy table must have length {params.dim('onehot')}")
    first = _uniform(params)
    _phase(first, schedules[0].gammas[0], energies)
    work = None
    for i, schedule in enumerate(schedules):
        if i == len(schedules) - 1:
            work = first
        elif work is None:
            work = first.copy()
        else:
            np.copyto(work, first)
        _mix(work, params, schedule.betas[0])
        for gamma, beta in zip(schedule.gammas[1:], schedule.betas[1:]):
            _phase(work, gamma, energies)
            _mix(work, params, beta)
        yield _relabel(EncodedState(work, "onehot", params), model.register)


def run_ansatz(params, model, schedule, energies=None):
    """Alternate phase and mixer layers from the uniform initial state:
    the row of one schedule (`evolve_row`)."""
    (state,) = evolve_row(params, model, [schedule], energies)
    return state


def exact_distribution(state):
    """Probability of every basis label, as a vector indexed by label."""
    probs = np.abs(state.amplitudes)
    probs **= 2
    return probs


@dataclass
class SampleSet:
    """Multinomial measurement outcome: label -> count."""

    counts: dict
    shots: int
    seed: object
    register: str
    params: EncodingParams

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts must sum to shots")

    def labels(self):
        """Measured labels in ascending order."""
        return sorted(self.counts)

    def bitstring_counts(self):
        return {label_bitstring(z, self.params, self.register): c for z, c in sorted(self.counts.items())}


def _seed_sequence(seed):
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (tuple, list)):
        return np.random.SeedSequence(entropy=int(seed[0]), spawn_key=tuple(int(s) for s in seed[1:]))
    return np.random.SeedSequence(int(seed))


def sample(state, shots, seed, probs=None):
    """Draw a seeded multinomial sample from the exact distribution.

    `seed` is an int, a numpy SeedSequence, or a tuple (entropy,
    *spawn_key) for derived per-worker seeds. Identical seeds reproduce
    identical SampleSets. `probs` is `exact_distribution(state)` when the
    caller already holds it; it is normalised in place.
    """
    if shots < 1:
        raise ValueError("need shots >= 1")
    if probs is None:
        probs = exact_distribution(state)
    probs /= probs.sum()
    rng = np.random.default_rng(_seed_sequence(seed))
    drawn = rng.multinomial(shots, probs)
    nonzero = np.nonzero(drawn)[0]
    counts = {int(z): int(drawn[z]) for z in nonzero}
    return SampleSet(counts, shots, seed, state.register, state.params)
