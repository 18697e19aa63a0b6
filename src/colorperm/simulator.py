"""Exact statevector simulation on the encoded manifold.

The one-hot register never represents the full n^2*K qubits: its basis
IS the block-one-hot sector, addressed by mixed-radix labels over n
symbol digits, so the state is a dense complex vector of size S^n. One
ansatz layer applies the diagonal phase exp(-i*gamma*E(z)) and then the
per-block mixer.

The block mixer is the exponential of the normalized hopping generator
(J - I)/(S - 1) on one block, evaluated in closed form from its two
eigenspaces: the uniform vector (eigenvalue 1) and its orthogonal
complement (eigenvalue -1/(S-1)),

    U(beta) = exp(-i*beta) * P_u + exp(+i*beta/(S-1)) * (I - P_u).

The binary register is a relabelling of the same S^n state, not a
second simulator: the ansatz always evolves the one-hot labels, and a
binary run scatters the final amplitudes onto their binary labels once
(`EncodingParams.binary_labels`). Labels with a padded word are never
written, so their amplitude is exactly zero by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .encoding import EncodingParams, label_bitstring
from .hamiltonian import TABLE_LIMIT, energy_components, energy_table

AMPLITUDE_BUDGET = 2**27
PHASE_CHUNK = 2**20


class AmplitudeBudgetError(RuntimeError):
    """Register too large for the configured amplitude budget."""


def register_dim(params, register):
    return params.dim(register)


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

    @property
    def p(self):
        return len(self.gammas)

    @classmethod
    def constant(cls, gamma, beta, p=1):
        return cls((gamma,) * p, (beta,) * p)


def initial_state(params, register="onehot"):
    """Uniform superposition over the encoded basis: 1/sqrt(S^n) on every
    one-hot label (a uniform product of per-block uniform symbol states),
    relabelled into `register`."""
    amp = 1.0 / np.sqrt(float(params.S) ** params.n)
    state = EncodedState(np.full(params.dim("onehot"), amp, dtype=complex), "onehot", params)
    return _relabel(state, register)


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
    diag = np.exp(1j * beta / (S - 1))
    off = (np.exp(-1j * beta) - diag) / S
    U = np.full((S, S), off, dtype=complex)
    np.fill_diagonal(U, diag + off)
    return U


def apply_mixer(state, beta):
    """One mixer layer: the block unitary on each of the n blocks of a
    one-hot state. Binary states are only relabelled outputs of
    `run_ansatz`, so they are refused."""
    if state.register != "onehot":
        raise ValueError("the mixer acts on one-hot states; run_ansatz relabels binary runs")
    p = state.params
    U = block_mixer_matrix(p.S, beta)
    tensor = state.amplitudes.reshape((p.S,) * p.n)
    for axis in range(p.n):
        tensor = np.moveaxis(np.tensordot(U, tensor, axes=(1, axis)), 0, axis)
    return EncodedState(np.ascontiguousarray(tensor.reshape(-1)), state.register, p)


def apply_phase(state, gamma, model, energies=None, table_limit=TABLE_LIMIT):
    """Diagonal phase layer: amplitude[z] *= exp(-i*gamma*E(z)).

    Pass a precomputed energy table to skip re-evaluation; otherwise the
    table is built when the register fits under `table_limit` and the
    labels are streamed in chunks above it.
    """
    if model.register != state.register:
        raise ValueError("model register does not match the state")
    amps = state.amplitudes.copy()
    if energies is None and state.dim <= table_limit:
        energies = energy_table(model, limit=table_limit)
    if energies is not None:
        amps *= np.exp(-1j * gamma * energies)
    else:
        for lo in range(0, state.dim, PHASE_CHUNK):
            hi = min(lo + PHASE_CHUNK, state.dim)
            comp = energy_components(model, np.arange(lo, hi))
            amps[lo:hi] *= np.exp(-1j * gamma * comp["total"])
    return EncodedState(amps, state.register, state.params)


def run_ansatz(
    params,
    model,
    schedule,
    amplitude_budget=AMPLITUDE_BUDGET,
    table_limit=TABLE_LIMIT,
    energies=None,
):
    """Alternate phase and mixer layers from the uniform initial state.

    Every register evolves on the S^n one-hot labels; a binary model's
    final state is relabelled into its register once at the end. Refuses
    registers above `amplitude_budget` before allocating anything.
    `energies` is the one-hot energy table when the caller already holds
    it (a sweep builds it once for all its grid points); without it the
    table is built here, or streamed per layer above `table_limit`.
    """
    if params != model.params:
        raise ValueError("params do not match the model")
    dim = params.dim(model.register)
    if dim > amplitude_budget:
        raise AmplitudeBudgetError(
            f"register dimension {dim} exceeds the amplitude budget {amplitude_budget}"
        )
    onehot = replace(model, register="onehot")
    if energies is None and onehot.dim <= table_limit:
        energies = energy_table(onehot, limit=table_limit)
    if energies is not None and np.shape(energies) != (onehot.dim,):
        raise ValueError(f"energy table must have length {onehot.dim}")
    state = initial_state(params)
    for gamma, beta in zip(schedule.gammas, schedule.betas):
        state = apply_phase(state, gamma, onehot, energies=energies, table_limit=table_limit)
        state = apply_mixer(state, beta)
    return _relabel(state, model.register)


def exact_distribution(state):
    """Probability of every basis label, as a vector indexed by label."""
    return np.abs(state.amplitudes) ** 2


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


def sample(state, shots, seed):
    """Draw a seeded multinomial sample from the exact distribution.

    `seed` is an int, a numpy SeedSequence, or a tuple (entropy,
    *spawn_key) for derived per-worker seeds. Identical seeds reproduce
    identical SampleSets.
    """
    if shots < 1:
        raise ValueError("need shots >= 1")
    probs = exact_distribution(state)
    probs = probs / probs.sum()
    rng = np.random.default_rng(_seed_sequence(seed))
    drawn = rng.multinomial(shots, probs)
    nonzero = np.nonzero(drawn)[0]
    counts = {int(z): int(drawn[z]) for z in nonzero}
    return SampleSet(counts, shots, seed, state.register, state.params)
