"""Exact statevector simulation on the encoded manifold.

The one-hot register never represents the full n^2*K qubits: its basis
IS the block-one-hot sector, addressed by mixed-radix labels over n
symbol digits, so the state is a dense complex vector of size S^n (or
2^(n*q) for the binary register). One ansatz layer applies the diagonal
phase exp(-i*gamma*E(z)) and then the per-block mixer.

The block mixer is the exponential of the normalized hopping generator
(J - I)/(S - 1) on one block, evaluated in closed form from its two
eigenspaces: the uniform vector (eigenvalue 1) and its orthogonal
complement (eigenvalue -1/(S-1)),

    U(beta) = exp(-i*beta) * P_u + exp(+i*beta/(S-1)) * (I - P_u).

On the binary register the same matrix acts on the valid-code span of
each q-bit word and padded words are left alone, so amplitude started on
valid codes stays there exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import EncodingParams, label_to_binary, label_to_onehot
from .hamiltonian import TABLE_LIMIT, energy_components, energy_table

AMPLITUDE_BUDGET = 2**27
PHASE_CHUNK = 2**20


class AmplitudeBudgetError(RuntimeError):
    """Register too large for the configured amplitude budget."""


def register_dim(params, register):
    if register == "onehot":
        return params.S**params.n
    if register == "binary":
        return 1 << (params.n * params.q)
    raise ValueError(f"unknown register {register!r}")


@dataclass
class EncodedState:
    """Complex amplitudes over the register's basis labels."""

    amplitudes: np.ndarray
    register: str
    params: EncodingParams

    def __post_init__(self):
        expected = register_dim(self.params, self.register)
        if self.amplitudes.shape != (expected,):
            raise ValueError(f"amplitude vector must have length {expected}")

    @property
    def dim(self):
        return len(self.amplitudes)

    @property
    def radix(self):
        return self.params.S if self.register == "onehot" else 1 << self.params.q

    def norm(self):
        return float(np.linalg.norm(self.amplitudes))

    def label_bitstring(self, z):
        if self.register == "onehot":
            return label_to_onehot(z, self.params)
        return label_to_binary(z, self.params)


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
    """Uniform superposition over the encoded basis.

    One-hot register: every label gets 1/sqrt(S^n) (a uniform product of
    per-block uniform symbol states). Binary register: the same weight on
    every all-valid code label, zero on labels with any padded word.
    """
    dim = register_dim(params, register)
    amp = 1.0 / np.sqrt(float(params.S) ** params.n)
    if register == "onehot":
        vec = np.full(dim, amp, dtype=complex)
    else:
        vec = np.zeros(dim, dtype=complex)
        vec[_valid_binary_labels(params)] = amp
    return EncodedState(vec, register, params)


def _valid_binary_labels(params):
    """Binary-register labels whose words are all < S, ascending."""
    S, n, q = params.S, params.n, params.q
    labels = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        labels = ((labels[:, None] << q) + np.arange(S, dtype=np.int64)[None, :]).ravel()
    return labels


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


def _block_unitary(params, register, beta):
    U = block_mixer_matrix(params.S, beta)
    if register == "onehot":
        return U
    full = np.eye(1 << params.q, dtype=complex)
    full[: params.S, : params.S] = U
    return full


def _apply_block_matrix(state, U):
    n = state.params.n
    radix = state.radix
    tensor = state.amplitudes.reshape((radix,) * n)
    for axis in range(n):
        tensor = np.moveaxis(np.tensordot(U, tensor, axes=(1, axis)), 0, axis)
    return EncodedState(np.ascontiguousarray(tensor.reshape(-1)), state.register, state.params)


def apply_mixer(state, beta):
    """One mixer layer: the block unitary on each of the n blocks."""
    return _apply_block_matrix(state, _block_unitary(state.params, state.register, beta))


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

    Refuses registers above `amplitude_budget` before allocating
    anything. `energies` is the model's energy table when the caller
    already holds it (a sweep builds it once for all its grid points);
    without it the table is built here, or streamed per layer above
    `table_limit`.
    """
    if params != model.params:
        raise ValueError("params do not match the model")
    dim = register_dim(params, model.register)
    if dim > amplitude_budget:
        raise AmplitudeBudgetError(
            f"register dimension {dim} exceeds the amplitude budget {amplitude_budget}"
        )
    if energies is None and dim <= table_limit:
        energies = energy_table(model, limit=table_limit)
    if energies is not None and np.shape(energies) != (dim,):
        raise ValueError(f"energy table must have length {dim}")
    state = initial_state(params, model.register)
    for gamma, beta in zip(schedule.gammas, schedule.betas):
        state = apply_phase(state, gamma, model, energies=energies, table_limit=table_limit)
        state = apply_mixer(state, beta)
    return state


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
        render = label_to_onehot if self.register == "onehot" else label_to_binary
        return {render(z, self.params): c for z, c in sorted(self.counts.items())}


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
