"""Success-mass lower bound of a depth-p run, as `colorperm bound`
reports it.

The dephased reference mechanism splits a depth-p run into two
ingredients that can be computed separately at desk scale:

* the mixer envelope W_p, a probability distribution over basis labels
  obtained by applying the entrywise-squared block mixer (a doubly
  stochastic kernel) p times to the uniform per-block start, kept in
  per-block factored form;
* the nonnegative filter F_p(theta) = |sum_{r=0}^p e^{i r theta}|^2/(p+1)
  acting on wrapped energy phases theta(z) = gamma*E(z) mod 2pi.

The reference law Pr[z] proportional to W_p(z)*F_p(theta(z) - theta*)
yields an exact success mass, and the filter peak F_p(0) = p+1 against
the off-peak maximum M_p gives a dimension-free lower bound on it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .hamiltonian import energy_table
from .simulator import block_mixer_matrix, check_budget

TWO_PI = 2.0 * math.pi
PHASE_CHUNK = 2**20
REPORT_CONFIDENCES = (0.90, 0.95, 0.99)


def circle_distance(a, b):
    """Distance between two angles on the circle, in [0, pi]."""
    d = np.mod(np.abs(np.asarray(a, dtype=float) - b), TWO_PI)
    return np.minimum(d, TWO_PI - d)


def fejer_kernel(p, theta):
    """F_p(theta), the squared-magnitude filter of order p.

    Evaluated through the sin-ratio form away from multiples of 2*pi and
    by the exact limit p + 1 on them, in place in two arrays. Accepts
    scalars or arrays.
    """
    if p < 0:
        raise ValueError("need p >= 0")
    theta = np.asarray(theta, dtype=float)
    out = np.atleast_1d(0.5 * theta)
    safe = np.sin(out)
    peak = safe == 0.0
    np.copyto(safe, 1.0, where=peak)
    out *= p + 1
    np.sin(out, out=out)
    out /= safe
    out *= out
    out /= p + 1
    np.copyto(out, float(p + 1), where=peak)
    return float(out[0]) if theta.ndim == 0 else out


@dataclass(frozen=True)
class PhaseProfile:
    """Wrapped phases of every label at one gamma, with the optimal
    phase and the separation to the nearest non-optimal phase."""

    theta: np.ndarray
    theta_star: float
    delta: float


def phase_profile_from_energies(energies, gamma, optimal_labels):
    energies = np.asarray(energies, dtype=float)
    # a finite gamma can still overflow gamma * E; max |E| without a temporary
    if not math.isfinite(gamma * float(max(energies.max(initial=0.0), -energies.min(initial=0.0)))):
        raise ValueError(f"gamma must be finite, and so must gamma * max |E|, not {gamma!r}")
    optimal_labels = _sorted_optimal(optimal_labels)
    opt_e = energies[optimal_labels]
    scale = max(1.0, float(np.abs(opt_e).max()))
    if np.ptp(opt_e) > 1e-9 * scale:
        raise ValueError("optimal labels carry unequal energies")
    theta = np.multiply(energies, gamma)
    np.mod(theta, TWO_PI, out=theta)
    theta_star = float(theta[optimal_labels[0]])
    # no circle distance exceeds pi, so an optimal label set to pi leaves the
    # minimum over the others unchanged, and pi is delta when all are optimal
    delta = math.pi
    for lo, opt in _chunks(len(theta), optimal_labels):
        dist = circle_distance(theta[lo : lo + PHASE_CHUNK], theta_star)
        dist[opt] = math.pi
        delta = min(delta, float(dist.min()))
    return PhaseProfile(theta, theta_star, delta)


def _sorted_optimal(labels):
    """The optimal labels as a sorted int64 array; refuses an empty set."""
    optimal = np.asarray(sorted(int(z) for z in labels), dtype=np.int64)
    if len(optimal) == 0:
        raise ValueError("optimal set is empty")
    return optimal


def _chunks(size, optimal):
    """(lo, the sorted `optimal` labels in [lo, lo + PHASE_CHUNK) less lo)
    for each PHASE_CHUNK slice of `size` labels."""
    for lo in range(0, size, PHASE_CHUNK):
        first, last = np.searchsorted(optimal, [lo, lo + PHASE_CHUNK])
        yield lo, optimal[first:last] - lo


def phase_profile(model, gamma, optimal_set):
    """Phase profile of the model's energies over the one-hot labels at
    one gamma; `optimal_set` holds one-hot labels. Charged like a sweep
    against the memory budget."""
    check_budget(model.params)
    return phase_profile_from_energies(energy_table(model), gamma, optimal_set)


@dataclass(frozen=True)
class EnvelopeState:
    """Mixer envelope in per-block factored form: row j is the marginal
    distribution of block j's symbol."""

    params: object
    per_block: np.ndarray

    def full_distribution(self):
        """Expand the product over blocks to a distribution over labels,
        charged like a sweep against the memory budget."""
        p = self.params
        check_budget(p)
        full = np.ones(1)
        for j in range(p.n):
            full = np.multiply.outer(full, self.per_block[j]).reshape(-1)
        return full


def dephased_kernel(S, beta):
    """Entrywise |U|^2 of the block mixer, a doubly stochastic matrix."""
    U = block_mixer_matrix(S, beta)
    return np.abs(U) ** 2


def envelope(params, betas):
    """W_p from the uniform per-block start through the beta schedule."""
    betas = tuple(float(b) for b in betas)
    if not np.isfinite(betas).all():
        raise ValueError(f"beta angles must be finite, not {betas}")
    S = params.S
    v = np.full((params.n, S), 1.0 / S)
    for beta in betas:
        kernel = dephased_kernel(S, beta)
        v = v @ kernel.T
    return EnvelopeState(params, v)


@dataclass(frozen=True)
class FejerReport:
    """Success-mass bound ingredients and the bound itself.

    M_p_delta is the realized off-peak maximum of F_p over the actual
    non-optimal phases; M_p_bound is the analytic 1/((p+1)sin^2(delta/2))
    estimate (infinite when delta = 0, flagged degenerate). q0_lower uses
    the realized maximum, q0_exact_ref sums the reference law directly.
    """

    p: int
    delta: float
    C_beta: float
    M_p_delta: float
    M_p_bound: float
    q0_lower: float
    q0_exact_ref: float
    required_shots: dict
    degenerate: bool

    def to_dict(self):
        out = asdict(self)
        out["required_shots"] = {f"{c:.2f}": s for c, s in sorted(self.required_shots.items())}
        return out


def required_shots(p_star, confidence=0.95):
    """Shots guaranteeing >= 1 optimal hit with the given confidence when
    each shot lands an optimum with probability >= p_star."""
    if not 0.0 < p_star <= 1.0:
        raise ValueError("p_star must lie in (0, 1]")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    delta_fail = 1.0 - confidence
    return int(math.ceil(math.log(1.0 / delta_fail) / p_star))


def fejer_bound(profile, env, optimal_set, p):
    """Assemble the FejerReport from a phase profile and an envelope.

    The filter is built PHASE_CHUNK labels at a time and multiplied into
    the envelope in place, turning it into the reference law; no
    full-length filter or mask is built, so the report fits a sweep's
    charge."""
    optimal = _sorted_optimal(optimal_set)
    W = env.full_distribution()
    if len(W) != len(profile.theta):
        raise ValueError("envelope and profile cover different registers")
    C_beta = float(W[optimal].sum())
    # the filter is nonnegative, so zeroing the optimal labels leaves the
    # maximum over the others unchanged, and 0.0 when all are optimal
    M_real = 0.0
    for lo, opt in _chunks(len(W), optimal):
        filt = fejer_kernel(p, profile.theta[lo : lo + PHASE_CHUNK] - profile.theta_star)
        W[lo : lo + PHASE_CHUNK] *= filt
        filt[opt] = 0.0
        M_real = max(M_real, float(filt.max()))
    delta = profile.delta
    M_bound = 1.0 / ((p + 1) * math.sin(0.5 * delta) ** 2) if delta > 0.0 else math.inf
    peak = float(p + 1)
    q0_lower = peak * C_beta / (peak * C_beta + M_real * (1.0 - C_beta))
    total = float(W.sum())
    q0_exact = float(W[optimal].sum() / total) if total > 0 else 0.0
    shots = {conf: required_shots(q0_lower, conf) if q0_lower > 0 else None for conf in REPORT_CONFIDENCES}
    return FejerReport(
        p=int(p),
        delta=float(delta),
        C_beta=C_beta,
        M_p_delta=M_real,
        M_p_bound=M_bound,
        q0_lower=float(q0_lower),
        q0_exact_ref=q0_exact,
        required_shots=shots,
        degenerate=delta == 0.0,
    )
