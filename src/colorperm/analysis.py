"""Success-probability reference model and diagnostics.

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
from dataclasses import dataclass

import numpy as np

from .hamiltonian import energy_table
from .simulator import ANALYSIS_BYTES, block_mixer_matrix, check_budget
from .solver import feasible_histogram, feasible_samples

TWO_PI = 2.0 * math.pi
REPORT_CONFIDENCES = (0.90, 0.95, 0.99)


def circle_distance(a, b):
    """Distance between two angles on the circle, in [0, pi]."""
    d = np.mod(np.abs(np.asarray(a, dtype=float) - b), TWO_PI)
    return np.minimum(d, TWO_PI - d)


def fejer_kernel(p, theta):
    """F_p(theta), the squared-magnitude filter of order p.

    Evaluated through the sin-ratio form away from multiples of 2*pi and
    by the exact limit p + 1 on them. Accepts scalars or arrays.
    """
    if p < 0:
        raise ValueError("need p >= 0")
    theta = np.asarray(theta, dtype=float)
    half = 0.5 * theta
    denom = np.sin(half)
    peak = denom == 0.0
    safe = np.where(peak, 1.0, denom)
    ratio = np.sin((p + 1) * half) / safe
    out = np.where(peak, float(p + 1), ratio * ratio / (p + 1))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PhaseProfile:
    """Wrapped phases of every label at one gamma, with the optimal
    phase and the separation to the nearest non-optimal phase."""

    gamma: float
    theta: np.ndarray
    theta_star: float
    delta: float
    optimal_labels: np.ndarray


def phase_profile_from_energies(energies, gamma, optimal_labels):
    energies = np.asarray(energies, dtype=float)
    # a finite gamma can still overflow gamma * E; max |E| without a temporary
    if not math.isfinite(gamma * float(max(energies.max(initial=0.0), -energies.min(initial=0.0)))):
        raise ValueError(f"gamma must be finite, and so must gamma * max |E|, not {gamma!r}")
    optimal_labels = np.asarray(sorted(int(z) for z in optimal_labels), dtype=np.int64)
    if len(optimal_labels) == 0:
        raise ValueError("optimal set is empty")
    opt_e = energies[optimal_labels]
    scale = max(1.0, float(np.abs(opt_e).max()))
    if np.ptp(opt_e) > 1e-9 * scale:
        raise ValueError("optimal labels carry unequal energies")
    theta = np.mod(gamma * energies, TWO_PI)
    theta_star = float(theta[optimal_labels[0]])
    mask = np.ones(len(energies), dtype=bool)
    mask[optimal_labels] = False
    if mask.any():
        delta = float(circle_distance(theta[mask], theta_star).min())
    else:
        delta = math.pi
    return PhaseProfile(float(gamma), theta, theta_star, delta, optimal_labels)


def phase_profile(model, gamma, optimal_set):
    """Phase profile of the model's energies over the one-hot labels at
    one gamma; `optimal_set` holds one-hot labels. Charged ANALYSIS_BYTES
    per label against the memory budget."""
    check_budget(model.params, label_bytes=ANALYSIS_BYTES)
    return phase_profile_from_energies(energy_table(model), gamma, optimal_set)


@dataclass(frozen=True)
class EnvelopeState:
    """Mixer envelope in per-block factored form: row j is the marginal
    distribution of block j's symbol."""

    params: object
    betas: tuple
    per_block: np.ndarray

    def full_distribution(self):
        """Expand the product over blocks to a distribution over labels,
        charged ANALYSIS_BYTES per label against the memory budget."""
        p = self.params
        check_budget(p, label_bytes=ANALYSIS_BYTES)
        full = np.ones(1)
        for j in range(p.n):
            full = np.multiply.outer(full, self.per_block[j]).reshape(-1)
        return full

    def block_mass(self):
        return self.per_block.sum(axis=1)


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
    return EnvelopeState(params, betas, v)


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
        return {
            "p": self.p,
            "delta": self.delta,
            "C_beta": self.C_beta,
            "M_p_delta": self.M_p_delta,
            "M_p_bound": self.M_p_bound,
            "q0_lower": self.q0_lower,
            "q0_exact_ref": self.q0_exact_ref,
            "required_shots": {f"{c:.2f}": s for c, s in sorted(self.required_shots.items())},
            "degenerate": self.degenerate,
        }


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
    """Assemble the FejerReport from a phase profile and an envelope."""
    optimal = np.asarray(sorted(int(z) for z in optimal_set), dtype=np.int64)
    if len(optimal) == 0:
        raise ValueError("optimal set is empty")
    W = env.full_distribution()
    if len(W) != len(profile.theta):
        raise ValueError("envelope and profile cover different registers")
    C_beta = float(W[optimal].sum())
    mask = np.ones(len(W), dtype=bool)
    mask[optimal] = False
    filt = fejer_kernel(p, profile.theta - profile.theta_star)
    if mask.any():
        M_real = float(filt[mask].max())
    else:
        M_real = 0.0
    delta = profile.delta
    if delta > 0.0:
        M_bound = 1.0 / ((p + 1) * math.sin(0.5 * delta) ** 2)
    else:
        M_bound = math.inf
    peak = float(p + 1)
    q0_lower = peak * C_beta / (peak * C_beta + M_real * (1.0 - C_beta))
    ref = W * filt
    total = float(ref.sum())
    q0_exact = float(ref[optimal].sum() / total) if total > 0 else 0.0
    shots = {}
    for conf in REPORT_CONFIDENCES:
        shots[conf] = required_shots(q0_lower, conf) if q0_lower > 0 else None
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


def surrogate_scores(model, params, beta_grid, lam, rho=0.0, alpha=0.0, lp_weights=None, depth=1):
    """Per-beta surrogate ingredients for mixer-angle preselection.

    For each candidate beta the depth-p envelope W_p(.; beta) is built
    (all layers at the same beta) and scored against the model's full
    diagonal cost C:

        score = log E[exp(-lam*C)] + alpha*S_LP - rho*std(C)

    S_LP pairs externally supplied weights lp_weights[s, s'] with the
    envelope's expected adjacent-position symbol-pair indicators; it is 0
    when no weights are given. C covers the one-hot labels, so both
    registers give the same rows. Charged ANALYSIS_BYTES per label
    against the memory budget.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    beta_grid = [float(b) for b in beta_grid]
    if not beta_grid:
        raise ValueError("beta grid is empty")
    check_budget(params, label_bytes=ANALYSIS_BYTES)
    costs = energy_table(model)
    rows = []
    for beta in beta_grid:
        env = envelope(params, [beta] * depth)
        W = env.full_distribution()
        mu = float(W @ costs)
        var = float(W @ (costs - mu) ** 2)
        sigma = math.sqrt(max(0.0, var))
        z = float(W @ np.exp(-lam * costs))
        log_z = math.log(z) if z > 0 else -math.inf
        s_lp = 0.0
        if lp_weights is not None:
            x = np.asarray(lp_weights, dtype=float)
            if x.shape != (params.S, params.S):
                raise ValueError("lp_weights must be S x S")
            for j in range(params.n - 1):
                s_lp += float(env.per_block[j] @ x @ env.per_block[j + 1])
        rows.append(
            {
                "beta": beta,
                "mu": mu,
                "sigma": sigma,
                "log_z": log_z,
                "s_lp": s_lp,
                "score": log_z + alpha * s_lp - rho * sigma,
            }
        )
    return rows


def angle_preselect(model, params, beta_grid, lam, rho=0.0, alpha=0.0, lp_weights=None, depth=1):
    """The beta maximizing the preselection surrogate (first index wins
    ties)."""
    rows = surrogate_scores(model, params, beta_grid, lam, rho, alpha, lp_weights, depth)
    best = rows[0]
    for row in rows[1:]:
        if row["score"] > best["score"]:
            best = row
    return best["beta"]


@dataclass(frozen=True)
class AnticoncentrationReport:
    """Feasible-outcome histogram against the uniform 1/D baseline."""

    D: int
    baseline: float
    share_above_baseline: float
    feasible_distinct: int
    feasible_shots: int
    total_shots: int
    histogram: tuple

    def to_dict(self):
        return {
            "D": self.D,
            "baseline": self.baseline,
            "share_above_baseline": self.share_above_baseline,
            "feasible_distinct": self.feasible_distinct,
            "feasible_shots": self.feasible_shots,
            "total_shots": self.total_shots,
        }


def anticoncentration_report(samples, model, params):
    """Histogram the feasible outcomes of a SampleSet and report what
    fraction of them beat the uniform baseline 1/D, D = (nK)^n."""
    D = params.dim("onehot")
    _, counts, bits = feasible_samples(samples, model.inst, samples.register)
    rows, share = feasible_histogram(dict(zip(bits, counts)), samples.shots, params)
    return AnticoncentrationReport(
        D=D,
        baseline=1.0 / D,
        share_above_baseline=share,
        feasible_distinct=len(rows),
        feasible_shots=sum(counts),
        total_shots=samples.shots,
        histogram=tuple(rows),
    )
