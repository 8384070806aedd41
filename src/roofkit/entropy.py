"""Entropy functionals in nats, plus energy-constrained extremal states.

The extended entropy H(A) = -Tr A log A + Tr A log Tr A is defined for every
positive semidefinite A and scales linearly, H(cA) = c H(A); on unit-trace
operators it coincides with the von Neumann entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, hermitian_eig, require_hermitian, require_real
from .errors import DimensionError, InfeasibleError, ValidityError

# eigenvalues in [-EIG_CLIP, 0) count as roundoff zeros; anything lower is rejected
EIG_CLIP = 1e-10
SUPPORT_TOL = 1e-12
WEIGHT_TOL = 1e-10
ZERO_TRACE = 1e-14
BETA_CAP = 50.0
ENERGY_TOL = 1e-10


def spectrum_entropy(vals: np.ndarray) -> float:
    """-sum(w log w) over a spectrum clipped at zero."""
    w = np.asarray(vals, dtype=float)
    # NaN fails the clip test and the w > 0 filter, so it would be dropped unseen
    if not np.isfinite(w).all():
        raise ValidityError("spectrum has non-finite entries")
    if w.size and float(w.min()) < -EIG_CLIP:
        raise ValidityError(f"eigenvalue {w.min():.3e} below -{EIG_CLIP:g}")
    w = w[w > 0.0]
    if w.size == 0:
        return 0.0
    # 0.0 - x, not -x: a pure spectrum sums to 0.0, and its entropy is +0.0
    return 0.0 - float((w * np.log(w)).sum())


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) in nats; zero exactly on pure states up to roundoff."""
    return spectrum_entropy(np.linalg.eigvalsh(rho.entries))


def extended_entropy(a) -> float:
    """H(A) = -Tr A log A + Tr A log Tr A for positive semidefinite A."""
    w = np.linalg.eigvalsh(require_hermitian(a, 1e-8, "entropy input"))
    entropy = spectrum_entropy(w)
    t = float(np.clip(w, 0.0, None).sum())
    if t <= ZERO_TRACE:
        return 0.0
    return max(entropy + t * math.log(t), 0.0)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """H(rho || sigma) in nats; +inf when supp(rho) escapes supp(sigma).

    Evaluated in sigma's eigenbasis: a sigma-eigenvalue at or below 1e-12
    carrying more than 1e-10 of rho's weight makes the divergence infinite.
    """
    return relative_entropy_eig(rho, *hermitian_eig(sigma.entries))


def relative_entropy_eig(rho: DensityMatrix, svals: np.ndarray, svecs: np.ndarray) -> float:
    """`relative_entropy` from sigma's eigenpairs, as `hermitian_eig` returns them.

    One eigensolve of sigma then serves every rho compared with it.
    """
    if rho.dim != len(svals):
        raise DimensionError("states live on different spaces")
    rho_s = svecs.conj().T @ rho.entries @ svecs
    diag = rho_s.diagonal().real
    small = svals <= SUPPORT_TOL
    if np.any(diag[small] > WEIGHT_TOL):
        return math.inf
    mask = ~small
    cross = float((diag[mask] * np.log(svals[mask])).sum()) if mask.any() else 0.0
    return 0.0 - von_neumann_entropy(rho) - cross       # +0.0, not -0.0, at rho = sigma pure


def binary_entropy(p: float) -> float:
    """h(p) = -p log p - (1-p) log(1-p), zero at both endpoints."""
    p = require_real(p, "probability", 0.0, 1.0)
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * math.log(p) - (1.0 - p) * math.log(1.0 - p))


def power_trace(rho: DensityMatrix, exponent: float) -> float:
    """Tr rho^exponent for exponent in (0, 1); equals 1 exactly on pure states."""
    exponent = require_real(exponent, "exponent", 0.0, 1.0, strict=True)
    # eigenvalue noise at ~1e-16 would contribute ~1e-8 after a square root
    w = np.linalg.eigvalsh(rho.entries)
    w = np.where(w > 1e-12, w, 0.0)
    return float((w**exponent).sum())


@dataclass(frozen=True)
class EnergyConstraint:
    """Mean-energy level set: states with Tr(H rho) <= level."""

    hamiltonian: np.ndarray
    level: float

    def __post_init__(self):
        arr = require_hermitian(self.hamiltonian, 1e-10, "hamiltonian")
        arr.setflags(write=False)
        object.__setattr__(self, "hamiltonian", arr)
        # NaN fails every comparison in gibbs_state and would pass as feasible
        object.__setattr__(self, "level", require_real(self.level, "energy level"))


def _thermal_weights(energies: np.ndarray, beta: float) -> np.ndarray:
    u = -beta * energies
    u = u - u.max()
    w = np.exp(u)
    return w / w.sum()


def gibbs_state(constraint: EnergyConstraint) -> tuple[DensityMatrix, float, float]:
    """Entropy maximizer at a mean-energy level: (state, beta, entropy).

    Bisection on the inverse temperature over [-50, 50] until the mean energy
    matches the level to 1e-10.  Levels at (or numerically beyond) the ends of
    the reachable range fall back to the maximally mixed state on the extremal
    eigenspace, flagged with beta = +-inf.
    """
    evals, evecs = hermitian_eig(constraint.hamiltonian)
    evals = evals[::-1]          # ascending
    evecs = evecs[:, ::-1]
    h = constraint.level
    lo, hi = float(evals[0]), float(evals[-1])
    if h < lo - 1e-12 or h > hi + 1e-12:
        raise InfeasibleError(f"level {h} outside the spectral range [{lo}, {hi}]")

    def energy(beta: float) -> float:
        return float(_thermal_weights(evals, beta) @ evals)

    def extremal(edge: float, beta: float) -> tuple[DensityMatrix, float, float]:
        sel = np.abs(evals - edge) <= 1e-12
        basis = evecs[:, sel]
        state = DensityMatrix(basis @ basis.conj().T / int(sel.sum()))
        return state, beta, von_neumann_entropy(state)

    # mean energy decreases in beta, so the reachable range is [E(cap), E(-cap)]
    if h <= energy(BETA_CAP):
        return extremal(lo, math.inf)
    if h >= energy(-BETA_CAP):
        return extremal(hi, -math.inf)

    b_lo, b_hi = -BETA_CAP, BETA_CAP
    beta = 0.0
    for _ in range(200):
        beta = (b_lo + b_hi) / 2.0
        e = energy(beta)
        if abs(e - h) <= ENERGY_TOL:
            break
        if e > h:
            b_lo = beta
        else:
            b_hi = beta
    w = _thermal_weights(evals, beta)
    state = DensityMatrix((evecs * w) @ evecs.conj().T)
    return state, beta, spectrum_entropy(w)


def min_orbit_energy(hamiltonian, rho: DensityMatrix) -> float:
    """Smallest Tr(H U rho U*) over unitaries U.

    Equals the ascending spectrum of H paired with the descending spectrum
    of rho; antiunitary conjugations reach the same value, so only the
    unitary orbit is considered.
    """
    arr = require_hermitian(hamiltonian, 1e-10, "hamiltonian")
    if arr.shape != (rho.dim, rho.dim):
        raise DimensionError("hamiltonian and state dimensions differ")
    h_asc = np.linalg.eigvalsh(arr)
    r_desc = np.linalg.eigvalsh(rho.entries)[::-1]
    return float(h_asc @ r_desc)
