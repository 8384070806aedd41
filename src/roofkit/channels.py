"""Completely positive trace-preserving maps in Kraus form.

Besides the generic container this module builds the constructions the lab
works with: tensor products, complementary channels, direct-sum mixtures of
the identity with another channel, measure-and-prepare maps, partial traces
as channels, and a discretized random-phase (Schur multiplier) channel with
its tail estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from math import prod
from typing import Sequence

import numpy as np

from .core import (
    DensityMatrix,
    SubsystemShape,
    hermitian_eig,
    partial_transpose,
    require_finite,
    require_hermitian,
    require_keep,
    rng_for,
    trace_out,
)
from .entropy import binary_entropy, spectrum_entropy
from .errors import (
    DimensionError,
    ParameterError,
    ResolutionError,
    UnsupportedError,
    ValidityError,
)

TP_TOL = 1e-9
KRAUS_CLIP = 1e-12


class Channel:
    """Kraus family {K_i} with sum K_i* K_i = I within 1e-9."""

    __slots__ = ("label", "in_dim", "out_dim", "kraus")

    def __init__(self, kraus: Sequence[np.ndarray], label: str = ""):
        ops = [require_finite(k, "Kraus operator") for k in kraus]
        if not ops:
            raise ParameterError("a channel needs at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) != 2 or any(k.shape != shape for k in ops):
            raise DimensionError("Kraus operators must share one rectangular shape")
        out_dim, in_dim = shape
        total = sum(k.conj().T @ k for k in ops)
        dev = float(np.max(np.abs(total - np.eye(in_dim))))
        if dev > TP_TOL:
            raise ValidityError(f"not trace preserving: deviation {dev:.3e}")
        for k in ops:
            k.setflags(write=False)
        self.kraus = tuple(ops)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.label = label or f"channel({in_dim}->{out_dim})"

    @property
    def env_dim(self) -> int:
        return len(self.kraus)

    def kraus_stack(self) -> np.ndarray:
        """All Kraus operators as one (env, out, in) array."""
        return np.stack(self.kraus)

    def apply_raw(self, arr: np.ndarray) -> np.ndarray:
        out = np.zeros((self.out_dim, self.out_dim), dtype=complex)
        for k in self.kraus:
            kr = k @ arr
            out += kr @ k.conj().T
        return out

    def __repr__(self) -> str:
        return f"Channel({self.label!r}, {self.in_dim}->{self.out_dim}, env={self.env_dim})"


def apply(channel: Channel, rho: DensityMatrix) -> DensityMatrix:
    """Channel output as a validated state."""
    if rho.dim != channel.in_dim:
        raise DimensionError(f"state dimension {rho.dim} != channel input {channel.in_dim}")
    return DensityMatrix(channel.apply_raw(rho.entries))


def output_entropy(channel: Channel, rho: DensityMatrix) -> float:
    """S(channel(rho)) in nats."""
    if rho.dim != channel.in_dim:
        raise DimensionError(f"state dimension {rho.dim} != channel input {channel.in_dim}")
    out = channel.apply_raw(rho.entries)
    out = (out + out.conj().T) / 2.0
    return spectrum_entropy(np.linalg.eigvalsh(out))


def tensor_channel(a: Channel, b: Channel) -> Channel:
    """Product channel with pairwise Kronecker Kraus operators."""
    ops = [np.kron(ka, kb) for ka in a.kraus for kb in b.kraus]
    return Channel(ops, label=f"{a.label}(x){b.label}")


def complementary(channel: Channel) -> Channel:
    """Complementary channel to the environment of the Stinespring dilation.

    With V psi = sum_i (K_i psi) (x) |i>, tracing out the original output
    leaves the map whose j-th Kraus operator has entries (K_i)_{jk} at (i, k).
    The complement of a noiseless channel is the constant map to a point.
    """
    stack = channel.kraus_stack()            # (env, out, in)
    flipped = stack.transpose(1, 0, 2)       # (out, env, in)
    return Channel(list(flipped), label=f"complement[{channel.label}]")


def choi(channel: Channel) -> np.ndarray:
    """Unnormalized Choi matrix on input (x) output, first factor the input copy.

    Tracing out the output factor returns the in_dim identity; the rank equals
    the number of linearly independent Kraus operators.
    """
    d_in, d_out = channel.in_dim, channel.out_dim
    c = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for k in channel.kraus:
        vec = k.T.reshape(-1)                # index a*out + o carries K[o, a]
        c += np.outer(vec, vec.conj())
    return c


def is_ppt_choi(channel: Channel, tol: float = 1e-9) -> tuple[bool, float]:
    """Positivity of the partially transposed Choi matrix (verdict, witness)."""
    pt = partial_transpose(choi(channel), (channel.in_dim, channel.out_dim), 0)
    lam_min = float(np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)[0])
    return lam_min >= -tol, lam_min


def noiseless(dim: int) -> Channel:
    """Identity channel."""
    if dim < 1:
        raise ParameterError(f"dimension must be positive, got {dim}")
    return Channel([np.eye(dim, dtype=complex)], label=f"noiseless({dim})")


def dephasing(q: float) -> Channel:
    """Qubit phase flip with probability q."""
    if not 0.0 <= q <= 1.0:
        raise ParameterError(f"flip probability must lie in [0, 1], got {q}")
    z = np.diag([1.0, -1.0]).astype(complex)
    ops = []
    if q < 1.0:
        ops.append(math.sqrt(1.0 - q) * np.eye(2, dtype=complex))
    if q > 0.0:
        ops.append(math.sqrt(q) * z)
    return Channel(ops, label=f"dephasing(q={q:g})")


def completely_depolarizing(dim: int) -> Channel:
    """Constant channel to the maximally mixed state."""
    if dim < 1:
        raise ParameterError(f"dimension must be positive, got {dim}")
    ops = []
    for i in range(dim):
        for j in range(dim):
            k = np.zeros((dim, dim), dtype=complex)
            k[i, j] = 1.0 / math.sqrt(dim)
            ops.append(k)
    return Channel(ops, label=f"depolarizing({dim})")


def random_stinespring(in_dim: int, out_dim: int, env_dim: int, seed) -> Channel:
    """Channel cut from a Haar-ish random isometry into output (x) environment."""
    if in_dim < 1 or out_dim < 1 or env_dim < 1:
        raise ParameterError("all dimensions must be positive")
    if out_dim * env_dim < in_dim:
        raise ParameterError(
            f"no isometry into {out_dim}x{env_dim} from dimension {in_dim}"
        )
    rng = seed if isinstance(seed, np.random.Generator) else rng_for(seed)
    g = rng.normal(size=(out_dim * env_dim, in_dim)) + 1j * rng.normal(
        size=(out_dim * env_dim, in_dim)
    )
    v, _ = np.linalg.qr(g)
    v = v.reshape(out_dim, env_dim, in_dim)
    return Channel(
        [v[:, e, :] for e in range(env_dim)],
        label=f"random({in_dim}->{out_dim},env={env_dim})",
    )


def direct_sum_mixture(q: float, inner: Channel) -> Channel:
    """Block mixture q * noiseless (+) (1-q) * inner on orthogonal output blocks.

    The input space is the inner channel's input space; outputs occupy the
    first block (identity copy, weight q) and the second block (inner channel
    output, weight 1-q).  At q = 1 or q = 0 the empty block is dropped.
    """
    if not 0.0 <= q <= 1.0:
        raise ParameterError(f"mixture weight must lie in [0, 1], got {q}")
    n = inner.in_dim
    out = n + inner.out_dim
    ops = []
    if q > 0.0:
        top = np.zeros((out, n), dtype=complex)
        top[:n, :] = math.sqrt(q) * np.eye(n)
        ops.append(top)
    if q < 1.0:
        for k in inner.kraus:
            low = np.zeros((out, n), dtype=complex)
            low[n:, :] = math.sqrt(1.0 - q) * k
            ops.append(low)
    return Channel(ops, label=f"id(+){inner.label}(q={q:g})")


def measure_prepare(povm: Sequence[np.ndarray], outputs: Sequence[DensityMatrix]) -> Channel:
    """Entanglement-breaking map rho -> sum_i outputs[i] Tr(rho povm[i]).

    Kraus operators come from the spectral decompositions of both families,
    dropping eigenvalues at or below 1e-12.
    """
    if len(povm) != len(outputs) or not povm:
        raise ParameterError("need equally many POVM elements and output states")
    effects = [require_finite(m, "POVM element") for m in povm]
    d_in = effects[0].shape[0]
    d_out = outputs[0].dim
    if any(m.shape != (d_in, d_in) for m in effects):
        raise DimensionError("POVM elements must be square and share one dimension")
    if any(s.dim != d_out for s in outputs):
        raise DimensionError("output states must share one dimension")
    total = sum(effects)
    if float(np.max(np.abs(total - np.eye(d_in)))) > TP_TOL:
        raise ValidityError("POVM elements do not sum to the identity within 1e-9")
    ops = []
    for m, sigma in zip(effects, outputs):
        mvals, mvecs = hermitian_eig(require_hermitian(m, 1e-9, "POVM element"))
        if float(mvals[-1]) < -1e-9:
            raise ValidityError(f"POVM element has eigenvalue {mvals[-1]:.3e}")
        svals, svecs = hermitian_eig(sigma.entries)
        for j in range(len(svals)):
            if svals[j] <= KRAUS_CLIP:
                continue
            for k in range(len(mvals)):
                if mvals[k] <= KRAUS_CLIP:
                    continue
                coeff = math.sqrt(svals[j] * mvals[k])
                ops.append(coeff * np.outer(svecs[:, j], mvecs[:, k].conj()))
    return Channel(ops, label=f"measure-prepare({len(effects)} outcomes)")


def partial_trace_channel(shape: SubsystemShape, keep: Sequence[int]) -> Channel:
    """Partial trace over the factors not in `keep`, as an explicit channel.

    Kraus operator j is the Kronecker product of I_d for each kept factor and
    the basis row e_j^T for each traced factor, with j in row-major order.
    """
    dims = shape.factor_dims
    keep = require_keep(keep, len(dims))
    traced = tuple(i for i in range(len(dims)) if i not in keep)
    tr_dims = tuple(dims[i] for i in traced)
    ops = []
    for j in range(prod(tr_dims)):
        rows = dict(zip(traced, np.unravel_index(j, tr_dims)))
        factors = [np.eye(d)[[rows[i]]] if i in rows else np.eye(d) for i, d in enumerate(dims)]
        ops.append(reduce(np.kron, factors))
    return Channel(ops, label=f"trace-out{list(traced)}of{list(dims)}")


# --- random-phase (Schur multiplier) channel -------------------------------

SQRT2 = math.sqrt(2.0)
TERM_FLOOR = 1e-14


@dataclass(frozen=True)
class GaussianDensity:
    """Centered normal noise density with standard deviation `std`."""

    std: float

    def __post_init__(self):
        if not self.std > 0.0:
            raise ParameterError(f"standard deviation must be positive, got {self.std}")

    def pdf(self, t: float) -> float:
        s = self.std
        return math.exp(-(t * t) / (2 * s * s)) / (s * math.sqrt(2 * math.pi))

    def characteristic(self, u: np.ndarray) -> np.ndarray:
        return np.exp(-(self.std**2) * np.asarray(u, dtype=float) ** 2 / 2.0)

    def profile(self, u: np.ndarray) -> np.ndarray:
        # inverse transform of sqrt(pdf); shifted copies reproduce the
        # characteristic-function overlaps exactly in the fine-grid limit
        return np.exp(-(self.std**2) * np.asarray(u, dtype=float) ** 2)

    def profile_reach(self) -> float:
        return 4.0 / self.std

    def tail_mass(self, d: float) -> float:
        return math.erfc(d / (self.std * SQRT2))

    def tail_log_mass(self, d: float) -> float:
        s = self.std
        y = d / s
        phi_y = math.exp(-y * y / 2.0) / math.sqrt(2 * math.pi)
        second_moment = s * s * (2.0 * y * phi_y + math.erfc(y / SQRT2))
        alpha = self.tail_mass(d)
        return abs(-second_moment / (2 * s * s) - math.log(s * math.sqrt(2 * math.pi)) * alpha)

    def lattice_tail(self, d: float) -> float:
        total, m = 0.0, 0
        while True:
            term = self.pdf(d + m) + self.pdf(-d - m)
            total += term
            if term < TERM_FLOOR:
                return total
            m += 1


@dataclass(frozen=True)
class UniformDensity:
    """Uniform noise on the open interval (-half_width, half_width)."""

    half_width: float

    def __post_init__(self):
        if not self.half_width > 0.0:
            raise ParameterError(f"half width must be positive, got {self.half_width}")

    def pdf(self, t: float) -> float:
        return 1.0 / (2.0 * self.half_width) if abs(t) < self.half_width else 0.0

    def characteristic(self, u: np.ndarray) -> np.ndarray:
        w = self.half_width
        return np.sinc(w * np.asarray(u, dtype=float) / math.pi)

    profile = characteristic

    def profile_reach(self) -> float:
        # slow sinc decay; tail mass past the reach is about 1e-2
        return 30.0 * math.pi / self.half_width

    def tail_mass(self, d: float) -> float:
        return max(0.0, 1.0 - d / self.half_width)

    def tail_log_mass(self, d: float) -> float:
        return abs(math.log(2.0 * self.half_width)) * self.tail_mass(d)

    def lattice_tail(self, d: float) -> float:
        span = self.half_width - d
        if span <= 0.0:
            return 0.0
        return math.ceil(span) / self.half_width


@dataclass(frozen=True)
class TabulatedDensity:
    """Noise density known only through samples and quadrature weights."""

    points: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if pts.ndim != 1 or pts.shape != vals.shape or pts.shape != wts.shape:
            raise ParameterError("points, values and weights must be 1-d and equally long")
        if vals.size == 0:
            raise ParameterError("empty tabulation")
        if float(vals.min()) < 0.0 or float(wts.min()) <= 0.0:
            raise ParameterError("density values must be >= 0 and weights > 0")
        mass = float(wts @ vals)
        if abs(mass - 1.0) > 1e-8:
            raise ParameterError(f"quadrature mass {mass!r} is not 1 within 1e-8")
        for name, arr in (("points", pts), ("values", vals), ("weights", wts)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def characteristic(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        phase = np.exp(-1j * np.multiply.outer(u, self.points))
        return phase @ (self.weights * self.values)

    def profile(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        phase = np.exp(1j * np.multiply.outer(u, self.points))
        return phase @ (self.weights * np.sqrt(self.values))

    def profile_reach(self) -> float:
        spread = float(self.points.max() - self.points.min())
        return max(spread, 1.0) * 4.0

    def tail_mass(self, d: float) -> float:
        raise UnsupportedError("tail quantities need a closed-form density family")

    tail_log_mass = tail_mass
    lattice_tail = tail_mass


@dataclass(frozen=True)
class RandomPhaseSpec:
    """Discretized random-phase channel: position grid plus noise density.

    The grid has `grid_size` midpoints on [-half_width, half_width]; the
    channel multiplies matrix entries by the noise characteristic function
    evaluated at coordinate differences.
    """

    half_width: float
    grid_size: int
    density: GaussianDensity | UniformDensity | TabulatedDensity

    def __post_init__(self):
        if not self.half_width > 0.0:
            raise ParameterError(f"half width must be positive, got {self.half_width}")
        if int(self.grid_size) < 1:
            raise ParameterError(f"grid size must be positive, got {self.grid_size}")
        object.__setattr__(self, "grid_size", int(self.grid_size))

    def grid(self) -> np.ndarray:
        a, d = self.half_width, self.grid_size
        return -a + (np.arange(d) + 0.5) * (2.0 * a / d)


def schur_matrix(spec: RandomPhaseSpec) -> np.ndarray:
    """Entrywise multiplier matrix of the discretized channel."""
    x = spec.grid()
    b = spec.density.characteristic(x[:, None] - x[None, :])
    b = np.asarray(b, dtype=complex)
    return (b + b.conj().T) / 2.0


def random_phase_channel(spec: RandomPhaseSpec) -> Channel:
    """Schur multiplier channel from the spectral factorization of the multiplier.

    The multiplier must be positive semidefinite with unit diagonal within
    1e-8; eigenvalues at or below 1e-12 are dropped from the Kraus family.
    """
    b = schur_matrix(spec)
    diag_dev = float(np.max(np.abs(np.diagonal(b) - 1.0)))
    vals, vecs = hermitian_eig(b)
    if diag_dev > 1e-8 or float(vals[-1]) < -1e-8:
        raise ResolutionError(
            "multiplier matrix is not a unit-diagonal PSD matrix within 1e-8; "
            "refine the density tabulation or shrink the grid spacing"
        )
    ops = []
    for m in range(len(vals)):
        if vals[m] > KRAUS_CLIP:
            ops.append(np.diag(math.sqrt(float(vals[m])) * vecs[:, m]))
    return Channel(ops, label=f"phase(a={spec.half_width:g},d={spec.grid_size})")


def _complement_profiles(
    spec: RandomPhaseSpec, t_points: int, t_half_width: float | None
) -> np.ndarray:
    if t_points < 1:
        raise ParameterError(f"t-grid size must be positive, got {t_points}")
    if t_half_width is None:
        t_half_width = spec.half_width + spec.density.profile_reach()
    if not t_half_width > 0.0:
        raise ParameterError(f"t-grid half width must be positive, got {t_half_width}")
    t = -t_half_width + (np.arange(t_points) + 0.5) * (2.0 * t_half_width / t_points)
    prof = np.asarray(spec.density.profile(t[:, None] - spec.grid()[None, :]), dtype=complex)
    norms = np.linalg.norm(prof, axis=0)
    if float(norms.min()) <= 1e-7 * max(float(norms.max()), 1e-30):
        raise ResolutionError("a shifted profile has no support on the t-grid; widen it")
    return prof / norms


def phase_channel_complement_mp(
    spec: RandomPhaseSpec, t_points: int = 64, t_half_width: float | None = None
) -> Channel:
    """Measure-and-prepare stand-in for the complementary random-phase channel.

    Measures the position grid and prepares a shifted copy of one fixed
    profile per outcome, sampled on a t-grid.  The profile is the inverse
    transform of the square-root density, so the prepared-state overlaps
    reproduce the channel multiplier and the output entropy on pure inputs
    matches the channel's up to the t-grid resolution.
    """
    prof = _complement_profiles(spec, t_points, t_half_width)
    d = spec.grid_size
    povm = [np.diag(np.eye(d)[j]).astype(complex) for j in range(d)]
    outputs = []
    for j in range(d):
        outputs.append(DensityMatrix(np.outer(prof[:, j], prof[:, j].conj())))
    ch = measure_prepare(povm, outputs)
    ch = Channel(ch.kraus, label=f"phase-complement(a={spec.half_width:g},d={d})")
    return ch


def phase_complement_gram_deviation(
    spec: RandomPhaseSpec, t_points: int = 64, t_half_width: float | None = None
) -> float:
    """Max deviation between prepared-state overlaps and the channel multiplier.

    This is the discretization defect of the measure-and-prepare complement;
    output entropies on pure inputs agree exactly when it vanishes.
    """
    prof = _complement_profiles(spec, t_points, t_half_width)
    gram = prof.conj().T @ prof
    return float(np.max(np.abs(gram - schur_matrix(spec).T)))


def tail_quantities(density, d: float) -> tuple[float, float, float]:
    """Truncation diagnostics (alpha, beta, gamma) of a noise density.

    alpha(d) is the mass beyond [-d, d], beta(d) the absolute integral of
    p log p there, and gamma(d) the unit-lattice sum of density values from
    +-d outward; gamma(d) <= alpha(d-1) for unimodal densities.
    """
    if not d > 0.0:
        raise ParameterError(f"cutoff must be positive, got {d}")
    return (
        float(density.tail_mass(d)),
        float(density.tail_log_mass(d)),
        float(density.lattice_tail(d)),
    )


def tail_entropy_bound(density, d: float, entropy_cap: float, out_entropy: float) -> float:
    """Bound on the entropy shift caused by truncating to [-d, d].

    Evaluates alpha(d)/(1-alpha(d)) * H + h(alpha(d)) + alpha(d-1) * C
    + beta(d-1) for an output entropy H and a log-dimension cap C.
    """
    if not d >= 1.0:
        raise ParameterError(f"cutoff must be at least 1, got {d}")
    if entropy_cap < 0.0 or out_entropy < 0.0:
        raise ParameterError("entropy arguments must be nonnegative")
    alpha = float(density.tail_mass(d))
    if alpha >= 1.0:
        raise ParameterError(f"tail mass {alpha} leaves nothing inside the cutoff")
    alpha_prev = float(density.tail_mass(d - 1.0))
    beta_prev = float(density.tail_log_mass(d - 1.0))
    return (
        alpha / (1.0 - alpha) * out_entropy
        + binary_entropy(min(alpha, 1.0))
        + alpha_prev * entropy_cap
        + beta_prev
    )
