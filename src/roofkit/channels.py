"""Completely positive trace-preserving maps in Kraus form.

A channel holds its Kraus operators as one read-only complex (env, out, in)
array: a minimal Stinespring isometry V psi = sum_i (K_i psi) (x) |i>, reshaped.
Besides the generic container this module builds, each as that one array,
the constructions the lab works with: tensor products, complementary
channels, direct-sum mixtures of the identity with another channel,
measure-and-prepare maps, partial traces as channels, and a discretized
random-phase (Schur multiplier) channel with its tail estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import prod
from typing import Sequence

import numpy as np

from .core import (
    DensityMatrix,
    SubsystemShape,
    hermitian_eig,
    partial_transpose,
    require_count,
    require_finite,
    require_hermitian,
    require_keep,
    require_real,
    rng_for,
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


def _minimal_rows(rows: np.ndarray) -> np.ndarray:
    """Rows R' with R'* R' = R* R, one per Gram eigenvalue above KRAUS_CLIP times the largest:
    R itself if none is lost, else u* R over the top Gram eigenvectors u, or, for more rows than
    columns (never independent), sqrt(lam) v* over the top eigenpairs of the smaller R* R."""
    wide = rows.shape[0] > rows.shape[1]
    vals, vecs = hermitian_eig(rows.conj().T @ rows if wide else rows @ rows.conj().T)
    top = vecs[:, : int(np.count_nonzero(vals > KRAUS_CLIP * vals[0]))].conj().T
    if wide:
        return np.sqrt(vals[: len(top), None]) * top
    return rows if len(top) == len(rows) else top @ rows


class Channel:
    """Kraus family {K_i} with sum K_i* K_i = I within 1e-9, held in minimal form by
    _minimal_rows: numerically independent operators (Gram eigenvalues above KRAUS_CLIP times
    the largest) are kept byte for byte, others become as many combinations as the Choi rank."""

    __slots__ = ("label", "in_dim", "out_dim", "kraus")

    def __init__(self, kraus: Sequence[np.ndarray], label: str = ""):
        try:
            stack = np.array(kraus, dtype=complex)
        except ValueError:      # numpy refuses operators of different shapes
            raise DimensionError("Kraus operators must share one rectangular shape") from None
        require_finite(stack, "Kraus operator")
        if stack.shape[:1] == (0,):
            raise ParameterError("a channel needs at least one Kraus operator")
        if stack.ndim != 3:
            raise DimensionError("Kraus operators must share one rectangular shape")
        env_dim, out_dim, in_dim = stack.shape
        if out_dim == 0 or in_dim == 0:
            raise DimensionError(f"Kraus operators must be at least 1 x 1, got {stack.shape[1:]}")
        iso = stack.reshape(env_dim * out_dim, in_dim)
        dev = float(np.max(np.abs(iso.conj().T @ iso - np.eye(in_dim))))
        if dev > TP_TOL:
            raise ValidityError(f"not trace preserving: deviation {dev:.3e}")
        stack = _minimal_rows(stack.reshape(env_dim, -1)).reshape(-1, out_dim, in_dim)
        stack.setflags(write=False)
        self.kraus = stack
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.label = label or f"channel({in_dim}->{out_dim})"

    @property
    def env_dim(self) -> int:
        return len(self.kraus)

    def apply_raw(self, arr: np.ndarray) -> np.ndarray:
        # summed over env in order; the real view keeps a 1 x 1 output's sum
        # from turning pairwise, so every output adds its terms one by one
        terms = self.kraus @ arr @ self.kraus.conj().transpose(0, 2, 1)
        return terms.view(float).sum(axis=0).view(complex)

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
    """Product channel with pairwise Kronecker Kraus operators, a's index slowest,
    unless Channel reduces the stack."""
    pairs = a.kraus[:, None, :, None, :, None] * b.kraus[None, :, None, :, None, :]
    shape = (a.env_dim * b.env_dim, a.out_dim * b.out_dim, a.in_dim * b.in_dim)
    return Channel(pairs.reshape(shape), label=f"{a.label}(x){b.label}")


def complementary(channel: Channel) -> Channel:
    """Complementary channel to the environment of the Stinespring dilation.

    With V psi = sum_i (K_i psi) (x) |i>, tracing out the original output
    leaves the map whose j-th Kraus operator has entries (K_i)_{jk} at (i, k),
    unless Channel reduces the stack.
    The complement of a noiseless channel is the constant map to a point.
    """
    flipped = channel.kraus.transpose(1, 0, 2)     # (out, env, in)
    return Channel(flipped, label=f"complement[{channel.label}]")


def choi(channel: Channel) -> np.ndarray:
    """Unnormalized Choi matrix on input (x) output, first factor the input copy.

    Tracing out the output factor returns the in_dim identity; the rank equals
    env_dim, since a channel holds its Kraus operators in minimal form.
    """
    # row i, index a*out + o, carries K_i[o, a]
    vecs = channel.kraus.transpose(0, 2, 1).reshape(channel.env_dim, -1)
    return vecs.T @ vecs.conj()


def is_ppt_choi(channel: Channel, tol: float = 1e-9) -> tuple[bool, float]:
    """Positivity of the partially transposed Choi matrix (verdict, witness)."""
    pt = partial_transpose(choi(channel), (channel.in_dim, channel.out_dim), 0)
    lam_min = float(np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)[0])
    return lam_min >= -tol, lam_min


def noiseless(dim: int) -> Channel:
    """Identity channel."""
    dim = require_count(dim, "dimension")
    return Channel([np.eye(dim, dtype=complex)], label=f"noiseless({dim})")


def dephasing(q: float) -> Channel:
    """Qubit phase flip with probability q; at q = 0 or 1 one operator remains."""
    q = require_real(q, "flip probability", 0.0, 1.0)
    ops = [math.sqrt(1.0 - q) * np.eye(2), math.sqrt(q) * np.diag([1.0, -1.0])]
    return Channel(ops, label=f"dephasing(q={q:g})")


def completely_depolarizing(dim: int) -> Channel:
    """Constant channel to the maximally mixed state."""
    dim = require_count(dim, "dimension")
    # operator i*dim + j is the unit matrix E_ij over sqrt(dim)
    units = np.eye(dim * dim).reshape(dim * dim, dim, dim)
    return Channel(units / math.sqrt(dim), label=f"depolarizing({dim})")


def random_stinespring(in_dim: int, out_dim: int, env_dim: int, seed) -> Channel:
    """Channel cut from a Haar-ish random isometry into output (x) environment."""
    out_dim, env_dim = (require_count(d, "dimension") for d in (out_dim, env_dim))
    # an isometry maps into output (x) environment only from a space no larger
    in_dim = require_count(in_dim, "input dimension", 1, out_dim * env_dim)
    rng = rng_for(seed)
    g = rng.normal(size=(out_dim * env_dim, in_dim)) + 1j * rng.normal(
        size=(out_dim * env_dim, in_dim)
    )
    v, _ = np.linalg.qr(g)
    return Channel(
        v.reshape(out_dim, env_dim, in_dim).transpose(1, 0, 2),
        label=f"random({in_dim}->{out_dim},env={env_dim})",
    )


def direct_sum_mixture(q: float, inner: Channel) -> Channel:
    """Block mixture q * noiseless (+) (1-q) * inner on orthogonal output blocks.

    The input space is the inner channel's input space; outputs occupy the
    first block (identity copy, weight q) and the second block (inner channel
    output, weight 1-q).  At q = 1 or q = 0 Channel drops the empty block's operators.
    """
    q = require_real(q, "mixture weight", 0.0, 1.0)
    n = inner.in_dim
    stack = np.zeros((1 + inner.env_dim, n + inner.out_dim, n), dtype=complex)
    stack[0, :n] = math.sqrt(q) * np.eye(n)
    stack[1:, n:] = math.sqrt(1.0 - q) * inner.kraus
    return Channel(stack, label=f"id(+){inner.label}(q={q:g})")


def measure_prepare(povm: Sequence[np.ndarray], outputs: Sequence[DensityMatrix]) -> Channel:
    """Entanglement-breaking map rho -> sum_i outputs[i] Tr(rho povm[i]).

    The POVM is a sequence of effects or one (outcomes, d, d) stack.  Kraus
    operators |s_j><m_k| pair the rows of each output's and effect's spectral
    factor, eigenvalues clipped at zero, each reduced by Channel's rule; Channel
    then reduces the whole stack to the Choi rank (8 to 4 on a qubit).
    """
    if len(povm) != len(outputs) or len(povm) == 0:
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
    blocks = []
    for m, sigma in zip(effects, outputs):
        mvals, mvecs = hermitian_eig(require_hermitian(m, 1e-9, "POVM element"))
        if float(mvals[-1]) < -1e-9:
            raise ValidityError(f"POVM element has eigenvalue {mvals[-1]:.3e}")
        svals, svecs = hermitian_eig(sigma.entries)
        # rows of F with F* F = m (or sigma), so the stack is not outcomes * d_out * d_in long
        mrows = _minimal_rows(np.sqrt(mvals.clip(0.0))[:, None] * mvecs.conj().T)
        srows = _minimal_rows(np.sqrt(svals.clip(0.0))[:, None] * svecs.conj().T)
        # operator (j, k), j slowest: |s_j><m_k| with s_j = srows[j]* and <m_k| = mrows[k]
        outer = srows.conj()[:, None, :, None] * mrows[None, :, None, :]
        blocks.append(outer.reshape(-1, d_out, d_in))
    return Channel(np.concatenate(blocks), label=f"measure-prepare({len(effects)} outcomes)")


def partial_trace_channel(shape: SubsystemShape, keep: Sequence[int]) -> Channel:
    """Partial trace over the factors not in `keep`, as an explicit channel.

    Kraus operator j is the Kronecker product of I_d for each kept factor and
    the basis row e_j^T for each traced factor, with j in row-major order.
    """
    dims = shape.factor_dims
    keep = require_keep(keep, len(dims))
    n, total = len(dims), prod(dims)
    traced = tuple(i for i in range(n) if i not in keep)
    # the identity's output indices, traced factors first, become (env, out)
    ident = np.eye(total).reshape(dims + dims).transpose(traced + keep + tuple(range(n, 2 * n)))
    stack = ident.reshape(prod(dims[i] for i in traced), -1, total)
    return Channel(stack, label=f"trace-out{list(traced)}of{list(dims)}")


# --- random-phase (Schur multiplier) channel -------------------------------

SQRT2 = math.sqrt(2.0)
TERM_FLOOR = 1e-14
WIDE_STD = 100.0


@dataclass(frozen=True)
class GaussianDensity:
    """Centered normal noise density with standard deviation `std`."""

    std: float

    def __post_init__(self):
        object.__setattr__(self, "std", require_real(self.std, "standard deviation", 0.0, strict=True))

    def pdf(self, t: float) -> float:
        # t / s, not s * s, which underflows to 0 for a tiny std
        z = t / self.std
        return math.exp(-z * z / 2.0) / (self.std * math.sqrt(2 * math.pi))

    def characteristic(self, u: np.ndarray) -> np.ndarray:
        # (s u)^2, not s^2 u^2: for a tiny std s^2 underflows to 0 and u^2 overflows;
        # where (s u)^2 overflows to inf, exp gives the 0 it would underflow to
        with np.errstate(over="ignore"):
            return np.exp(-((self.std * np.asarray(u, dtype=float)) ** 2) / 2.0)

    def profile(self, u: np.ndarray) -> np.ndarray:
        # inverse transform of sqrt(pdf); shifted copies reproduce the
        # characteristic-function overlaps exactly in the fine-grid limit
        with np.errstate(over="ignore"):    # as in characteristic
            return np.exp(-((self.std * np.asarray(u, dtype=float)) ** 2))

    def profile_reach(self) -> float:
        return 4.0 / self.std

    def tail_mass(self, d: float) -> float:
        return math.erfc(d / (self.std * SQRT2))

    def tail_log_mass(self, d: float) -> float:
        s = self.std
        y = d / s
        phi_y = math.exp(-y * y / 2.0) / math.sqrt(2 * math.pi)
        # the tail's second moment over 2 s^2, formed without s^2, which
        # underflows for a tiny std; y phi(y) is 0 wherever phi(y) underflows
        half_moment = (y * phi_y if phi_y else 0.0) + math.erfc(y / SQRT2) / 2.0
        alpha = self.tail_mass(d)
        return abs(-half_moment - math.log(s * math.sqrt(2 * math.pi)) * alpha)

    def lattice_tail(self, d: float) -> float:
        s = self.std
        if s > WIDE_STD:
            # Euler-Maclaurin: the erfc integral, then p(d) with its p' and p''' terms in y = d / s,
            # within 1e-16 once std > WIDE_STD; past y = 39 p(d) is 0, and the cap keeps y^3 finite
            y = min(d / s, 40.0)
            corrections = y / s * (1.0 / 6.0 + (3.0 - y * y) / (360.0 * s * s))
            return self.tail_mass(d) + self.pdf(d) * (1.0 + corrections)
        # term by term: at most about 8 std terms lie above TERM_FLOOR
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
        object.__setattr__(self, "half_width", require_real(self.half_width, "half width", 0.0, strict=True))

    def pdf(self, t: float) -> float:
        return 1.0 / (2.0 * self.half_width) if abs(t) < self.half_width else 0.0

    def characteristic(self, u: np.ndarray) -> np.ndarray:
        # w u / pi is clipped to 1e300, where sinc is below 1e-300, not left to overflow to inf
        with np.errstate(over="ignore"):
            return np.sinc(np.clip(self.half_width * np.asarray(u, dtype=float) / math.pi, -1e300, 1e300))

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
        if not all(np.isfinite(arr).all() for arr in (pts, vals, wts)):
            raise ParameterError("points, values and weights have non-finite entries")
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
        # the grid spans 2 half_width, which must be finite
        half_width = require_real(self.half_width, "half width", 0.0, np.finfo(float).max / 2.0, strict=True)
        object.__setattr__(self, "half_width", half_width)
        object.__setattr__(self, "grid_size", require_count(self.grid_size, "grid size"))

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
    1e-8; its eigenvalues are clipped at zero, and Channel keeps the Choi rank.
    """
    b = schur_matrix(spec)
    diag_dev = float(np.max(np.abs(np.diagonal(b) - 1.0)))
    vals, vecs = hermitian_eig(b)
    if diag_dev > 1e-8 or float(vals[-1]) < -1e-8:
        raise ResolutionError(
            "multiplier matrix is not a unit-diagonal PSD matrix within 1e-8; "
            "refine the density tabulation or shrink the grid spacing"
        )
    d = spec.grid_size
    stack = np.zeros((d, d, d), dtype=complex)
    # entry (i, i) of a d x d matrix is entry i * (d + 1) of its flattening
    stack.reshape(-1, d * d)[:, :: d + 1] = (vecs * np.sqrt(vals.clip(0.0))).T
    return Channel(stack, label=f"phase(a={spec.half_width:g},d={spec.grid_size})")


def _complement_profiles(
    spec: RandomPhaseSpec, t_points: int, t_half_width: float | None
) -> np.ndarray:
    t_points = require_count(t_points, "t-grid size")
    if t_half_width is None:
        t_half_width = spec.half_width + spec.density.profile_reach()
    t_half_width = require_real(t_half_width, "t-grid half width", 0.0, strict=True)
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
    # operator i is |p_i><i|; its rows are orthonormal, so Channel keeps them as they are
    stack = prof.T[:, :, None] * np.eye(d)[:, None, :]
    return Channel(stack, label=f"phase-complement(a={spec.half_width:g},d={d})")


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
    d = require_real(d, "cutoff", 0.0, strict=True)
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
    d = require_real(d, "cutoff", 1.0)
    entropy_cap = require_real(entropy_cap, "entropy cap", 0.0)
    out_entropy = require_real(out_entropy, "output entropy", 0.0)
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
