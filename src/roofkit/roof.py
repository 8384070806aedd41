"""Convex-roof estimation of output entropy over pure-state decompositions.

A decomposition of rho with r positive eigenvalues is parametrized by an
m x r matrix with orthonormal columns: row i mixes the scaled eigenvectors
of rho into the (unnormalized) member v_i, so every parameter point is a
valid ensemble with barycenter rho.  Multi-restart descent over that
manifold, Barzilai-Borwein steps with a nonmonotone line search and polar
retraction (Wen & Yin, Math. Program. 142 (2013)), yields certified *upper*
bounds on the roof; reported optima are never lower bounds.

The restarts descend in lockstep: all starts of a roof are one (R, m, r)
stack, so each backtracking round makes one batched retraction and one
batched kernel call over the restarts still searching.  The first round's
call also returns the gradients, which the next iteration takes for every
row that passed at its first trial step.  Each restart keeps its own step,
reference value and stop rule, so its trajectory does not depend on which
restarts share the stack, and neither does any result.  Pure members are
eigensolved on the smaller side of the Stinespring dilation, output or
environment, which gives the same value and gradient.

The kernel folds the support factor into the Kraus stack once per roof and
runs every contraction as a stacked matmul.  Members eigensolved on a 2 x 2
side, as in two-qubit EoF and every qubit-output roof, take the spectrum and
dF/dA in closed form, without LAPACK.  The polar retraction comes from an
eigensolve of the r x r Gram matrix, not an SVD of the m x r point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .channels import Channel, apply, output_entropy, partial_trace_channel
from .core import DensityMatrix, PureState, SubsystemShape, hermitian_eig, rng_for
from .entropy import relative_entropy
from .errors import DimensionError, ParameterError, ValidityError

SUPPORT_CUT = 1e-12
WEIGHT_DROP = 1e-14
LOG_FLOOR = 1e-12
ARMIJO = 1e-4
# Barzilai-Borwein step clamp and the Zhang-Hager nonmonotone weight eta
BB_MIN, BB_MAX = 1e-10, 1e10
NONMONOTONE = 0.85
TIE_TOL = 1e-12
SIZE_CAP = 64


@dataclass(frozen=True)
class RoofOptions:
    """Optimizer controls; ensemble_size defaults to rank(rho)^2 capped at 64."""

    restarts: int = 24
    max_iterations: int = 500
    grad_tol: float = 1e-7
    ensemble_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iterations < 1:
            raise ParameterError("restarts and max_iterations must be positive")
        # an infinite tolerance would report every unmoved start as converged
        if not 0.0 < self.grad_tol < math.inf:
            raise ParameterError("gradient tolerance must be positive and finite")
        if self.ensemble_size is not None and self.ensemble_size < 1:
            raise ParameterError("ensemble size must be positive")

    def refined(self) -> "RoofOptions":
        """Same schedule extended to twice as many restarts."""
        return replace(self, restarts=2 * self.restarts)


class Ensemble:
    """Finite ensemble of pure states with positive weights summing to one."""

    __slots__ = ("weights", "states")

    def __init__(self, weights, states):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.shape[0] == 0 or w.shape[0] != len(states):
            raise ParameterError("need one positive weight per state")
        if not float(w.min()) > 0.0:                # NaN fails this too
            raise ValidityError("ensemble weights must be strictly positive")
        if abs(float(w.sum()) - 1.0) > 1e-10:
            raise ValidityError(f"weights sum to {w.sum()!r}, not 1 within 1e-10")
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise DimensionError("ensemble members live on different spaces")
        w = w.copy()
        w.setflags(write=False)
        self.weights = w
        self.states = tuple(states)

    def __len__(self) -> int:
        return len(self.states)

    def barycenter(self) -> DensityMatrix:
        mix = np.zeros((self.states[0].dim,) * 2, dtype=complex)
        for w, s in zip(self.weights, self.states):
            mix += w * s.projector()
        return DensityMatrix(mix)


def _support_factor(rho: DensityMatrix) -> tuple[np.ndarray, int]:
    """Columns sqrt(lambda_j) e_j over the eigenvalues above 1e-12."""
    vals, vecs = hermitian_eig(rho.entries)
    r = int((vals > SUPPORT_CUT).sum())
    return vecs[:, :r] * np.sqrt(vals[:r]), r


def ensemble_from_mixing(rho: DensityMatrix, mixing) -> Ensemble:
    """Decomposition of rho induced by a tall matrix with orthonormal columns.

    Member i is the normalization of sum_j M_ij sqrt(lambda_j) e_j; members
    with weight at or below 1e-14 are dropped.  Column orthonormality is
    required within 1e-6.
    """
    m_arr = np.asarray(mixing, dtype=complex)
    if m_arr.ndim != 2:
        raise ParameterError(f"mixing matrix must be 2-d, got shape {m_arr.shape}")
    g, r = _support_factor(rho)
    if m_arr.shape[1] != r or m_arr.shape[0] < r:
        raise ParameterError(
            f"mixing matrix must be m x {r} with m >= {r}, got {m_arr.shape}"
        )
    dev = float(np.max(np.abs(m_arr.conj().T @ m_arr - np.eye(r))))
    if dev > 1e-6:
        raise ParameterError(f"columns not orthonormal: deviation {dev:.3e}")
    v = g @ m_arr.T
    w = np.linalg.norm(v, axis=0) ** 2
    keep = np.nonzero(w > WEIGHT_DROP)[0]
    weights = w[keep] / w[keep].sum()
    states = [PureState(v[:, i] / math.sqrt(w[i])) for i in keep]
    return Ensemble(weights, states)


def average_output_entropy(channel: Channel, ensemble: Ensemble) -> float:
    """Mean output entropy of the ensemble members."""
    return float(
        sum(
            w * output_entropy(channel, s.density())
            for w, s in zip(ensemble.weights, ensemble.states)
        )
    )


# --- optimizer internals ----------------------------------------------------


def _h(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return np.swapaxes(x.conj(), -1, -2)


def _spectral(a: np.ndarray, grad: bool = False):
    """Sum over each PSD stack a[b] of t log t - Tr A log A, with t = Tr A.

    This is the trace-weighted entropy of the normalized members, one value
    per batch index b, and with `grad` also dF/dA = U diag(gvals) U^H per
    matrix.  2 x 2 matrices take a closed form: lambda_max = t/2 + disc, with
    disc = sqrt(((a00 - a11)/2)^2 + |a10|^2), lambda_min = det / lambda_max,
    which stays accurate on near-pure outputs, and dF/dA = alpha I +
    beta (A - (t/2) I), with alpha the mean of the two gvals and beta their
    difference over 2 disc (0 where disc = 0).  Larger matrices take `eigh`
    for gradient calls and the cheaper `eigvalsh` for value-only ones.
    """
    qubit = a.shape[-1] == 2
    if qubit:
        a00, a11, a10 = a[..., 0, 0].real, a[..., 1, 1].real, a[..., 1, 0]
        half, off = (a00 - a11) / 2.0, a10.real ** 2 + a10.imag ** 2
        disc = np.sqrt(half * half + off)
        top = (a00 + a11) / 2.0 + disc
        lam = np.stack(((a00 * a11 - off) / np.where(top > 0.0, top, 1.0), top), axis=-1)
    elif grad:
        lam, u = np.linalg.eigh(a)                     # (B, m, n), (B, m, n, n)
    else:
        lam = np.linalg.eigvalsh(a)
    lam = np.clip(lam, 0.0, None)
    t = lam.sum(axis=-1)
    ent = -(lam * np.log(np.where(lam > 0.0, lam, 1.0))).sum(axis=-1)
    value = ent.sum(axis=-1) + (t * np.log(np.where(t > 0.0, t, 1.0))).sum(axis=-1)
    if not grad:
        return value
    # dF/dA in the eigenbasis is -log(lambda) + log(trace); the floor
    # keeps the off-support limit finite without changing the descent sign
    gvals = -np.log(np.maximum(lam, LOG_FLOOR)) + np.log(np.maximum(t, LOG_FLOOR))[..., None]
    if not qubit:
        return value, (u * gvals[..., None, :]) @ _h(u)
    alpha = (gvals[..., 0] + gvals[..., 1]) / 2.0
    beta = np.divide(gvals[..., 1] - gvals[..., 0], 2.0 * disc,
                     out=np.zeros_like(disc), where=disc > 0.0)
    d = np.empty_like(a)
    d[..., 0, 0] = alpha + beta * half
    d[..., 1, 1] = alpha - beta * half
    d[..., 1, 0] = beta * a10
    d[..., 0, 1] = d[..., 1, 0].conj()
    return value, d


def _objective(kstack: np.ndarray, g: np.ndarray | None = None):
    """The spectral kernel on channel outputs, as one function f(M, grad=False).

    Row i of a manifold point M mixes the support columns g into the
    unnormalized member g @ M[i]; on the unit sphere St(d, 1) the point's
    single column is a one-member mixing matrix with g = I.  The support
    factor is folded into the Kraus stack once per roof, lift = kstack @ g,
    so every contraction is a stacked BLAS matmul: member amplitudes
    W = M @ lift^T, outputs A = W W^H, dF/dA from `_spectral`, and the
    gradient (dF/dA W) @ conj(lift).  f takes one point or a stack of points,
    with any leading shape, and returns one value per point, and with `grad`
    also the gradient of each.

    A pure member's output and its complementary output (swap the output and
    Kraus axes of the (env, out, in) stack) share their nonzero spectrum, so
    members run on whichever side of the dilation is smaller, with the same
    value and gradient.
    """
    if kstack.shape[0] >= kstack.shape[1]:             # (side, other, in), side the smaller
        kstack = np.ascontiguousarray(kstack.transpose(1, 0, 2))
    side, other = kstack.shape[:2]
    lift = (kstack if g is None else kstack @ g).reshape(side * other, -1)
    lift_t, lift_c = lift.T, lift.conj()

    def kernel(m_mat, grad=False):
        rows = (1, m_mat.shape[-2]) if g is None else m_mat.shape[-2:]
        w = m_mat.reshape(-1, *rows) @ lift_t          # (B, m, side * other)
        w = w.reshape(*w.shape[:2], side, other)
        if not grad:
            return _spectral(w @ _h(w)).reshape(m_mat.shape[:-2])[()]
        value, d = _spectral(w @ _h(w), grad=True)
        grad = (d @ w).reshape(*w.shape[:2], -1) @ lift_c
        return value.reshape(m_mat.shape[:-2])[()], grad.reshape(m_mat.shape)

    return kernel


def _polar(x: np.ndarray) -> np.ndarray:
    """Polar factor x (x^H x)^(-1/2), from one `eigh` of the r x r Gram matrix.

    A candidate X - t xi (xi tangent at X) has Gram I + t^2 xi^H xi, with all
    eigenvalues >= 1, so this is the SVD polar factor up to rounding.  Square
    Gaussian starts (ensemble_size == rank) are ill-conditioned: their columns
    stay orthonormal within 1e-9 (7.6e-11 at worst over 200 36 x 36 draws).
    """
    lam, v = np.linalg.eigh(_h(x) @ x)
    return x @ ((v / np.sqrt(lam)[..., None, :]) @ _h(v))


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a, b> = Re sum conj(a) b of each point along the leading axis."""
    n = len(a)
    a, b = (np.ascontiguousarray(z).reshape(n, -1).view(float) for z in (a, b))
    return (a[:, None, :] @ b[:, :, None]).reshape(n)


def _tangent(m_mat: np.ndarray, grad: np.ndarray) -> np.ndarray:
    sym = _h(m_mat) @ grad
    return grad - m_mat @ (sym + _h(sym)) / 2.0


@dataclass
class _RunStats:
    """One restart's end point, or every restart's along a leading axis."""

    m_mat: np.ndarray
    value: float
    grad_norm: float
    iterations: int
    converged: bool


def _lockstep(f, m_mat: np.ndarray, options: RoofOptions) -> _RunStats:
    """Feasible Barzilai-Borwein descent with polar retraction.

    The method of Wen & Yin, Math. Program. 142 (2013), run on a stack of
    starts together.  Every restart keeps its own state: from s = X_k -
    X_{k-1} and y = xi_k - xi_{k-1} (xi the projected gradient) it takes the
    BB1 step <s,s>/|<s,y>| on odd iterations and the BB2 step |<s,y>|/<y,y>
    on even ones (1 on the first, or when <s,y> = 0), clamped to
    [BB_MIN, BB_MAX], and halves it until the nonmonotone Armijo test of
    Zhang & Hager, SIAM J. Optim. 14 (2004), holds against its reference
    value C.  The slope along -xi is 2 ||xi||^2, since dF = 2 Re<G, dX>.  C
    starts at the start's value and C_k >= f_k, so no restart ends above its
    start.  A restart leaves when its gradient norm drops below `grad_tol`,
    when its step falls to 1e-14 without passing the test, or at the
    iteration cap.  Norms and inner products are row-wise reductions over
    each point, so no restart's arithmetic depends on the others.

    The first trial step is nearly always accepted, so the first round of
    each line search evaluates the kernel f with gradients and keeps the
    value and gradient of every row it accepts.  Later rounds are
    value-only, and only the rows accepted after a backtrack take a fresh
    gradient call, so most accepted points are eigensolved once.
    """
    value, grad = f(m_mat, grad=True)
    ref, weight = value.copy(), np.ones(len(m_mat))    # Zhang-Hager C_k and Q_k
    end, grad_norm = m_mat.copy(), np.full(len(m_mat), math.inf)
    iterations = np.zeros(len(m_mat), dtype=int)
    # live indexes the restarts still descending; x, grad, xi, last_x and
    # last_xi hold only their rows and shrink when a restart leaves
    live, x = np.arange(len(m_mat)), m_mat
    for it in range(1, options.max_iterations + 1):
        iterations[live] = it
        xi = _tangent(x, grad)
        squares = _inner(xi, xi)
        slope = 2.0 * squares
        t = np.ones(len(live))
        if it > 1:
            s, y = x - last_x, xi - last_xi
            sy = np.abs(_inner(s, y))
            num, den = (_inner(s, s), sy) if it % 2 else (sy, _inner(y, y))
            t = np.clip(np.divide(num, den, out=t, where=sy > 0.0), BB_MIN, BB_MAX)
        grad_norm[live] = np.sqrt(squares)
        t[grad_norm[live] < options.grad_tol] = 0.0    # converged: no search
        accepted, following = np.zeros(len(live), dtype=bool), np.empty_like(x)
        # fused marks the rows accepted in the first round, whose value and
        # next gradient that round already computed
        search, fused, next_grad = np.arange(len(live)), None, np.empty_like(x)
        while (search := search[t[search] > 1e-14]).size:
            cand = _polar(x[search] - t[search, None, None] * xi[search])
            if fused is None:
                cand_value, cand_grad = f(cand, grad=True)
            else:
                cand_value = f(cand)
            ok = cand_value <= ref[live[search]] - ARMIJO * t[search] * slope[search]
            following[search[ok]] = cand[ok]
            accepted[search[ok]] = True
            if fused is None:
                fused = accepted.copy()
                value[live[search[ok]]], next_grad[search[ok]] = cand_value[ok], cand_grad[ok]
            search = search[~ok]
            t[search] /= 2.0
        if not accepted.all():
            if not accepted.any():
                break
            live, x, xi, following, fused, next_grad = (
                a[accepted] for a in (live, x, xi, following, fused, next_grad)
            )
        last_x, last_xi, x, grad = x, xi, following, next_grad
        end[live] = x
        if not fused.all():
            late = np.flatnonzero(~fused)
            value[live[late]], grad[late] = f(x[late], grad=True)
        q = NONMONOTONE * weight[live]
        ref[live] = (q * ref[live] + value[live]) / (q + 1.0)
        weight[live] = q + 1.0
    return _RunStats(end, value, grad_norm, iterations, grad_norm < options.grad_tol)


def _resolve_size(options: RoofOptions, rank: int) -> int:
    size = options.ensemble_size
    if size is None:
        size = min(rank * rank, SIZE_CAP)
    if size < rank:
        raise ParameterError(f"ensemble size {size} is below the state rank {rank}")
    return size


def _random_start(rng: np.random.Generator, size: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(size, rank)) + 1j * rng.normal(size=(size, rank))
    return _polar(g)


def _multistart(f, size: int, rank: int, options: RoofOptions) -> tuple[_RunStats, int]:
    """Best of `options.restarts` descents from the seeded starts.

    Restart idx starts from the stream rng_for(seed, idx), and all restarts
    run as one `_lockstep` stack, each stopping on its own rule.  Scanning
    in index order, a restart replaces the best only when its value is lower
    by more than TIE_TOL.
    """
    starts = np.stack(
        [_random_start(rng_for(options.seed, i), size, rank) for i in range(options.restarts)]
    )
    runs = _lockstep(f, starts, options)
    best = 0
    for i in range(1, options.restarts):
        if runs.value[i] < runs.value[best] - TIE_TOL:
            best = i
    return _RunStats(
        runs.m_mat[best],
        float(runs.value[best]),
        float(runs.grad_norm[best]),
        int(runs.iterations[best]),
        bool(runs.converged[best]),
    ), best


@dataclass
class RoofResult:
    """Upper-bound estimate of a convex roof with its achieving decomposition."""

    value: float
    ensemble: Ensemble
    restarts_used: int
    best_restart: int
    gradient_norm: float
    iterations: int
    converged: bool


def ccooe(channel: Channel, rho: DensityMatrix, options: RoofOptions | None = None) -> RoofResult:
    """Upper bound on the convex closure of the output entropy at rho.

    Minimizes the mean output entropy over pure decompositions of rho; the
    reported value is recomputed from the returned ensemble, so it always
    bounds the roof from above and never exceeds S(channel(rho)).
    """
    options = options or RoofOptions()
    if rho.dim != channel.in_dim:
        raise DimensionError(f"state dimension {rho.dim} != channel input {channel.in_dim}")
    g, rank = _support_factor(rho)
    size = _resolve_size(options, rank)
    best, best_idx = _multistart(_objective(channel.kraus_stack(), g), size, rank, options)
    ensemble = ensemble_from_mixing(rho, best.m_mat)
    value = average_output_entropy(channel, ensemble)
    return RoofResult(
        value=value,
        ensemble=ensemble,
        restarts_used=options.restarts,
        best_restart=best_idx,
        gradient_norm=best.grad_norm,
        iterations=best.iterations,
        converged=best.converged,
    )


def eof(omega: DensityMatrix, shape: SubsystemShape, options: RoofOptions | None = None) -> RoofResult:
    """Entanglement of formation across a bipartite cut, in nats.

    Equals the output-entropy roof of the channel tracing out the second
    factor; swapping the kept factor changes nothing because pure members
    have isospectral marginals.
    """
    if shape.factors != 2:
        raise ParameterError(f"need exactly two factors, got {shape.factor_dims}")
    shape.require_total(omega.dim)
    return ccooe(partial_trace_channel(shape, (0,)), omega, options)


def chi_from_roof(channel: Channel, rho: DensityMatrix, options: RoofOptions | None = None) -> float:
    """Constrained Holevo quantity at rho via S(channel(rho)) minus the roof."""
    return output_entropy(channel, rho) - ccooe(channel, rho, options).value


def chi_direct(channel: Channel, rho: DensityMatrix, options: RoofOptions | None = None) -> float:
    """Lower bound on the constrained Holevo quantity from its definition.

    The mean relative entropy of member outputs to channel(rho) over the
    roof's witness ensemble at rho.  Pure members lose nothing: S o channel
    is concave, so splitting a mixed member into pure parts never lowers the
    sum.  Members whose relative entropy is infinite (possible only when
    channel(rho) is rank deficient) are discarded with a warning.
    """
    ensemble = ccooe(channel, rho, options).ensemble
    reference = apply(channel, rho)
    total, dropped = 0.0, 0
    for w, s in zip(ensemble.weights, ensemble.states):
        term = relative_entropy(apply(channel, s.density()), reference)
        if math.isinf(term):
            dropped += 1
            continue
        total += w * term
    if dropped:
        warnings.warn(
            f"discarded {dropped} ensemble member(s) with infinite relative entropy",
            RuntimeWarning,
            stacklevel=2,
        )
    return float(total)


def min_output_entropy(
    channel: Channel, options: RoofOptions | None = None
) -> tuple[float, PureState]:
    """Upper bound on the minimal output entropy over pure inputs.

    Runs the roof optimizer on the unit sphere, the Stiefel manifold
    St(d, 1), with one member and no barycenter constraint; returns the
    value and the achieving input.
    """
    options = options or RoofOptions()
    best, _ = _multistart(_objective(channel.kraus_stack()), channel.in_dim, 1, options)
    psi = best.m_mat[:, 0]
    state = PureState(psi / np.linalg.norm(psi))
    return output_entropy(channel, state.density()), state
