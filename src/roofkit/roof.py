"""Convex-roof estimation of output entropy over pure-state decompositions.

A decomposition of rho with r positive eigenvalues is parametrized by an
m x r matrix with orthonormal columns: row i mixes the scaled eigenvectors
of rho into the (unnormalized) member v_i, so every parameter point is a
valid ensemble with barycenter rho.  Multi-restart projected gradient
descent over that manifold yields certified *upper* bounds on the roof;
reported optima are never lower bounds.

The restarts descend in lockstep: a batch of starts is one (R, m, r) stack,
so each iteration makes one batched gradient call and, per backtracking
round, one batched retraction and value call over the restarts still
searching.  Each restart keeps its own step and stop rule, and a batch holds
at most BATCH_ENTRIES member-output entries.  A restart's trajectory does
not depend on the batch it runs in, so neither does any result.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .channels import Channel, output_entropy
from .core import DensityMatrix, PureState, SubsystemShape, hermitian_eig, rng_for
from .entropy import relative_entropy
from .errors import DimensionError, ParameterError, ValidityError

SUPPORT_CUT = 1e-12
WEIGHT_DROP = 1e-14
LOG_FLOOR = 1e-12
ARMIJO = 1e-4
TIE_TOL = 1e-12
SIZE_CAP = 64
# member-output entries (restarts x members x out^2) one lockstep batch holds
BATCH_ENTRIES = 4096


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
        if not self.grad_tol > 0.0:
            raise ParameterError("gradient tolerance must be positive")
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
        if float(w.min()) <= 0.0:
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


def _member_outputs(kstack: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-member channel outputs of the unnormalized columns of a (B, d, m) stack."""
    w = kstack @ v[:, None]                            # (B, env, out, m)
    return np.einsum("bkom,bkpm->bmop", w, w.conj()), w


def _spectral(a: np.ndarray, grad: bool = False):
    """Sum over each PSD stack a[b] of t log t - Tr A log A, with t = Tr A.

    This is the trace-weighted entropy of the normalized members, one value
    per batch index b.  With `grad` it also returns dF/dA per matrix from
    one `eigh`; value-only calls, which the line search makes, take the
    cheaper `eigvalsh`.
    """
    if grad:
        lam, u = np.linalg.eigh(a)                     # (B, m, out), (B, m, out, out)
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
    return value, np.einsum("bmop,bmp,bmqp->bmoq", u, gvals, u.conj())


def _objective(kstack: np.ndarray, g: np.ndarray | None = None, group_size: int = 1):
    """Value and gradient functions of the spectral kernel on channel outputs.

    A manifold point M lifts to the unnormalized members, the columns of
    g @ M.T (of M itself when g is None, the unit sphere St(d, 1)).
    Consecutive members are summed in blocks of `group_size` before the
    kernel, and dF/dA is pulled back through the Kraus stack and the lift.
    Both functions take one point or a stack of points, with any leading
    shape, and return one value per point.
    """

    def outputs(m_mat):
        m_mat = m_mat.reshape(-1, *m_mat.shape[-2:])
        a, w = _member_outputs(kstack, m_mat if g is None else g @ np.swapaxes(m_mat, -1, -2))
        if group_size > 1:
            a = np.add.reduceat(a, np.arange(0, a.shape[1], group_size), axis=1)
        return a, w

    def value_fn(m_mat):
        return _spectral(outputs(m_mat)[0]).reshape(m_mat.shape[:-2])[()]

    def grad_fn(m_mat):
        a, w = outputs(m_mat)
        value, d = _spectral(a, grad=True)
        if group_size > 1:
            d = np.repeat(d, group_size, axis=1)[:, : w.shape[-1]]
        dw = np.einsum("bmoq,bkqm->bkom", d, w)
        grad_v = np.einsum("koa,bkom->bam", kstack.conj(), dw)
        grad = grad_v if g is None else np.swapaxes(grad_v, -1, -2) @ g.conj()
        return value.reshape(m_mat.shape[:-2])[()], grad.reshape(m_mat.shape)

    return value_fn, grad_fn


def _polar(x: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(x, full_matrices=False)
    return u @ vh


def _tangent(m_mat: np.ndarray, grad: np.ndarray) -> np.ndarray:
    sym = np.swapaxes(m_mat.conj(), -1, -2) @ grad
    return grad - m_mat @ (sym + np.swapaxes(sym.conj(), -1, -2)) / 2.0


@dataclass
class _RunStats:
    """One restart's end point, or every restart's along a leading axis."""

    m_mat: np.ndarray
    value: float
    grad_norm: float
    iterations: int
    converged: bool


def _lockstep(value_fn, grad_fn, m_mat: np.ndarray, options: RoofOptions) -> _RunStats:
    """Projected gradient descent with backtracking and polar retraction.

    Runs a stack of starts together.  Every restart keeps its own step, its
    own Armijo test and its own stop: it leaves when its gradient norm drops
    below `grad_tol`, when its line search fails, or at the iteration cap.
    """
    m_mat = m_mat.copy()
    value, grad = grad_fn(m_mat)
    step = np.ones(len(m_mat))
    grad_norm = np.full(len(m_mat), math.inf)
    iterations = np.zeros(len(m_mat), dtype=int)
    live = np.arange(len(m_mat))
    for it in range(1, options.max_iterations + 1):
        iterations[live] = it
        xi = _tangent(m_mat[live], grad[live])
        # one norm per restart: a vectorized norm rounds differently
        norms = [float(np.linalg.norm(x)) for x in xi]
        grad_norm[live] = norms
        descending = ~(grad_norm[live] < options.grad_tol)
        live, xi = live[descending], xi[descending]
        if not live.size:
            break
        squares = np.array([n**2 for n in norms])[descending]
        t = np.minimum(2.0 * step[live], 1.0)
        accepted = np.zeros(len(live), dtype=bool)
        search = np.arange(len(live))
        while (search := search[t[search] > 1e-14]).size:
            rows = live[search]
            cand = _polar(m_mat[rows] - t[search, None, None] * xi[search])
            ok = value_fn(cand) <= value[rows] - ARMIJO * t[search] * squares[search]
            m_mat[rows[ok]] = cand[ok]
            accepted[search[ok]] = True
            search = search[~ok]
            t[search] /= 2.0
        live = live[accepted]
        if not live.size:
            break
        step[live] = t[accepted]
        value[live], grad[live] = grad_fn(m_mat[live])
    return _RunStats(m_mat, value, grad_norm, iterations, grad_norm < options.grad_tol)


def _resolve_size(options: RoofOptions, rank: int) -> int:
    size = options.ensemble_size
    if size is None:
        size = min(rank * rank, SIZE_CAP)
    size = max(size, 1)
    if size < rank:
        raise ParameterError(f"ensemble size {size} is below the state rank {rank}")
    return size


def _random_start(rng: np.random.Generator, size: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(size, rank)) + 1j * rng.normal(size=(size, rank))
    return _polar(g)


def _multistart(
    value_fn, grad_fn, size: int, rank: int, options: RoofOptions, entries: int
) -> tuple[_RunStats, int]:
    """Best of `options.restarts` descents from the seeded starts.

    Restart idx starts from the stream rng_for(seed, idx).  The restarts run
    through `_lockstep` in batches of consecutive indices, as many per batch
    as fit BATCH_ENTRIES member-output entries at `entries` per restart
    (never fewer than one); each restart stops on its own rule inside its
    batch.  Scanning in index order, a restart replaces the best only when
    its value is lower by more than TIE_TOL.  A restart's trajectory is the
    same whichever batch it runs in, so the result does not depend on the
    budget.
    """
    per_batch = max(1, BATCH_ENTRIES // entries)
    best = None                                        # (batch runs, row, restart index)
    for lo in range(0, options.restarts, per_batch):
        idx = range(lo, min(lo + per_batch, options.restarts))
        starts = np.stack([_random_start(rng_for(options.seed, i), size, rank) for i in idx])
        runs = _lockstep(value_fn, grad_fn, starts, options)
        for j, i in enumerate(idx):
            if best is None or runs.value[j] < best[0].value[best[1]] - TIE_TOL:
                best = runs, j, i
    runs, j, best_idx = best
    return _RunStats(
        runs.m_mat[j],
        float(runs.value[j]),
        float(runs.grad_norm[j]),
        int(runs.iterations[j]),
        bool(runs.converged[j]),
    ), best_idx


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
    value_fn, grad_fn = _objective(channel.kraus_stack(), g)
    best, best_idx = _multistart(
        value_fn, grad_fn, size, rank, options, size * channel.out_dim**2
    )
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
    from .channels import partial_trace_channel

    return ccooe(partial_trace_channel(shape, (0,)), omega, options)


def chi_from_roof(channel: Channel, rho: DensityMatrix, options: RoofOptions | None = None) -> float:
    """Constrained Holevo quantity at rho via S(channel(rho)) minus the roof."""
    return output_entropy(channel, rho) - ccooe(channel, rho, options).value


def chi_direct(
    channel: Channel,
    rho: DensityMatrix,
    options: RoofOptions | None = None,
    group_size: int = 1,
) -> float:
    """Lower bound on the constrained Holevo quantity from its definition.

    Maximizes the mean relative entropy of member outputs to channel(rho)
    over ensembles with barycenter rho.  Consecutive parametrized members are
    merged into mixed members in blocks of `group_size`; the default keeps
    all members pure.  Members whose relative entropy is infinite (possible
    only when channel(rho) is rank deficient) are discarded with a warning.
    """
    options = options or RoofOptions()
    if group_size < 1:
        raise ParameterError(f"group size must be positive, got {group_size}")
    if rho.dim != channel.in_dim:
        raise DimensionError(f"state dimension {rho.dim} != channel input {channel.in_dim}")
    g, rank = _support_factor(rho)
    size = _resolve_size(options, rank)
    # sum_b Tr A_b log channel(rho) = Tr channel(rho) log channel(rho) is
    # constant on the manifold, so the Holevo sum is S(channel(rho)) minus
    # the spectral kernel on the grouped outputs
    value_fn, grad_fn = _objective(channel.kraus_stack(), g, group_size)
    best, _ = _multistart(value_fn, grad_fn, size, rank, options, size * channel.out_dim**2)
    return _holevo_report(channel, rho, g, best.m_mat, group_size)


def _holevo_report(channel, rho, g, m_mat, group_size) -> float:
    """Final value through the public relative-entropy path."""
    v = g @ m_mat.T
    reference = DensityMatrix(channel.apply_raw(rho.entries))
    total, dropped = 0.0, 0
    for b in range(0, v.shape[1], group_size):
        block = v[:, b : b + group_size]
        t_b = block @ block.conj().T
        weight = float(t_b.trace().real)
        if weight <= WEIGHT_DROP:
            continue
        term = relative_entropy(
            DensityMatrix(channel.apply_raw(t_b / weight)), reference
        )
        if math.isinf(term):
            dropped += 1
            continue
        total += weight * term
    if dropped:
        warnings.warn(
            f"discarded {dropped} ensemble member(s) with infinite relative entropy",
            RuntimeWarning,
            stacklevel=3,
        )
    return total


def min_output_entropy(
    channel: Channel, options: RoofOptions | None = None
) -> tuple[float, PureState]:
    """Upper bound on the minimal output entropy over pure inputs.

    Runs the roof optimizer on the unit sphere, the Stiefel manifold
    St(d, 1), with one member and no barycenter constraint; returns the
    value and the achieving input.
    """
    options = options or RoofOptions()
    value_fn, grad_fn = _objective(channel.kraus_stack())
    best, _ = _multistart(value_fn, grad_fn, channel.in_dim, 1, options, channel.out_dim**2)
    psi = best.m_mat[:, 0]
    state = PureState(psi / np.linalg.norm(psi))
    return output_entropy(channel, state.density()), state
