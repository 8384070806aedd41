"""Convex-roof estimation of output entropy over pure-state decompositions.

A decomposition of rho with r positive eigenvalues is parametrized by an
m x r matrix with orthonormal columns: row i mixes the scaled eigenvectors
of rho into the (unnormalized) member v_i, so every parameter point is a
valid ensemble with barycenter rho.  Multi-restart descent over that
manifold, Barzilai-Borwein steps with a nonmonotone line search and QR
retraction (Wen & Yin, Math. Program. 142 (2013)), yields certified *upper*
bounds on the roof; reported optima are never lower bounds.

The descent runs on N = M D^(1/2), with D = diag(lambda_j / lambda_max) the
support spectrum, so N^H N = D (Riemannian preconditioning, Mishra &
Sepulchre, SIAM J. Optim. 26 (2016)).  Column j of M moves the members only
by sqrt(lambda_j), so the curvature along it scales with lambda_j, and one
scalar Barzilai-Borwein step cannot serve columns whose eigenvalues differ by
orders of magnitude; in N every column moves the members by sqrt(lambda_max).
Gradient norms, steps and inner products are read in N, so a roof's
`gradient_norm` is the norm of the projected gradient in N, never below the
Euclidean Stiefel norm at the same point since D <= I.  A sphere descent has
D = [1] and runs M itself.

The restarts descend in lockstep: all starts of a roof are one (R, m, r)
stack, their Q factors from one stacked QR, drawn once per process for each
(seed, restarts, size, rank) and kept read-only in a bounded memo, since no
start depends on the problem.  Each backtracking round makes one batched
retraction and one batched kernel call.  The first round of an
iteration runs over every live restart, so a restart that has just converged
has its end point evaluated once more; later rounds run over the restarts
still searching.  The kernel call also returns the gradients, which the next
iteration takes for every row the round accepted.  A restart leaves the
stack once, its record taken at its end point, by one gradient check past
the iteration cap at the latest.  Each restart keeps its own step, reference
value and stop rule, so its trajectory does not depend on which restarts
share the stack, and neither does any result.  The witness's member outputs
are eigensolved as one stack.  Pure members are eigensolved on the smaller
side of the Stinespring dilation, output or environment, which gives the
same value and gradient.

The kernel folds the support factor into the Kraus stack once per roof, so
the member amplitudes and the gradient are each one matrix product over all
members of all restarts; one-row points keep a vector product each, whose
bits do not depend on the stack's height.  Members on a 2 x 2 side, as in
two-qubit EoF and every qubit-output roof, never form their outputs: the
three entries, the spectrum and dF/dA come in closed form from the two
amplitude rows, without LAPACK or small matmuls.  Larger sides take
one `eigh` per output.  The QR retraction of a trial comes from one Cholesky
factor of its r x r Gram matrix (Sato & Aihara, Comput. Optim. Appl. 72
(2019)), not a QR or SVD of the m x r point.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .channels import Channel, apply, output_entropy, partial_trace_channel
from .core import (
    DensityMatrix,
    PureState,
    SubsystemShape,
    hermitian_eig,
    require_count,
    require_finite,
    require_real,
    rng_for,
)
from .entropy import relative_entropy_eig, spectrum_entropy
from .errors import DimensionError, ParameterError, ValidityError

SUPPORT_CUT = 1e-12
WEIGHT_DROP = 1e-14
LOG_FLOOR = 1e-12
ARMIJO = 1e-4
# the least Barzilai-Borwein step, the longest trial step in M, t ||xi D^(-1/2)||_F, and the
# Zhang-Hager nonmonotone weight eta; at 0.99 the reference forgets after about
# 100 iterations, not 7, and eta < 1 keeps Zhang-Hager's convergence
BB_MIN = 1e-10
STEP_MAX = 1e4
NONMONOTONE = 0.99
TIE_TOL = 1e-12
AGREE_TOL = 1e-6
SIZE_CAP = 64


@dataclass(frozen=True)
class RoofOptions:
    """Optimizer controls; ensemble_size defaults to rank(rho)^2 capped at 64, never below the rank."""

    restarts: int = 24
    max_iterations: int = 500
    grad_tol: float = 1e-7
    ensemble_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        counts = (("restarts", 1), ("max_iterations", 1), ("ensemble_size", 1), ("seed", 0))
        for name, least in counts:
            value = getattr(self, name)
            if value is None and name == "ensemble_size":     # resolved per roof from the rank
                continue
            object.__setattr__(self, name, require_count(value, name, least))
        # an infinite tolerance would report every unmoved start as converged
        object.__setattr__(self, "grad_tol", require_real(self.grad_tol, "grad_tol", 0.0, strict=True))

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
        amps = np.array([s.amplitudes for s in self.states])
        return DensityMatrix((amps.T * self.weights) @ amps.conj())


def _support_factor(rho: DensityMatrix) -> tuple[np.ndarray, int, np.ndarray]:
    """Columns sqrt(lambda_j) e_j over the r eigenvalues above 1e-12, r, and lambda_j / lambda_max."""
    vals, vecs = hermitian_eig(rho.entries)
    r = int((vals > SUPPORT_CUT).sum())
    return vecs[:, :r] * np.sqrt(vals[:r]), r, vals[:r] / vals[0]


def ensemble_from_mixing(rho: DensityMatrix, mixing) -> Ensemble:
    """Decomposition of rho induced by a tall matrix with orthonormal columns.

    Member i is the normalization of sum_j M_ij sqrt(lambda_j) e_j; members
    with weight at or below 1e-14 are dropped.  The entries must be finite
    and the columns orthonormal within 1e-6.
    """
    return _ensemble(_support_factor(rho)[0], mixing)


def _ensemble(g: np.ndarray, mixing) -> Ensemble:
    """`ensemble_from_mixing` from rho's support factor g, as `_support_factor` returns it."""
    m_arr = require_finite(mixing, "mixing matrix")
    if m_arr.ndim != 2:
        raise ParameterError(f"mixing matrix must be 2-d, got shape {m_arr.shape}")
    r = g.shape[1]
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
    """Mean output entropy of the ensemble members.

    Each member's output is formed as `output_entropy` forms it from the
    member's density matrix, one member at a time, and all outputs are
    eigensolved as one stack; the w S terms are summed in member order.
    """
    if ensemble.states[0].dim != channel.in_dim:
        raise DimensionError(
            f"state dimension {ensemble.states[0].dim} != channel input {channel.in_dim}"
        )
    outs = np.empty((len(ensemble), channel.out_dim, channel.out_dim), dtype=complex)
    for out, s in zip(outs, ensemble.states):
        p = s.projector()
        out[...] = channel.apply_raw((p + p.conj().T) / 2.0)   # as DensityMatrix symmetrizes
    spectra = np.linalg.eigvalsh((outs + _h(outs)) / 2.0)
    return float(sum(w * spectrum_entropy(v) for w, v in zip(ensemble.weights, spectra)))


# --- optimizer internals ----------------------------------------------------


def _h(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return np.swapaxes(x.conj(), -1, -2)


def _spectral(a: np.ndarray):
    """Sum over each PSD stack a[b] of t log t - Tr A log A, with t = Tr A.

    This is the trace-weighted entropy of the normalized members, one value
    per batch index b, and dF/dA = U diag(gvals) U^H per matrix, both from
    one `eigh`.
    """
    lam, u = np.linalg.eigh(a)                         # (B, m, n), (B, m, n, n)
    lam = np.clip(lam, 0.0, None)
    t = lam.sum(axis=-1)
    ent = -(lam * np.log(np.where(lam > 0.0, lam, 1.0))).sum(axis=-1)
    value = ent.sum(axis=-1) + (t * np.log(np.where(t > 0.0, t, 1.0))).sum(axis=-1)
    # dF/dA in the eigenbasis is -log(lambda) + log(trace); the floor
    # keeps the off-support limit finite without changing the descent sign
    gvals = -np.log(np.maximum(lam, LOG_FLOOR)) + np.log(np.maximum(t, LOG_FLOOR))[..., None]
    return value, (u * gvals[..., None, :]) @ _h(u)


def _qubit_spectral(a00: np.ndarray, a11: np.ndarray, a10: np.ndarray):
    """`_spectral` of 2 x 2 outputs, in closed form from their three entries.

    lambda_max = t/2 + disc, with disc = sqrt(((a00 - a11)/2)^2 + |a10|^2),
    and lambda_min = det / lambda_max, which stays accurate on near-pure
    outputs.  dF/dA = alpha I + beta (A - (t/2) I), with alpha the mean of
    the two gvals and beta their difference over 2 disc (0 where disc = 0);
    it is returned as its entries (d00, d11, d10).
    """
    half, off = (a00 - a11) / 2.0, a10.real ** 2 + a10.imag ** 2
    disc = np.sqrt(half * half + off)
    lam = np.empty((3, *disc.shape))                   # lambda_min, lambda_max, t
    lam[1] = (a00 + a11) / 2.0 + disc
    lam[0] = np.maximum((a00 * a11 - off) / np.where(lam[1] > 0.0, lam[1], 1.0), 0.0)
    lam[2] = lam[0] + lam[1]
    logs = np.log(np.where(lam > 0.0, lam, LOG_FLOOR))
    terms = lam * logs
    value = (terms[2] - terms[0] - terms[1]).sum(axis=-1)
    logs = np.maximum(logs, math.log(LOG_FLOOR))
    alpha = logs[2] - (logs[0] + logs[1]) / 2.0
    # the floored logs are finite, so beta = 0 where disc = 0
    beta = (logs[0] - logs[1]) / np.where(disc > 0.0, 2.0 * disc, np.inf)
    return value, (alpha + beta * half, alpha - beta * half, beta * a10)


def _objective(kstack: np.ndarray, g: np.ndarray | None = None):
    """The spectral kernel on channel outputs, as one function f(M) -> (F, G).

    Row i of a manifold point M mixes the support columns g into the
    unnormalized member g @ M[i]; on the unit sphere St(d, 1) the point's
    single column is a one-member mixing matrix with g = I.  The support
    factor is folded into the Kraus stack once per roof, lift = kstack @ g,
    so the member amplitudes W = M @ lift^T and the gradient
    (dF/dA W) @ conj(lift) are each one (B m, r) @ (r, side * other) BLAS
    product over the m rows of all B points.  A point with one row, on the
    sphere or in a rank-1 roof, keeps its own vector product: flattened, BLAS
    would run a vector or a matrix kernel by B, and the last bits would
    depend on the stack's height.  On a 2 x 2 side the outputs A = W W^H are
    read entry by entry from W's two rows, and dF/dA W is formed elementwise
    from `_qubit_spectral`'s three coefficients; larger sides form A and
    dF/dA W as stacked matmuls around `_spectral`.  f takes
    one point or a stack of points, with any leading shape, and returns one
    value per point and the gradient of each, both from one pass.

    A pure member's output and its complementary output (swap the output and
    Kraus axes of the (env, out, in) stack) share their nonzero spectrum, so
    members run on whichever side of the dilation is smaller, with the same
    value and gradient.  Equal sides take the arrangement whose C-order bytes
    compare lower, so a stack and its transpose, a channel and its complement,
    run one arrangement and one descent.
    """
    flipped = np.ascontiguousarray(kstack.transpose(1, 0, 2))
    # (side, other, in), side the smaller, and at equal sides the lower bytes
    kstack = min(kstack, flipped, key=lambda k: (k.shape[0], k.tobytes()))
    side, other = kstack.shape[:2]
    lift = (kstack if g is None else kstack @ g).reshape(side * other, -1)
    lift_t, lift_c = lift.T, lift.conj()

    def lifted(a, b):
        # (B, m, r) @ (r, n) as one 2-D product, save on one-row points
        if a.shape[1] == 1:
            return a @ b
        return (a.reshape(-1, a.shape[2]) @ b).reshape(*a.shape[:2], b.shape[1])

    def kernel(m_mat):
        rows = (1, m_mat.shape[-2]) if g is None else m_mat.shape[-2:]
        w = lifted(m_mat.reshape(-1, *rows), lift_t)   # (B, m, side * other)
        w = w.reshape(*w.shape[:2], side, other)
        if side == 2:
            # A's diagonal holds the squared norms of W's two rows, and a10
            # their inner product
            w0, w1, flat = w[..., 0, :], w[..., 1, :], w.view(float)
            diag = (flat * flat).sum(axis=-1)
            value, (d00, d11, d10) = _qubit_spectral(
                diag[..., 0], diag[..., 1], (w1 * w0.conj()).sum(axis=-1)
            )
            d00, d11, d10 = d00[..., None], d11[..., None], d10[..., None]
            dw = np.empty_like(w)
            dw[..., 0, :] = d00 * w0 + d10.conj() * w1
            dw[..., 1, :] = d10 * w0 + d11 * w1
        else:
            value, d = _spectral(w @ _h(w))
            dw = d @ w
        value = value.reshape(m_mat.shape[:-2])[()]
        return value, lifted(dw.reshape(*w.shape[:2], -1), lift_c).reshape(m_mat.shape)

    return kernel


def _retract(x: np.ndarray) -> np.ndarray:
    """Q factor of x = QR with R's diagonal positive: x L^(-H), L L^H = x^H x.

    A trial X - t xi (xi tangent at X) has Gram I + t^2 xi^H xi, with every
    eigenvalue in [1, 1 + (t ||xi||_F)^2], so under the STEP_MAX clamp its
    condition number stays below about 1e8 and the Cholesky factor exists.
    """
    return x @ _h(np.linalg.inv(np.linalg.cholesky(_h(x) @ x)))


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a, b> = Re sum conj(a) b of each point along the leading axis."""
    n = len(a)
    a, b = (np.ascontiguousarray(z).reshape(n, -1).view(float) for z in (a, b))
    return (a[:, None, :] @ b[:, :, None]).reshape(n)


def _tangent(n_mat: np.ndarray, grad: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The projection G - N S onto the tangent space of N^H N = diag(d) at N.

    S solves D S + S D = N^H G + G^H N, so S_jk = (N^H G + G^H N)_jk /
    (d_j + d_k), and N^H xi + xi^H N = 0; at D = I this is the Euclidean
    Stiefel projection G - N sym(N^H G).
    """
    sym = _h(n_mat) @ grad
    return grad - n_mat @ ((sym + _h(sym)) / (d[:, None] + d))


@dataclass
class _RunStats:
    """Every restart's end point N and stop record, along a leading axis.

    Value and gradient norm are N's.  `stop` holds each stop reason:
    "grad_tol" (the norm is below `grad_tol`), "stalled_line_search" (the
    step fell to 1e-14 without passing the line search) or "iteration_cap"
    (still descending at the cap).  `iterations` is the iteration the
    restart left in, the cap for one that took every step the cap allows.
    """

    n_mat: np.ndarray
    value: np.ndarray
    grad_norm: np.ndarray
    iterations: np.ndarray
    stop: np.ndarray


def _lockstep(f, n_mat: np.ndarray, d: np.ndarray, options: RoofOptions) -> _RunStats:
    """Feasible Barzilai-Borwein descent with QR retraction, preconditioned by d.

    The method of Wen & Yin, Math. Program. 142 (2013), run on a stack of
    starts together, on points N with N^H N = D = diag(d) and f a function
    of N.  The mixing matrix M = N D^(-1/2) moves the members by
    sqrt(lambda_j) along column j, so its curvature spreads with rho's
    spectrum; N's columns all move them alike (Riemannian preconditioning,
    Mishra & Sepulchre, SIAM J. Optim. 26 (2016)).  At d = 1, as on the
    sphere, N is M and every line is the plain Stiefel descent's arithmetic.
    xi is the Euclidean projection of f's gradient onto the tangent space at
    N (`_tangent`), and its norm is the reported gradient norm.

    Every restart keeps its own state: from s = X_k - X_{k-1} and y = xi_k -
    xi_{k-1} it takes the BB1 step <s,s>/|<s,y>| on odd iterations and the
    BB2 step |<s,y>|/<y,y> on even ones (1 on the first, or when <s,y> = 0),
    at least BB_MIN and with t ||xi D^(-1/2)||_F, the step in M, at most
    STEP_MAX, and halves it until the nonmonotone Armijo test of Zhang &
    Hager, SIAM J. Optim. 14 (2004), holds against its reference value C.
    The slope along -xi is 2 ||xi||^2, since dF = 2 Re<G, dX>.  C starts at
    the start's value and f_k <= C_k <= f_0, so no restart ends above its
    start.  BB steps are nonmonotone by design, so C keeps a long memory
    (NONMONOTONE = 0.99): an overshoot that raises f for a few iterations
    passes the test rather than costing a backtracking round, and rounds are
    what a small roof pays for.  A restart leaves when its gradient norm
    drops below `grad_tol`, when its step falls to 1e-14 without passing the
    test, or at iteration cap + 1, which checks the gradient and takes no
    step; one exit writes its `_RunStats` record, all from its end point.
    Norms and inner products are row-wise reductions over each point, so no
    restart's arithmetic depends on the others.

    Every backtracking round retracts its trials in M, where X - t xi
    D^(-1/2) steps along a tangent at X = N D^(-1/2), with one batched
    Cholesky and one batched inverse of their r x r Gram matrices
    (`_retract`), and maps them back by D^(1/2); it evaluates the kernel f
    with gradients, and the iteration keeps the value and gradient of each
    row that its round accepts, so every accepted point is eigensolved
    once.  Nearly every row passes its first trial, so the first round runs
    over every live row without selecting any, and a row that has just
    converged (step 0) has its end point evaluated once more and discarded;
    only the later rounds select the rows still searching.
    """
    root = np.sqrt(d)
    inv_root = 1.0 / root
    cap, count, tol = options.max_iterations, len(n_mat), options.grad_tol
    end, final, grad_norm = np.empty_like(n_mat), np.empty(count), np.empty(count)
    iterations, stop = np.empty(count, dtype=int), np.empty(count, dtype=object)
    value, grad = f(n_mat)
    ref, weight = value.copy(), 1.0                  # Zhang-Hager C_k and Q_k
    # live indexes the restarts still descending; every other array holds
    # only their rows and shrinks when a restart leaves
    live, x = np.arange(count), n_mat
    for it in range(1, cap + 2):                     # cap + 1 checks and takes no step
        xi = _tangent(x, grad, d)
        squares = _inner(xi, xi)
        slope = 2.0 * squares
        t = np.ones(len(live))
        if it > 1:
            s, y = x - last_x, xi - last_xi
            sy = np.abs(_inner(s, y))
            num, den = (_inner(s, s), sy) if it % 2 else (sy, _inner(y, y))
            t = np.maximum(np.divide(num, den, out=t, where=sy > 0.0), BB_MIN)
        norm = np.sqrt(squares)
        step = xi * inv_root
        t = np.minimum(t, STEP_MAX / np.maximum(np.sqrt(_inner(step, step)), tol))
        t[norm < tol] = 0.0                              # converged: no search
        searching = t > 1e-14
        accepted = np.zeros(len(live), dtype=bool)
        if it <= cap and searching.any():
            following = _retract((x - t[:, None, None] * xi) * inv_root) * root
            trial_value, next_grad = f(following)
            accepted = searching & (trial_value <= ref - ARMIJO * t * slope)
            value = np.where(accepted, trial_value, value)
            search = np.flatnonzero(searching & ~accepted)
            t[search] /= 2.0
            while (search := search[t[search] > 1e-14]).size:
                cand = _retract((x[search] - t[search, None, None] * xi[search]) * inv_root) * root
                cand_value, cand_grad = f(cand)
                ok = cand_value <= ref[search] - ARMIJO * t[search] * slope[search]
                hit = search[ok]
                following[hit], next_grad[hit], value[hit] = cand[ok], cand_grad[ok], cand_value[ok]
                accepted[hit] = True
                search = search[~ok]
                t[search] /= 2.0
        if not accepted.all():
            leaving = ~accepted
            gone = live[leaving]
            end[gone], final[gone], grad_norm[gone] = x[leaving], value[leaving], norm[leaving]
            iterations[gone] = min(it, cap)
            unmet = "stalled_line_search" if it <= cap else "iteration_cap"
            stop[gone] = np.where(norm[leaving] < tol, "grad_tol", unmet)
            if not accepted.any():
                break
            live, x, xi, following, next_grad, value, ref = (
                a[accepted] for a in (live, x, xi, following, next_grad, value, ref)
            )
        last_x, last_xi, x, grad = x, xi, following, next_grad
        q = NONMONOTONE * weight
        ref = (q * ref + value) / (q + 1.0)
        weight = q + 1.0
    return _RunStats(end, final, grad_norm, iterations, stop)


def _resolve_size(options: RoofOptions, rank: int) -> int:
    size = options.ensemble_size or max(rank, min(rank * rank, SIZE_CAP))
    if size < rank:
        raise ParameterError(f"ensemble size {size} is below the state rank {rank}")
    return size


def _random_starts(rngs, size: int, rank: int) -> np.ndarray:
    """`_retract`'s Q factor of a complex Gaussian from each generator, stacked.

    The Q factors come from one stacked Householder QR: a square Gaussian's
    Gram matrix can be too ill-conditioned for a Cholesky factor.
    """
    g = np.stack([rng.normal(size=(size, rank)) + 1j * rng.normal(size=(size, rank)) for rng in rngs])
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


@functools.lru_cache(maxsize=16)
def _seeded_starts(seed: int, restarts: int, size: int, rank: int) -> np.ndarray:
    """`_random_starts` of the streams rng_for(seed, i), i < restarts, read-only and memoized.

    The stack depends on these four inputs alone, never on the problem, so
    roofs of one size and rank share it; the memo fills on first use and
    keeps the 16 most recent stacks.
    """
    starts = _random_starts([rng_for(seed, i) for i in range(restarts)], size, rank)
    starts.setflags(write=False)
    return starts


def _multistart(f, size: int, d: np.ndarray, options: RoofOptions) -> tuple[_RunStats, int]:
    """Every restart's end of `options.restarts` descents, and the index of the best.

    Restart idx starts from the Q factor drawn from the stream rng_for(seed,
    idx) times D^(1/2), the Q factors of all restarts from one stacked QR,
    taken read-only from `_seeded_starts`' memo and scaled into a fresh
    array, and all restarts run as one `_lockstep` stack over N^H N =
    diag(d), each stopping on its own rule.  Scanning in index order, a
    restart replaces the best only when its value is lower by more than
    TIE_TOL.
    """
    starts = _seeded_starts(options.seed, options.restarts, size, len(d))
    runs = _lockstep(f, starts * np.sqrt(d), d, options)
    best = 0
    for i in range(1, options.restarts):
        if runs.value[i] < runs.value[best] - TIE_TOL:
            best = i
    return runs, best


@dataclass
class RoofResult:
    """Upper-bound estimate of a convex roof with its achieving decomposition."""

    value: float
    ensemble: Ensemble
    best_restart: int
    # the best restart's `_RunStats` record: gradient norm (in N^H N = D) and iterations
    gradient_norm: float
    iterations: int
    # restarts ending within AGREE_TOL of the best, the best included
    restarts_agreeing: int
    # each restart's stop reason, in restart order: "grad_tol",
    # "stalled_line_search" or "iteration_cap"
    stop_reasons: tuple[str, ...]

    @property
    def converged(self) -> bool:
        return self.stop_reasons[self.best_restart] == "grad_tol"

    @property
    def restarts_used(self) -> int:
        return len(self.stop_reasons)


def ccooe(channel: Channel, rho: DensityMatrix, options: RoofOptions | None = None) -> RoofResult:
    """Upper bound on the convex closure of the output entropy at rho.

    Minimizes the mean output entropy over pure decompositions of rho; the
    reported value is recomputed from the returned ensemble, so it always
    bounds the roof from above and never exceeds S(channel(rho)).
    """
    options = options or RoofOptions()
    if rho.dim != channel.in_dim:
        raise DimensionError(f"state dimension {rho.dim} != channel input {channel.in_dim}")
    g, rank, d = _support_factor(rho)
    size = _resolve_size(options, rank)
    # N's members are g D^(-1/2) @ N[i] = sqrt(lambda_max) V N[i]
    root = np.sqrt(d)
    runs, best = _multistart(_objective(channel.kraus, g / root), size, d, options)
    ensemble = _ensemble(g, runs.n_mat[best] / root)
    value = average_output_entropy(channel, ensemble)
    return RoofResult(
        value=value,
        ensemble=ensemble,
        best_restart=best,
        gradient_norm=float(runs.grad_norm[best]),
        iterations=int(runs.iterations[best]),
        restarts_agreeing=int((runs.value <= runs.value[best] + AGREE_TOL).sum()),
        stop_reasons=tuple(runs.stop),
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


# the roof of the most recent chi call: (its inputs, its RoofResult)
_last_chi: tuple = (None, None)


def _chi_roof(channel: Channel, rho: DensityMatrix, options: RoofOptions | None) -> RoofResult:
    """`ccooe` at a chi call's inputs, reused when they repeat the previous chi call's.

    The inputs are the Kraus stack's shape and bytes, rho's bytes and the
    resolved options, so a hit returns the roof a descent would recompute
    bit for bit.  Only the last chi call's roof is kept, and inputs and roof
    are replaced as one tuple, so concurrent callers at worst descend again.
    """
    global _last_chi
    options = options or RoofOptions()
    key = (channel.kraus.shape, channel.kraus.tobytes(), rho.entries.tobytes(), options)
    seen, roof = _last_chi
    if seen != key:
        roof = ccooe(channel, rho, options)
        _last_chi = (key, roof)
    return roof


def chi_from_roof(channel: Channel, rho: DensityMatrix, options: RoofOptions | None = None) -> float:
    """Constrained Holevo quantity at rho via S(channel(rho)) minus the roof.

    The roof is the previous chi call's when that call, either route, had the
    same Kraus operators, rho and resolved options; otherwise it is descended.
    """
    return output_entropy(channel, rho) - _chi_roof(channel, rho, options).value


def chi_direct(channel: Channel, rho: DensityMatrix, options: RoofOptions | None = None) -> float:
    """Lower bound on the constrained Holevo quantity from its definition.

    The mean relative entropy of member outputs to channel(rho) over the
    roof's witness ensemble at rho.  Pure members lose nothing: S o channel
    is concave, so splitting a mixed member into pure parts never lowers the
    sum.  Members whose relative entropy is infinite (possible only when
    channel(rho) is rank deficient) are discarded with a warning.  As in
    `chi_from_roof`, the roof is the previous chi call's when that call had
    the same Kraus operators, rho and resolved options.
    """
    ensemble = _chi_roof(channel, rho, options).ensemble
    svals, svecs = hermitian_eig(apply(channel, rho).entries)
    total, dropped = 0.0, 0
    for w, s in zip(ensemble.weights, ensemble.states):
        term = relative_entropy_eig(apply(channel, s.density()), svals, svecs)
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
    runs, best = _multistart(_objective(channel.kraus), channel.in_dim, np.ones(1), options)
    psi = runs.n_mat[best, :, 0]
    state = PureState(psi / np.linalg.norm(psi))
    return output_entropy(channel, state.density()), state
