"""Dense complex linear algebra on tensor-factor spaces.

States, tensor projectors, partial traces, purification and the seeded random
generators used everywhere else.  Composite indices are row-major with the
first factor slowest, all storage is plain numpy arrays, and the scale is
deliberately small (total dimensions up to a few dozen).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateTruncationError,
    DimensionError,
    NumericError,
    ParameterError,
    ValidityError,
)

HERM_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
NORM_TOL = 1e-12


def rng_for(seed, *stream: int) -> np.random.Generator:
    """Deterministic generator for (seed, sub-stream indices).

    `seed` may be an int, a tuple of ints, or an existing Generator (which is
    passed through and must not be combined with stream indices).
    """
    if isinstance(seed, np.random.Generator):
        if stream:
            raise ParameterError("cannot extend an existing generator with stream indices")
        return seed
    base = tuple(int(s) for s in seed) if isinstance(seed, (tuple, list)) else (int(seed),)
    return np.random.default_rng(base + tuple(int(s) for s in stream))


class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace operator.

    Validation happens once at construction: hermiticity within 1e-10
    (after which the array is symmetrized), minimum eigenvalue >= -1e-10,
    and trace within 1e-10 of one.  The stored array is frozen.
    """

    __slots__ = ("dim", "entries")

    def __init__(self, entries):
        arr = require_hermitian(entries, HERM_TOL, "density matrix")
        tr = float(arr.trace().real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidityError(f"trace {tr!r} is not 1 within {TRACE_TOL:g}")
        lam_min = float(np.linalg.eigvalsh(arr)[0])
        if lam_min < -PSD_TOL:
            raise ValidityError(f"negative eigenvalue {lam_min:.3e} below -{PSD_TOL:g}")
        arr.setflags(write=False)
        self.dim = arr.shape[0]
        self.entries = arr

    def eigenvalues(self) -> np.ndarray:
        """Spectrum in descending order."""
        return np.linalg.eigvalsh(self.entries)[::-1]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


class PureState:
    """Unit vector; norm must be within 1e-12 of one at construction."""

    __slots__ = ("dim", "amplitudes")

    def __init__(self, amplitudes):
        vec = require_finite(amplitudes, "pure state").reshape(-1)
        nrm = float(np.linalg.norm(vec))
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValidityError(f"norm {nrm!r} is not 1 within {NORM_TOL:g}")
        vec = vec.copy()
        vec.setflags(write=False)
        self.dim = vec.shape[0]
        self.amplitudes = vec

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def density(self) -> DensityMatrix:
        return DensityMatrix(self.projector())

    def __repr__(self) -> str:
        return f"PureState(dim={self.dim})"


@dataclass(frozen=True)
class SubsystemShape:
    """Factor dimensions of a tensor-product space, first factor slowest."""

    factor_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims or any(d < 1 for d in dims):
            raise ParameterError(f"factor dimensions must be positive, got {dims}")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def total(self) -> int:
        return prod(self.factor_dims)

    @property
    def factors(self) -> int:
        return len(self.factor_dims)

    def require_total(self, dim: int) -> None:
        if dim != self.total:
            raise DimensionError(
                f"operator dimension {dim} does not match factors {self.factor_dims}"
            )


class TruncationProjector:
    """Tensor product of per-factor orthogonal projectors.

    Each factor is given by an orthonormal column family (a d_f x r_f array);
    the projector it induces is automatically Hermitian and idempotent, so
    only orthonormality (within 1e-10) is checked here.
    """

    __slots__ = ("bases", "ranks", "shape")

    def __init__(self, bases: Sequence[np.ndarray]):
        mats = []
        for c in bases:
            arr = np.asarray(c, dtype=complex)
            if arr.ndim != 2 or arr.shape[1] > arr.shape[0] or arr.shape[1] < 1:
                raise DimensionError(f"bad column family shape {arr.shape}")
            gram = arr.conj().T @ arr
            dev = float(np.max(np.abs(gram - np.eye(arr.shape[1]))))
            if dev > HERM_TOL:
                raise ValidityError(f"columns not orthonormal: deviation {dev:.3e}")
            arr = arr.copy()
            arr.setflags(write=False)
            mats.append(arr)
        self.bases = tuple(mats)
        self.ranks = tuple(m.shape[1] for m in mats)
        self.shape = SubsystemShape(tuple(m.shape[0] for m in mats))

    def factor_projector(self, index: int) -> np.ndarray:
        c = self.bases[index]
        return c @ c.conj().T

    def full(self) -> np.ndarray:
        """Projector on the composite space."""
        out = self.factor_projector(0)
        for i in range(1, len(self.bases)):
            out = np.kron(out, self.factor_projector(i))
        return out


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching unitary of eigenvectors.

    The input must be Hermitian within 1e-8 and is symmetrized before the
    solve, so the returned pair reconstructs the symmetrized operator.
    """
    arr = require_hermitian(a, 1e-8, "eigensolver input")
    try:
        vals, vecs = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver did not converge: {exc}") from exc
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def tensor(a, b) -> np.ndarray:
    """Kronecker product with the first operand slowest."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def require_finite(a, what: str) -> np.ndarray:
    """`a` as a complex array, checked to hold no NaN or infinite entry."""
    arr = np.asarray(a, dtype=complex)
    if not np.isfinite(arr).all():
        raise ValidityError(f"{what} has non-finite entries")
    return arr


def require_hermitian(a, tol: float, what: str) -> np.ndarray:
    """(a + a*)/2 for a finite square matrix `a` that is Hermitian within `tol`."""
    arr = require_finite(a, what)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{what} must be a square matrix, got shape {arr.shape}")
    dev = float(np.max(np.abs(arr - arr.conj().T)))
    if dev > tol:
        raise ValidityError(f"{what} is not Hermitian within {tol:g} (deviation {dev:.3e})")
    return (arr + arr.conj().T) / 2.0


def require_keep(keep: Sequence[int], n: int) -> tuple[int, ...]:
    """Kept-factor indices, checked to be non-empty, strictly increasing and below n."""
    keep = tuple(keep)
    if not keep or list(keep) != sorted(set(keep)):
        raise ParameterError(f"keep indices must be non-empty and strictly increasing, got {keep}")
    if keep[0] < 0 or keep[-1] >= n:
        raise ParameterError(f"keep indices {keep} out of range for {n} factors")
    return keep


def trace_out(arr: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Partial trace of a raw matrix over the factors not listed in `keep`."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    keep = require_keep(keep, n)
    if arr.shape != (prod(dims), prod(dims)):
        raise DimensionError(f"matrix shape {arr.shape} does not match factors {dims}")
    t = arr.reshape(dims + dims)
    # trace the discarded factors last-to-first so earlier axis numbers stay valid
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + (t.ndim // 2))
    d_keep = prod(dims[i] for i in keep)
    return np.ascontiguousarray(t.reshape(d_keep, d_keep))


def partial_trace(omega: DensityMatrix, shape: SubsystemShape, keep: Sequence[int]) -> DensityMatrix:
    """Reduced state of `omega` on the kept factors (in their original order)."""
    shape.require_total(omega.dim)
    return DensityMatrix(trace_out(omega.entries, shape.factor_dims, keep))


def partial_transpose(arr: np.ndarray, dims: Sequence[int], sys: int) -> np.ndarray:
    """Transpose of one tensor factor of a raw matrix."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    if not 0 <= sys < n:
        raise ParameterError(f"factor index {sys} out of range for {n} factors")
    if arr.shape != (prod(dims), prod(dims)):
        raise DimensionError(f"matrix shape {arr.shape} does not match factors {dims}")
    t = arr.reshape(dims + dims)
    t = np.swapaxes(t, sys, sys + n)
    return t.reshape(arr.shape).copy()


def purify(rho: DensityMatrix) -> PureState:
    """Pure state on a doubled space whose first marginal is `rho`.

    Built from the eigendecomposition with eigenvalues clipped at zero; the
    reference factor carries the eigenvalue index in the computational basis.
    """
    vals, vecs = hermitian_eig(rho.entries)
    vals = np.clip(vals, 0.0, None)
    d = rho.dim
    vec = np.zeros(d * d, dtype=complex)
    for i in range(d):
        if vals[i] > 0.0:
            vec += np.sqrt(vals[i]) * np.kron(vecs[:, i], _basis(d, i))
    vec /= np.linalg.norm(vec)
    return PureState(vec)


def _basis(dim: int, index: int) -> np.ndarray:
    e = np.zeros(dim, dtype=complex)
    e[index] = 1.0
    return e


def truncate_state(omega: DensityMatrix, w: TruncationProjector) -> tuple[DensityMatrix, float]:
    """Compress `omega` by the projector and renormalize.

    Returns the truncated state together with the retained weight
    Tr(W omega W); weights at or below 1e-12 are rejected as degenerate.
    """
    w.shape.require_total(omega.dim)
    p = w.full()
    cut = p @ omega.entries @ p
    weight = float(cut.trace().real)
    if weight <= 1e-12:
        raise DegenerateTruncationError(f"retained weight {weight:.3e} is too small")
    return DensityMatrix(cut / weight), weight


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary from a QR with phase-fixed diagonal."""
    if dim < 1:
        raise ParameterError(f"dimension must be positive, got {dim}")
    rng = rng_for(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d.conj() / np.abs(d))


def random_pure(dim: int, seed) -> PureState:
    """Normalized vector of independent standard complex Gaussians."""
    if dim < 1:
        raise ParameterError(f"dimension must be positive, got {dim}")
    rng = rng_for(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v))


def random_density(dim: int, rank: int, seed) -> DensityMatrix:
    """Normalized GG* for a dim x rank standard complex Gaussian G."""
    if dim < 1:
        raise ParameterError(f"dimension must be positive, got {dim}")
    if not 1 <= rank <= dim:
        raise ParameterError(f"rank must lie in [1, {dim}], got {rank}")
    rng = rng_for(seed)
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real)


def is_psd(a, tol: float = PSD_TOL) -> tuple[bool, float]:
    """(verdict, witness): smallest eigenvalue against -tol."""
    lam_min = float(np.linalg.eigvalsh(require_hermitian(a, 1e-8, "PSD test input"))[0])
    return lam_min >= -tol, lam_min


def trace_norm(a) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False).sum())


def marginals(omega: DensityMatrix, shape: SubsystemShape) -> list[DensityMatrix]:
    """Single-factor reduced states, one per tensor factor."""
    return [partial_trace(omega, shape, (i,)) for i in range(shape.factors)]


def top_eigenbasis(rho: DensityMatrix, count: int) -> np.ndarray:
    """Orthonormal columns spanning the top-`count` eigenvectors."""
    if not 1 <= count <= rho.dim:
        raise ParameterError(f"count must lie in [1, {rho.dim}], got {count}")
    _, vecs = hermitian_eig(rho.entries)
    return vecs[:, :count].copy()


def mixed_with(rho: DensityMatrix, sigma: DensityMatrix, t: float) -> DensityMatrix:
    """Convex combination (1-t) rho + t sigma."""
    if not 0.0 <= t <= 1.0:
        raise ParameterError(f"mixing weight must lie in [0, 1], got {t}")
    if rho.dim != sigma.dim:
        raise DimensionError("states live on different spaces")
    return DensityMatrix((1.0 - t) * rho.entries + t * sigma.entries)


def basis_state(dim: int, index: int) -> PureState:
    """Computational basis vector |index> in `dim` dimensions."""
    if not 0 <= index < dim:
        raise ParameterError(f"index {index} out of range for dimension {dim}")
    return PureState(_basis(dim, index))
