"""Independent reference values for the test suite.

Everything here is computed from first principles with plain numpy so the
tests can compare library output against a second, unrelated route: the
closed-form entanglement formulas for two qubits and for isotropic and Werner
states in any dimension, direct quadrature of the phase
channel action, a dense parameter grid for qubit decompositions, and
exhaustive enumeration for the orbit minimum, and each channel builder's
Kraus operators from its per-operator formula.  None of these call into
roofkit's optimizers.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def binary_entropy_nats(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * math.log(p) - (1.0 - p) * math.log1p(-p))


def wootters_eof_nats(rho: np.ndarray) -> float:
    """Entanglement of formation of a two-qubit state, in nats.

    Concurrence route: with rho = A A^dagger from `eigh`, the singular values
    of the symmetric A^T (Y x Y) A are the square roots of the eigenvalues of
    rho (Y x Y) rho* (Y x Y).  In decreasing order they give
    C = max(0, s1 - s2 - s3 - s4), and the EoF is the binary entropy of
    (1 + sqrt(1 - C^2)) / 2.  Taking singular values avoids square roots of
    near-zero eigenvalues, which cost up to 1e-8 on pure states.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("two-qubit oracle needs a 4x4 matrix")
    vals, vecs = np.linalg.eigh(rho)
    a = vecs * np.sqrt(np.clip(vals, 0.0, None))
    s = np.linalg.svd(a.T @ _YY @ a, compute_uv=False)
    c = max(0.0, s[0] - s[1] - s[2] - s[3])
    return binary_entropy_nats((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


def werner_eof_nats(fidelity: float) -> float:
    """Closed-form EoF of the Werner state with singlet fraction F > 1/2."""
    c = max(0.0, 2.0 * fidelity - 1.0)
    return binary_entropy_nats((1.0 + math.sqrt(1.0 - c * c)) / 2.0)


def werner_state(fidelity: float) -> np.ndarray:
    singlet = np.zeros((4, 1))
    singlet[1, 0] = 1.0 / math.sqrt(2.0)
    singlet[2, 0] = -1.0 / math.sqrt(2.0)
    proj = singlet @ singlet.T
    return fidelity * proj + (1.0 - fidelity) * (np.eye(4) - proj) / 3.0


def isotropic_state(dim: int, fidelity: float) -> np.ndarray:
    """F Phi+ + (1 - F)(I - Phi+)/(d^2 - 1), Phi+ the maximally entangled projector."""
    phi = np.eye(dim).reshape(-1) / math.sqrt(dim)
    proj = np.outer(phi, phi)
    return fidelity * proj + (1.0 - fidelity) * (np.eye(dim * dim) - proj) / (dim * dim - 1)


def isotropic_eof_nats(dim: int, fidelity: float) -> float:
    """Terhal-Vollbrecht EoF of the isotropic state, PRL 85, 2625 (2000), for d >= 3.

    0 up to F = 1/d, then h(g) + (1 - g) ln(d - 1) with
    g = (sqrt F + sqrt((d - 1)(1 - F)))^2 / d up to F = 4(d - 1)/d^2, and
    above that the straight line d ln(d - 1)/(d - 2) (F - 1) + ln d.
    """
    if fidelity <= 1.0 / dim:
        return 0.0
    if fidelity <= 4.0 * (dim - 1) / dim**2:
        g = (math.sqrt(fidelity) + math.sqrt((dim - 1) * (1.0 - fidelity))) ** 2 / dim
        return binary_entropy_nats(g) + (1.0 - g) * math.log(dim - 1)
    return dim * math.log(dim - 1) / (dim - 2) * (fidelity - 1.0) + math.log(dim)


def qudit_werner_state(dim: int, p: float) -> np.ndarray:
    """p times the normalized antisymmetric projector plus 1 - p times the symmetric one."""
    swap = np.eye(dim * dim).reshape((dim,) * 4).transpose(0, 1, 3, 2).reshape(dim * dim, -1)
    anti, sym = (np.eye(dim * dim) - swap) / 2.0, (np.eye(dim * dim) + swap) / 2.0
    return p * anti / (dim * (dim - 1) / 2) + (1.0 - p) * sym / (dim * (dim + 1) / 2)


def qudit_werner_eof_nats(p: float) -> float:
    """Vollbrecht-Werner EoF, PRA 64, 062307 (2001): h((1 - sqrt(1 - f^2))/2) for
    f = Tr(rho SWAP) = 1 - 2p < 0, the same in every dimension."""
    f = 1.0 - 2.0 * p
    return binary_entropy_nats(0.5 * (1.0 - math.sqrt(1.0 - f * f))) if f < 0.0 else 0.0


def quadrature_phase_output(
    rho: np.ndarray,
    grid: np.ndarray,
    pdf,
    reach: float,
    points: int = 4001,
) -> np.ndarray:
    """Direct integral of the random-phase action on a grid-diagonal state.

    Trapezoid rule for integral p(t) U(t) rho U(t)^dagger dt with
    U(t) = diag(exp(-i t x_j)), evaluated over [-reach, reach].  The pdf is
    called pointwise so scalar-only densities work.
    """
    rho = np.asarray(rho, dtype=complex)
    ts = np.linspace(-reach, reach, points)
    weights = np.full(points, ts[1] - ts[0])
    weights[0] /= 2.0
    weights[-1] /= 2.0
    out = np.zeros_like(rho)
    for t, w in zip(ts, weights):
        p = pdf(float(t))
        if p == 0.0:
            continue
        phase = np.exp(-1j * t * grid)
        u = np.outer(phase, phase.conj())
        out += (w * p) * (u * rho)
    return out


def entropy_nats(matrix: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(matrix)
    vals = vals[vals > 1e-15]
    return float(-(vals * np.log(vals)).sum())


def brute_force_qubit_roof(kraus: list[np.ndarray], rho: np.ndarray, steps: int = 100) -> float:
    """Dense-grid minimum of the two-member decomposition average for a qubit.

    Rank-2 rho factors as G G^dagger with G = U diag(sqrt(eig)).  Every
    two-member decomposition comes from an orthonormal 2x2 mixing matrix,
    parameterized up to irrelevant phases by columns
    (cos t, -sin t) and e^{i d}(sin t, cos t).  Scans a steps x steps grid
    over t in [0, pi) and d in [0, 2 pi).
    """
    rho = np.asarray(rho, dtype=complex)
    vals, vecs = np.linalg.eigh(rho)
    keep = vals > 1e-12
    g = vecs[:, keep] * np.sqrt(vals[keep])
    if g.shape[1] != 2:
        raise ValueError("oracle expects a rank-2 state")
    best = math.inf
    for theta in np.linspace(0.0, math.pi, steps, endpoint=False):
        c, s = math.cos(theta), math.sin(theta)
        for delta in np.linspace(0.0, 2.0 * math.pi, steps, endpoint=False):
            ph = complex(math.cos(delta), math.sin(delta))
            m = np.array([[c, s * ph], [-s, c * ph]])
            v = g @ m.conj()          # columns are unnormalized members
            total = 0.0
            for j in range(2):
                psi = v[:, j]
                w = float(np.vdot(psi, psi).real)
                if w <= 1e-14:
                    continue
                member = np.outer(psi, psi.conj()) / w
                out = sum(k @ member @ k.conj().T for k in kraus)
                total += w * entropy_nats(out)
            best = min(best, total)
    return best


def kraus_sum(kraus, arr: np.ndarray) -> np.ndarray:
    """sum_i K_i arr K_i^dagger, one operator at a time from a zero start."""
    out = np.zeros((kraus[0].shape[0],) * 2, dtype=complex)
    for k in kraus:
        out += (k @ arr) @ k.conj().T
    return out


def choi_sum(kraus) -> np.ndarray:
    """Choi matrix sum_i v_i v_i^dagger, v_i the input-major vectorization of K_i."""
    vecs = [np.asarray(k, dtype=complex).T.reshape(-1) for k in kraus]
    return sum(np.outer(v, v.conj()) for v in vecs)


def kron_pairs(a, b) -> list[np.ndarray]:
    """Kraus operators of a tensor product: K_i (x) L_j, the first index slowest."""
    return [np.kron(ka, kb) for ka in a for kb in b]


def swapped_axes(kraus) -> list[np.ndarray]:
    """Complementary Kraus operators: operator j holds (K_i)_{jk} at (i, k)."""
    return [np.array([k[j] for k in kraus]) for j in range(kraus[0].shape[0])]


def trace_rows(dims, keep) -> list[np.ndarray]:
    """Partial trace operators: I on kept factors, basis row e_j^T on traced ones."""
    traced = [i for i in range(len(dims)) if i not in keep]
    ops = []
    for rows in itertools.product(*(range(dims[i]) for i in traced)):
        row_of = dict(zip(traced, rows))
        op = np.eye(1)
        for i, d in enumerate(dims):
            op = np.kron(op, np.eye(d)[[row_of[i]]] if i in row_of else np.eye(d))
        ops.append(op)
    return ops


def unit_matrices(dim: int) -> list[np.ndarray]:
    """Completely depolarizing operators E_ij / sqrt(dim), with i slowest."""
    ops = []
    for i in range(dim):
        for j in range(dim):
            k = np.zeros((dim, dim), dtype=complex)
            k[i, j] = 1.0 / math.sqrt(dim)
            ops.append(k)
    return ops


def direct_sum_blocks(q: float, kraus, in_dim: int) -> list[np.ndarray]:
    """sqrt(q) I on the first output block, then sqrt(1 - q) K_i on the second."""
    out = in_dim + kraus[0].shape[0]
    ops = []
    if q > 0.0:
        top = np.zeros((out, in_dim), dtype=complex)
        top[:in_dim] = math.sqrt(q) * np.eye(in_dim)
        ops.append(top)
    for k in kraus if q < 1.0 else []:
        low = np.zeros((out, in_dim), dtype=complex)
        low[in_dim:] = math.sqrt(1.0 - q) * k
        ops.append(low)
    return ops


def _descending_eig(a):
    a = np.asarray(a, dtype=complex)
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2.0)
    return vals[::-1], vecs[:, ::-1]


def prepare_outers(povm, outputs, clip: float = 1e-12) -> list[np.ndarray]:
    """Measure-and-prepare operators sqrt(s_j m_k) |s_j><m_k|, outcome then j then k slowest.

    s_j and m_k run over the eigenpairs above `clip` of each output state and
    its POVM element, in descending order.
    """
    ops = []
    for m, sigma in zip(povm, outputs):
        mvals, mvecs = _descending_eig(m)
        svals, svecs = _descending_eig(sigma)
        for j in range(len(svals)):
            for k in range(len(mvals)):
                if svals[j] > clip and mvals[k] > clip:
                    coeff = math.sqrt(svals[j] * mvals[k])
                    ops.append(coeff * np.outer(svecs[:, j], mvecs[:, k].conj()))
    return ops


def multiplier_diagonals(multiplier: np.ndarray, clip: float = 1e-12) -> list[np.ndarray]:
    """Schur multiplier operators diag(sqrt(b_m) u_m) over its eigenpairs above `clip`."""
    vals, vecs = _descending_eig(multiplier)
    return [np.diag(math.sqrt(float(v)) * vecs[:, m]) for m, v in enumerate(vals) if v > clip]


def isometry_slices(in_dim: int, out_dim: int, env_dim: int, rng) -> list[np.ndarray]:
    """Random Stinespring operators V[:, e, :] of a QR isometry into out (x) env."""
    shape = (out_dim * env_dim, in_dim)
    v = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))[0]
    v = v.reshape(out_dim, env_dim, in_dim)
    return [v[:, e, :] for e in range(env_dim)]


def measure_prepare_draws(dim: int, outcomes: int, rng) -> tuple[list, list]:
    """Random POVM effects and output states, drawn one matrix at a time.

    Each effect comes from G G^dagger for a complex Gaussian G (real part
    drawn first), all rescaled by the inverse square root of their sum; the
    outputs are further G G^dagger drawn after every effect, over their trace.
    """
    raw = []
    for _ in range(outcomes):
        gmat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raw.append(gmat @ gmat.conj().T)
    vals, vecs = np.linalg.eigh(sum(raw))
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    povm = [inv_sqrt @ a @ inv_sqrt for a in raw]
    outputs = []
    for _ in range(outcomes):
        gmat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mat = gmat @ gmat.conj().T
        outputs.append(mat / mat.trace().real)
    return povm, outputs


def exhaustive_min_orbit(energies: np.ndarray, weights: np.ndarray) -> float:
    """Minimum of sum_k energies[perm(k)] * weights[k] over all permutations."""
    energies = np.asarray(energies, dtype=float)
    weights = np.asarray(weights, dtype=float)
    best = math.inf
    for perm in itertools.permutations(range(len(energies))):
        best = min(best, float(energies[list(perm)] @ weights))
    return best
