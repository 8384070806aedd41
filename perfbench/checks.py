"""Reference computations the benchmark checks roofkit against.

Everything here is plain numpy written for the benchmark alone: it imports
nothing from roofkit and runs no optimizer, so a check can only pass when the
library's answer agrees with a second, unrelated route or has a property the
method must have.  Each checker returns None when the value passes and a
one-line reason when it does not.
"""

from __future__ import annotations

import math

import numpy as np

_YY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))


def entropy_of(mat: np.ndarray) -> float:
    """Von Neumann entropy in nats of a positive semidefinite matrix of unit trace."""
    vals = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
    vals = vals[vals > 1e-15]
    return float(-(vals * np.log(vals)).sum())


def apply_kraus(kraus, rho: np.ndarray) -> np.ndarray:
    return sum(k @ rho @ k.conj().T for k in kraus)


def reduce_to(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace of a matrix on the factors `dims` onto the factors in `keep`."""
    n = len(dims)
    t = rho.reshape(tuple(dims) * 2)
    letters = "abcdefghijklmnop"
    row = list(letters[:n])
    col = [row[i] if i not in keep else letters[n + i] for i in range(n)]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    d = math.prod(dims[i] for i in keep)
    return np.einsum("".join(row) + "".join(col) + "->" + out, t).reshape(d, d)


def wootters_eof(rho: np.ndarray) -> float:
    """Two-qubit entanglement of formation in nats (Wootters, PRL 80, 2245)."""
    r = rho @ _YY @ rho.conj() @ _YY
    s = np.sort(np.sqrt(np.clip(np.linalg.eigvals(r).real, 0.0, None)))[::-1]
    c = max(0.0, s[0] - s[1] - s[2] - s[3])
    p = (1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0
    if p >= 1.0:
        return 0.0
    return float(-p * math.log(p) - (1.0 - p) * math.log1p(-p))


def check_eof(value: float, rho: np.ndarray) -> str | None:
    """The roof is an upper bound within 2e-3 of the closed form."""
    exact = wootters_eof(rho)
    if not exact - 1e-9 <= value <= exact + 2e-3:
        return f"eof {value!r} outside [{exact!r} - 1e-9, + 2e-3]"
    return None


def check_witness(value: float, rho: np.ndarray, weights, states, kraus) -> str | None:
    """The returned ensemble averages to rho and its mean output entropy is `value`."""
    w = np.asarray(weights, dtype=float)
    psi = np.asarray(states, dtype=complex)             # (members, dim)
    if w.min() <= 0.0 or abs(w.sum() - 1.0) > 1e-9:
        return "witness weights are not a probability vector"
    bary = np.einsum("i,ia,ib->ab", w, psi, psi.conj())
    dev = float(np.max(np.abs(bary - rho)))
    if dev > 1e-9:
        return f"witness barycenter is {dev:.2e} from the input"
    mean = sum(wi * entropy_of(apply_kraus(kraus, np.outer(p, p.conj()))) for wi, p in zip(w, psi))
    if abs(mean - value) > 1e-9:
        return f"witness recomputes to {mean!r}, reported {value!r}"
    return None


def truncation_weight(omega: np.ndarray, dims, rank: int) -> float:
    """Kept weight Tr(P omega) for P the product of top-`rank` marginal eigenprojectors."""
    proj = np.ones((1, 1))
    for f in range(len(dims)):
        vals, vecs = np.linalg.eigh(reduce_to(omega, dims, (f,)))
        top = vecs[:, ::-1][:, : min(rank, dims[f])]
        proj = np.kron(proj, top @ top.conj().T)
    return float(np.trace(proj @ omega).real)


def check_truncation_weights(ranks, weights, omega: np.ndarray, dims) -> str | None:
    """Weights match the recomputation, never decrease, and reach 1 at full rank."""
    for n, w in zip(ranks, weights):
        ref = truncation_weight(omega, dims, n)
        if abs(ref - w) > 1e-9:
            return f"rank {n} weight {w!r}, recomputed {ref!r}"
    if any(b < a - 1e-12 for a, b in zip(weights, weights[1:])):
        return f"weights decrease along the ladder: {list(weights)}"
    if ranks[-1] >= max(dims) and abs(weights[-1] - 1.0) > 1e-9:
        return f"full-rank rung keeps weight {weights[-1]!r}, not 1"
    return None


def check_rung_roof(rank: int, roof: float, out_entropy: float) -> str | None:
    """A rung roof lies in [0, S(output)], and is 0 at rank 1 where the state is product."""
    if rank == 1 and abs(roof) > 1e-9:
        return f"rank-1 rung roof {roof!r} is not 0"
    if not -1e-12 <= roof <= out_entropy + 1e-9:
        return f"rung {rank} roof {roof!r} outside [0, {out_entropy!r}]"
    return None


def bloch_grid_min(kraus, steps: int = 181) -> float:
    """Least output entropy over a dense grid of pure qubit inputs."""
    k = np.stack(kraus)                                  # (env, out, 2)
    phase = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 2 * steps - 1))
    best = math.inf
    # one polar angle at a time keeps the checker's memory out of peak_rss_mib
    for t in np.linspace(0.0, math.pi, steps):
        psi = np.stack([np.full_like(phase, math.cos(t / 2)), phase * math.sin(t / 2)], axis=-1)
        kv = np.einsum("koi,ni->nko", k, psi)
        out = np.einsum("nko,nkp->nop", kv, kv.conj())
        vals = np.clip(np.linalg.eigvalsh(out), 1e-300, None)
        best = min(best, float((-(vals * np.log(vals)).sum(axis=1)).min()))
    return best


def check_min_output(value: float, state, kraus) -> str | None:
    """The value is the entropy of the returned input's output, and no worse than the grid."""
    psi = np.asarray(state, dtype=complex)
    direct = entropy_of(apply_kraus(kraus, np.outer(psi, psi.conj())))
    if abs(direct - value) > 1e-9:
        return f"minimal output entropy {value!r}, returned input gives {direct!r}"
    if psi.shape[0] == 2:
        grid = bloch_grid_min(kraus)
        if value > grid + 1e-9:
            return f"minimal output entropy {value!r} above the Bloch-grid minimum {grid!r}"
    return None


def check_close(what: str, a: float, b: float, tol: float) -> str | None:
    if not abs(a - b) <= tol:
        return f"{what}: {a!r} and {b!r} differ by more than {tol:g}"
    return None
