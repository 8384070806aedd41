"""Additivity experiments with explicit bound-direction bookkeeping.

Every check records which side of an expected inequality `lhs >= rhs` each
number bounds.  Optimizer outputs are one-sided (roof values bound from
above, Holevo quantities derived from them bound from below), so a negative
margin between same-direction bounds is inconclusive by construction; such a
margin triggers one refinement pass with doubled restarts, and only a margin
still below -tolerance afterwards is reported as flagged.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    Channel,
    completely_depolarizing,
    complementary,
    dephasing,
    measure_prepare,
    noiseless,
    output_entropy,
    partial_trace_channel,
    random_phase_channel,
    random_stinespring,
    tensor_channel,
)
from .core import (
    DensityMatrix,
    SubsystemShape,
    mixed_with,
    partial_trace,
    random_density,
    rng_for,
    tensor,
    top_eigenbasis,
    trace_norm,
    trace_out,
    truncate_state,
    TruncationProjector,
)
from .entropy import spectrum_entropy
from .errors import DegenerateTruncationError, ParameterError
from .roof import RoofOptions, ccooe, min_output_entropy

CONSISTENT = "consistent"
INCONCLUSIVE = "inconclusive"
FLAGGED = "flagged"

DEFAULT_TOLERANCE = 1e-3


@dataclass
class AdditivityReport:
    """One checked inequality `lhs >= rhs` with margin = lhs - rhs."""

    kind: str
    channels: tuple[str, str]
    state: str
    lhs: float
    lhs_bound: str
    rhs: float
    rhs_bound: str
    margin: float
    tolerance: float
    verdict: str
    refined: bool
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "channels": list(self.channels),
            "state": self.state,
            "lhs": self.lhs,
            "lhs_bound": self.lhs_bound,
            "rhs": self.rhs,
            "rhs_bound": self.rhs_bound,
            "margin": self.margin,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "refined": self.refined,
            "diagnostics": self.diagnostics,
        }


def _violation_possible(lhs_bound: str, rhs_bound: str) -> bool:
    # a lower bound on the left against an upper bound on the right can never
    # even suggest a violation of lhs >= rhs
    return not (lhs_bound == "lower" and rhs_bound == "upper")


def _settle(report: AdditivityReport, recompute, refine: bool) -> AdditivityReport:
    """Apply the verdict policy, refining once when the margin looks negative."""
    if report.margin >= -report.tolerance:
        report.verdict = CONSISTENT
        return report
    if not _violation_possible(report.lhs_bound, report.rhs_bound):
        report.verdict = INCONCLUSIVE
        return report
    if not refine:
        report.verdict = INCONCLUSIVE
        return report
    refined = recompute()
    refined.refined = True
    refined.diagnostics["before_refinement"] = {
        "lhs": report.lhs,
        "rhs": report.rhs,
        "margin": report.margin,
    }
    if refined.margin >= -refined.tolerance:
        refined.verdict = CONSISTENT
    else:
        refined.verdict = FLAGGED
    return refined


def _roof_trio(phi: Channel, psi: Channel, omega: DensityMatrix, options: RoofOptions) -> tuple[dict, dict]:
    """Roof results and output entropies of the joint input and its marginals."""
    shape = SubsystemShape((phi.in_dim, psi.in_dim))
    shape.require_total(omega.dim)
    inputs = {
        "joint": (tensor_channel(phi, psi), omega),
        "left": (phi, partial_trace(omega, shape, (0,))),
        "right": (psi, partial_trace(omega, shape, (1,))),
    }
    roofs = {k: ccooe(ch, rho, options) for k, (ch, rho) in inputs.items()}
    return roofs, {k: output_entropy(ch, rho) for k, (ch, rho) in inputs.items()}


def _chi_subadditivity_row(roof: dict, entropy: dict):
    chi = {k: entropy[k] - roof[k] for k in ("joint", "left", "right")}
    extra = {
        "roof_margin": roof["joint"] - roof["left"] - roof["right"],
        "entropy_gap": entropy["joint"] - entropy["left"] - entropy["right"],
        "chi": chi,
    }
    return chi["left"] + chi["right"], "lower", chi["joint"], "lower", extra


# kind -> (lhs, lhs bound, rhs, rhs bound, extra diagnostics), read off the
# roof values and output entropies of one trio
_TRIO_ROWS = {
    "superadditivity": lambda roof, entropy: (
        roof["joint"], "upper", roof["left"] + roof["right"], "upper", {}
    ),
    "chi-subadditivity": _chi_subadditivity_row,
    "corollary-max": lambda roof, entropy: (
        roof["joint"], "upper", max(roof["left"], roof["right"]), "upper", {}
    ),
}


def _report(kind, channels, state, lhs, lhs_bound, rhs, rhs_bound, tolerance, diagnostics):
    return AdditivityReport(
        kind=kind,
        channels=channels,
        state=state,
        lhs=lhs,
        lhs_bound=lhs_bound,
        rhs=rhs,
        rhs_bound=rhs_bound,
        margin=lhs - rhs,
        tolerance=tolerance,
        verdict=INCONCLUSIVE,
        refined=False,
        diagnostics=diagnostics,
    )


def _checked(build, options: RoofOptions | None, refine: bool) -> AdditivityReport:
    options = options or RoofOptions()
    return _settle(build(options), lambda: build(options.refined()), refine)


def _trio_check(kind, phi, psi, omega, options, tolerance, refine, state_label) -> AdditivityReport:
    def build(opts: RoofOptions) -> AdditivityReport:
        roofs, entropy = _roof_trio(phi, psi, omega, opts)
        roof = {k: r.value for k, r in roofs.items()}
        lhs, lhs_bound, rhs, rhs_bound, extra = _TRIO_ROWS[kind](roof, entropy)
        diag = {f"roof_{k}": v for k, v in roof.items()}
        diag["converged"] = [r.converged for r in roofs.values()]
        diag["restarts"] = roofs["joint"].restarts_used
        return _report(
            kind, (phi.label, psi.label), state_label, lhs, lhs_bound, rhs, rhs_bound,
            tolerance, {**diag, **extra},
        )

    return _checked(build, options, refine)


def superadditivity_margin(
    phi: Channel,
    psi: Channel,
    omega: DensityMatrix,
    options: RoofOptions | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    refine: bool = True,
    state_label: str = "omega",
) -> AdditivityReport:
    """Check roof(joint) >= roof(left marginal) + roof(right marginal).

    Both sides are optimizer upper bounds, so a negative margin is evidence
    of a convergence gap before it is evidence of anything else.
    """
    return _trio_check(
        "superadditivity", phi, psi, omega, options, tolerance, refine, state_label
    )


def chi_subadditivity_margin(
    phi: Channel,
    psi: Channel,
    omega: DensityMatrix,
    options: RoofOptions | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    refine: bool = True,
    state_label: str = "omega",
) -> AdditivityReport:
    """Check chi(left) + chi(right) >= chi(joint) at the given input.

    The chi values reuse the same roof runs as the superadditivity check, so
    margin(chi) = margin(roof) - (S(joint out) - S(left out) - S(right out))
    holds as an exact arithmetic identity; the roof margin is kept in the
    diagnostics.
    """
    return _trio_check(
        "chi-subadditivity", phi, psi, omega, options, tolerance, refine, state_label
    )


def corollary_bound_check(
    phi: Channel,
    psi: Channel,
    omega: DensityMatrix,
    options: RoofOptions | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    refine: bool = True,
    state_label: str = "omega",
) -> AdditivityReport:
    """Check roof(joint) >= max of the two marginal roofs."""
    return _trio_check(
        "corollary-max", phi, psi, omega, options, tolerance, refine, state_label
    )


def min_output_margin(
    phi: Channel,
    psi: Channel,
    options: RoofOptions | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    refine: bool = True,
) -> AdditivityReport:
    """Check min-output-entropy(joint) >= max of the marginal minima."""

    def build(opts: RoofOptions) -> AdditivityReport:
        joint_val, _ = min_output_entropy(tensor_channel(phi, psi), opts)
        left_val, _ = min_output_entropy(phi, opts)
        right_val, _ = min_output_entropy(psi, opts)
        return _report(
            "min-output", (phi.label, psi.label), "(pure optimum)", joint_val, "upper",
            max(left_val, right_val), "upper", tolerance,
            {"min_left": left_val, "min_right": right_val},
        )

    return _checked(build, options, refine)


# --- truncation experiment --------------------------------------------------


@dataclass
class TruncationStep:
    rank: int
    weight: float
    output_entropy: float
    roof_value: float
    residual_min_eig: float
    entropy_bound: float
    skipped: bool = False


@dataclass
class TruncationTrace:
    """Per-rank record of the compress-and-renormalize experiment."""

    factor_dims: tuple[int, ...]
    ranks: tuple[int, ...]
    steps: list[TruncationStep]
    full_output_entropy: float
    residual_ok: bool
    entropy_bound_ok: bool
    weights_monotone: bool
    final_weight: float
    final_entropy_gap: float

    def rows(self) -> list[dict]:
        return [
            {
                "rank": s.rank,
                "weight": s.weight,
                "output_entropy": s.output_entropy,
                "roof_value": s.roof_value,
                "residual_min_eig": s.residual_min_eig,
                "entropy_bound": s.entropy_bound,
                "skipped": s.skipped,
            }
            for s in self.steps
        ]


def truncation_experiment(
    omega: DensityMatrix,
    shape: SubsystemShape,
    ranks,
    roof_options: RoofOptions | None = None,
) -> TruncationTrace:
    """Truncate a four-factor state factorwise and track the proof quantities.

    The state lives on factors (H, L, K, N); the observed channel traces out
    L and N.  For each requested rank the top eigenvectors of every factor
    marginal form the truncation projector; the compressed renormalized state
    must stay dominated by the compressed full output (residual PSD within
    1e-9) and obey the scaled entropy bound.  Ranks whose projector retains
    weight at or below 1e-12 are recorded as skipped.
    """
    if shape.factors != 4:
        raise ParameterError(f"need a four-factor shape, got {shape.factor_dims}")
    shape.require_total(omega.dim)
    ranks = tuple(int(n) for n in ranks)
    if not ranks or any(n < 1 for n in ranks) or list(ranks) != sorted(ranks):
        raise ParameterError(f"ranks must be a non-empty ascending list, got {ranks}")
    if ranks[-1] > max(shape.factor_dims):
        raise ParameterError(
            f"rank {ranks[-1]} exceeds every factor dimension {shape.factor_dims}"
        )
    dims = shape.factor_dims
    phi = partial_trace_channel(SubsystemShape(dims[:2]), (0,))
    psi = partial_trace_channel(SubsystemShape(dims[2:]), (0,))
    joint = tensor_channel(phi, psi)
    full_out = trace_out(omega.entries, dims, (0, 2))
    full_entropy = spectrum_entropy(np.linalg.eigvalsh(full_out))
    margs = [partial_trace(omega, shape, (i,)) for i in range(4)]
    opts = roof_options or RoofOptions(restarts=4, max_iterations=250)

    steps: list[TruncationStep] = []
    residual_ok = True
    bound_ok = True
    for n in ranks:
        bases = [top_eigenbasis(margs[i], min(n, dims[i])) for i in range(4)]
        projector = TruncationProjector(bases)
        try:
            omega_n, weight = truncate_state(omega, projector)
        except DegenerateTruncationError:
            steps.append(
                TruncationStep(n, 0.0, math.nan, math.nan, math.nan, math.nan, skipped=True)
            )
            continue
        out_n = trace_out(omega_n.entries, dims, (0, 2))
        s_n = spectrum_entropy(np.linalg.eigvalsh(out_n))
        pq = tensor(
            bases[0] @ bases[0].conj().T,
            bases[2] @ bases[2].conj().T,
        )
        residual = pq @ full_out @ pq / weight - out_n
        res_min = float(np.linalg.eigvalsh((residual + residual.conj().T) / 2.0)[0])
        bound = full_entropy / weight
        roof_val = ccooe(joint, omega_n, opts).value
        residual_ok = residual_ok and res_min >= -1e-9
        bound_ok = bound_ok and s_n <= bound + 1e-8
        steps.append(TruncationStep(n, weight, s_n, roof_val, res_min, bound))

    weights = [s.weight for s in steps if not s.skipped]
    monotone = all(b >= a - 1e-12 for a, b in zip(weights, weights[1:]))
    final_weight = weights[-1] if weights else 0.0
    live = [s for s in steps if not s.skipped]
    final_gap = abs(live[-1].output_entropy - full_entropy) if live else math.nan
    return TruncationTrace(
        factor_dims=dims,
        ranks=ranks,
        steps=steps,
        full_output_entropy=full_entropy,
        residual_ok=residual_ok,
        entropy_bound_ok=bound_ok,
        weights_monotone=monotone,
        final_weight=final_weight,
        final_entropy_gap=final_gap,
    )


# --- continuity and complement probes ----------------------------------------


@dataclass
class ProbeRow:
    index: int
    distance: float
    entropy_dev: float
    roof_dev: float


@dataclass
class ContinuityProbe:
    rows: list[ProbeRow]
    entropy_trend_ok: bool
    roof_trend_ok: bool
    final_entropy_dev: float
    final_roof_dev: float

    def table(self) -> list[dict]:
        return [
            {
                "index": r.index,
                "distance": r.distance,
                "entropy_dev": r.entropy_dev,
                "roof_dev": r.roof_dev,
            }
            for r in self.rows
        ]


def _median_trend_ok(values, tol: float = 5e-3) -> bool:
    if len(values) < 3:
        return True
    meds = [statistics.median(values[i : i + 3]) for i in range(len(values) - 2)]
    return all(b <= a + tol for a, b in zip(meds, meds[1:]))


def continuity_probe(
    channel: Channel,
    rho0: DensityMatrix,
    steps: int = 16,
    seed: int = 0,
    schedule=None,
    options: RoofOptions | None = None,
) -> ContinuityProbe:
    """Deviation table along a state sequence converging to rho0.

    The default schedule mixes a fixed random state into rho0 with weight
    1/n, so the path ends near rho0; pass `schedule` (a map n -> state) to
    probe a different sequence.  The output-entropy deviation column must
    trend to zero.  The roof-deviation column gets the same 3-point
    moving-median trend check but stays informative rather than decisive,
    because each entry is a difference of two optimizer upper bounds.
    """
    if steps < 1:
        raise ParameterError(f"need at least one step, got {steps}")
    if schedule is None:
        sigma = random_density(rho0.dim, rho0.dim, (seed, 977))
        schedule = lambda n: mixed_with(rho0, sigma, 1.0 / n)
    base_entropy = output_entropy(channel, rho0)
    base_roof = ccooe(channel, rho0, options).value
    rows = []
    for n in range(1, steps + 1):
        rho_n = schedule(n)
        rows.append(
            ProbeRow(
                index=n,
                distance=trace_norm(rho_n.entries - rho0.entries),
                entropy_dev=abs(output_entropy(channel, rho_n) - base_entropy),
                roof_dev=abs(ccooe(channel, rho_n, options).value - base_roof),
            )
        )
    return ContinuityProbe(
        rows=rows,
        entropy_trend_ok=_median_trend_ok([r.entropy_dev for r in rows]),
        roof_trend_ok=_median_trend_ok([r.roof_dev for r in rows]),
        final_entropy_dev=rows[-1].entropy_dev,
        final_roof_dev=rows[-1].roof_dev,
    )


@dataclass
class TransferRow:
    index: int
    margin: float
    margin_complement: float
    roof_left: float
    roof_left_complement: float

    @property
    def agreement_dev(self) -> float:
        return abs(self.roof_left - self.roof_left_complement)


@dataclass
class TransferProbe:
    rows: list[TransferRow]
    max_agreement_dev: float
    flagged: int


def complementary_transfer_probe(
    phi: Channel,
    psi: Channel,
    samples: int = 20,
    seed: int = 0,
    options: RoofOptions | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> TransferProbe:
    """Superadditivity margins for a channel pair and for its complements.

    Roofs are invariant under passing to the complement, so the left-marginal
    roof column must agree between the two runs (the probe records the
    largest deviation).
    """
    if samples < 1:
        raise ParameterError(f"need at least one sample, got {samples}")
    phi_hat, psi_hat = complementary(phi), complementary(psi)
    rows = []
    flagged = 0
    for i in range(samples):
        dim = phi.in_dim * psi.in_dim
        omega = random_density(dim, dim, (seed, i))
        direct = superadditivity_margin(
            phi, psi, omega, options, tolerance, state_label=f"sample-{i}"
        )
        mirrored = superadditivity_margin(
            phi_hat, psi_hat, omega, options, tolerance, state_label=f"sample-{i}"
        )
        flagged += int(direct.verdict == FLAGGED) + int(mirrored.verdict == FLAGGED)
        rows.append(
            TransferRow(
                index=i,
                margin=direct.margin,
                margin_complement=mirrored.margin,
                roof_left=direct.diagnostics["roof_left"],
                roof_left_complement=mirrored.diagnostics["roof_left"],
            )
        )
    return TransferProbe(
        rows=rows,
        max_agreement_dev=max(r.agreement_dev for r in rows),
        flagged=flagged,
    )


# --- random scans -------------------------------------------------------------


def channel_from_family(family: dict, rng: np.random.Generator) -> Channel:
    """Construct a channel from a small descriptor, drawing randomness from rng.

    Families: noiseless(dim), dephasing(q), depolarizing(dim),
    random(dim[, out][, env]), measure_prepare(dim, outcomes),
    phase(half_width, grid_size, density).
    """
    kind = family.get("family")
    if kind == "noiseless":
        return noiseless(int(family["dim"]))
    if kind == "dephasing":
        return dephasing(float(family.get("q", 0.25)))
    if kind == "depolarizing":
        return completely_depolarizing(int(family["dim"]))
    if kind == "random":
        dim = int(family["dim"])
        out = int(family.get("out", dim))
        env = int(family.get("env", dim))
        return random_stinespring(dim, out, env, rng)
    if kind == "measure_prepare":
        dim = int(family["dim"])
        outcomes = int(family.get("outcomes", dim))
        raw = []
        for _ in range(outcomes):
            gmat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            raw.append(gmat @ gmat.conj().T)
        total = sum(raw)
        vals, vecs = np.linalg.eigh(total)
        inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
        povm = [inv_sqrt @ a @ inv_sqrt for a in raw]
        outputs = []
        for _ in range(outcomes):
            gmat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            mat = gmat @ gmat.conj().T
            outputs.append(DensityMatrix(mat / mat.trace().real))
        return measure_prepare(povm, outputs)
    if kind == "phase":
        from .serialize import decode_phase_spec

        return random_phase_channel(decode_phase_spec(family))
    raise ParameterError(f"unknown channel family {kind!r}")


@dataclass
class ScanResult:
    reports: list[AdditivityReport]
    min_margin: float
    mean_margin: float
    flagged: int
    replay: list[dict]


_CHECKS = {
    "superadditivity": superadditivity_margin,
    "chi-subadditivity": chi_subadditivity_margin,
    "corollary-max": corollary_bound_check,
}


def scan_random(
    phi_family: dict,
    psi_family: dict,
    samples: int,
    seed: int = 0,
    options: RoofOptions | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    check: str = "superadditivity",
) -> ScanResult:
    """Deterministic batch of additivity checks over random channel pairs.

    Items run one after another in a single thread; channels and states for
    item i derive from (seed, i) streams, so reruns reproduce the batch
    exactly.  Flagged items are serialized into `replay`.
    """
    if samples < 0:
        raise ParameterError(f"sample count must be non-negative, got {samples}")
    if samples == 0:
        return ScanResult([], math.nan, math.nan, 0, [])
    if check not in _CHECKS:
        raise ParameterError(f"unknown check {check!r}; choose from {sorted(_CHECKS)}")
    runner = _CHECKS[check]

    def make_item(i: int):
        phi = channel_from_family(phi_family, rng_for(seed, i, 0))
        psi = channel_from_family(psi_family, rng_for(seed, i, 1))
        dim = phi.in_dim * psi.in_dim
        omega = random_density(dim, dim, (seed, i, 2))
        return phi, psi, omega

    reports = [
        runner(*make_item(i), options, tolerance, state_label=f"item-{i}")
        for i in range(samples)
    ]

    margins = [r.margin for r in reports]
    replay = []
    for i, rep in enumerate(reports):
        if rep.verdict == FLAGGED:
            phi, psi, omega = make_item(i)
            replay.append(
                {
                    "item": i,
                    "phi_family": phi_family,
                    "psi_family": psi_family,
                    "seed": seed,
                    "state_eigenvalues": sorted(np.linalg.eigvalsh(omega.entries).tolist()),
                    "report": rep.to_dict(),
                }
            )
    return ScanResult(
        reports=reports,
        min_margin=min(margins),
        mean_margin=float(sum(margins) / len(margins)),
        flagged=sum(r.verdict == FLAGGED for r in reports),
        replay=replay,
    )
