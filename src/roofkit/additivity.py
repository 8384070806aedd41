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
from dataclasses import asdict, dataclass, field

import numpy as np

from .channels import Channel, output_entropy, partial_trace_channel, tensor_channel
from .core import (
    DensityMatrix,
    SubsystemShape,
    marginals,
    mixed_with,
    partial_trace,
    random_density,
    require_count,
    require_real,
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
from .serialize import channel_from_family, check_family

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
    margin: float = field(init=False)
    tolerance: float
    verdict: str = INCONCLUSIVE
    refined: bool = False
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.margin = self.lhs - self.rhs


def _settle(build, options: RoofOptions | None, tolerance: float) -> AdditivityReport:
    """The report `build` makes at the options, with its verdict; a margin below
    -tolerance that could show a violation is rebuilt once with doubled restarts."""
    # NaN fails every margin comparison, so it would flag every check, and
    # reports write non-finite numbers as null
    tolerance = require_real(tolerance, "tolerance")
    options = options or RoofOptions()
    report = build(options)
    # a lower bound on the left against an upper bound on the right can never
    # even suggest a violation of lhs >= rhs
    if report.margin < -tolerance and (report.lhs_bound, report.rhs_bound) != ("lower", "upper"):
        first, report = report, build(options.refined())
        report.refined = True
        before = {"lhs": first.lhs, "rhs": first.rhs, "margin": first.margin}
        report.diagnostics["before_refinement"] = before
    report.tolerance = tolerance    # the float the verdict reads, not 0 or np.float64(0.5)
    if report.margin >= -tolerance:
        report.verdict = CONSISTENT
    elif report.refined:
        report.verdict = FLAGGED
    return report


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
TRIO_KINDS = tuple(_TRIO_ROWS)                  # the kinds margin_check takes, in table order


def _require_kind(kind) -> None:
    if kind not in TRIO_KINDS:
        raise ParameterError(f"unknown check {kind!r}; choose from {sorted(TRIO_KINDS)}")


def margin_check(
    kind: str,
    phi: Channel,
    psi: Channel,
    omega: DensityMatrix,
    options: RoofOptions | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    state_label: str = "omega",
) -> AdditivityReport:
    """Check one inequality of `_TRIO_ROWS` on the trio of omega and its marginals.

    "superadditivity": roof(joint) >= roof(left) + roof(right); both sides are
    optimizer upper bounds, so a negative margin is evidence of a convergence
    gap before it is evidence of anything else.
    "chi-subadditivity": chi(left) + chi(right) >= chi(joint); the chi values
    reuse the same roof runs, so margin(chi) = margin(roof) - (S(joint out) -
    S(left out) - S(right out)) holds exactly, and the roof margin is kept in
    the diagnostics.
    "corollary-max": roof(joint) >= max of the two marginal roofs.
    """
    _require_kind(kind)

    def build(opts: RoofOptions) -> AdditivityReport:
        roofs, entropy = _roof_trio(phi, psi, omega, opts)
        roof = {k: r.value for k, r in roofs.items()}
        lhs, lhs_bound, rhs, rhs_bound, extra = _TRIO_ROWS[kind](roof, entropy)
        diag = {f"roof_{k}": v for k, v in roof.items()}
        diag["converged"] = [r.converged for r in roofs.values()]
        diag["restarts_agreeing"] = [r.restarts_agreeing for r in roofs.values()]
        diag["restarts"] = roofs["joint"].restarts_used
        return AdditivityReport(
            kind, (phi.label, psi.label), state_label, lhs, lhs_bound, rhs, rhs_bound,
            tolerance, diagnostics={**diag, **extra},
        )

    return _settle(build, options, tolerance)


def min_output_margin(
    phi: Channel,
    psi: Channel,
    options: RoofOptions | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> AdditivityReport:
    """Check min-output-entropy(joint) >= max of the marginal minima."""

    def build(opts: RoofOptions) -> AdditivityReport:
        joint_val, _ = min_output_entropy(tensor_channel(phi, psi), opts)
        left_val, _ = min_output_entropy(phi, opts)
        right_val, _ = min_output_entropy(psi, opts)
        return AdditivityReport(
            "min-output", (phi.label, psi.label), "(pure optimum)", joint_val, "upper",
            max(left_val, right_val), "upper", tolerance,
            diagnostics={"min_left": left_val, "min_right": right_val},
        )

    return _settle(build, options, tolerance)


# --- truncation experiment --------------------------------------------------


@dataclass
class TruncationStep:
    rank: int
    weight: float
    output_entropy: float
    roof_value: float
    residual_min_eig: float
    entropy_bound: float
    converged: bool = False         # the rung's roof descent met grad_tol
    skipped: bool = False


@dataclass
class TruncationTrace:
    """Per-rank record of the compress-and-renormalize experiment."""

    factor_dims: tuple[int, ...]
    steps: list[TruncationStep]
    full_output_entropy: float
    residual_ok: bool
    entropy_bound_ok: bool
    weights_monotone: bool
    final_weight: float
    final_entropy_gap: float


def truncation_experiment(
    omega: DensityMatrix,
    shape: SubsystemShape,
    ranks,
    roof_options: RoofOptions | None = None,
) -> TruncationTrace:
    """Truncate a four-factor state factorwise and track the proof quantities.

    The state lives on factors (H, L, K, N); the channel under study traces out
    L and N.  For each requested rank the top eigenvectors of every factor
    marginal form the truncation projector; the compressed renormalized state
    must stay dominated by the compressed full output (residual PSD within
    1e-9) and obey the scaled entropy bound.  Ranks whose projector retains
    weight at or below 1e-12 are recorded as skipped.
    """
    if shape.factors != 4:
        raise ParameterError(f"need a four-factor shape, got {shape.factor_dims}")
    shape.require_total(omega.dim)
    dims = shape.factor_dims
    ranks = tuple(require_count(n, "rank", 1, max(dims)) for n in ranks)
    if not ranks or any(a >= b for a, b in zip(ranks, ranks[1:])):
        raise ParameterError(f"ranks must be non-empty and strictly ascending, got {ranks}")
    joint = partial_trace_channel(shape, (0, 2))
    full_out = trace_out(omega.entries, dims, (0, 2))
    full_entropy = spectrum_entropy(np.linalg.eigvalsh(full_out))
    margs = marginals(omega, shape)
    opts = roof_options or RoofOptions(restarts=4, max_iterations=250)

    steps: list[TruncationStep] = []
    residual_ok = True
    bound_ok = True
    for n in ranks:
        projector = TruncationProjector([top_eigenbasis(m, min(n, d)) for m, d in zip(margs, dims)])
        try:
            omega_n, weight = truncate_state(omega, projector)
        except DegenerateTruncationError:
            steps.append(
                TruncationStep(n, 0.0, math.nan, math.nan, math.nan, math.nan, skipped=True)
            )
            continue
        out_n = trace_out(omega_n.entries, dims, (0, 2))
        s_n = spectrum_entropy(np.linalg.eigvalsh(out_n))
        pq = tensor(projector.factor_projector(0), projector.factor_projector(2))
        residual = pq @ full_out @ pq / weight - out_n
        res_min = float(np.linalg.eigvalsh((residual + residual.conj().T) / 2.0)[0])
        bound = full_entropy / weight
        roof = ccooe(joint, omega_n, opts)
        residual_ok = residual_ok and res_min >= -1e-9
        bound_ok = bound_ok and s_n <= bound + 1e-8
        steps.append(TruncationStep(n, weight, s_n, roof.value, res_min, bound, roof.converged))

    weights = [s.weight for s in steps if not s.skipped]
    monotone = all(b >= a - 1e-12 for a, b in zip(weights, weights[1:]))
    final_weight = weights[-1] if weights else 0.0
    live = [s for s in steps if not s.skipped]
    final_gap = abs(live[-1].output_entropy - full_entropy) if live else math.nan
    return TruncationTrace(
        factor_dims=dims,
        steps=steps,
        full_output_entropy=full_entropy,
        residual_ok=residual_ok,
        entropy_bound_ok=bound_ok,
        weights_monotone=monotone,
        final_weight=final_weight,
        final_entropy_gap=final_gap,
    )


# --- continuity probe -------------------------------------------------------


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
    steps = require_count(steps, "steps")
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
                # first, so a state of another dimension raises output_entropy's
                # DimensionError before trace_norm subtracts it from rho0
                entropy_dev=abs(output_entropy(channel, rho_n) - base_entropy),
                distance=trace_norm(rho_n.entries - rho0.entries),
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


# --- random scans -------------------------------------------------------------


@dataclass
class ScanResult:
    reports: list[AdditivityReport]
    min_margin: float
    mean_margin: float
    flagged: int
    replay: list[dict]


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
    samples = require_count(samples, "samples", 0)
    for family in (phi_family, psi_family):
        check_family(family)
    _require_kind(check)
    tolerance = require_real(tolerance, "tolerance")

    def make_item(i: int):
        phi = channel_from_family(phi_family, rng_for(seed, i, 0))
        psi = channel_from_family(psi_family, rng_for(seed, i, 1))
        dim = phi.in_dim * psi.in_dim
        omega = random_density(dim, dim, (seed, i, 2))
        return phi, psi, omega

    reports = [
        margin_check(check, *make_item(i), options, tolerance, f"item-{i}")
        for i in range(samples)
    ]

    margins = [r.margin for r in reports] or [math.nan]    # an empty batch has no margin
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
                    "report": asdict(rep),
                }
            )
    return ScanResult(
        reports=reports,
        min_margin=min(margins),
        mean_margin=float(sum(margins) / len(margins)),
        flagged=sum(r.verdict == FLAGGED for r in reports),
        replay=replay,
    )
