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
import numbers
import statistics
from dataclasses import asdict, dataclass, field

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
    marginals,
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
from .roof import RoofOptions, average_output_entropy, ccooe, min_output_entropy
from .serialize import decode_phase_spec

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


def _violation_possible(lhs_bound: str, rhs_bound: str) -> bool:
    # a lower bound on the left against an upper bound on the right can never
    # even suggest a violation of lhs >= rhs
    return not (lhs_bound == "lower" and rhs_bound == "upper")


def _settle(report: AdditivityReport, recompute) -> AdditivityReport:
    """Apply the verdict policy, refining once when the margin looks negative."""
    if report.margin >= -report.tolerance:
        report.verdict = CONSISTENT
        return report
    if not _violation_possible(report.lhs_bound, report.rhs_bound):
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


def _checked(build, options: RoofOptions | None, tolerance: float) -> AdditivityReport:
    # NaN fails every margin comparison, so it would flag every check, and
    # reports write non-finite numbers as null
    if not math.isfinite(tolerance):
        raise ParameterError(f"tolerance must be finite, got {tolerance!r}")
    options = options or RoofOptions()
    return _settle(build(options), lambda: build(options.refined()))


def _trio_check(kind, phi, psi, omega, options, tolerance, state_label, observe=lambda r: {}):
    """One check on one trio; `observe` maps its RoofResults to extra diagnostics."""
    def build(opts: RoofOptions) -> AdditivityReport:
        roofs, entropy = _roof_trio(phi, psi, omega, opts)
        roof = {k: r.value for k, r in roofs.items()}
        lhs, lhs_bound, rhs, rhs_bound, extra = _TRIO_ROWS[kind](roof, entropy)
        diag = {f"roof_{k}": v for k, v in roof.items()}
        diag["converged"] = [r.converged for r in roofs.values()]
        diag["restarts"] = roofs["joint"].restarts_used
        return _report(
            kind, (phi.label, psi.label), state_label, lhs, lhs_bound, rhs, rhs_bound,
            tolerance, {**diag, **extra, **observe(roofs)},
        )

    return _checked(build, options, tolerance)


def superadditivity_margin(
    phi: Channel,
    psi: Channel,
    omega: DensityMatrix,
    options: RoofOptions | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    state_label: str = "omega",
) -> AdditivityReport:
    """Check roof(joint) >= roof(left marginal) + roof(right marginal).

    Both sides are optimizer upper bounds, so a negative margin is evidence
    of a convergence gap before it is evidence of anything else.
    """
    return _trio_check(
        "superadditivity", phi, psi, omega, options, tolerance, state_label
    )


def chi_subadditivity_margin(
    phi: Channel,
    psi: Channel,
    omega: DensityMatrix,
    options: RoofOptions | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    state_label: str = "omega",
) -> AdditivityReport:
    """Check chi(left) + chi(right) >= chi(joint) at the given input.

    The chi values reuse the same roof runs as the superadditivity check, so
    margin(chi) = margin(roof) - (S(joint out) - S(left out) - S(right out))
    holds as an exact arithmetic identity; the roof margin is kept in the
    diagnostics.
    """
    return _trio_check(
        "chi-subadditivity", phi, psi, omega, options, tolerance, state_label
    )


def corollary_bound_check(
    phi: Channel,
    psi: Channel,
    omega: DensityMatrix,
    options: RoofOptions | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    state_label: str = "omega",
) -> AdditivityReport:
    """Check roof(joint) >= max of the two marginal roofs."""
    return _trio_check(
        "corollary-max", phi, psi, omega, options, tolerance, state_label
    )


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
        return _report(
            "min-output", (phi.label, psi.label), "(pure optimum)", joint_val, "upper",
            max(left_val, right_val), "upper", tolerance,
            {"min_left": left_val, "min_right": right_val},
        )

    return _checked(build, options, tolerance)


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
    if not ranks or ranks[0] < 1 or any(a >= b for a, b in zip(ranks, ranks[1:])):
        raise ParameterError(f"ranks must be a non-empty strictly ascending list, got {ranks}")
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
    item: int
    margin: float
    margin_complement: float
    roof_left: float
    roof_left_complement: float
    agreement_dev: float


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
    """Superadditivity margins for a channel pair, read also through its complements.

    A pure input's output and its complementary output share their nonzero
    spectrum, so each sample runs one trio and reads its witness ensembles
    under the complements too.  `agreement_dev` compares the two readings of
    the left-marginal roof; `flagged` counts flagged samples.
    """
    if samples < 1:
        raise ParameterError(f"need at least one sample, got {samples}")
    phi_hat, psi_hat = complementary(phi), complementary(psi)
    hats = {"joint": tensor_channel(phi_hat, psi_hat), "left": phi_hat, "right": psi_hat}

    def observe(roofs):
        return {f"hat_{k}": average_output_entropy(hats[k], r.ensemble) for k, r in roofs.items()}

    rows, flagged = [], 0
    for i in range(samples):
        dim = phi.in_dim * psi.in_dim
        omega = random_density(dim, dim, (seed, i))
        report = _trio_check(
            "superadditivity", phi, psi, omega, options, tolerance, f"sample-{i}", observe
        )
        flagged += report.verdict == FLAGGED
        diag = report.diagnostics
        rows.append(
            TransferRow(
                item=i,
                margin=report.margin,
                margin_complement=diag["hat_joint"] - (diag["hat_left"] + diag["hat_right"]),
                roof_left=diag["roof_left"],
                roof_left_complement=diag["hat_left"],
                agreement_dev=abs(diag["roof_left"] - diag["hat_left"]),
            )
        )
    return TransferProbe(
        rows=rows,
        max_agreement_dev=max(r.agreement_dev for r in rows),
        flagged=flagged,
    )


# --- random scans -------------------------------------------------------------


# family -> the keys its descriptor may carry besides "family", with their
# value types, in the order a CLI short form `family:v1:v2...` fills them
_FAMILY_KEYS = {
    "noiseless": {"dim": int},
    "dephasing": {"q": float},
    "depolarizing": {"dim": int},
    "random": {"dim": int, "out": int, "env": int},
    "measure_prepare": {"dim": int, "outcomes": int},
    "phase": {"a": float, "d": int, "density": dict},
}


def _family_kind(family: dict) -> str:
    """The descriptor's family, checked against its keys and their types in _FAMILY_KEYS.

    Every int key (a dimension, an outcome count or a grid size) must be at least 1.
    """
    kind = family.get("family")
    if not isinstance(kind, str) or kind not in _FAMILY_KEYS:
        raise ParameterError(f"unknown channel family {kind!r}")
    keys = _FAMILY_KEYS[kind]
    unknown = sorted(set(family) - set(keys) - {"family"})
    if unknown:
        raise ParameterError(
            f"channel family {kind!r} takes no key {unknown[0]!r}; its keys are {list(keys)}"
        )
    if "dim" in keys and "dim" not in family:
        raise ParameterError(f"channel family {kind!r} needs the key 'dim'")
    for key, want in keys.items():
        if key in family and not _has_type(family[key], want):
            raise ParameterError(
                f"channel family {kind!r} key {key!r} must be of type {want.__name__}, "
                f"got {family[key]!r}"
            )
        if want is int and key in family and family[key] < 1:
            raise ParameterError(
                f"channel family {kind!r} key {key!r} must be at least 1, got {family[key]!r}"
            )
    return kind


def _has_type(value, want: type) -> bool:
    """Whether a descriptor value fits its key: int keys take integral numbers, not bools."""
    if want is dict:
        return isinstance(value, dict)
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and (want is float or float(value).is_integer())


def channel_from_family(family: dict, rng: np.random.Generator) -> Channel:
    """Construct a channel from a descriptor, drawing randomness from rng.

    The keys each family takes are in _FAMILY_KEYS.  Omitted keys default to
    q = 0.25 and out = env = outcomes = dim; phase needs a and d.
    """
    kind = _family_kind(family)
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
    return random_phase_channel(decode_phase_spec(family))     # kind == "phase"


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
    for family in (phi_family, psi_family):
        _family_kind(family)
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
