"""JSON and CSV interchange.

Matrices travel as {"dim": n, "re": [[...]], "im": [[...]]} (rectangular ones
carry "rows"/"cols" instead of "dim"); floats are emitted via repr, which
round-trips doubles exactly.  CSV is reserved for tabular traces.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import partial

import numpy as np

from .channels import (
    Channel,
    GaussianDensity,
    RandomPhaseSpec,
    TabulatedDensity,
    UniformDensity,
)
from .core import DensityMatrix, PureState
from .errors import DimensionError, ParameterError
from .roof import Ensemble, RoofResult

VERSION = "0.1.0"


def encode_matrix(arr) -> dict:
    a = np.asarray(arr, dtype=complex)
    if a.ndim != 2:
        raise ParameterError(f"expected a matrix, got array of ndim {a.ndim}")
    body = {"re": a.real.tolist(), "im": a.imag.tolist()}
    if a.shape[0] == a.shape[1]:
        body["dim"] = a.shape[0]
    else:
        body["rows"], body["cols"] = a.shape
    return body


def decode_matrix(data: dict) -> np.ndarray:
    re = np.asarray(data["re"], dtype=float)
    im = np.asarray(data["im"], dtype=float)
    if re.ndim != 2 or re.shape != im.shape:
        raise ParameterError("re/im parts must be matching 2-d arrays")
    if "dim" in data:
        want = (int(data["dim"]),) * 2
    elif "rows" in data or "cols" in data:
        want = (int(data["rows"]), int(data["cols"]))
    else:
        want = re.shape
    if re.shape != want:
        raise DimensionError(f"declared shape {want} does not match entries {re.shape}")
    return re + 1j * im


def encode_vector(vec) -> dict:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return {"dim": v.shape[0], "re": v.real.tolist(), "im": v.imag.tolist()}


def decode_vector(data: dict) -> np.ndarray:
    re = np.asarray(data["re"], dtype=float)
    im = np.asarray(data["im"], dtype=float)
    if re.ndim != 1 or re.shape != im.shape:
        raise ParameterError("re/im parts must be matching 1-d arrays")
    if "dim" in data and re.shape[0] != int(data["dim"]):
        raise DimensionError(f"declared dim {data['dim']} does not match length {re.shape[0]}")
    return re + 1j * im


def encode_state(rho: DensityMatrix) -> dict:
    return encode_matrix(rho.entries)


def decode_state(data: dict) -> DensityMatrix:
    return DensityMatrix(decode_matrix(data))


def encode_channel(channel: Channel) -> dict:
    return {
        "label": channel.label,
        "in_dim": channel.in_dim,
        "out_dim": channel.out_dim,
        "kraus": [encode_matrix(k) for k in channel.kraus],
    }


def decode_channel(data: dict) -> Channel:
    ops = [decode_matrix(k) for k in data["kraus"]]
    channel = Channel(ops, label=str(data.get("label", "")))
    for key in ("in_dim", "out_dim"):
        if key in data and int(data[key]) != getattr(channel, key):
            raise DimensionError(
                f"declared {key}={data[key]} does not match Kraus shape {ops[0].shape}"
            )
    return channel


_float_array = partial(np.asarray, dtype=float)

# density family -> (its class, its fields with the type each decodes to)
_DENSITIES = {
    "gaussian": (GaussianDensity, {"std": float}),
    "uniform": (UniformDensity, {"half_width": float}),
    "custom": (TabulatedDensity, dict.fromkeys(("points", "values", "weights"), _float_array)),
}


def encode_density_profile(density) -> dict:
    for family, (cls, fields) in _DENSITIES.items():
        if isinstance(density, cls):
            return {"family": family, **{k: np.asarray(getattr(density, k)).tolist() for k in fields}}
    raise ParameterError(f"unknown density type {type(density).__name__}")


def decode_density_profile(data: dict):
    if not isinstance(data, dict):
        raise ParameterError(f"density profile must be a JSON object, got {data!r}")
    family = data.get("family")
    if not isinstance(family, str) or family not in _DENSITIES:
        raise ParameterError(f"unknown density family {family!r}")
    cls, fields = _DENSITIES[family]
    return cls(**{k: decode(data[k]) for k, decode in fields.items()})


def encode_phase_spec(spec: RandomPhaseSpec) -> dict:
    return {
        "a": spec.half_width,
        "d": spec.grid_size,
        "density": encode_density_profile(spec.density),
    }


def decode_phase_spec(data: dict) -> RandomPhaseSpec:
    for key in ("a", "d"):
        if key not in data:
            raise ParameterError(f"channel family 'phase' needs the key {key!r}")
    return RandomPhaseSpec(
        half_width=float(data["a"]),
        grid_size=int(data["d"]),
        density=decode_density_profile(data.get("density", {"family": "gaussian", "std": 1.0})),
    )


def encode_ensemble(ensemble: Ensemble) -> dict:
    return {
        "weights": np.asarray(ensemble.weights).tolist(),
        "states": [encode_vector(s.amplitudes) for s in ensemble.states],
    }


def decode_ensemble(data: dict) -> Ensemble:
    return Ensemble(
        np.asarray(data["weights"], dtype=float),
        [PureState(decode_vector(v)) for v in data["states"]],
    )


def encode_roof_result(result: RoofResult) -> dict:
    return {
        "value_nats": result.value,
        "upper_bound": True,
        "ensemble": encode_ensemble(result.ensemble),
        "restarts_used": result.restarts_used,
        "converged": result.converged,
        "diagnostics": {
            "best_restart": result.best_restart,
            "gradient_norm": result.gradient_norm,
            "iterations": result.iterations,
        },
    }


def _finite(obj):
    """obj with every NaN or infinite float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def dumps(obj) -> str:
    """Canonical strict JSON text: sorted keys, two-space indent, trailing
    newline, and null for the non-finite floats strict JSON cannot hold."""
    return json.dumps(_finite(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def csv_text(fieldnames, rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def write_csv(path, fieldnames, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(csv_text(fieldnames, rows))


ADDITIVITY_CSV_FIELDS = ("item", "lhs", "lhs_bound_dir", "rhs", "rhs_bound_dir", "margin", "verdict")
TRUNCATION_CSV_FIELDS = ("n", "weight", "H_n", "roof_n", "lambda_min")


def additivity_csv_rows(reports) -> list[dict]:
    return [
        {
            "item": i,
            "lhs": r.lhs,
            "lhs_bound_dir": r.lhs_bound,
            "rhs": r.rhs,
            "rhs_bound_dir": r.rhs_bound,
            "margin": r.margin,
            "verdict": r.verdict,
        }
        for i, r in enumerate(reports)
    ]


def truncation_csv_rows(trace) -> list[dict]:
    return [
        {
            "n": s.rank,
            "weight": s.weight,
            "H_n": s.output_entropy,
            "roof_n": s.roof_value,
            "lambda_min": s.residual_min_eig,
        }
        for s in trace.steps
    ]
