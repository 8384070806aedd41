"""JSON and CSV interchange, and the channel-family and named-state tables.

Matrices travel as {"dim": n, "re": [[...]], "im": [[...]]} (rectangular ones
carry "rows"/"cols" instead of "dim"); floats are emitted via repr, which
round-trips doubles exactly.  CSV is reserved for tabular traces.  Every
descriptor value (a family key, a named state's value, a phase spec, a noise
density field, a matrix header or its entries, a Kraus or ensemble list), short
forms `kind:v1:v2...` included, is checked against its key's type by one rule,
`_typed`, never cast; decoders read only what it returns.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from .channels import (
    Channel,
    GaussianDensity,
    RandomPhaseSpec,
    TabulatedDensity,
    UniformDensity,
    completely_depolarizing,
    dephasing,
    measure_prepare,
    noiseless,
    random_phase_channel,
    random_stinespring,
)
from .core import DensityMatrix, PureState, has_type, random_density, random_pure, require_count
from .errors import DimensionError, ParameterError
from .roof import Ensemble, RoofResult

VERSION = "0.1.0"


def _typed(what: str, data, keys: dict, needs=()) -> dict:
    """data's values, each checked against its type in `keys` and read by it: the one rule
    of every descriptor.  data must be a JSON object, keys outside `keys` or missing from
    `needs` are errors, and int keys (dimensions, counts, grid sizes) are read by `require_count`
    as counts >= 1, or >= 0 for a key named seed.  A key typed by a decoder holds a nested JSON
    object, and one typed [decoder] a JSON list of them; their errors get the key's name."""
    if not has_type(data, dict):
        raise ParameterError(f"{what} must be a JSON object (a dict), got {data!r}")
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ParameterError(f"{what} takes no key {unknown[0]!r}; its keys are {list(keys)}")
    for key in needs:
        if key not in data:
            raise ParameterError(f"{what} needs the key {key!r}")
    values = {}
    for key in (k for k in keys if k in data):
        want, value = keys[key], data[key]
        listed = isinstance(want, list)     # [decoder]: any JSON list, each item read by it
        kind = list if listed else want
        fits = not isinstance(kind, type) or (isinstance(value, list) if listed else has_type(value, kind))
        if not fits:
            raise ParameterError(f"{what} key {key!r} must be of type {kind.__name__}, got {value!r}")
        if want is int:     # numpy sizes arrays by int keys; a seed may be 0
            value = require_count(value, f"{what} key {key!r}", 0 if key == "seed" else 1)
        try:
            values[key] = [want[0](item) for item in value] if listed else want(value)
        except ParameterError as exc:   # only decoders raise it
            raise ParameterError(f"{what} key {key!r}: {exc}") from None
    return values


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


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array re + i im with both parts' bits, the sign of -0.0 included."""
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def decode_matrix(data: dict) -> np.ndarray:
    keys = {"dim": int, "rows": int, "cols": int, "re": list, "im": list}
    values = _typed("matrix", data, keys, needs=("re", "im"))
    rows = values["re"] + values["im"]      # 2-d parts, checked before numpy's 64-dimension cap
    if not all(isinstance(row, list) and not any(isinstance(x, list) for x in row) for row in rows):
        raise ParameterError("re/im parts must be matching 2-d arrays")
    re = np.asarray(values["re"], dtype=float)
    im = np.asarray(values["im"], dtype=float)
    if re.ndim != 2 or re.shape != im.shape:
        raise ParameterError("re/im parts must be matching 2-d arrays")
    # each header key is checked against the entries, so keys that disagree are refused
    for key, axes in (("dim", (0, 1)), ("rows", (0,)), ("cols", (1,))):
        if key in values and any(re.shape[axis] != values[key] for axis in axes):
            raise DimensionError(f"declared {key} {values[key]} does not match entries {re.shape}")
    return _complex(re, im)


def encode_vector(vec) -> dict:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return {"dim": v.shape[0], "re": v.real.tolist(), "im": v.imag.tolist()}


def decode_vector(data: dict) -> np.ndarray:
    values = _typed("vector", data, {"dim": int, "re": list, "im": list}, needs=("re", "im"))
    re, im = values["re"], values["im"]     # flat lists, checked before numpy's 64-dimension cap
    if len(re) != len(im) or any(isinstance(x, list) for x in re + im):
        raise ParameterError("re/im parts must be matching 1-d arrays")
    re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
    if "dim" in values and re.shape[0] != values["dim"]:
        raise DimensionError(f"declared dim {values['dim']} does not match length {re.shape[0]}")
    return _complex(re, im)


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
    keys = {"label": str, "in_dim": int, "out_dim": int, "kraus": [decode_matrix]}
    values = _typed("channel", data, keys, needs=("kraus",))
    ops = values["kraus"]
    channel = Channel(ops, label=values.get("label", ""))
    for key in ("in_dim", "out_dim"):
        if key in values and values[key] != getattr(channel, key):
            raise DimensionError(
                f"declared {key}={values[key]} does not match Kraus shape {ops[0].shape}"
            )
    return channel


# density family -> (its fields with their types, all needed, its class): _FAMILIES's layout
_DENSITIES = {
    "gaussian": ({"std": float}, ("std",), GaussianDensity),
    "uniform": ({"half_width": float}, ("half_width",), UniformDensity),
    "custom": (dict.fromkeys(("points", "values", "weights"), list), ("points", "values", "weights"),
               TabulatedDensity),
}


def encode_density_profile(density) -> dict:
    for family, (fields, _, cls) in _DENSITIES.items():
        if isinstance(density, cls):
            return {"family": family, **{k: np.asarray(getattr(density, k)).tolist() for k in fields}}
    raise ParameterError(f"unknown density type {type(density).__name__}")


def decode_density_profile(data: dict):
    """The density a profile describes, read by its _DENSITIES row."""
    (_, _, cls), values = _family_row(data, _DENSITIES, "density family")
    return cls(**values)


def encode_phase_spec(spec: RandomPhaseSpec) -> dict:
    return {
        "a": spec.half_width,
        "d": spec.grid_size,
        "density": encode_density_profile(spec.density),
    }


def decode_phase_spec(data: dict) -> RandomPhaseSpec:
    """The spec of a phase-family descriptor's values, read by the family's row."""
    keys, needs, _ = _FAMILIES["phase"]
    return _phase_spec(**_typed("channel family 'phase'", data, keys, needs))


def _phase_spec(a: float, d: int, density=GaussianDensity(1.0)) -> RandomPhaseSpec:
    return RandomPhaseSpec(a, d, density)


# --- channel families -----------------------------------------------------------


def _random_measure_prepare(rng: np.random.Generator, dim: int, outcomes: int | None = None) -> Channel:
    """Effects S^(-1/2) G_i G_i* S^(-1/2), S the sum of the G_i G_i*, and outputs H_i H_i* over
    their trace, for complex Gaussian G_i then H_i, each drawn real part first."""
    draw = rng.normal(size=(2, outcomes or dim, 2, dim, dim))
    g = draw[:, :, 0] + 1j * draw[:, :, 1]
    raw, mats = g @ g.conj().transpose(0, 1, 3, 2)
    vals, vecs = np.linalg.eigh(sum(raw))
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    outputs = [DensityMatrix(m / m.trace().real) for m in mats]
    return measure_prepare(inv_sqrt @ raw @ inv_sqrt, outputs)


# family -> (the keys its descriptor may carry besides "family", with their
# types, in the order a CLI short form `family:v1:v2...` fills them; the keys
# it needs; its builder, called with the generator and the descriptor's
# values).  Omitted keys default to q = 0.25, out = env = outcomes = dim and a
# Gaussian density of std 1.
_FAMILIES = {
    "noiseless": ({"dim": int}, ("dim",), lambda rng, dim: noiseless(dim)),
    "dephasing": ({"q": float}, (), lambda rng, q=0.25: dephasing(q)),
    "depolarizing": ({"dim": int}, ("dim",), lambda rng, dim: completely_depolarizing(dim)),
    "random": ({"dim": int, "out": int, "env": int}, ("dim",),
               lambda rng, dim, out=None, env=None: random_stinespring(dim, out or dim, env or dim, rng)),
    "measure_prepare": ({"dim": int, "outcomes": int}, ("dim",), _random_measure_prepare),
    "phase": ({"a": float, "d": int, "density": decode_density_profile}, ("a", "d"),
              lambda rng, **spec: random_phase_channel(_phase_spec(**spec))),
}


# named state -> (its values with their types, in the order its short form
# `kind:v1:v2...` fills them; the values it needs; its builder, called with
# them): _FAMILIES's layout.  Omitted values default to seed = 0 and rank = dim.
_STATES = {
    "mixed": ({"dim": int}, ("dim",), lambda dim: DensityMatrix(np.eye(dim) / dim)),
    "pure": ({"dim": int, "seed": int}, ("dim",), lambda dim, seed=0: random_pure(dim, seed).density()),
    "random": ({"dim": int, "rank": int, "seed": int}, ("dim",),
               lambda dim, rank=None, seed=0: random_density(dim, rank or dim, seed)),
    "bell": ({}, (), lambda: PureState(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)).density()),
    "plus": ({}, (), lambda: PureState(np.array([1.0, 1.0]) / math.sqrt(2)).density()),
    "diag": ({"p": list}, ("p",), lambda p: DensityMatrix(np.diag(p))),
}

# how a short form's text fills a key of each type; a kind with a key of any
# other type (the phase family's density) has no short form
_SHORT = {int: int, float: float, list: lambda text: [float(v) for v in text.split(",")]}


def _short_form(text: str, table: dict, noun: str) -> dict:
    """The descriptor of `table` that `kind:v1:v2...` stands for: its values fill the
    kind's keys in order, each read from text by its key's type; _typed checks the rest."""
    kind, *values = text.split(":")
    if kind not in table:   # refused by _family_row, which names it
        return {"family": kind}
    keys = table[kind][0]
    if not all(want in _SHORT for want in keys.values()):
        raise ParameterError(f"no {noun} short form {text!r}; give a JSON descriptor")
    mismatch = f"{noun} {kind!r} takes the values {list(keys)}, not {text!r}"
    if len(values) > len(keys):
        raise ParameterError(mismatch)
    try:    # each value must be a number, or a comma list of them, of its key's type
        return {"family": kind, **{k: _SHORT[want](v) for (k, want), v in zip(keys.items(), values)}}
    except ValueError:
        raise ParameterError(mismatch) from None


def _family_row(data, table: dict, noun: str):
    """The row of `table` that data's "family" names, and data's other values read by
    _typed against it.  `noun` names the table's kinds in errors."""
    if not has_type(data, dict):
        raise ParameterError(f"{noun} descriptor must be a JSON object (a dict), got {data!r}")
    kind = data.get("family")
    if not isinstance(kind, str) or kind not in table:
        raise ParameterError(f"unknown {noun} {kind!r}")
    keys, needs, _ = row = table[kind]
    rest = {k: v for k, v in data.items() if k != "family"}
    return row, _typed(f"{noun} {kind!r}", rest, keys, needs)


def named_state(text: str) -> DensityMatrix:
    """The state a named short form such as mixed:4, random:4:2:7 or bell stands for."""
    descriptor = _short_form(text, _STATES, "named state")
    (_, _, build), values = _family_row(descriptor, _STATES, "named state")
    return build(**values)


def family_descriptor(text: str) -> dict:
    """The channel family descriptor a short form such as random:2:3 stands for."""
    return _short_form(text, _FAMILIES, "channel family")


def check_family(family: dict) -> None:
    """Refuse a descriptor that channel_from_family refuses, before drawing anything."""
    _family_row(family, _FAMILIES, "channel family")


def channel_from_family(family: dict, rng: np.random.Generator) -> Channel:
    """Construct a channel from a descriptor by its _FAMILIES row, drawing randomness from rng."""
    (_, _, build), values = _family_row(family, _FAMILIES, "channel family")
    return build(rng, **values)


def encode_ensemble(ensemble: Ensemble) -> dict:
    return {
        "weights": np.asarray(ensemble.weights).tolist(),
        "states": [encode_vector(s.amplitudes) for s in ensemble.states],
    }


def decode_ensemble(data: dict) -> Ensemble:
    keys = {"weights": list, "states": [decode_vector]}
    values = _typed("ensemble", data, keys, needs=tuple(keys))
    weights = np.asarray(values["weights"], dtype=float)
    return Ensemble(weights, [PureState(v) for v in values["states"]])


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
            "restarts_agreeing": result.restarts_agreeing,
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
    writer.writerows(rows)
    return buf.getvalue()


def write_csv(path, fieldnames, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(csv_text(fieldnames, rows))


ADDITIVITY_CSV_FIELDS = ("item", "lhs", "lhs_bound_dir", "rhs", "rhs_bound_dir", "margin", "verdict")
TRUNCATION_CSV_FIELDS = ("n", "weight", "H_n", "roof_n", "lambda_min")


def additivity_csv_rows(reports) -> list[dict]:
    return [
        dict(zip(ADDITIVITY_CSV_FIELDS, (i, r.lhs, r.lhs_bound, r.rhs, r.rhs_bound, r.margin, r.verdict)))
        for i, r in enumerate(reports)
    ]


def truncation_csv_rows(trace) -> list[dict]:
    return [
        dict(zip(TRUNCATION_CSV_FIELDS, (s.rank, s.weight, s.output_entropy, s.roof_value, s.residual_min_eig)))
        for s in trace.steps
    ]
