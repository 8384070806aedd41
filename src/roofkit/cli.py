"""Command-line front end.

Each subcommand declares the flags it reads, and its handler returns a result
payload and its CSV tables.  `main` wraps the payload in one JSON report
(stdout, or report.json under --out) embedding the tool version, the parsed
config, the seed and the wall time; the tables land as CSV files under --out.
All stored values are nats; --bits adds converted display fields only.

Exit codes: 0 clean, 1 error (usage errors included), 2 when any verdict is
flagged."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from .additivity import (
    DEFAULT_TOLERANCE,
    FLAGGED,
    TRIO_KINDS,
    margin_check,
    scan_random,
    truncation_experiment,
)
from .channels import (
    Channel,
    RandomPhaseSpec,
    output_entropy,
    phase_complement_gram_deviation,
    random_phase_channel,
    schur_matrix,
    tail_entropy_bound,
    tail_quantities,
)
from .core import DensityMatrix, SubsystemShape, has_type, random_pure, require_count, rng_for
from .entropy import EnergyConstraint, gibbs_state, von_neumann_entropy
from .errors import ParameterError, RoofkitError
from .roof import RoofOptions, ccooe, chi_direct, chi_from_roof, eof
from .serialize import (
    ADDITIVITY_CSV_FIELDS,
    TRUNCATION_CSV_FIELDS,
    VERSION,
    additivity_csv_rows,
    channel_from_family,
    decode_channel,
    decode_matrix,
    decode_phase_spec,
    decode_state,
    dumps,
    encode_roof_result,
    family_descriptor,
    named_state,
    read_json,
    truncation_csv_rows,
    write_csv,
    write_json,
)

LN2 = math.log(2.0)


def _json(text: str):
    """The JSON value given inline ({...}) or in the file at path `text`, unchecked."""
    text = text.strip()
    try:
        return json.loads(text) if text.startswith("{") else read_json(text)
    except RecursionError:
        raise ParameterError("JSON input is nested deeper than the decoder allows") from None


def _load_state(args) -> DensityMatrix:
    return decode_state(_json(args.state)) if args.state else named_state(args.named)


def _channel_dict(text: str):
    """A channel flag's JSON value, inline or in a file, else the descriptor its short form names."""
    text = text.strip()
    return _json(text) if text.startswith("{") or os.path.isfile(text) else family_descriptor(text)


def _load_channel(text: str, seed: int, stream: int) -> Channel:
    data = _channel_dict(text)
    if has_type(data, dict) and "kraus" in data:
        return decode_channel(data)
    return channel_from_family(data, rng_for(seed, stream))


def _numbers(text: str, sep: str, flag: str, form: str, kind=int, count=None) -> list:
    """The values of a flag written as `form`: numbers of one kind joined by sep."""
    try:
        values = [kind(v) for v in text.split(sep)]
    except ValueError:
        values = None
    if values is None or count not in (None, len(values)):
        raise ParameterError(f"{flag} {text!r} does not match the form {form}")
    return values


def _dims(text: str) -> SubsystemShape:
    return SubsystemShape(tuple(_numbers(text.lower(), "x", "--dims", "D1xD2...")))


def _options(args) -> RoofOptions:
    return RoofOptions(restarts=args.restarts, seed=args.seed)


# --- subcommand handlers: each returns (payload, [(csv name, columns, rows)]) ---


def cmd_entropy(args) -> tuple[dict, list]:
    rho = _load_state(args)
    return {"dim": rho.dim, "entropy_nats": von_neumann_entropy(rho)}, []


def cmd_ccooe(args) -> tuple[dict, list]:
    channel = _load_channel(args.channel, args.seed, 0)
    rho = _load_state(args)
    result = ccooe(channel, rho, _options(args))
    payload = encode_roof_result(result)
    payload["channel"] = channel.label
    return payload, []


def cmd_eof(args) -> tuple[dict, list]:
    rho = _load_state(args)
    result = eof(rho, _dims(args.dims), _options(args))
    return encode_roof_result(result), []


def cmd_chi(args) -> tuple[dict, list]:
    channel = _load_channel(args.channel, args.seed, 0)
    chi = chi_direct if args.method == "direct" else chi_from_roof
    payload = {
        "chi_nats": chi(channel, _load_state(args), _options(args)),
        "lower_bound": True,
        "method": args.method,
        "channel": channel.label,
    }
    return payload, []


# each margin mode and the kind of check it reports, one of additivity.TRIO_KINDS
_MARGIN_CMDS = {
    "margin": "superadditivity",
    "chi": "chi-subadditivity",
    "corollary": "corollary-max",
}


def cmd_margin(args) -> tuple[dict, list]:
    left = _load_channel(args.left, args.seed, 0)
    right = _load_channel(args.right, args.seed, 1)
    rho = _load_state(args)
    kind = _MARGIN_CMDS[args.mode]
    report = margin_check(kind, left, right, rho, _options(args), args.tolerance, "omega")
    return asdict(report), [("margins.csv", ADDITIVITY_CSV_FIELDS, additivity_csv_rows([report]))]


def cmd_truncate(args) -> tuple[dict, list]:
    rho = _load_state(args)
    ranks = tuple(_numbers(args.ranks, ",", "--ranks", "N1,N2,..."))
    trace = truncation_experiment(rho, _dims(args.dims), ranks, _options(args))
    return asdict(trace), [("truncation.csv", TRUNCATION_CSV_FIELDS, truncation_csv_rows(trace))]


def cmd_scan(args) -> tuple[dict, list]:
    families = (_channel_dict(args.left), _channel_dict(args.right))
    for flag, family in zip(("--left", "--right"), families):
        if has_type(family, dict) and "kraus" in family:
            raise ParameterError(
                f"{flag} holds Kraus operators; scans draw channels from a family descriptor"
            )
    result = scan_random(
        *families,
        args.samples,
        seed=args.seed,
        options=_options(args),
        tolerance=args.tolerance,
        check=args.check,
    )
    payload = {"samples": args.samples, "check": args.check, **asdict(result)}
    return payload, [("margins.csv", ADDITIVITY_CSV_FIELDS, additivity_csv_rows(result.reports))]


def _pure_entropies(channel: Channel, samples: int, *stream: int) -> tuple[float, float]:
    """Max and mean output entropy over `samples` random pure inputs, input i drawn
    from the stream (*stream, i)."""
    vals = [
        output_entropy(channel, random_pure(channel.in_dim, (*stream, i)).density())
        for i in range(samples)
    ]
    return max(vals), float(sum(vals) / len(vals))


def cmd_phase_channel(args) -> tuple[dict, list]:
    samples = require_count(args.samples, "--samples")
    spec = decode_phase_spec(_json(args.spec))
    channel = random_phase_channel(spec)
    b = schur_matrix(spec)
    bvals = np.linalg.eigvalsh(b)
    mixed = DensityMatrix(np.eye(spec.grid_size) / spec.grid_size)
    top, mean = _pure_entropies(channel, samples, args.seed)
    payload = {
        "a": spec.half_width,
        "d": spec.grid_size,
        "schur_min_eigenvalue": float(bvals[0]),
        "schur_diag_dev": float(np.max(np.abs(np.diag(b) - 1.0))),
        "output_entropy_mixed": output_entropy(channel, mixed),
        "empirical_entropy_bound": top,
        "mean_pure_entropy": mean,
    }
    tables = []
    if args.sweep:
        lo, hi = _numbers(args.sweep, ":", "--sweep", "LO:HI", count=2)
        if lo > hi:
            raise ParameterError(f"--sweep {args.sweep!r} has LO above HI")
        rows = []
        for d in range(lo, hi + 1):
            ch = random_phase_channel(RandomPhaseSpec(spec.half_width, d, spec.density))
            top, mean = _pure_entropies(ch, samples, args.seed, d)
            rows.append({"d": d, "max_entropy": top, "mean_entropy": mean})
        payload["sweep"] = rows
        tables.append(("phase_sweep.csv", ("d", "max_entropy", "mean_entropy"), rows))
    if args.tails:
        cap = payload["empirical_entropy_bound"]
        rows = []
        for d in _numbers(args.tails, ",", "--tails", "C1,C2,...", float):
            alpha, beta, gamma = tail_quantities(spec.density, d)
            row = {"d": d, "alpha": alpha, "beta": beta, "gamma": gamma}
            if d >= 1.0 and alpha < 1.0:
                row["entropy_bound"] = tail_entropy_bound(
                    spec.density, d, cap, payload["output_entropy_mixed"]
                )
            rows.append(row)
        payload["tails"] = rows
        tables.append(("phase_tails.csv", ("d", "alpha", "beta", "gamma", "entropy_bound"), rows))
    if args.cross_check:
        payload["complement_gram_dev"] = phase_complement_gram_deviation(
            spec, t_points=args.t_points
        )
    return payload, tables


def cmd_gibbs(args) -> tuple[dict, list]:
    ham = decode_matrix(_json(args.hamiltonian))
    state, beta, entropy = gibbs_state(EnergyConstraint(ham, args.level))
    payload = {
        "beta": beta,
        "level": args.level,
        "energy": float(np.trace(state.entries @ ham).real),
        "entropy_nats": entropy,
    }
    return payload, []


def _writes_tables(args) -> bool:
    """Whether the command's handler returns CSV tables, known before it runs."""
    if args.func is cmd_phase_channel:
        return bool(args.sweep or args.tails)
    return args.func in (cmd_margin, cmd_truncate, cmd_scan)


# --- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParameterError, so they exit 1 like every other bad input."""

    def error(self, message):
        raise ParameterError(message)


# the flags several subcommands share; each subcommand names the ones it reads
_SHARED = {
    "--state": {"help": "state JSON file"},
    "--named": {"help": "named state, e.g. mixed:4 or bell"},
    "--seed": {"type": int, "default": RoofOptions.seed},
    "--restarts": {"type": int, "default": RoofOptions.restarts},
    "--tolerance": {"type": float, "default": DEFAULT_TOLERANCE},
    "--bits": {"action": "store_true", "help": "add bit-valued display fields"},
    "--left": {"required": True, "help": "channel file or family"},
    "--right": {"required": True, "help": "channel file or family"},
}
_STATE = ("--state", "--named")
_ROOF = ("--seed", "--restarts")


def _subcommand(sub, name: str, func, help: str, *shared: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help)
    # a command that reads a state takes exactly one of --state and --named
    state = p.add_mutually_exclusive_group(required=True) if "--state" in shared else None
    for flag in shared:
        (state if flag in _STATE else p).add_argument(flag, **_SHARED[flag])
    p.add_argument("--out", default=None, help="output directory for report files")
    p.add_argument("--format", choices=("json", "csv", "both"), default="json")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="roofkit",
        description="Output-entropy convex roofs, Holevo quantities and additivity probes.",
    )
    parser.add_argument("--version", action="version", version=f"roofkit {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    _subcommand(sub, "entropy", cmd_entropy, "von Neumann entropy of a state", *_STATE, "--bits")
    p = _subcommand(sub, "ccooe", cmd_ccooe, "convex-roof upper bound of the output entropy",
                    *_STATE, *_ROOF, "--bits")
    p.add_argument("--channel", required=True)
    p = _subcommand(sub, "eof", cmd_eof, "entanglement of formation across a bipartite cut",
                    *_STATE, *_ROOF, "--bits")
    p.add_argument("--dims", required=True, help="factor dims, e.g. 2x2")
    p = _subcommand(sub, "chi", cmd_chi, "constrained Holevo quantity at a state",
                    *_STATE, *_ROOF, "--bits")
    p.add_argument("--channel", required=True)
    p.add_argument("--method", choices=("roof", "direct"), default="roof")

    modes = sub.add_parser(
        "additivity", help="margin checks, truncation traces and scans"
    ).add_subparsers(dest="mode", required=True)
    for mode in _MARGIN_CMDS:
        _subcommand(modes, mode, cmd_margin, f"{mode} check of a channel pair at a state",
                    "--left", "--right", *_STATE, *_ROOF, "--tolerance")
    p = _subcommand(modes, "truncate", cmd_truncate, "truncation ladder of a four-factor state",
                    *_STATE, *_ROOF)
    p.add_argument("--dims", required=True, help="four factors, e.g. 2x2x2x2")
    p.add_argument("--ranks", default="1,2", help="strictly ascending ranks")
    p = _subcommand(modes, "scan", cmd_scan, "margin checks over random draws of two families",
                    "--left", "--right", *_ROOF, "--tolerance")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--check", choices=TRIO_KINDS, default="superadditivity")

    p = _subcommand(sub, "phase-channel", cmd_phase_channel,
                    "discretized random-phase channel probes", "--seed")
    p.add_argument("--spec", required=True, help="spec JSON file or inline JSON")
    p.add_argument("--samples", type=int, default=16)
    p.add_argument("--sweep", default=None, help="grid-size range lo:hi")
    p.add_argument("--tails", default=None, help="comma list of cutoffs")
    p.add_argument("--cross-check", action="store_true", dest="cross_check")
    p.add_argument("--t-points", type=int, default=64, dest="t_points")
    p = _subcommand(sub, "gibbs", cmd_gibbs, "maximum-entropy state at fixed mean energy", "--bits")
    p.add_argument("--hamiltonian", required=True, help="Hermitian matrix JSON file")
    p.add_argument("--level", type=float, required=True)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        command = args.command + (f"-{args.mode}" if args.command == "additivity" else "")
        if args.format != "json" and not args.out:
            raise ParameterError(f"--format {args.format} writes files: give --out DIR")
        if args.format == "csv" and not _writes_tables(args):
            raise ParameterError(f"--format csv writes nothing: {command} has no tables")
        started = time.perf_counter()
        payload, tables = args.func(args)
        if getattr(args, "bits", False):    # a base-2 copy of each top-level entropy
            payload.update({
                key.removesuffix("_nats") + "_bits": value / LN2
                for key, value in payload.items()
                if key.endswith("_nats") and isinstance(value, float)
            })
        report = {
            "tool": "roofkit",
            "version": VERSION,
            "command": command,
            "config": {k: v for k, v in vars(args).items() if not callable(v)},
            "seed": getattr(args, "seed", 0),
            "walltime_s": time.perf_counter() - started,
            "result": payload,
        }
        if not args.out:
            sys.stdout.write(dumps(report))
        else:
            os.makedirs(args.out, exist_ok=True)
            if args.format in ("json", "both"):
                write_json(os.path.join(args.out, "report.json"), report)
            if args.format in ("csv", "both"):
                for name, columns, rows in tables:
                    write_csv(os.path.join(args.out, name), columns, rows)
    except (RoofkitError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    flagged = payload.get("verdict") == FLAGGED or payload.get("flagged", 0) > 0
    return 2 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
