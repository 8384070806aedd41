"""Command-line behavior: envelopes, exit codes, files, determinism."""

import json
import math
import sys

import numpy as np
import pytest

from roofkit import (
    DensityMatrix, channel_from_family, dephasing, random_density, random_pure, rng_for,
)
from roofkit import cli, roof
from roofkit.additivity import TRIO_KINDS
from roofkit.cli import main
from roofkit.serialize import (
    dumps, encode_channel, encode_state, family_descriptor, named_state, read_json,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out.strip().startswith("{") else None
    return code, payload, out.err


BIG = 10 ** 400    # a JSON integer too large for a float

# exit-1 inputs whose message must name the flag or the family at fault
NAMED_ERRORS = {
    # scans draw their channels from families, never from a fixed Kraus file
    ("additivity", "scan", "--left", "{kraus}", "--right", "noiseless:2"):
        "--left holds Kraus operators; scans draw channels from a family descriptor",
    ("additivity", "scan", "--left", "noiseless:2", "--right", "{kraus}"):
        "--right holds Kraus operators",
    # a negative seed is named, whether a roof or a channel draw reads it first
    ("eof", "--dims", "2x2", "--named", "bell", "--seed", "-1"):
        "seed must be an integer >= 0, got -1",
    ("ccooe", "--channel", "random:2:2:3", "--named", "mixed:2", "--seed", "-1"):
        "seed or stream index must be an integer >= 0",
    ("phase-channel", "--spec", '{"a": 1.0, "d": 4}', "--seed", "-1"):
        "seed or stream index must be an integer >= 0",
    # short forms with more values than their family has keys, or none at all
    ("ccooe", "--channel", "noiseless:2:7", "--named", "mixed:2"):
        "channel family 'noiseless' takes the values ['dim']",
    ("ccooe", "--channel", "random:2:2:2:9", "--named", "mixed:2"):
        "channel family 'random' takes the values ['dim', 'out', 'env']",
    ("ccooe", "--channel", "phase:1:4", "--named", "mixed:4"):
        "error: no channel family short form 'phase:1:4'; give a JSON descriptor\n",
    # an empty scan still checks its descriptors
    ("additivity", "scan", "--left", "noiseless", "--right", "noiseless:2", "--samples", "0"):
        "channel family 'noiseless' needs the key 'dim'",
    # state short forms with more values than they take
    ("entropy", "--named", "mixed:2:9"): "named state 'mixed' takes the values ['dim'], not 'mixed:2:9'",
    ("entropy", "--named", "bell:3"): "named state 'bell' takes the values [], not 'bell:3'",
    ("entropy", "--named", "diag:0.5,0.5:7"):
        "named state 'diag' takes the values ['p'], not 'diag:0.5,0.5:7'",
    ("entropy", "--named", "random:2:2:1:5"):
        "named state 'random' takes the values ['dim', 'rank', 'seed'], not 'random:2:2:1:5'",
    # descriptor values of the wrong JSON type
    ("ccooe", "--channel", '{"family": "noiseless", "dim": 2.7}', "--named", "mixed:2"):
        "channel family 'noiseless' key 'dim' must be of type int, got 2.7",
    ("ccooe", "--channel", '{"family": "dephasing", "q": true}', "--named", "mixed:2"):
        "channel family 'dephasing' key 'q' must be of type float, got True",
    ("ccooe", "--channel", '{"family": "random", "dim": 2, "env": false}', "--named", "mixed:2"):
        "channel family 'random' key 'env' must be of type int, got False",
    # state short forms whose values are not numbers of their form
    ("entropy", "--named", "pure:x"): "named state 'pure' takes the values ['dim', 'seed'], not 'pure:x'",
    ("entropy", "--named", "random:2:x"):
        "named state 'random' takes the values ['dim', 'rank', 'seed'], not 'random:2:x'",
    ("entropy", "--named", "diag:0.5,x"): "named state 'diag' takes the values ['p'], not 'diag:0.5,x'",
    # state values read like family keys: counts >= 1, and seeds counts >= 0
    ("entropy", "--named", "mixed:0"): "named state 'mixed' key 'dim' must be an integer >= 1, got 0",
    ("entropy", "--named", "mixed:-1"): "named state 'mixed' key 'dim' must be an integer >= 1, got -1",
    ("entropy", "--named", "random:3:0"):
        "named state 'random' key 'rank' must be an integer >= 1, got 0",
    ("entropy", "--named", "pure:3:-1"):
        "named state 'pure' key 'seed' must be an integer >= 0, got -1",
    ("entropy", "--named", "mixed"): "error: named state 'mixed' needs the key 'dim'\n",
    ("entropy", "--named", "vortex:3"): "error: unknown named state 'vortex'\n",
    ("ccooe", "--channel", "vortex:3", "--named", "mixed:2"): "error: unknown channel family 'vortex'\n",
    # non-finite values, which every tolerance comparison used to let through
    ("entropy", "--named", "diag:nan,1"): "density matrix has non-finite entries",
    ("entropy", "--named", "diag:inf,1"): "density matrix has non-finite entries",
    ("ccooe", "--channel", "noiseless:2", "--named", "diag:nan,1"):
        "density matrix has non-finite entries",
    ("additivity", "margin", "--left", "dephasing:0.25", "--right", "noiseless:2",
     "--named", "mixed:4", "--tolerance", "nan"): "tolerance must lie in (-inf, inf), got nan",
    # integer family keys below 1
    ("ccooe", "--channel", "measure_prepare:2:0", "--named", "mixed:2"):
        "channel family 'measure_prepare' key 'outcomes' must be an integer >= 1, got 0",
    ("ccooe", "--channel", "measure_prepare:0", "--named", "mixed:2"):
        "channel family 'measure_prepare' key 'dim' must be an integer >= 1, got 0",
    ("ccooe", "--channel", '{"family": "random", "dim": 2, "env": 0}', "--named", "mixed:2"):
        "channel family 'random' key 'env' must be an integer >= 1, got 0",
    # a NaN level failed every comparison in gibbs_state and exited 0
    ("gibbs", "--hamiltonian", '{"re": [[0, 0], [0, 1]], "im": [[0, 0], [0, 0]]}',
     "--level", "nan"): "energy level must lie in (-inf, inf), got nan",
    # flag values that are not numbers of the flag's form
    ("eof", "--dims", "2x", "--named", "bell"): "--dims '2x' does not match the form D1xD2...",
    ("additivity", "truncate", "--dims", "2x2x2x2", "--ranks", "1,,2", "--named", "mixed:16"):
        "--ranks '1,,2' does not match the form N1,N2,...",
    ("phase-channel", "--spec", '{"a": 1.0, "d": 4}', "--sweep", "3"):
        "--sweep '3' does not match the form LO:HI",
    ("phase-channel", "--spec", '{"a": 1.0, "d": 4}', "--sweep", "3:x"):
        "--sweep '3:x' does not match the form LO:HI",
    ("phase-channel", "--spec", '{"a": 1.0, "d": 4}', "--sweep", "3:5:9"):
        "--sweep '3:5:9' does not match the form LO:HI",
    ("phase-channel", "--spec", '{"a": 1.0, "d": 4}', "--tails", "1,x"):
        "--tails '1,x' does not match the form C1,C2,...",
    # an infinite cutoff exited 0 with null beta and entropy bound
    ("phase-channel", "--spec", '{"a": 1.0, "d": 4}', "--tails", "2,inf"):
        "error: cutoff must lie in (0, inf), got inf\n",
    # an empty range printed an empty sweep
    ("phase-channel", "--spec", '{"a": 1.0, "d": 4}', "--sweep", "5:3"):
        "--sweep '5:3' has LO above HI",
    # channel short-form values that are not numbers of their key's type
    ("ccooe", "--channel", "dephasing:x", "--named", "mixed:2"):
        "channel family 'dephasing' takes the values ['q'], not 'dephasing:x'",
    ("ccooe", "--channel", "random:2.5", "--named", "mixed:2"):
        "channel family 'random' takes the values ['dim', 'out', 'env'], not 'random:2.5'",
    # JSON matrix headers and entries are checked like family keys, not cast
    ("entropy", "--state", '{"dim": 2.7, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}'):
        "matrix key 'dim' must be of type int, got 2.7",
    ("entropy", "--state", '{"re": [["1", "0"], ["0", "0"]], "im": [[0, 0], [0, 0]]}'):
        "matrix key 're' must be of type list, got [['1', '0'], ['0', '0']]",
    ("entropy", "--state", '{"re": [[1, 0], [0, 0]], "im": [[0, 0], [0, true]]}'):
        "matrix key 'im' must be of type list, got [[0, 0], [0, True]]",
    ("ccooe", "--channel", '{"in_dim": 2.5, "kraus": [{"dim": 2, "re": [[1, 0], [0, 1]], '
     '"im": [[0, 0], [0, 0]]}]}', "--named", "mixed:2"):
        "channel key 'in_dim' must be of type int, got 2.5",
    ("ccooe", "--channel", '{"kraus": [{"dim": 2, "rows": 2, "re": [[1, 0], [0, 1]], '
     '"im": [[0, 0], [0, 0]], "scale": 2}]}', "--named", "mixed:2"):
        "channel key 'kraus': matrix takes no key 'scale'",
    # header keys that disagree: dim used to win over rows and cols
    ("entropy", "--state",
     '{"dim": 2, "rows": 3, "cols": 5, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}'):
        "error: declared rows 3 does not match entries (2, 2)\n",
    ("ccooe", "--channel", '{"kraus": [{"dim": 2, "cols": 3, "re": [[1, 0], [0, 1]], '
     '"im": [[0, 0], [0, 0]]}]}', "--named", "mixed:2"):
        "error: declared cols 3 does not match entries (2, 2)\n",
    # a Kraus value that is not a list of matrix objects, a top level that is not an
    # object, and ragged entries are named, not left to Python or numpy
    ("ccooe", "--channel", '{"kraus": 3}', "--named", "mixed:2"):
        "channel key 'kraus' must be of type list, got 3",
    ("ccooe", "--channel", '{"kraus": [3]}', "--named", "mixed:2"):
        "channel key 'kraus': matrix must be a JSON object (a dict), got 3",
    # zero-size operators used to reach numpy's max, which has no identity on them
    ("ccooe", "--channel", '{"kraus": [{"re": [[]], "im": [[]]}]}', "--named", "mixed:2"):
        "error: Kraus operators must be at least 1 x 1, got (1, 0)\n",
    ("ccooe", "--channel", "{three}", "--named", "mixed:2"):
        "channel family descriptor must be a JSON object (a dict), got 3",
    ("entropy", "--state", '{"re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]}'):
        "matrix key 're' must be of type list, got [[1, 0], [0]]",
    # integers too large for a float are typed errors, not an OverflowError
    ("ccooe", "--channel", f'{{"family": "dephasing", "q": {BIG}}}', "--named", "mixed:2"):
        f"channel family 'dephasing' key 'q' must be of type float, got {BIG}",
    ("entropy", "--state", f'{{"re": [[{BIG}]], "im": [[0]]}}'):
        f"matrix key 're' must be of type list, got [[{BIG}]]",
    # an int key above sys.maxsize is named, not left to numpy to size an array by
    ("ccooe", "--channel", f'{{"family": "noiseless", "dim": {BIG}}}', "--named", "mixed:2"):
        f"error: channel family 'noiseless' key 'dim' must be at most {sys.maxsize}, got {BIG}\n",
    # nests the type check walks without recursion, and one too deep for the decoder
    ("entropy", "--state", "{deep}"): "error: re/im parts must be matching 2-d arrays\n",
    ("entropy", "--state", "{deeper}"):
        "error: JSON input is nested deeper than the decoder allows\n",
}

# phase spec bodies that fail alike as `phase-channel --spec {BODY}` and as
# `--channel {"family": "phase", BODY}`: both routes read the family's row
PHASE_SPEC_ERRORS = {
    '"a": 1.0, "d": 4.5': "channel family 'phase' key 'd' must be of type int, got 4.5",
    '"a": true, "d": 4': "channel family 'phase' key 'a' must be of type float, got True",
    '"a": "1.5", "d": 4': "channel family 'phase' key 'a' must be of type float, got '1.5'",
    '"a": 1.0, "d": 4, "colour": "red"':
        "channel family 'phase' takes no key 'colour'; its keys are ['a', 'd', 'density']",
    '"a": 1.0, "d": 4, "density": {"family": "gaussian", "std": true}':
        "channel family 'phase' key 'density': "
        "density family 'gaussian' key 'std' must be of type float, got True",
    '"a": 1.0, "d": 4, "density": {"family": "gaussian", "std": "2"}':
        "channel family 'phase' key 'density': "
        "density family 'gaussian' key 'std' must be of type float, got '2'",
    '"a": 1.0, "d": 4, "density": {"family": "gaussian", "std": 1.0, "mean": 0.0}':
        "channel family 'phase' key 'density': "
        "density family 'gaussian' takes no key 'mean'; its keys are ['std']",
    f'"a": {BIG}, "d": 2': f"channel family 'phase' key 'a' must be of type float, got {BIG}",
    # JSON Infinity passes the float type check; it used to reach numpy as inf * 0
    '"a": Infinity, "d": 3': "half width must lie in (0, 8.98847e+307), got inf",
    # the grid spans 2a, which must be finite
    '"a": 1e308, "d": 3': "half width must lie in (0, 8.98847e+307), got 1e+308",
    '"a": 1.0, "d": 3, "density": {"family": "gaussian", "std": Infinity}':
        "channel family 'phase' key 'density': "
        "standard deviation must lie in (0, inf), got inf",
    '"a": 1.0, "d": 3, "density": {"family": "uniform", "half_width": Infinity}':
        "channel family 'phase' key 'density': half width must lie in (0, inf), got inf",
    '"a": 1.0, "d": 3, "density": {"family": "custom", "points": [0.0], "values": [NaN], '
    '"weights": [1.0]}':
        "channel family 'phase' key 'density': points, values and weights have non-finite entries",
    # u x overflowed and the channel reached the eigensolver with NaN entries
    '"a": 1e300, "d": 3, "density": {"family": "custom", "points": [-1e10, 0.0, 1e10], '
    '"values": [0.25, 0.5, 0.25], "weights": [1.0, 1.0, 1.0]}':
        "half width 1e+300 and tabulated points up to |x| = 1e+10 put the phases u x "
        "beyond the float range",
}
for body, message in PHASE_SPEC_ERRORS.items():
    NAMED_ERRORS[("phase-channel", "--spec", f"{{{body}}}")] = f"error: {message}\n"
    NAMED_ERRORS[("ccooe", "--channel", f'{{"family": "phase", {body}}}', "--named", "mixed:4")] = (
        f"error: {message}\n"
    )


class TestEntropy:
    def test_maximally_mixed(self, capsys):
        code, payload, _ = run(capsys, "entropy", "--named", "mixed:4")
        assert code == 0
        assert payload["command"] == "entropy"
        assert payload["result"]["entropy_nats"] == pytest.approx(math.log(4.0), abs=1e-12)

    def test_pure_state(self, capsys):
        code, payload, _ = run(capsys, "entropy", "--named", "pure:3:5")
        assert code == 0
        assert payload["result"]["entropy_nats"] == pytest.approx(0.0, abs=1e-12)

    def test_pure_file_state_prints_positive_zero(self, capsys, tmp_path):
        state_file = tmp_path / "state.json"
        state_file.write_text(dumps(encode_state(DensityMatrix(np.diag([1.0, 0.0])))))
        assert main(["entropy", "--state", str(state_file)]) == 0
        assert '"entropy_nats": 0.0\n' in capsys.readouterr().out

    def test_file_round_trip(self, capsys, tmp_path):
        rho = random_density(3, 3, 21)
        state_file = tmp_path / "state.json"
        state_file.write_text(dumps(encode_state(rho)))
        code, payload, _ = run(capsys, "entropy", "--state", str(state_file))
        assert code == 0
        from roofkit import von_neumann_entropy

        assert payload["result"]["entropy_nats"] == pytest.approx(
            von_neumann_entropy(rho), abs=1e-12
        )

    def test_envelope_shape(self, capsys):
        _, payload, _ = run(capsys, "entropy", "--named", "mixed:2")
        assert {"tool", "version", "command", "config", "seed", "walltime_s", "result"} <= set(
            payload
        )


class TestRoofCommands:
    def test_ccooe_noiseless(self, capsys):
        code, payload, _ = run(
            capsys, "ccooe", "--channel", "noiseless:2", "--named", "random:2:2:7",
            "--restarts", "4",
        )
        assert code == 0
        assert payload["result"]["value_nats"] <= 1e-9
        assert payload["result"]["upper_bound"] is True

    def test_eof_bell(self, capsys):
        code, payload, _ = run(
            capsys, "eof", "--dims", "2x2", "--named", "bell", "--restarts", "4"
        )
        assert code == 0
        assert payload["result"]["value_nats"] == pytest.approx(math.log(2.0), abs=1e-9)

    @pytest.mark.parametrize(
        "argv, extra",
        [
            (("eof", "--dims", "2x2", "--named", "bell"), set()),
            (("ccooe", "--channel", "noiseless:2", "--named", "mixed:2"), {"channel"}),
        ],
        ids=["eof", "ccooe"],
    )
    def test_roof_report_layout(self, capsys, argv, extra):
        code, payload, _ = run(capsys, *argv, "--restarts", "2")
        assert code == 0
        result = payload["result"]
        assert set(result) == {
            "value_nats", "upper_bound", "ensemble", "restarts_used", "converged", "diagnostics",
        } | extra
        assert set(result["diagnostics"]) == {
            "best_restart", "gradient_norm", "iterations", "restarts_agreeing",
        }
        # a pure state and a noiseless channel leave every restart at the optimum
        assert result["diagnostics"]["restarts_agreeing"] == 2

    def test_chi_both_methods(self, capsys):
        code, roof_payload, _ = run(
            capsys, "chi", "--channel", "dephasing:0.25", "--named", "mixed:2",
            "--method", "roof", "--restarts", "8",
        )
        assert code == 0
        assert roof_payload["result"]["chi_nats"] == pytest.approx(math.log(2.0), abs=1e-8)
        code, direct_payload, _ = run(
            capsys, "chi", "--channel", "dephasing:0.25", "--named", "mixed:2",
            "--method", "direct", "--restarts", "8",
        )
        assert code == 0
        assert direct_payload["result"]["chi_nats"] == pytest.approx(math.log(2.0), abs=5e-3)

    @pytest.mark.parametrize(
        "argv, key, bits",
        [
            (("entropy", "--named", "mixed:2"), "entropy", 1.0),
            (("ccooe", "--channel", "noiseless:2", "--named", "mixed:2", "--restarts", "4"),
             "value", 0.0),
            (("eof", "--dims", "2x2", "--named", "bell", "--restarts", "4"), "value", 1.0),
            (("chi", "--channel", "dephasing:0.25", "--named", "mixed:2", "--restarts", "8"),
             "chi", 1.0),
            # the entropy of the populations (3/4, 1/4) at level 1/4
            (("gibbs", "--hamiltonian", '{"re": [[0, 0], [0, 1]], "im": [[0, 0], [0, 0]]}',
              "--level", "0.25"), "entropy", 0.75 * math.log2(4 / 3) + 0.25 * 2.0),
        ],
        ids=["entropy", "ccooe", "eof", "chi", "gibbs"],
    )
    def test_bits_display_fields(self, capsys, argv, key, bits):
        code, payload, _ = run(capsys, *argv, "--bits")
        assert code == 0
        result = payload["result"]
        assert result[f"{key}_bits"] == result[f"{key}_nats"] / math.log(2.0)
        assert result[f"{key}_bits"] == pytest.approx(bits, abs=1e-6)

    def test_channel_file_input(self, capsys, tmp_path):
        ch_file = tmp_path / "channel.json"
        ch_file.write_text(dumps(encode_channel(dephasing(0.25))))
        code, payload, _ = run(
            capsys, "ccooe", "--channel", str(ch_file), "--named", "mixed:2",
            "--restarts", "4",
        )
        assert code == 0
        assert payload["result"]["value_nats"] <= 1e-8


class TestAdditivity:
    def test_margin_consistent(self, capsys):
        code, payload, _ = run(
            capsys, "additivity", "margin", "--left", "noiseless:2", "--right", "noiseless:2",
            "--named", "random:4:4:3", "--restarts", "4",
        )
        assert code == 0
        assert payload["result"]["verdict"] == "consistent"
        assert abs(payload["result"]["margin"]) < 1e-9

    def test_negative_tolerance_flags_and_exits_two(self, capsys):
        code, payload, _ = run(
            capsys, "additivity", "margin", "--left", "noiseless:2", "--right", "noiseless:2",
            "--named", "random:4:4:3", "--restarts", "4", "--tolerance", "-1",
        )
        assert code == 2
        assert payload["result"]["verdict"] == "flagged"

    def test_truncate_writes_csv(self, capsys, tmp_path):
        out = tmp_path / "report"
        code, _, _ = run(
            capsys, "additivity", "truncate", "--dims", "2x2x2x2", "--ranks", "1,2",
            "--named", "random:16:16:5", "--restarts", "2", "--out", str(out),
            "--format", "both",
        )
        assert code == 0
        report = read_json(out / "report.json")
        assert report["result"]["final_weight"] == pytest.approx(1.0, abs=1e-12)
        csv_lines = (out / "truncation.csv").read_text().splitlines()
        assert csv_lines[0] == "n,weight,H_n,roof_n,lambda_min"
        assert len(csv_lines) == 3

    def test_scan_summary(self, capsys):
        code, payload, _ = run(
            capsys, "additivity", "scan", "--left", "noiseless:2", "--right", "noiseless:2",
            "--samples", "2", "--restarts", "4",
        )
        assert code == 0
        assert payload["result"]["flagged"] == 0
        assert payload["result"]["min_margin"] > -1e-9
        assert len(payload["result"]["reports"]) == 2


PAIR = ("--left", "dephasing:0.25", "--right", "noiseless:2", "--restarts", "4")


@pytest.mark.parametrize("kind", TRIO_KINDS)
def test_margin_checks_read_one_trio(capsys, kind):
    reports = {}
    for k in ("superadditivity", kind):
        code, payload, _ = run(
            capsys, "additivity", "margin", *PAIR, "--named", "random:4:4:3", "--check", k
        )
        assert code == 0
        assert payload["config"]["check"] == k
        reports[k] = payload["result"]
    report, diag = reports[kind], reports[kind]["diagnostics"]
    assert report["kind"] == kind
    roofs = ("roof_joint", "roof_left", "roof_right")
    assert [diag[k] for k in roofs] == [reports["superadditivity"]["diagnostics"][k] for k in roofs]
    if kind == "chi-subadditivity":
        identity = diag["roof_margin"] - diag["entropy_gap"]
        assert report["margin"] == pytest.approx(identity, abs=1e-12)
    if kind == "corollary-max":
        assert report["margin"] == diag["roof_joint"] - max(diag["roof_left"], diag["roof_right"])
    code, payload, _ = run(capsys, "additivity", "scan", *PAIR, "--samples", "1", "--check", kind)
    assert code == 0
    assert payload["result"]["check"] == kind
    assert [r["kind"] for r in payload["result"]["reports"]] == [kind]


REPORT_KEYS = {
    "kind", "channels", "state", "lhs", "lhs_bound", "rhs", "rhs_bound", "margin",
    "tolerance", "verdict", "refined", "diagnostics",
}
# a superadditivity report's diagnostics; the three lists run joint, left, right
MARGIN_DIAGNOSTICS = {
    "roof_joint", "roof_left", "roof_right", "converged", "restarts_agreeing", "restarts",
}
MARGINS_CSV = "item,lhs,lhs_bound_dir,rhs,rhs_bound_dir,margin,verdict"


@pytest.mark.parametrize(
    "argv, csv_name, csv_header, result_keys, entry_key, entry_keys",
    [
        (
            ("margin", "--left", "noiseless:2", "--right", "noiseless:2",
             "--named", "random:4:4:3"),
            "margins.csv", MARGINS_CSV, REPORT_KEYS, None, None,
        ),
        (
            ("truncate", "--dims", "2x2x2x2", "--ranks", "1", "--named", "random:16:16:5"),
            "truncation.csv", "n,weight,H_n,roof_n,lambda_min",
            {"factor_dims", "steps", "full_output_entropy", "residual_ok",
             "entropy_bound_ok", "weights_monotone", "final_weight", "final_entropy_gap"},
            "steps",
            {"rank", "weight", "output_entropy", "roof_value", "residual_min_eig",
             "entropy_bound", "converged", "skipped"},
        ),
        (
            ("scan", "--left", "noiseless:2", "--right", "noiseless:2", "--samples", "1"),
            "margins.csv", MARGINS_CSV,
            {"samples", "check", "reports", "min_margin", "mean_margin", "flagged", "replay"},
            "reports", REPORT_KEYS,
        ),
    ],
)
def test_additivity_report_layouts(
    capsys, tmp_path, argv, csv_name, csv_header, result_keys, entry_key, entry_keys
):
    code, _, _ = run(
        capsys, "additivity", *argv, "--restarts", "1", "--out", str(tmp_path),
        "--format", "both",
    )
    assert code == 0
    result = read_json(tmp_path / "report.json")["result"]
    assert set(result) == result_keys
    if entry_key is not None:
        assert result[entry_key]
        for entry in result[entry_key]:
            assert set(entry) == entry_keys
    reports = [result] if result_keys == REPORT_KEYS else result.get("reports", [])
    for report in reports:
        diag = report["diagnostics"]
        assert set(diag) == MARGIN_DIAGNOSTICS
        # one restart per roof agrees with itself
        assert diag["restarts_agreeing"] == [1, 1, 1]
        assert len(diag["converged"]) == 3
    assert (tmp_path / csv_name).read_text().splitlines()[0] == csv_header


class TestPhaseChannel:
    SPEC = '{"a": 1.0, "d": 8, "density": {"family": "gaussian", "std": 1.0}}'

    def test_schur_gate_and_entropies(self, capsys):
        code, payload, _ = run(
            capsys, "phase-channel", "--spec", self.SPEC, "--samples", "4",
        )
        assert code == 0
        res = payload["result"]
        assert res["schur_min_eigenvalue"] > -1e-8
        assert res["schur_diag_dev"] < 1e-8
        assert res["output_entropy_mixed"] <= math.log(8.0) + 1e-12
        assert res["empirical_entropy_bound"] >= res["mean_pure_entropy"] - 1e-12

    def test_sweep_rows(self, capsys):
        code, payload, _ = run(
            capsys, "phase-channel", "--spec", self.SPEC, "--samples", "2",
            "--sweep", "2:5",
        )
        assert code == 0
        rows = payload["result"]["sweep"]
        assert [r["d"] for r in rows] == [2, 3, 4, 5]

    def test_tail_rows_non_increasing(self, capsys):
        code, payload, _ = run(
            capsys, "phase-channel", "--spec", self.SPEC, "--samples", "2",
            "--tails", "3,4,5,6",
        )
        assert code == 0
        rows = payload["result"]["tails"]
        bounds = [r["entropy_bound"] for r in rows]
        assert all(b <= a + 1e-15 for a, b in zip(bounds, bounds[1:]))
        alphas = [r["alpha"] for r in rows]
        assert all(b <= a for a, b in zip(alphas, alphas[1:]))

    def test_tiny_std_tails(self, capsys):
        # the Gaussian's tail terms divided by std * std, which underflows to 0
        spec = '{"a": 1.0, "d": 3, "density": {"family": "gaussian", "std": 1e-300}}'
        code, payload, err = run(capsys, "phase-channel", "--spec", spec, "--tails", "2")
        assert (code, err) == (0, "")
        row, = payload["result"]["tails"]
        assert (row["alpha"], row["beta"], row["gamma"], row["entropy_bound"]) == (0.0,) * 4

    def test_wide_std_tails_finish_between_their_bounds(self, capsys):
        # the lattice tail summed one term per unit of std, and hung from std 1e8 on
        spec = '{"a": 1.0, "d": 3, "density": {"family": "gaussian", "std": 1e8}}'
        code, payload, err = run(capsys, "phase-channel", "--spec", spec, "--tails", "2")
        assert (code, err) == (0, "")
        row, = payload["result"]["tails"]
        alpha_prev = math.erfc(1.0 / (1e8 * math.sqrt(2.0)))
        assert row["alpha"] <= row["gamma"] <= alpha_prev

    @pytest.mark.parametrize(
        "argv",
        [
            ("ccooe", "--channel", '{"family": "phase", "a": 1e300, "d": 3}', "--named", "mixed:3",
             "--restarts", "1"),
            ("phase-channel", "--spec", '{"a": 1e300, "d": 3}', "--tails", "2", "--samples", "2"),
            ("phase-channel", "--spec", '{"a": 1e300, "d": 3, "density": {"family": "uniform", '
             '"half_width": 1e10}}', "--samples", "2"),
        ],
        ids=["ccooe-gaussian", "phase-channel-gaussian", "phase-channel-uniform"],
    )
    def test_extreme_half_width_runs_without_warnings(self, capsys, argv):
        # (s u)^2 and w u overflowed, warned on stderr, and the exit code still read 0
        code, payload, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert payload is not None

    def test_cross_check(self, capsys):
        code, payload, _ = run(
            capsys, "phase-channel", "--spec", self.SPEC, "--samples", "2",
            "--cross-check", "--t-points", "64",
        )
        assert code == 0
        assert payload["result"]["complement_gram_dev"] < 1e-6


class TestGibbs:
    def write_hamiltonian(self, tmp_path):
        h_file = tmp_path / "h.json"
        h_file.write_text(dumps({"dim": 2, "re": [[0.0, 0.0], [0.0, 1.0]],
                                 "im": [[0.0, 0.0], [0.0, 0.0]]}))
        return h_file

    def test_quarter_level(self, capsys, tmp_path):
        h_file = self.write_hamiltonian(tmp_path)
        code, payload, _ = run(
            capsys, "gibbs", "--hamiltonian", str(h_file), "--level", "0.25"
        )
        assert code == 0
        assert payload["result"]["beta"] == pytest.approx(math.log(3.0), abs=1e-6)
        assert payload["result"]["energy"] == pytest.approx(0.25, abs=1e-9)

    def test_infeasible_level_exits_one(self, capsys, tmp_path):
        h_file = self.write_hamiltonian(tmp_path)
        code, payload, err = run(
            capsys, "gibbs", "--hamiltonian", str(h_file), "--level", "1.5"
        )
        assert code == 1
        assert payload is None
        assert "error" in err


class TestFailureModes:
    def test_missing_file(self, capsys):
        code, payload, err = run(capsys, "entropy", "--state", "/nonexistent.json")
        assert code == 1
        assert payload is None
        assert err.startswith("error:")

    def test_unknown_named_state(self, capsys):
        code, _, err = run(capsys, "entropy", "--named", "vortex:3")
        assert code == 1
        assert "vortex" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("eof", "--dims", "2x2", "--named", "pure"),
            ("ccooe", "--channel", "noiseless", "--named", "mixed:2"),
            ("additivity", "scan", "--left", "noiseless:2"),
            ("additivity", "margin", "--right", "noiseless:2", "--named", "mixed:4"),
            ("additivity", "complement", "--left", "noiseless:2"),
            ("additivity", "truncate", "--named", "mixed:16"),
            ("additivity", "scan", "--left", '{"family": "random", "dim": 2, "env_dim": 3}',
             "--right", "noiseless:2", "--samples", "1", "--restarts", "1"),
            ("phase-channel", "--spec", '{"a": 1.0, "d": 4}', "--samples", "0"),
            ("entropy", "--named", "mixed:2", "--out", "{out}", "--format", "csv"),
            # JSON inputs whose top level is not an object
            ("ccooe", "--channel", "{list}", "--named", "mixed:2"),
            ("entropy", "--state", "{list}"),
            ("gibbs", "--hamiltonian", "{list}", "--level", "0.25"),
            ("phase-channel", "--spec", "{list}"),
            ("additivity", "scan", "--left", "{list}", "--right", "noiseless:2"),
            ("ccooe", "--channel", '{"family": "phase", "a": 1.0, "d": 4, "density": 3}',
             "--named", "mixed:4"),
            ("phase-channel", "--spec", '{"a": 1.0, "d": 4, "density": 3}'),
            *NAMED_ERRORS,
        ],
    )
    def test_short_descriptor_or_missing_flag_exits_one(self, capsys, tmp_path, argv):
        out, listing, kraus = tmp_path / "report", tmp_path / "list.json", tmp_path / "kraus.json"
        three, deep, deeper = (tmp_path / f"{n}.json" for n in ("three", "deep", "deeper"))
        listing.write_text("[1, 2]")
        three.write_text("3")
        nest = "[" * 600 + "0" + "]" * 600
        deep.write_text(f'{{"re": {nest}, "im": {nest}}}')
        # deeper than the JSON decoder nests on any supported Python
        deeper.write_text(f'{{"re": {"[" * 100_000 + "]" * 100_000}}}')
        kraus.write_text(dumps(encode_channel(dephasing(0.3))))
        paths = {
            "{out}": out, "{list}": listing, "{kraus}": kraus, "{three}": three,
            "{deep}": deep, "{deeper}": deeper,
        }
        code, payload, err = run(capsys, *(str(paths.get(a, a)) for a in argv))
        assert code == 1
        assert payload is None
        assert err.startswith("error:") and err.count("\n") == 1     # one line, no traceback
        assert NAMED_ERRORS.get(argv, "error:") in err
        assert not out.exists()

    def test_memory_error_exits_one(self, capsys, monkeypatch):
        # an input too large to allocate, such as a phase grid of ten million points
        def exhausted(args):
            raise MemoryError("Unable to allocate 728. TiB for an array")

        monkeypatch.setattr(cli, "cmd_phase_channel", exhausted)
        code, payload, err = run(capsys, "phase-channel", "--spec", '{"a": 1.0, "d": 10000000}')
        assert (code, payload) == (1, None)
        assert err == "error: Unable to allocate 728. TiB for an array\n"

    def test_zero_samples_names_the_flag(self, capsys):
        code, _, err = run(capsys, "phase-channel", "--spec", '{"a": 1.0, "d": 4}', "--samples", "0")
        assert code == 1
        assert "--samples" in err

    def test_family_without_dim_names_family_and_key(self, capsys):
        code, payload, err = run(
            capsys, "ccooe", "--channel", '{"family": "noiseless"}', "--named", "mixed:2"
        )
        assert code == 1
        assert payload is None
        assert err.startswith("error:")
        assert "noiseless" in err and "dim" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("ccooe", "--channel", '{"family": "phase", "d": 4}', "--named", "mixed:4"),
             "channel family 'phase' needs the key 'a'"),
            (("phase-channel", "--spec", '{"a": 1.0}'), "channel family 'phase' needs the key 'd'"),
            (("gibbs", "--hamiltonian", '{"dim": 2, "re": [[0, 0], [0, 1]]}', "--level", "0.25"),
             "matrix needs the key 'im'"),
            (("entropy", "--state", '{"im": [[1]]}'), "matrix needs the key 're'"),
            (("ccooe", "--channel", '{"kraus": [{"re": [[1]]}]}', "--named", "mixed:1"),
             "channel key 'kraus': matrix needs the key 'im'"),
            (("phase-channel", "--spec", '{"a": 1.0, "d": 4, "density": {"family": "gaussian"}}'),
             "channel family 'phase' key 'density': density family 'gaussian' needs the key 'std'"),
            (("ccooe", "--channel", '{"family": "phase", "a": 1.0, "d": 4, "density": '
              '{"family": "uniform"}}', "--named", "mixed:4"),
             "channel family 'phase' key 'density': density family 'uniform' needs the key "
             "'half_width'"),
        ],
    )
    def test_missing_key_is_named(self, capsys, argv, message):
        code, payload, err = run(capsys, *argv)
        assert code == 1
        assert payload is None
        assert err == f"error: {message}\n"


# each short form beside the JSON descriptor it stands for, defaults spelled out
SHORT_FORMS = [
    ("noiseless:3", {"family": "noiseless", "dim": 3}),
    ("dephasing", {"family": "dephasing", "q": 0.25}),
    ("dephasing:0.3", {"family": "dephasing", "q": 0.3}),
    ("depolarizing:2", {"family": "depolarizing", "dim": 2}),
    ("random:2", {"family": "random", "dim": 2, "out": 2, "env": 2}),
    ("random:2:3", {"family": "random", "dim": 2, "out": 3, "env": 2}),
    ("random:2:3:2", {"family": "random", "dim": 2, "out": 3, "env": 2}),
    ("measure_prepare:2", {"family": "measure_prepare", "dim": 2, "outcomes": 2}),
    ("measure_prepare:2:3", {"family": "measure_prepare", "dim": 2, "outcomes": 3}),
]


@pytest.mark.parametrize("short, descriptor", SHORT_FORMS, ids=[s for s, _ in SHORT_FORMS])
def test_short_form_and_descriptor_build_the_same_channel(short, descriptor):
    # the CLI parses short forms from the library's family table, so both
    # routes must draw the same Kraus operators from the same stream
    from_short = channel_from_family(family_descriptor(short), rng_for(5, 0)).kraus
    from_json = channel_from_family(descriptor, rng_for(5, 0)).kraus
    assert from_short.shape == from_json.shape
    assert from_short.tobytes() == from_json.tobytes()


# each named state beside the formula it stands for
NAMED_FORMULAS = {
    "mixed:3": lambda: np.eye(3) / 3,
    "pure:3": lambda: random_pure(3, 0).projector(),
    "pure:3:5": lambda: random_pure(3, 5).projector(),
    "pure:3:0": lambda: random_pure(3, 0).projector(),
    "random:3": lambda: random_density(3, 3, 0).entries,
    "random:3:2": lambda: random_density(3, 2, 0).entries,
    "random:3:2:7": lambda: random_density(3, 2, 7).entries,
    "bell": lambda: np.array([[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]]) / 2,
    "plus": lambda: np.ones((2, 2)) / 2,
    "diag:0.25,0.75": lambda: np.diag([0.25, 0.75]),
}


@pytest.mark.parametrize("text", sorted(NAMED_FORMULAS))
def test_named_state_equals_its_formula(text):
    entries = named_state(text).entries
    expected = NAMED_FORMULAS[text]()
    assert entries.shape == expected.shape
    assert np.abs(entries - expected).max() <= 1e-15


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    def test_empty_scan_writes_null_margins(self, capsys):
        code = main(["additivity", "scan", "--left", "noiseless:2", "--right", "noiseless:2",
                     "--samples", "0"])
        result = _strict_json(capsys.readouterr().out)["result"]
        assert code == 0
        assert result["mean_margin"] is None and result["min_margin"] is None

    def test_skipped_rung_writes_nulls(self, capsys, tmp_path):
        # on 3x2x2x2 the rank-1 rung keeps |0000>, which this state does not reach
        probs = np.zeros(24)
        probs[[4, 8, 16]] = 0.4, 0.3, 0.3
        out = tmp_path / "report"
        code = main(["additivity", "truncate", "--dims", "3x2x2x2", "--ranks", "1,2",
                     "--named", "diag:" + ",".join(map(repr, probs.tolist())),
                     "--restarts", "2", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        steps = _strict_json((out / "report.json").read_text())["result"]["steps"]
        assert steps[0]["skipped"] and steps[0]["roof_value"] is None
        assert not steps[1]["skipped"] and steps[1]["weight"] == pytest.approx(0.7, abs=1e-12)


class TestDeterminism:
    def test_reports_identical_modulo_walltime(self, capsys):
        argv = (
            "additivity", "margin", "--left", "dephasing:0.3", "--right", "noiseless:2",
            "--named", "random:4:4:9", "--restarts", "4", "--seed", "11",
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        first.pop("walltime_s")
        second.pop("walltime_s")
        assert dumps(first) == dumps(second)

    def test_out_directory_report_matches_stdout_run(self, capsys, tmp_path):
        argv = ("entropy", "--named", "diag:0.5,0.25,0.25")
        _, stdout_payload, _ = run(capsys, *argv)
        out = tmp_path / "r"
        code = main(list(argv) + ["--out", str(out)])
        capsys.readouterr()
        assert code == 0
        file_payload = read_json(out / "report.json")
        # config echoes the --out path, so only the result is comparable
        assert dumps(stdout_payload["result"]) == dumps(file_payload["result"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (("entropy", "--named", "mixed:2", "--colour"), "unrecognized arguments: --colour"),
        (("ccooe", "--channel", "noiseless:2", "--named", "mixed:2", "--restarts", "x"),
         "argument --restarts: invalid int value: 'x'"),
        (("additivity", "bogus"), "argument mode: invalid choice: 'bogus'"),
        (("additivity", "margin", "--left", "noiseless:2", "--named", "mixed:4"),
         "the following arguments are required: --right"),
        ((), "the following arguments are required: command"),
        # a state comes from exactly one of --state and --named
        (("entropy", "--state", "{state}", "--named", "mixed:2"),
         "argument --named: not allowed with argument --state"),
        (("chi", "--channel", "noiseless:2"), "one of the arguments --state --named is required"),
        # --format csv or both writes files, so it needs a directory
        (("additivity", "scan", "--left", "noiseless:2", "--right", "noiseless:2",
          "--samples", "1", "--restarts", "1", "--format", "csv"),
         "--format csv writes files: give --out DIR"),
        (("entropy", "--named", "mixed:2", "--format", "both"),
         "--format both writes files: give --out DIR"),
        # the complement probe's mode is gone, so a script that still calls it fails loudly
        (("additivity", "complement", "--left", "dephasing:0.25", "--right", "noiseless:2",
          "--samples", "1", "--restarts", "1"), "argument mode: invalid choice: 'complement'"),
        # the margin checks are one mode's --check values, not modes of their own
        (("additivity", "chi", "--left", "noiseless:2", "--right", "noiseless:2",
          "--named", "mixed:4"), "argument mode: invalid choice: 'chi'"),
        (("additivity", "corollary", "--left", "noiseless:2", "--right", "noiseless:2",
          "--named", "mixed:4"), "argument mode: invalid choice: 'corollary'"),
        (("additivity", "margin", "--left", "noiseless:2", "--right", "noiseless:2",
          "--named", "mixed:4", "--check", "bogus"), "argument --check: invalid choice: 'bogus'"),
    ],
    ids=["unknown-flag", "non-int-restarts", "bad-mode", "missing-right", "no-subcommand",
         "state-and-named", "no-state", "csv-without-out", "both-without-out", "removed-mode",
         "chi-mode", "corollary-mode", "unknown-check"],
)
def test_usage_error_exits_one(capsys, tmp_path, monkeypatch, argv, message):
    # 2 is the exit code of a flagged verdict, so usage errors exit 1 like other bad input
    def forbidden(*args, **kwargs):
        raise AssertionError("a roof ran before the usage error was reported")

    monkeypatch.setattr(roof, "_multistart", forbidden)
    state = tmp_path / "state.json"
    state.write_text(dumps(encode_state(DensityMatrix(np.diag([1.0, 0.0])))))
    code, payload, err = run(capsys, *(str(state) if a == "{state}" else a for a in argv))
    assert code == 1
    assert payload is None
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, handler",
    [
        (("entropy", "--named", "mixed:2"), "cmd_entropy"),
        (("ccooe", "--channel", "noiseless:2", "--named", "mixed:2"), "cmd_ccooe"),
        (("eof", "--dims", "2x2", "--named", "random:4"), "cmd_eof"),
        (("chi", "--channel", "noiseless:2", "--named", "mixed:2"), "cmd_chi"),
        (("phase-channel", "--spec", '{"a": 1.0, "d": 4}'), "cmd_phase_channel"),
        (("gibbs", "--hamiltonian", '{"re": [[0, 0], [0, 1]], "im": [[0, 0], [0, 0]]}',
          "--level", "0.25"), "cmd_gibbs"),
    ],
    ids=["entropy", "ccooe", "eof", "chi", "phase-channel", "gibbs"],
)
def test_csv_without_tables_fails_before_the_command_runs(
    capsys, tmp_path, monkeypatch, argv, handler
):
    def forbidden(*args, **kwargs):
        raise AssertionError("the command ran before --format csv was checked")

    monkeypatch.setattr(cli, handler, forbidden)
    monkeypatch.setattr(roof, "ccooe", forbidden)       # and no roof descends
    out = tmp_path / "out"
    code, payload, err = run(capsys, *argv, "--out", str(out), "--format", "csv")
    command = argv[0]
    assert (code, payload) == (1, None)
    assert err == f"error: --format csv writes nothing: {command} has no tables\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--sweep", "3:4"), ("--tails", "1.5")])
def test_phase_channel_csv_writes_its_tables(capsys, tmp_path, flag, value):
    out = tmp_path / "out"
    code, _, err = run(capsys, "phase-channel", "--spec", '{"a": 1.0, "d": 4}', "--samples", "2",
                       flag, value, "--out", str(out), "--format", "csv")
    assert (code, err) == (0, "")
    assert [p.name for p in out.iterdir()] == [f"phase_{flag[2:]}.csv"]


@pytest.mark.parametrize(
    "argv", [("--help",), ("--version",), ("additivity", "scan", "--help")],
    ids=["help", "version", "mode-help"],
)
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_margin_and_scan_read_the_check_kinds(capsys):
    helps = {}
    for mode in (None, "margin", "scan"):
        with pytest.raises(SystemExit):
            main(["additivity", *([mode] if mode else []), "--help"])
        helps[mode] = capsys.readouterr().out
    assert "{margin,truncate,scan}" in helps[None]
    for mode in ("margin", "scan"):
        assert "--check {" + ",".join(TRIO_KINDS) + "}" in helps[mode]


def test_eigensolver_failure_exits_one(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    code, payload, err = run(capsys, "ccooe", "--channel", "noiseless:2", "--named", "mixed:2")
    assert (code, payload) == (1, None)
    assert err.startswith("error: eigensolver did not converge") and err.count("\n") == 1


GIBBS = ("gibbs", "--hamiltonian", '{"re": [[0, 0], [0, 1]], "im": [[0, 0], [0, 0]]}',
         "--level", "0.25")
PAIR = ("--left", "noiseless:2", "--right", "noiseless:2")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("entropy", "--named", "mixed:2"), ("--restarts", "4")),
        (("entropy", "--named", "mixed:2"), ("--seed", "1")),
        (GIBBS, ("--seed", "1")),
        (GIBBS, ("--restarts", "4")),
        (("ccooe", "--channel", "noiseless:2", "--named", "mixed:2"), ("--tolerance", "0.1")),
        (("eof", "--dims", "2x2", "--named", "bell"), ("--tolerance", "0.1")),
        (("additivity", "margin", *PAIR, "--named", "mixed:4"), ("--samples", "2")),
        (("additivity", "margin", *PAIR, "--named", "mixed:4", "--check", "chi-subadditivity"),
         ("--bits",)),
        (("additivity", "scan", *PAIR), ("--named", "mixed:4")),
        (("additivity", "truncate", "--dims", "2x2x2x2", "--named", "mixed:16"),
         ("--left", "noiseless:2")),
        (("additivity", "truncate", "--dims", "2x2x2x2", "--named", "mixed:16"),
         ("--tolerance", "0.1")),
        (("phase-channel", "--spec", '{"a": 1.0, "d": 4}'), ("--bits",)),
        (("phase-channel", "--spec", '{"a": 1.0, "d": 4}'), ("--restarts", "2")),
    ],
    ids=lambda v: v[0] if v[0] != "additivity" else f"additivity-{v[1]}",
)
def test_command_rejects_a_flag_it_does_not_read(capsys, argv, flag):
    code, payload, err = run(capsys, *argv, *flag)
    assert code == 1
    assert payload is None
    assert err.startswith(f"error: unrecognized arguments: {flag[0]}")


def test_flagged_scan_exits_two(capsys):
    code, payload, _ = run(
        capsys, "additivity", "scan", "--left", "dephasing:0.25", "--right", "random:2",
        "--samples", "1", "--restarts", "1", "--tolerance", "-1",
    )
    assert code == 2
    assert payload["result"]["flagged"] > 0
