"""Command-line behavior: envelopes, exit codes, files, determinism."""

import json
import math

import numpy as np
import pytest

from roofkit import channel_from_family, dephasing, random_density, rng_for
from roofkit.cli import _family_dict, main
from roofkit.serialize import dumps, encode_channel, encode_state, read_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out.strip().startswith("{") else None
    return code, payload, out.err


# exit-1 inputs whose message must name the flag or the family at fault
NAMED_ERRORS = {
    # scans draw their channels from families, never from a fixed Kraus file
    ("additivity", "scan", "--left", "{kraus}", "--right", "noiseless:2"):
        "--left holds Kraus operators; scans draw channels from a family descriptor",
    ("additivity", "scan", "--left", "noiseless:2", "--right", "{kraus}"):
        "--right holds Kraus operators",
    # short forms with more values than their family has keys, or none at all
    ("ccooe", "--channel", "noiseless:2:7", "--named", "mixed:2"):
        "channel family 'noiseless' takes the values ['dim']",
    ("ccooe", "--channel", "random:2:2:2:9", "--named", "mixed:2"):
        "channel family 'random' takes the values ['dim', 'out', 'env']",
    ("ccooe", "--channel", "phase:1:4", "--named", "mixed:4"): "'phase:1:4'",
    # an empty scan still checks its descriptors
    ("additivity", "scan", "--left", "noiseless", "--right", "noiseless:2", "--samples", "0"):
        "channel family 'noiseless' needs the key 'dim'",
    # state short forms with more values than they take
    ("entropy", "--named", "mixed:2:9"): "does not match the form mixed:D",
    ("entropy", "--named", "bell:3"): "does not match the form bell",
    ("entropy", "--named", "diag:0.5,0.5:7"): "does not match the form diag:P1,P2,...",
    ("entropy", "--named", "random:2:2:1:5"): "does not match the form random:D[:RANK[:SEED]]",
    # descriptor values of the wrong JSON type
    ("ccooe", "--channel", '{"family": "noiseless", "dim": 2.7}', "--named", "mixed:2"):
        "channel family 'noiseless' key 'dim' must be of type int, got 2.7",
    ("ccooe", "--channel", '{"family": "dephasing", "q": true}', "--named", "mixed:2"):
        "channel family 'dephasing' key 'q' must be of type float, got True",
    ("ccooe", "--channel", '{"family": "random", "dim": 2, "env": false}', "--named", "mixed:2"):
        "channel family 'random' key 'env' must be of type int, got False",
    # state short forms whose values are not numbers of their form
    ("entropy", "--named", "mixed:0"): "does not match the form mixed:D",
    ("entropy", "--named", "mixed:-1"): "does not match the form mixed:D",
    ("entropy", "--named", "pure:x"): "does not match the form pure:D[:SEED]",
    ("entropy", "--named", "random:2:x"): "does not match the form random:D[:RANK[:SEED]]",
    ("entropy", "--named", "diag:0.5,x"): "does not match the form diag:P1,P2,...",
    # non-finite values, which every tolerance comparison used to let through
    ("entropy", "--named", "diag:nan,1"): "density matrix has non-finite entries",
    ("entropy", "--named", "diag:inf,1"): "density matrix has non-finite entries",
    ("ccooe", "--channel", "noiseless:2", "--named", "diag:nan,1"):
        "density matrix has non-finite entries",
    ("additivity", "margin", "--left", "dephasing:0.25", "--right", "noiseless:2",
     "--named", "mixed:4", "--tolerance", "nan"): "tolerance must be finite, got nan",
    # integer family keys below 1
    ("ccooe", "--channel", "measure_prepare:2:0", "--named", "mixed:2"):
        "channel family 'measure_prepare' key 'outcomes' must be at least 1, got 0",
    ("ccooe", "--channel", "measure_prepare:0", "--named", "mixed:2"):
        "channel family 'measure_prepare' key 'dim' must be at least 1, got 0",
    ("ccooe", "--channel", '{"family": "random", "dim": 2, "env": 0}', "--named", "mixed:2"):
        "channel family 'random' key 'env' must be at least 1, got 0",
}


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

    def test_bits_display_fields(self, capsys):
        _, payload, _ = run(
            capsys, "chi", "--channel", "dephasing:0.25", "--named", "mixed:2",
            "--restarts", "8", "--bits",
        )
        assert payload["result"]["chi_bits"] == pytest.approx(1.0, abs=1e-6)

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

    def test_complement_probe(self, capsys):
        code, payload, _ = run(
            capsys, "additivity", "complement", "--left", "dephasing:0.25",
            "--right", "noiseless:2", "--samples", "2", "--restarts", "4",
        )
        assert code == 0
        assert payload["result"]["max_agreement_dev"] <= 5e-3


REPORT_KEYS = {
    "kind", "channels", "state", "lhs", "lhs_bound", "rhs", "rhs_bound", "margin",
    "tolerance", "verdict", "refined", "diagnostics",
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
             "entropy_bound", "skipped"},
        ),
        (
            ("scan", "--left", "noiseless:2", "--right", "noiseless:2", "--samples", "1"),
            "margins.csv", MARGINS_CSV,
            {"samples", "check", "reports", "min_margin", "mean_margin", "flagged", "replay"},
            "reports", REPORT_KEYS,
        ),
        (
            ("complement", "--left", "dephasing:0.25", "--right", "noiseless:2",
             "--samples", "1"),
            "complement.csv",
            "item,margin,margin_complement,roof_left,roof_left_complement,agreement_dev",
            {"rows", "max_agreement_dev", "flagged"},
            "rows",
            {"item", "margin", "margin_complement", "roof_left", "roof_left_complement",
             "agreement_dev"},
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
    assert (tmp_path / csv_name).read_text().splitlines()[0] == csv_header


class TestPhaseChannel:
    SPEC = '{"a": 1.0, "d": 8, "density": {"family": "gaussian", "std": 1.0}}'

    def test_schur_gate_and_entropies(self, capsys):
        code, payload, _ = run(
            capsys, "phase-channel", "--spec", self.SPEC, "--samples", "4",
            "--restarts", "2",
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
            "--restarts", "2", "--sweep", "2:5",
        )
        assert code == 0
        rows = payload["result"]["sweep"]
        assert [r["d"] for r in rows] == [2, 3, 4, 5]

    def test_tail_rows_non_increasing(self, capsys):
        code, payload, _ = run(
            capsys, "phase-channel", "--spec", self.SPEC, "--samples", "2",
            "--restarts", "2", "--tails", "3,4,5,6",
        )
        assert code == 0
        rows = payload["result"]["tails"]
        bounds = [r["entropy_bound"] for r in rows]
        assert all(b <= a + 1e-15 for a, b in zip(bounds, bounds[1:]))
        alphas = [r["alpha"] for r in rows]
        assert all(b <= a for a, b in zip(alphas, alphas[1:]))

    def test_cross_check(self, capsys):
        code, payload, _ = run(
            capsys, "phase-channel", "--spec", self.SPEC, "--samples", "2",
            "--restarts", "2", "--cross-check", "--t-points", "64",
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
            ("entropy", "--named", "mixed"),
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
        listing.write_text("[1, 2]")
        kraus.write_text(dumps(encode_channel(dephasing(0.3))))
        paths = {"{out}": out, "{list}": listing, "{kraus}": kraus}
        code, payload, err = run(capsys, *(str(paths.get(a, a)) for a in argv))
        assert code == 1
        assert payload is None
        assert err.startswith("error:")
        assert NAMED_ERRORS.get(argv, "error:") in err
        assert not out.exists()

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
             "missing key 'im'"),
            (("phase-channel", "--spec", '{"a": 1.0, "d": 4, "density": {"family": "gaussian"}}'),
             "missing key 'std'"),
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
    from_short = channel_from_family(_family_dict(short), rng_for(5, 0)).kraus_stack()
    from_json = channel_from_family(descriptor, rng_for(5, 0)).kraus_stack()
    assert from_short.shape == from_json.shape
    assert from_short.tobytes() == from_json.tobytes()


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
