"""JSON/CSV round-trips for states, channels, specs, and results."""

import json
import math
import re
import sys

import numpy as np
import pytest

from roofkit import (
    DimensionError,
    GaussianDensity,
    ParameterError,
    RandomPhaseSpec,
    RoofOptions,
    TabulatedDensity,
    UniformDensity,
    ccooe,
    channel_from_family,
    dephasing,
    ensemble_from_mixing,
    noiseless,
    random_density,
    random_stinespring,
    rng_for,
)
from roofkit.serialize import (
    ADDITIVITY_CSV_FIELDS,
    TRUNCATION_CSV_FIELDS,
    additivity_csv_rows,
    csv_text,
    decode_channel,
    decode_density_profile,
    decode_matrix,
    decode_phase_spec,
    decode_state,
    decode_vector,
    dumps,
    encode_channel,
    encode_ensemble,
    decode_ensemble,
    encode_matrix,
    encode_phase_spec,
    encode_roof_result,
    encode_state,
    encode_vector,
    read_json,
    truncation_csv_rows,
    write_json,
)


def _nested(depth):
    """1.0 inside `depth` lists, built in a loop: a literal that deep overflows Python's parser."""
    nest = 1.0
    for _ in range(depth):
        nest = [nest]
    return nest


class TestMatrixRoundTrip:
    def test_square_exact(self):
        rng = np.random.default_rng(1)
        arr = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        data = json.loads(json.dumps(encode_matrix(arr)))
        back = decode_matrix(data)
        assert np.array_equal(back, arr)

    def test_rectangular_exact(self):
        rng = np.random.default_rng(2)
        arr = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        data = json.loads(json.dumps(encode_matrix(arr)))
        assert data["rows"] == 3 and data["cols"] == 5
        assert np.array_equal(decode_matrix(data), arr)

    def test_square_uses_dim_key(self):
        data = encode_matrix(np.eye(2))
        assert data["dim"] == 2
        assert "rows" not in data

    def test_shape_mismatch_rejected(self):
        data = encode_matrix(np.eye(2))
        data["re"] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        data["im"] = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        with pytest.raises(DimensionError):
            decode_matrix(data)

    @pytest.mark.parametrize(
        "header, message",
        [
            # dim used to win over rows and cols that disagreed with it
            ({"dim": 2, "rows": 3, "cols": 5}, "declared rows 3 does not match entries (2, 2)"),
            ({"dim": 2, "rows": 2, "cols": 3}, "declared cols 3 does not match entries (2, 2)"),
            ({"dim": 3, "rows": 2, "cols": 2}, "declared dim 3 does not match entries (2, 2)"),
            # rows without cols used to fail with KeyError 'cols'
            ({"rows": 3}, "declared rows 3 does not match entries (2, 2)"),
        ],
    )
    def test_every_header_key_must_match_the_entries(self, header, message):
        data = {**header, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}
        with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
            decode_matrix(data)

    @pytest.mark.parametrize("header", [{"dim": 2, "rows": 2, "cols": 2}, {"rows": 2}, {"cols": 2}])
    def test_header_keys_that_agree_decode(self, header):
        data = {**header, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}
        assert np.array_equal(decode_matrix(data), np.diag([1.0, 0.0]))

    @pytest.mark.parametrize(
        "decode, data, message",
        [
            (decode_matrix, {"rows": 2, "cols": True, "re": [[1.0]], "im": [[0.0]]},
             "matrix key 'cols' must be of type int, got True"),
            (decode_matrix, {"re": [[1.0, "0"]], "im": [[0.0, 0.0]]}, "matrix key 're'"),
            (decode_vector, {"dim": 1.5, "re": [1.0], "im": [0.0]},
             "vector key 'dim' must be of type int, got 1.5"),
            (decode_vector, {"re": [1.0], "im": [0.0], "norm": 1.0}, "vector takes no key 'norm'"),
            (decode_channel, {"label": 7, "kraus": [encode_matrix(np.eye(2))]},
             "channel key 'label' must be of type str, got 7"),
            # a Kraus list is a JSON list of matrix objects, read item by item
            (decode_channel, {"kraus": 3}, "channel key 'kraus' must be of type list, got 3"),
            (decode_channel, {"kraus": [3]},
             "channel key 'kraus': matrix must be a JSON object (a dict), got 3"),
            (decode_channel, {"kraus": "ab"}, "channel key 'kraus' must be of type list, got 'ab'"),
            (decode_channel, {"kraus": {"a": 1}},
             "channel key 'kraus' must be of type list, got {'a': 1}"),
            # entries must nest rectangularly
            (decode_matrix, {"re": [[1.0, 0.0], [0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
             "matrix key 're' must be of type list, got [[1.0, 0.0], [0.0]]"),
            (decode_ensemble, {"weights": "x", "states": []},
             "ensemble key 'weights' must be of type list, got 'x'"),
            (decode_ensemble, {"weights": [1.0], "states": 3},
             "ensemble key 'states' must be of type list, got 3"),
            (decode_ensemble, {"weights": [1.0]}, "ensemble needs the key 'states'"),
            # integers too large for a float
            (decode_matrix, {"re": [[10 ** 400]], "im": [[0]]},
             f"matrix key 're' must be of type list, got [[{10 ** 400}]]"),
            (lambda data: channel_from_family(data, rng_for(0)),
             {"family": "dephasing", "q": 10 ** 400},
             f"channel family 'dephasing' key 'q' must be of type float, got {10 ** 400}"),
            # int keys are bounded by the largest size numpy can allocate
            (lambda data: channel_from_family(data, rng_for(0)),
             {"family": "noiseless", "dim": sys.maxsize + 1},
             f"channel family 'noiseless' key 'dim' must be at most {sys.maxsize}, "
             f"got {sys.maxsize + 1}"),
            # matrix parts nested other than two lists deep, also past numpy's 64 dimensions
            (decode_matrix, {"re": [1.0], "im": [0.0]}, "re/im parts must be matching 2-d arrays"),
            (decode_matrix, {"re": [[[1.0]]], "im": [[[0.0]]]},
             "re/im parts must be matching 2-d arrays"),
            (decode_matrix, {"re": json.loads("[" * 600 + "1" + "]" * 600), "im": [[0.0]]},
             "re/im parts must be matching 2-d arrays"),
            # vector parts nested deeper than one list, also past numpy's 64 dimensions
            (decode_vector, {"re": [[1.0]], "im": [[0.0]]}, "re/im parts must be matching 1-d arrays"),
            (decode_vector, {"re": _nested(600), "im": [0.0]},
             "re/im parts must be matching 1-d arrays"),
            (decode_vector, {"re": [1.0], "im": _nested(600)},
             "re/im parts must be matching 1-d arrays"),
        ],
    )
    def test_headers_and_entries_are_checked_not_cast(self, decode, data, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            decode(data)

    @pytest.mark.parametrize(
        "decode, data, message",
        [
            (decode_matrix, {"dim": 1, "im": [[0.0]]}, "matrix needs the key 're'"),
            (decode_matrix, {"re": [[1.0]]}, "matrix needs the key 'im'"),
            (decode_vector, {"im": [0.0]}, "vector needs the key 're'"),
            (decode_vector, {"dim": 1, "re": [1.0]}, "vector needs the key 'im'"),
            (decode_channel, {"label": "id"}, "channel needs the key 'kraus'"),
            (decode_density_profile, {"family": "gaussian"},
             "density family 'gaussian' needs the key 'std'"),
            (decode_density_profile, {"family": "uniform"},
             "density family 'uniform' needs the key 'half_width'"),
            (decode_density_profile, {"family": "custom", "values": [1.0], "weights": [1.0]},
             "density family 'custom' needs the key 'points'"),
            (decode_density_profile, {"family": "custom", "points": [0.0], "weights": [1.0]},
             "density family 'custom' needs the key 'values'"),
            (decode_density_profile, {"family": "custom", "points": [0.0], "values": [1.0]},
             "density family 'custom' needs the key 'weights'"),
        ],
    )
    def test_every_decoder_names_a_missing_key(self, decode, data, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            decode(data)

    def test_declared_vector_dim_must_match_the_entries(self):
        with pytest.raises(DimensionError, match=r"^declared dim 3 does not match length 2$"):
            decode_vector({"dim": 3, "re": [1.0, 0.0], "im": [0.0, 0.0]})

    def test_integral_float_headers_still_decode(self):
        data = {"dim": 2.0, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}
        assert np.array_equal(decode_matrix(data), np.diag([1.0, 0.0]))
        channel = {"in_dim": 2.0, "out_dim": 2, "kraus": [encode_matrix(np.eye(2))]}
        assert decode_channel(channel).in_dim == 2

    def test_vector_round_trip(self):
        vec = np.array([0.5, -0.5j, complex(1 / 3, -2 / 7)])
        back = decode_vector(json.loads(json.dumps(encode_vector(vec))))
        assert np.array_equal(back, vec)

    def test_negative_zeros_round_trip(self):
        # re + 1j * im would turn a -0.0 real part into 0.0
        vec = np.array([complex(-0.0, -0.0), complex(-0.0, 1.0), complex(1.0, -0.0)])
        mat = np.stack([vec, vec[::-1]])
        back = decode_vector(json.loads(json.dumps(encode_vector(vec))))
        assert back.tobytes() == vec.tobytes()
        back = decode_matrix(json.loads(json.dumps(encode_matrix(mat))))
        assert back.tobytes() == mat.tobytes()


class TestStateAndChannel:
    def test_state_round_trip(self):
        rho = random_density(3, 2, 7)
        back = decode_state(json.loads(json.dumps(encode_state(rho))))
        assert np.array_equal(back.entries, rho.entries)

    def test_channel_round_trip(self):
        ch = random_stinespring(2, 3, 2, 9)
        data = json.loads(json.dumps(encode_channel(ch)))
        assert data["in_dim"] == 2 and data["out_dim"] == 3
        back = decode_channel(data)
        assert back.label == ch.label
        assert all(np.array_equal(a, b) for a, b in zip(back.kraus, ch.kraus))

    def test_channel_dim_validation(self):
        data = encode_channel(dephasing(0.25))
        data["out_dim"] = 3
        with pytest.raises(DimensionError):
            decode_channel(data)


class TestPhaseSpec:
    def test_gaussian_round_trip(self):
        spec = RandomPhaseSpec(1.5, 8, GaussianDensity(0.7))
        data = json.loads(json.dumps(encode_phase_spec(spec)))
        assert data["a"] == 1.5 and data["d"] == 8
        assert data["density"]["family"] == "gaussian"
        back = decode_phase_spec(data)
        assert back.half_width == spec.half_width
        assert back.grid_size == spec.grid_size
        assert back.density.std == 0.7

    def test_uniform_round_trip(self):
        spec = RandomPhaseSpec(2.0, 4, UniformDensity(1.25))
        back = decode_phase_spec(json.loads(json.dumps(encode_phase_spec(spec))))
        assert isinstance(back.density, UniformDensity)
        assert back.density.half_width == 1.25

    def test_custom_round_trip(self):
        dens = TabulatedDensity(
            np.array([-1.0, 0.0, 1.0]), np.array([0.25, 0.5, 0.25]), np.ones(3)
        )
        spec = RandomPhaseSpec(1.0, 4, dens)
        back = decode_phase_spec(json.loads(json.dumps(encode_phase_spec(spec))))
        assert isinstance(back.density, TabulatedDensity)
        assert np.array_equal(back.density.points, dens.points)
        assert np.array_equal(back.density.values, dens.values)

    @pytest.mark.parametrize(
        "density",
        [
            GaussianDensity(0.7),
            UniformDensity(1.25),
            TabulatedDensity(np.array([-1.0, 0.0, 1.0]), np.array([0.25, 0.5, 0.25]), np.ones(3)),
        ],
        ids=["gaussian", "uniform", "custom"],
    )
    def test_density_families_round_trip_to_the_same_json(self, density):
        text = dumps(encode_phase_spec(RandomPhaseSpec(1.5, 6, density)))
        back = decode_phase_spec(json.loads(text))
        assert type(back.density) is type(density)
        assert dumps(encode_phase_spec(back)) == text

    @pytest.mark.parametrize("family", ["cauchy", ["gaussian"], None])
    def test_unknown_density_family_is_named(self, family):
        with pytest.raises(ParameterError, match=re.escape(f"unknown density family {family!r}")):
            decode_phase_spec({"a": 1.0, "d": 4, "density": {"family": family}})

    @pytest.mark.parametrize(
        "density, key",
        [({"family": "gaussian"}, "std"), ({"family": "uniform"}, "half_width"),
         ({"family": "custom", "points": [0.0]}, "values")],
    )
    def test_missing_density_field_is_named(self, density, key):
        message = (f"channel family 'phase' key 'density': density family "
                   f"{density['family']!r} needs the key {key!r}")
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            decode_phase_spec({"a": 1.0, "d": 4, "density": density})

    def test_unknown_family_rejected(self):
        with pytest.raises(Exception):
            decode_phase_spec({"a": 1.0, "d": 4, "density": {"family": "cauchy"}})

    @pytest.mark.parametrize("key", ["a", "d"])
    def test_missing_key_names_family_and_key(self, key):
        data = {"a": 1.0, "d": 4}
        del data[key]
        with pytest.raises(ParameterError, match=f"'phase'.*'{key}'"):
            decode_phase_spec(data)

    def test_density_that_is_not_an_object_rejected(self):
        with pytest.raises(ParameterError, match="density family descriptor must be a JSON object"):
            decode_phase_spec({"a": 1.0, "d": 4, "density": 3})


class TestEnsembleAndRoofResult:
    def test_ensemble_round_trip(self):
        rho = random_density(3, 2, 11)
        m = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 2)))[0]
        ens = ensemble_from_mixing(rho, m)
        back = decode_ensemble(json.loads(json.dumps(encode_ensemble(ens))))
        assert np.array_equal(back.weights, ens.weights)
        for a, b in zip(back.states, ens.states):
            assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_roof_result_fields(self):
        res = ccooe(dephasing(0.3), random_density(2, 2, 13), RoofOptions(restarts=4, seed=1))
        data = json.loads(json.dumps(encode_roof_result(res)))
        assert data["upper_bound"] is True
        assert data["value_nats"] == res.value
        assert data["restarts_used"] == res.restarts_used
        assert isinstance(data["converged"], bool)
        assert set(data["ensemble"]) == {"weights", "states"}
        assert data["diagnostics"] == {
            "best_restart": res.best_restart,
            "gradient_norm": res.gradient_norm,
            "iterations": res.iterations,
            "restarts_agreeing": res.restarts_agreeing,
        }


class TestDumpsAndFiles:
    def test_floats_round_trip_exactly(self):
        payload = {"x": 1.0 / 3.0, "y": math.pi, "z": 2.2250738585072014e-308}
        text = dumps(payload)
        back = json.loads(text)
        assert back["x"] == payload["x"]
        assert back["y"] == payload["y"]
        assert back["z"] == payload["z"]

    def test_dumps_is_stable(self):
        a = dumps({"b": 1, "a": 2})
        b = dumps({"a": 2, "b": 1})
        assert a == b
        assert a.endswith("\n")

    def test_non_finite_floats_become_null(self):
        payload = {"nan": math.nan, "inf": [math.inf, -math.inf], "row": (1.5, np.float64("nan"))}

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        back = json.loads(dumps(payload), parse_constant=reject)
        assert back == {"nan": None, "inf": [None, None], "row": [1.5, None]}

    def test_write_and_read(self, tmp_path):
        target = tmp_path / "report.json"
        write_json(target, {"value": 0.1 + 0.2})
        assert read_json(target)["value"] == 0.1 + 0.2


class TestCsv:
    def test_column_order_is_pinned(self):
        assert ADDITIVITY_CSV_FIELDS == (
            "item",
            "lhs",
            "lhs_bound_dir",
            "rhs",
            "rhs_bound_dir",
            "margin",
            "verdict",
        )
        assert TRUNCATION_CSV_FIELDS == ("n", "weight", "H_n", "roof_n", "lambda_min")

    def test_csv_text_golden(self):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        assert csv_text(("a", "b"), rows) == "a,b\n1,x\n2,y\n"

    def test_additivity_rows_shape(self):
        from roofkit import margin_check, random_density as rd

        report = margin_check(
            "superadditivity", noiseless(2), noiseless(2), rd(4, 4, 17),
            RoofOptions(restarts=4, seed=0),
        )
        rows = additivity_csv_rows([report])
        assert list(rows[0]) == list(ADDITIVITY_CSV_FIELDS)
        assert rows[0]["item"] == 0
        assert rows[0]["verdict"] == "consistent"

    def test_truncation_rows_shape(self):
        from roofkit import SubsystemShape, truncation_experiment

        omega = random_density(16, 16, 19)
        trace = truncation_experiment(omega, SubsystemShape((2, 2, 2, 2)), ranks=(1, 2))
        rows = truncation_csv_rows(trace)
        assert list(rows[0]) == list(TRUNCATION_CSV_FIELDS)
        assert [r["n"] for r in rows] == [1, 2]
