"""Margin reports, truncation traces, probes, and batch scans."""

import math
from dataclasses import asdict

import numpy as np
import pytest

import oracles
from roofkit import (
    DensityMatrix,
    DimensionError,
    GaussianDensity,
    ParameterError,
    RandomPhaseSpec,
    RoofOptions,
    SubsystemShape,
    TabulatedDensity,
    UniformDensity,
    channel_from_family,
    completely_depolarizing,
    complementary,
    continuity_probe,
    dephasing,
    margin_check,
    measure_prepare,
    min_output_margin,
    noiseless,
    random_density,
    random_phase_channel,
    random_stinespring,
    rng_for,
    scan_random,
    tensor,
    truncation_experiment,
)
from roofkit.additivity import TRIO_KINDS
from roofkit.serialize import decode_phase_spec

FAST = RoofOptions(restarts=8, seed=0)

BELL = DensityMatrix(
    np.array(
        [
            [0.5, 0.0, 0.0, 0.5],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.5],
        ]
    )
)


class TestSuperadditivity:
    def test_noiseless_pair_has_zero_margin(self):
        omega = random_density(4, 4, 1)
        report = margin_check("superadditivity", noiseless(2), noiseless(2), omega, FAST)
        assert report.lhs == pytest.approx(0.0, abs=1e-9)
        assert report.rhs == pytest.approx(0.0, abs=1e-9)
        assert abs(report.margin) < 1e-9
        assert report.verdict == "consistent"

    def test_depolarizing_with_noiseless_on_bell(self):
        report = margin_check(
            "superadditivity", completely_depolarizing(2), noiseless(2), BELL, FAST
        )
        assert report.lhs == pytest.approx(2.0 * math.log(2.0), abs=1e-8)
        assert report.rhs == pytest.approx(math.log(2.0), abs=1e-8)
        assert report.margin == pytest.approx(math.log(2.0), abs=1e-8)
        assert report.lhs_bound == "upper" and report.rhs_bound == "upper"

    def test_entanglement_breaking_left_factor(self):
        povm = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        outs = [random_density(2, 1, 61), random_density(2, 1, 62)]
        eb = measure_prepare(povm, outs)
        psi = random_stinespring(2, 2, 2, 63)
        for seed in range(5):
            omega = random_density(4, 4, (seed, 64))
            report = margin_check("superadditivity", eb, psi, omega, FAST)
            assert report.margin >= -1e-3
            assert report.verdict == "consistent"

    def test_margin_recomputes_from_sides(self):
        report = margin_check(
            "superadditivity", dephasing(0.3), noiseless(2), random_density(4, 3, 65), FAST
        )
        assert abs(report.margin - (report.lhs - report.rhs)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            margin_check(
                "superadditivity", noiseless(2), noiseless(2), random_density(6, 6, 2), FAST
            )


class TestChiSubadditivity:
    def test_margin_identity_against_roof_margin(self):
        # chi margin minus roof margin equals the negated entropy gap, exactly
        ch_a = dephasing(0.3)
        ch_b = random_stinespring(2, 2, 2, 71)
        for seed in range(3):
            omega = random_density(4, 4, (seed, 72))
            chi_rep = margin_check("chi-subadditivity", ch_a, ch_b, omega, FAST)
            gap = chi_rep.diagnostics["entropy_gap"]
            roof_margin = chi_rep.diagnostics["roof_margin"]
            assert chi_rep.margin == pytest.approx(roof_margin - gap, abs=1e-9)

    def test_product_state_margins_coincide(self):
        # on a product state the entropy gap vanishes, so both margins agree
        ch_a = dephasing(0.25)
        ch_b = random_stinespring(2, 2, 2, 74)
        a = random_density(2, 2, 75)
        b = random_density(2, 2, 76)
        omega = DensityMatrix(tensor(a.entries, b.entries))
        chi_rep = margin_check("chi-subadditivity", ch_a, ch_b, omega, FAST)
        assert chi_rep.diagnostics["entropy_gap"] == pytest.approx(0.0, abs=1e-8)
        assert chi_rep.margin == pytest.approx(chi_rep.diagnostics["roof_margin"], abs=1e-8)

    def test_constant_left_factor_drops_out(self):
        ch_a = completely_depolarizing(2)
        ch_b = random_stinespring(2, 2, 2, 78)
        for seed in range(5):
            omega = random_density(4, 4, (seed, 79))
            report = margin_check("chi-subadditivity", ch_a, ch_b, omega, FAST)
            assert report.diagnostics["chi"]["left"] == pytest.approx(0.0, abs=1e-6)
            assert report.margin >= -5e-3

    def test_bound_directions_are_lower(self):
        report = margin_check(
            "chi-subadditivity", dephasing(0.3), noiseless(2), random_density(4, 4, 80), FAST
        )
        assert report.lhs_bound == "lower" and report.rhs_bound == "lower"


class TestCorollaryBound:
    def test_noiseless_pair(self):
        omega = random_density(4, 4, 3)
        report = margin_check("corollary-max", noiseless(2), noiseless(2), omega, FAST)
        assert report.verdict == "consistent"
        assert abs(report.margin) < 1e-9

    def test_dephasing_with_noiseless(self):
        for seed in range(5):
            omega = random_density(4, 4, (seed, 81))
            report = margin_check("corollary-max", dephasing(0.4), noiseless(2), omega, FAST)
            assert report.margin >= -1e-3

    def test_min_output_version(self):
        report = min_output_margin(dephasing(0.3), random_stinespring(2, 2, 2, 83), FAST)
        assert report.margin >= -1e-3
        assert report.verdict == "consistent"


class TestVerdictSemantics:
    def test_negative_tolerance_forces_flagged(self):
        # margin 0 sits below -tolerance when tolerance < 0; after refinement
        # the verdict must escalate
        omega = random_density(4, 4, 5)
        report = margin_check(
            "superadditivity", noiseless(2), noiseless(2), omega, FAST, tolerance=-1.0
        )
        assert report.verdict == "flagged"
        assert report.refined
        assert "before_refinement" in report.diagnostics

    def test_report_round_trips_to_dict(self):
        report = margin_check(
            "superadditivity", noiseless(2), noiseless(2), random_density(4, 4, 6), FAST
        )
        data = asdict(report)
        assert data["kind"] == report.kind
        assert data["margin"] == report.margin
        assert data["verdict"] == "consistent"


class TestTruncation:
    SHAPE = SubsystemShape((2, 2, 2, 2))

    def test_full_rank_reproduces_state(self):
        omega = random_density(16, 16, 91)
        trace = truncation_experiment(omega, self.SHAPE, ranks=(2,))
        step = trace.steps[0]
        assert step.weight == pytest.approx(1.0, abs=1e-12)
        assert step.residual_min_eig >= -1e-12
        assert abs(step.output_entropy - trace.full_output_entropy) < 1e-10
        assert trace.final_entropy_gap < 1e-10

    def test_rank_ladder_monotone(self):
        omega = random_density(16, 16, 92)
        trace = truncation_experiment(omega, self.SHAPE, ranks=(1, 2))
        weights = [s.weight for s in trace.steps if not s.skipped]
        assert all(b >= a - 1e-12 for a, b in zip(weights, weights[1:]))
        assert trace.weights_monotone
        assert weights[-1] == pytest.approx(1.0, abs=1e-12)
        assert trace.final_entropy_gap < 1e-10

    def test_entropy_bound_holds_each_step(self):
        for seed in range(5):
            omega = random_density(16, 8, (seed, 93))
            trace = truncation_experiment(omega, self.SHAPE, ranks=(1, 2))
            assert trace.residual_ok
            assert trace.entropy_bound_ok
            for step in trace.steps:
                if step.skipped:
                    continue
                assert step.residual_min_eig >= -1e-9
                assert step.output_entropy <= step.entropy_bound + 1e-8

    def test_rank_validation(self):
        omega = random_density(16, 16, 94)
        with pytest.raises(ParameterError):
            truncation_experiment(omega, self.SHAPE, ranks=(2, 1))
        with pytest.raises(ParameterError):
            truncation_experiment(omega, self.SHAPE, ranks=(3,))
        with pytest.raises(ParameterError, match="strictly ascending"):
            truncation_experiment(omega, self.SHAPE, ranks=(1, 1, 2))
        # int() ran rungs 1 and 2 for these
        for ranks in [(1.5, 2), (True, 2)]:
            with pytest.raises(ParameterError, match=r"rank must be an integer in \[1, 2\]"):
                truncation_experiment(omega, self.SHAPE, ranks=ranks)

    def test_rows_expose_plot_columns(self):
        omega = random_density(16, 16, 95)
        trace = truncation_experiment(omega, self.SHAPE, ranks=(1, 2))
        row = asdict(trace)["steps"][0]
        assert {"rank", "weight", "output_entropy", "roof_value", "residual_min_eig"} <= set(row)

    def test_rungs_report_whether_their_roof_converged(self):
        # the default RoofOptions(restarts=4, max_iterations=250) stop the
        # rank-2 rung's roof at the iteration cap; the pure rank-1 rung converges
        omega = random_density(16, 16, 95)
        trace = truncation_experiment(omega, self.SHAPE, ranks=(1, 2))
        assert [s.converged for s in trace.steps] == [True, False]
        assert asdict(trace)["steps"][1]["converged"] is False


class TestContinuityProbe:
    def test_constant_schedule_is_silent(self):
        rho0 = random_density(2, 2, 101)
        probe = continuity_probe(
            dephasing(0.25), rho0, steps=6, schedule=lambda n: rho0, options=FAST
        )
        for row in probe.rows:
            assert row.distance == pytest.approx(0.0, abs=1e-12)
            assert row.entropy_dev == pytest.approx(0.0, abs=1e-12)
            assert row.roof_dev == pytest.approx(0.0, abs=1e-9)

    def test_schedule_of_another_dimension_is_refused(self):
        # a qutrit sequence towards a qubit rho0 is a typed error, not numpy's broadcast error
        with pytest.raises(DimensionError, match="state dimension 3 != channel input 2"):
            continuity_probe(
                dephasing(0.25), random_density(2, 2, 101), steps=2,
                schedule=lambda n: random_density(3, 3, n), options=FAST,
            )

    def test_noiseless_roof_column_vanishes(self):
        probe = continuity_probe(noiseless(2), random_density(2, 2, 102), steps=6, options=FAST)
        for row in probe.rows:
            assert row.roof_dev <= 1e-9

    def test_dephasing_sequence_converges(self):
        rho0 = DensityMatrix(np.eye(2) / 2)
        probe = continuity_probe(dephasing(0.25), rho0, steps=16, seed=0, options=FAST)
        assert probe.entropy_trend_ok
        assert probe.roof_trend_ok
        assert probe.final_entropy_dev <= 5e-3
        assert probe.final_roof_dev <= 5e-3


class TestComplementMargins:
    # env = out in both channels, and env < out in both
    PAIRS = {
        "dephasing-random222": (dephasing(0.25), random_stinespring(2, 2, 2, 111)),
        "noiseless-random232": (noiseless(2), random_stinespring(2, 3, 2, 5)),
    }

    @pytest.mark.parametrize("pair", PAIRS)
    def test_complements_give_the_direct_margin(self, pair):
        # a pure input's output and its complementary output share their nonzero
        # spectrum, so the pair and its complements have one roof at every state
        phi, psi = self.PAIRS[pair]
        phi_hat, psi_hat = complementary(phi), complementary(psi)
        for i in range(2):
            omega = random_density(4, 4, (7, i))
            direct = margin_check("superadditivity", phi, psi, omega, FAST)
            mirrored = margin_check("superadditivity", phi_hat, psi_hat, omega, FAST)
            assert mirrored.margin == pytest.approx(direct.margin, abs=1e-12)
            assert mirrored.diagnostics["roof_left"] == pytest.approx(
                direct.diagnostics["roof_left"], abs=1e-12
            )

    def test_noiseless_complements_have_zero_margin(self):
        # the complement of a noiseless channel has a one-dimensional output,
        # so all three roofs vanish, as they do for the noiseless pair itself
        hat = complementary(noiseless(2))
        assert hat.out_dim == 1
        report = margin_check("superadditivity", hat, hat, random_density(4, 4, 3), FAST)
        for key in ("roof_joint", "roof_left", "roof_right"):
            assert report.diagnostics[key] == pytest.approx(0.0, abs=1e-9)
        assert abs(report.margin) < 1e-9
        assert report.verdict == "consistent"

    def test_dephasing_pair_is_consistent_on_both_sides(self):
        phi, psi = self.PAIRS["dephasing-random222"]
        phi_hat, psi_hat = complementary(phi), complementary(psi)
        for i in range(5):
            omega = random_density(4, 4, (8, i))
            direct = margin_check("superadditivity", phi, psi, omega, FAST)
            mirrored = margin_check("superadditivity", phi_hat, psi_hat, omega, FAST)
            assert abs(mirrored.margin - direct.margin) <= 5e-3
            assert direct.margin >= -5e-3 and mirrored.margin >= -5e-3
            assert direct.verdict == mirrored.verdict == "consistent"


class TestScanRandom:
    NOISELESS = {"family": "noiseless", "dim": 2}

    def test_empty_batch(self):
        result = scan_random(self.NOISELESS, self.NOISELESS, samples=0)
        assert result.reports == []
        assert math.isnan(result.min_margin)
        assert result.flagged == 0

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"check": "bogus"}, "unknown check 'bogus'"),
         ({"tolerance": math.nan}, r"tolerance must lie in \(-inf, inf\)")],
    )
    def test_empty_batch_still_checks_check_and_tolerance(self, kwargs, message):
        # an empty batch used to return before reading either
        with pytest.raises(ParameterError, match=message):
            scan_random(self.NOISELESS, self.NOISELESS, samples=0, **kwargs)

    def test_negative_batch_rejected(self):
        with pytest.raises(ParameterError):
            scan_random(self.NOISELESS, self.NOISELESS, samples=-1)

    def test_noiseless_margins_vanish(self):
        result = scan_random(self.NOISELESS, self.NOISELESS, samples=4, options=FAST)
        assert len(result.reports) == 4
        for report in result.reports:
            assert abs(report.margin) < 1e-9
            assert report.verdict == "consistent"
        assert result.flagged == 0
        assert result.replay == []

    def test_deterministic_given_seed(self):
        fam = {"family": "random", "dim": 2, "env": 2}
        a = scan_random(fam, self.NOISELESS, samples=3, seed=9, options=FAST)
        b = scan_random(fam, self.NOISELESS, samples=3, seed=9, options=FAST)
        assert [asdict(r) for r in a.reports] == [asdict(r) for r in b.reports]

    def test_flagged_items_serialized_for_replay(self):
        result = scan_random(
            self.NOISELESS, self.NOISELESS, samples=2, options=FAST, tolerance=-1.0
        )
        assert result.flagged == 2
        assert len(result.replay) == 2
        entry = result.replay[0]
        assert "report" in entry and "state_eigenvalues" in entry

    def test_chi_check_routing(self):
        result = scan_random(
            self.NOISELESS, self.NOISELESS, samples=2, options=FAST, check="chi-subadditivity"
        )
        for report in result.reports:
            assert report.kind == "chi-subadditivity"

    def test_unknown_family_and_check(self):
        with pytest.raises(ParameterError):
            scan_random({"family": "mystery"}, self.NOISELESS, samples=1)
        # a misspelt key would otherwise fall back to its default silently
        with pytest.raises(ParameterError, match="'random'.*'env_dim'"):
            scan_random({"family": "random", "dim": 2, "env_dim": 3}, self.NOISELESS, samples=1)
        with pytest.raises(ParameterError, match="'phase'.*'std'"):
            channel_from_family({"family": "phase", "a": 1.0, "d": 4, "std": 1.0}, rng_for(0))
        phase = {"family": "phase", "a": 1.0, "d": 4,
                 "density": {"family": "uniform", "half_width": 1.0}}
        assert channel_from_family(phase, rng_for(0)).in_dim == 4
        with pytest.raises(ParameterError):
            scan_random(self.NOISELESS, self.NOISELESS, samples=1, check="mystery")

    @pytest.mark.parametrize(
        "family, key, kind",
        [
            ({"family": "noiseless", "dim": True}, "dim", "int"),
            ({"family": "noiseless", "dim": "2"}, "dim", "int"),
            ({"family": "measure_prepare", "dim": 2, "outcomes": 2.5}, "outcomes", "int"),
            ({"family": "phase", "a": 1.0, "d": 4, "density": 3}, "density", "dict"),
            ({"family": "phase", "a": 1.0, "d": 4.5}, "d", "int"),
            ({"family": "phase", "a": True, "d": 4}, "a", "float"),
            ({"family": "phase", "a": 1.0, "d": 4,
              "density": {"family": "uniform", "half_width": "1"}}, "density", "float"),
        ],
    )
    def test_descriptor_values_keep_their_types(self, family, key, kind):
        # int() would silently turn True into 1, "2" into 2 and 2.5 into 2
        with pytest.raises(ParameterError, match=f"'{family['family']}' key '{key}'.*{kind}"):
            channel_from_family(family, rng_for(0))

    def test_integral_and_int_values_still_build(self):
        assert channel_from_family({"family": "noiseless", "dim": 2.0}, rng_for(0)).in_dim == 2
        assert channel_from_family({"family": "dephasing", "q": 1}, rng_for(0)).in_dim == 2


def _drawn_measure_prepare(dim, outcomes, rng):
    povm, outputs = oracles.measure_prepare_draws(dim, outcomes, rng)
    return measure_prepare(povm, [DensityMatrix(m) for m in outputs])


# descriptors that leave keys to their defaults or give ints as integral
# floats, beside the constructor call each one stands for
FAMILY_BUILDS = {
    "noiseless-float-dim": ({"family": "noiseless", "dim": 3.0}, lambda rng: noiseless(3)),
    "dephasing-default": ({"family": "dephasing"}, lambda rng: dephasing(0.25)),
    "dephasing-int-q": ({"family": "dephasing", "q": 1}, lambda rng: dephasing(1.0)),
    "depolarizing-float-dim": (
        {"family": "depolarizing", "dim": 2.0}, lambda rng: completely_depolarizing(2)
    ),
    "random-defaults": ({"family": "random", "dim": 2.0}, lambda rng: random_stinespring(2, 2, 2, rng)),
    "random-float-out": (
        {"family": "random", "dim": 2, "out": 3.0}, lambda rng: random_stinespring(2, 3, 2, rng)
    ),
    "measure-prepare-default": (
        {"family": "measure_prepare", "dim": 3}, lambda rng: _drawn_measure_prepare(3, 3, rng)
    ),
    "measure-prepare-float-keys": (
        {"family": "measure_prepare", "dim": 2.0, "outcomes": 3.0},
        lambda rng: _drawn_measure_prepare(2, 3, rng),
    ),
    "phase-default-density": (
        {"family": "phase", "a": 1, "d": 4.0},
        lambda rng: random_phase_channel(RandomPhaseSpec(1.0, 4, GaussianDensity(1.0))),
    ),
    "phase-gaussian-int-std": (
        {"family": "phase", "a": 1.5, "d": 6, "density": {"family": "gaussian", "std": 2}},
        lambda rng: random_phase_channel(RandomPhaseSpec(1.5, 6, GaussianDensity(2.0))),
    ),
    "phase-uniform": (
        {"family": "phase", "a": 2.0, "d": 4, "density": {"family": "uniform", "half_width": 1.25}},
        lambda rng: random_phase_channel(RandomPhaseSpec(2.0, 4, UniformDensity(1.25))),
    ),
    "phase-custom-int-lists": (
        {"family": "phase", "a": 1.0, "d": 4, "density": {
            "family": "custom", "points": [-1, 0, 1], "values": [0.25, 0.5, 0.25], "weights": [1, 1, 1]
        }},
        lambda rng: random_phase_channel(RandomPhaseSpec(1.0, 4, TabulatedDensity(
            np.array([-1.0, 0.0, 1.0]), np.array([0.25, 0.5, 0.25]), np.ones(3)
        ))),
    ),
}


class TestFamilyTable:
    @pytest.mark.parametrize("dim, outcomes", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_measure_prepare_draws_like_the_per_outcome_loop(self, dim, outcomes):
        # one stacked draw reads the stream in the loop's order, so every
        # channel keeps the loop's bytes
        family = {"family": "measure_prepare", "dim": dim, "outcomes": outcomes}
        for seed in range(5):
            built = channel_from_family(family, rng_for(seed, 3)).kraus
            expected = _drawn_measure_prepare(dim, outcomes, rng_for(seed, 3)).kraus
            assert built.shape == expected.shape
            assert built.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("case", sorted(FAMILY_BUILDS))
    def test_defaults_and_integral_floats_build_the_constructor_channel(self, case):
        family, construct = FAMILY_BUILDS[case]
        for seed in range(5):
            built = channel_from_family(family, rng_for(seed, 3))
            expected = construct(rng_for(seed, 3))
            assert built.label == expected.label
            assert built.kraus.shape == expected.kraus.shape
            assert built.kraus.tobytes() == expected.kraus.tobytes()
        if family["family"] == "phase":
            # a phase-channel --spec reads the same row
            spec = {k: v for k, v in family.items() if k != "family"}
            from_spec = random_phase_channel(decode_phase_spec(spec))
            assert from_spec.label == expected.label
            assert from_spec.kraus.tobytes() == expected.kraus.tobytes()


def test_checks_share_one_trio():
    phi, psi = dephasing(0.3), random_stinespring(2, 2, 2, 93)
    omega = random_density(4, 4, 94)
    reports = {kind: margin_check(kind, phi, psi, omega, FAST) for kind in TRIO_KINDS}
    keys = ("roof_joint", "roof_left", "roof_right")
    trio = [reports["superadditivity"].diagnostics[k] for k in keys]
    for kind, report in reports.items():
        assert report.kind == kind
        assert [report.diagnostics[k] for k in keys] == trio
        assert report.margin == report.lhs - report.rhs
    corollary = reports["corollary-max"]
    assert (corollary.lhs_bound, corollary.rhs_bound) == ("upper", "upper")
    assert corollary.lhs == trio[0] and corollary.rhs == max(trio[1], trio[2])


def test_margin_check_refuses_an_unknown_kind_before_any_roof(monkeypatch):
    from roofkit import additivity

    def descend(*args):
        raise AssertionError("a roof descended for an unknown kind")

    monkeypatch.setattr(additivity, "ccooe", descend)
    with pytest.raises(ParameterError, match=r"unknown check 'bogus'; choose from \['chi-"):
        margin_check("bogus", dephasing(0.3), noiseless(2), random_density(4, 4, 95), FAST)
