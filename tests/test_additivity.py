"""Margin reports, truncation traces, probes, and batch scans."""

import math
import os

import numpy as np
import pytest

from roofkit import (
    DensityMatrix,
    DimensionError,
    ParameterError,
    RoofOptions,
    SubsystemShape,
    chi_subadditivity_margin,
    completely_depolarizing,
    complementary_transfer_probe,
    continuity_probe,
    corollary_bound_check,
    dephasing,
    measure_prepare,
    min_output_margin,
    noiseless,
    random_density,
    random_stinespring,
    scan_random,
    superadditivity_margin,
    tensor,
    truncation_experiment,
)

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
        report = superadditivity_margin(noiseless(2), noiseless(2), random_density(4, 4, 1), FAST)
        assert report.lhs == pytest.approx(0.0, abs=1e-9)
        assert report.rhs == pytest.approx(0.0, abs=1e-9)
        assert abs(report.margin) < 1e-9
        assert report.verdict == "consistent"

    def test_depolarizing_with_noiseless_on_bell(self):
        report = superadditivity_margin(
            completely_depolarizing(2), noiseless(2), BELL, FAST
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
            report = superadditivity_margin(eb, psi, omega, FAST)
            assert report.margin >= -1e-3
            assert report.verdict == "consistent"

    def test_margin_recomputes_from_sides(self):
        report = superadditivity_margin(
            dephasing(0.3), noiseless(2), random_density(4, 3, 65), FAST
        )
        assert abs(report.margin - (report.lhs - report.rhs)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            superadditivity_margin(noiseless(2), noiseless(2), random_density(6, 6, 2), FAST)


class TestChiSubadditivity:
    def test_margin_identity_against_roof_margin(self):
        # chi margin minus roof margin equals the negated entropy gap, exactly
        ch_a = dephasing(0.3)
        ch_b = random_stinespring(2, 2, 2, 71)
        for seed in range(3):
            omega = random_density(4, 4, (seed, 72))
            chi_rep = chi_subadditivity_margin(ch_a, ch_b, omega, FAST)
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
        chi_rep = chi_subadditivity_margin(ch_a, ch_b, omega, FAST)
        assert chi_rep.diagnostics["entropy_gap"] == pytest.approx(0.0, abs=1e-8)
        assert chi_rep.margin == pytest.approx(chi_rep.diagnostics["roof_margin"], abs=1e-8)

    def test_constant_left_factor_drops_out(self):
        ch_a = completely_depolarizing(2)
        ch_b = random_stinespring(2, 2, 2, 78)
        for seed in range(5):
            omega = random_density(4, 4, (seed, 79))
            report = chi_subadditivity_margin(ch_a, ch_b, omega, FAST)
            assert report.diagnostics["chi"]["left"] == pytest.approx(0.0, abs=1e-6)
            assert report.margin >= -5e-3

    def test_bound_directions_are_lower(self):
        report = chi_subadditivity_margin(
            dephasing(0.3), noiseless(2), random_density(4, 4, 80), FAST
        )
        assert report.lhs_bound == "lower" and report.rhs_bound == "lower"


class TestCorollaryBound:
    def test_noiseless_pair(self):
        report = corollary_bound_check(noiseless(2), noiseless(2), random_density(4, 4, 3), FAST)
        assert report.verdict == "consistent"
        assert abs(report.margin) < 1e-9

    def test_dephasing_with_noiseless(self):
        for seed in range(5):
            omega = random_density(4, 4, (seed, 81))
            report = corollary_bound_check(dephasing(0.4), noiseless(2), omega, FAST)
            assert report.margin >= -1e-3

    def test_min_output_version(self):
        report = min_output_margin(dephasing(0.3), random_stinespring(2, 2, 2, 83), FAST)
        assert report.margin >= -1e-3
        assert report.verdict == "consistent"


class TestVerdictSemantics:
    def test_negative_tolerance_forces_flagged(self):
        # margin 0 sits below -tolerance when tolerance < 0; after refinement
        # the verdict must escalate
        report = superadditivity_margin(
            noiseless(2), noiseless(2), random_density(4, 4, 5), FAST, tolerance=-1.0
        )
        assert report.verdict == "flagged"
        assert report.refined
        assert "before_refinement" in report.diagnostics

    def test_refine_disabled_is_inconclusive(self):
        report = superadditivity_margin(
            noiseless(2),
            noiseless(2),
            random_density(4, 4, 5),
            FAST,
            tolerance=-1.0,
            refine=False,
        )
        assert report.verdict == "inconclusive"
        assert not report.refined

    def test_report_round_trips_to_dict(self):
        report = superadditivity_margin(
            noiseless(2), noiseless(2), random_density(4, 4, 6), FAST
        )
        data = report.to_dict()
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

    def test_rows_expose_plot_columns(self):
        omega = random_density(16, 16, 95)
        trace = truncation_experiment(omega, self.SHAPE, ranks=(1, 2))
        row = trace.rows()[0]
        assert {"rank", "weight", "output_entropy", "roof_value", "residual_min_eig"} <= set(row)


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


class TestComplementaryTransfer:
    def test_noiseless_pair_trivial(self):
        probe = complementary_transfer_probe(noiseless(2), noiseless(2), samples=3, options=FAST)
        assert probe.max_agreement_dev <= 5e-3
        assert probe.flagged == 0

    def test_dephasing_roof_agreement(self):
        probe = complementary_transfer_probe(
            dephasing(0.25), random_stinespring(2, 2, 2, 111), samples=5, options=FAST
        )
        assert probe.max_agreement_dev <= 5e-3
        for row in probe.rows:
            assert row.margin >= -5e-3
            assert row.margin_complement >= -5e-3


class TestScanRandom:
    NOISELESS = {"family": "noiseless", "dim": 2}

    def test_empty_batch(self):
        result = scan_random(self.NOISELESS, self.NOISELESS, samples=0)
        assert result.reports == []
        assert math.isnan(result.min_margin)
        assert result.flagged == 0

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
        fam = {"family": "random", "dim": 2, "env_dim": 2}
        a = scan_random(fam, self.NOISELESS, samples=3, seed=9, options=FAST)
        b = scan_random(fam, self.NOISELESS, samples=3, seed=9, options=FAST)
        assert [r.to_dict() for r in a.reports] == [r.to_dict() for r in b.reports]

    def test_thread_cap_does_not_change_results(self, monkeypatch):
        fam = {"family": "dephasing", "q": 0.3}
        serial = scan_random(fam, self.NOISELESS, samples=3, seed=2, options=FAST)
        monkeypatch.setenv("ROOFKIT_THREADS", "2")
        threaded = scan_random(fam, self.NOISELESS, samples=3, seed=2, options=FAST)
        assert [r.to_dict() for r in serial.reports] == [r.to_dict() for r in threaded.reports]

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
        with pytest.raises(ParameterError):
            scan_random(self.NOISELESS, self.NOISELESS, samples=1, check="mystery")


def test_env_thread_cap_is_not_sticky():
    # the env var is read per call, never cached at import time
    assert "ROOFKIT_THREADS" not in os.environ


def test_checks_share_one_trio():
    phi, psi = dephasing(0.3), random_stinespring(2, 2, 2, 93)
    omega = random_density(4, 4, 94)
    reports = [
        check(phi, psi, omega, FAST, refine=False)
        for check in (superadditivity_margin, chi_subadditivity_margin, corollary_bound_check)
    ]
    keys = ("roof_joint", "roof_left", "roof_right")
    trio = [reports[0].diagnostics[k] for k in keys]
    for report in reports:
        assert [report.diagnostics[k] for k in keys] == trio
        assert report.margin == report.lhs - report.rhs
    corollary = reports[2]
    assert (corollary.lhs_bound, corollary.rhs_bound) == ("upper", "upper")
    assert corollary.lhs == trio[0] and corollary.rhs == max(trio[1], trio[2])
